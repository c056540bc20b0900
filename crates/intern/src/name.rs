//! [`Name`]: a key that renders as text without always being interned.
//!
//! A plain name is an interned string. A structural name is an interned
//! *stem* followed by a numeric *tail* (`{seed}` or `{seed}-{index}`) that
//! is never formatted into the arena: the stems are a bounded universe
//! (one per stage, or per profile and input), the tails are not. Every
//! trait behaves as it would on the rendered string, so the two forms mix
//! freely in one map or one ordered set.

use crate::{str_hash_from, Istr};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// `shape` of a plain name; its `tail` holds the text's slab id.
const PLAIN: u32 = u32::MAX;
/// `shape` of a structural name whose tail is one number.
const ONE: u32 = u32::MAX - 1;

/// A cache key or object path: an interned string, or an interned stem
/// plus a numeric tail.
///
/// 32 bytes, `Copy`. Every trait follows the rendered text:
///
/// - `Eq` is string equality. Two plain names compare slab ids and two
///   names on one stem compare tails; any other pair with equal hashes
///   compares renderings, so a structural name equals the plain name of
///   its text.
/// - `Hash` feeds the FNV-1a of the rendering, computed once when the
///   name is made (for a structural name, by continuing the stem's FNV
///   state over the tail's digits).
/// - `Ord` is the byte order of the renderings, and never allocates.
/// - `Display` writes the rendering.
#[derive(Clone, Copy)]
pub struct Name {
    /// Plain: the whole interned text. Structural: the interned stem.
    text: &'static str,
    /// Plain: the text's slab id. Structural: the first tail number.
    tail: u64,
    /// FNV-1a of the rendering (`Istr::shash` of the same text).
    shash: u32,
    /// [`PLAIN`], [`ONE`], or the second tail number.
    shape: u32,
}

/// The decimal rendering of a tail, right-aligned in a stack buffer: at
/// most 20 digits, `-` and 10 digits.
struct Digits {
    buf: [u8; 31],
    start: usize,
}

impl Digits {
    fn of(name: &Name) -> Digits {
        let mut d = Digits {
            buf: [0; 31],
            start: 31,
        };
        match name.shape {
            PLAIN => {}
            ONE => d.push_num(name.tail),
            index => {
                d.push_num(u64::from(index));
                d.push(b'-');
                d.push_num(name.tail);
            }
        }
        d
    }

    fn push(&mut self, b: u8) {
        self.start -= 1;
        self.buf[self.start] = b;
    }

    fn push_num(&mut self, mut n: u64) {
        loop {
            self.push(b'0' + (n % 10) as u8);
            n /= 10;
            if n == 0 {
                break;
            }
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.bytes()).expect("ASCII digits and `-`")
    }
}

/// Byte order of the decimal renderings of `a` and `b`, without rendering
/// them: equal widths compare as numbers, and otherwise the longer one's
/// leading digits meet the shorter, which sorts first when it is their
/// prefix.
fn cmp_decimal(a: u64, b: u64) -> Ordering {
    let width = |n: u64| n.checked_ilog10().map_or(1, |d| d + 1);
    let (wa, wb) = (width(a), width(b));
    match wa.cmp(&wb) {
        Ordering::Equal => a.cmp(&b),
        Ordering::Less => a.cmp(&(b / 10u64.pow(wb - wa))).then(Ordering::Less),
        Ordering::Greater => (a / 10u64.pow(wa - wb)).cmp(&b).then(Ordering::Greater),
    }
}

/// Byte order of two texts, each the concatenation of two pieces.
fn cmp_pieces(mut a: [&[u8]; 2], mut b: [&[u8]; 2]) -> Ordering {
    let (mut i, mut j) = (0, 0);
    loop {
        while i < 2 && a[i].is_empty() {
            i += 1;
        }
        while j < 2 && b[j].is_empty() {
            j += 1;
        }
        match (i == 2, j == 2) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        let n = a[i].len().min(b[j].len());
        match a[i][..n].cmp(&b[j][..n]) {
            Ordering::Equal => {
                a[i] = &a[i][n..];
                b[j] = &b[j][n..];
            }
            unequal => return unequal,
        }
    }
}

impl Name {
    /// Interns `s` and names it.
    pub fn new(s: &str) -> Name {
        Name::from(Istr::intern(s))
    }

    /// Formats `args`, interns the text and names it (see
    /// [`Istr::intern_fmt`]).
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Name {
        Name::from(Istr::intern_fmt(args))
    }

    /// The name `{stem}{seed}`, or `{stem}{seed}-{index}` — made without
    /// formatting, interning or allocating.
    ///
    /// # Panics
    ///
    /// Panics if `index` is `u32::MAX - 1` or above.
    pub fn with_tail(stem: Istr, seed: u64, index: Option<u32>) -> Name {
        let shape = match index {
            None => ONE,
            Some(i) => {
                assert!(i < ONE, "tail index {i} is out of range");
                i
            }
        };
        let mut name = Name {
            text: stem.as_str(),
            tail: seed,
            shash: 0,
            shape,
        };
        name.shash = str_hash_from(stem.shash, Digits::of(&name).bytes());
        name
    }

    /// The interned part of the rendering: the whole text of a plain
    /// name, the stem of a structural one.
    #[inline]
    pub fn text(&self) -> &'static str {
        self.text
    }

    /// The interned handle of a plain name; `None` for a structural one.
    pub fn as_istr(&self) -> Option<Istr> {
        (self.shape == PLAIN).then(|| Istr::from_parts(self.tail as u32, self.shash, self.text))
    }

    /// The rendering from byte `from` on. `from` must lie inside
    /// [`Name::text`], on a character boundary.
    pub fn suffix(self, from: usize) -> Suffix {
        assert!(
            self.text.is_char_boundary(from),
            "suffix start {from} is not inside {:?} on a character boundary",
            self.text
        );
        Suffix {
            name: self,
            from: u32::try_from(from).expect("name longer than 4 GB"),
        }
    }

    /// Byte order of the tails of two names on one stem. A seed whose
    /// rendering is a proper prefix of the other's is followed by the end
    /// or a `-`, both below any digit, so the seeds decide unless equal.
    fn cmp_tails(&self, other: &Name) -> Ordering {
        cmp_decimal(self.tail, other.tail).then_with(|| match (self.shape, other.shape) {
            (ONE, ONE) => Ordering::Equal,
            (ONE, _) => Ordering::Less,
            (_, ONE) => Ordering::Greater,
            (i, j) => cmp_decimal(u64::from(i), u64::from(j)),
        })
    }

    fn is_plain(&self) -> bool {
        self.shape == PLAIN
    }

    /// Same stem, or same text: the interned pointer-and-length pair.
    fn same_text(&self, other: &Name) -> bool {
        std::ptr::eq(self.text, other.text)
    }
}

impl From<Istr> for Name {
    fn from(s: Istr) -> Name {
        Name {
            text: s.as_str(),
            tail: u64::from(s.id()),
            shash: s.shash,
            shape: PLAIN,
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        if self.shash != other.shash {
            return false;
        }
        match (self.is_plain(), other.is_plain()) {
            (true, true) => self.tail == other.tail,
            (false, false) if self.same_text(other) => {
                self.tail == other.tail && self.shape == other.shape
            }
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.suffix(0) == *other
    }
}

impl Hash for Name {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `Istr`'s hash of the same text: map layouts do not depend on
        // which form a name takes.
        state.write_u32(self.shash);
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        match (self.is_plain(), other.is_plain()) {
            (true, true) if self.tail == other.tail => Ordering::Equal,
            (true, true) => self.text.cmp(other.text),
            (false, false) if self.same_text(other) => self.cmp_tails(other),
            _ => {
                // The interned texts decide unless one is a prefix of the
                // other; only then are the digits rendered.
                let (a, b) = (self.text.as_bytes(), other.text.as_bytes());
                let n = a.len().min(b.len());
                a[..n].cmp(&b[..n]).then_with(|| {
                    let (da, db) = (Digits::of(self), Digits::of(other));
                    cmp_pieces([&a[n..], da.bytes()], [&b[n..], db.bytes()])
                })
            }
        }
    }
}

impl PartialOrd for Name {
    #[inline]
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)?;
        f.write_str(Digits::of(self).as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

/// The rendering of a [`Name`] from a byte offset inside its interned
/// text on: an object id's key, behind its bucket. Compares and displays
/// as that text, without allocating.
#[derive(Clone, Copy)]
pub struct Suffix {
    name: Name,
    from: u32,
}

impl Suffix {
    fn head(&self) -> &'static str {
        &self.name.text[self.from as usize..]
    }
}

impl PartialEq for Suffix {
    fn eq(&self, other: &Suffix) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Suffix {}

impl PartialEq<&str> for Suffix {
    fn eq(&self, other: &&str) -> bool {
        other
            .strip_prefix(self.head())
            .is_some_and(|rest| rest.as_bytes() == Digits::of(&self.name).bytes())
    }
}

impl Ord for Suffix {
    fn cmp(&self, other: &Suffix) -> Ordering {
        let (a, b) = (Digits::of(&self.name), Digits::of(&other.name));
        cmp_pieces(
            [self.head().as_bytes(), a.bytes()],
            [other.head().as_bytes(), b.bytes()],
        )
    }
}

impl PartialOrd for Suffix {
    fn partial_cmp(&self, other: &Suffix) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Suffix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.head())?;
        f.write_str(Digits::of(&self.name).as_str())
    }
}

impl fmt::Debug for Suffix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}
