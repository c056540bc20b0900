//! Global string interner for the simulator's hot-path keys.
//!
//! Every object key, bucket name, tenant id, and function id that flows
//! through the data plane used to be an `Arc<str>`: cheap to clone, but
//! every map probe paid SipHash over the full string and every identity
//! check risked a byte-wise compare. [`Istr`] replaces that with a fat
//! *interned* handle: a `u32` slab id paired with a `&'static str` into
//! the interner's arena.
//!
//! Semantics are deliberately conservative so the swap is invisible to
//! the simulation:
//!
//! - **Eq goes through the id; Hash through a precomputed string hash** —
//!   both O(1), and with [`IdHashMap`] the hash is a single multiply
//!   instead of SipHash over the bytes. Hashing the id instead would be
//!   just as fast but would let racy id-assignment order leak into
//!   hash-map iteration order (and from there into float-sum order and
//!   ML tie-breaks), making parallel runs diverge from serial ones.
//! - **Ord compares the resolved strings** — every `BTreeMap`,
//!   `BTreeSet`, and `sort()` over keys orders exactly as it did with
//!   `Arc<str>`. This matters because slab ids are assigned in first-seen
//!   order, which is *not* deterministic across threads (parallel sims
//!   intern concurrently); id order must therefore never be observable.
//! - **Deref to `str`** — call sites that hash bytes or slice the key
//!   keep working unchanged on the resolved string.
//!
//! Interned strings are bump-allocated into leaked 1 MB chunks and live
//! for the process lifetime; nothing is ever un-interned. So only a
//! universe the workload definition bounds is interned: tenant, function,
//! bucket and input-object names, and output stems. A fresh output is a
//! [`Name`] made of an interned stem and a numeric tail that never enters
//! the arena — see DESIGN.md §17 for the table and the lifecycle
//! discussion.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, RwLock};

mod name;
pub use name::{Name, Suffix};

/// An interned, copyable string handle.
///
/// 24 bytes: `u32` slab id, a precomputed `u32` string hash, and the
/// canonical `&'static str` into the arena. Copy, so the hot path moves
/// ids instead of bumping `Arc` refcounts or cloning heap strings.
#[derive(Clone, Copy)]
pub struct Istr {
    id: u32,
    /// FNV-1a of the string bytes, computed once at intern time. `Hash`
    /// feeds *this* to the hasher rather than the slab id: ids are
    /// assigned in first-seen order, which varies with thread
    /// interleaving, and hash-map iteration order must not vary with it
    /// (parallel sims would diverge from serial ones). The string hash is
    /// a pure function of the contents, so map layouts are identical
    /// either way.
    shash: u32,
    s: &'static str,
}

/// FNV-1a over the string bytes — the deterministic hash identity of an
/// interned string.
fn str_hash(s: &str) -> u32 {
    str_hash_from(0x811c_9dc5, s.as_bytes())
}

/// FNV-1a continued from state `h` over `bytes`: the hash of a text from
/// the hash of its head, without reading the head again.
fn str_hash_from(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl Istr {
    /// Intern `s`, returning the canonical handle for its contents.
    ///
    /// Two calls with equal contents always return handles with equal
    /// ids, across threads.
    pub fn intern(s: &str) -> Istr {
        // Hashed once, outside the lock; both probes below reuse it.
        let hash = probe_hash(s);
        let table = table();
        // Fast path: already interned.
        let found = table.read().expect(POISONED).find(hash, s);
        if let Some(k) = found {
            return k;
        }
        // `Table::intern` probes again: another thread may have interned
        // it between the two locks.
        table.write().expect(POISONED).intern(hash, s)
    }

    /// Formats `args` and interns the result. The text goes through a
    /// per-thread scratch buffer, so a call whose result is already
    /// interned allocates nothing once the buffer has grown to fit.
    pub fn intern_fmt(args: fmt::Arguments<'_>) -> Istr {
        thread_local! {
            static SCRATCH: Cell<String> = const { Cell::new(String::new()) };
        }
        // Taken, not borrowed: a `Display` impl among `args` that interns
        // re-enters here and finds an empty buffer instead of a live borrow.
        let mut buf = SCRATCH.take();
        buf.clear();
        fmt::Write::write_fmt(&mut buf, args).expect("a Display impl returned an error");
        let k = Istr::intern(&buf);
        SCRATCH.set(buf);
        k
    }

    /// Reassembles a handle from the fields a plain [`Name`] keeps.
    fn from_parts(id: u32, shash: u32, s: &'static str) -> Istr {
        Istr { id, shash, s }
    }

    /// The slab id. Stable for the process lifetime, but **not**
    /// deterministic across runs — never let id order become observable.
    #[inline]
    pub fn id(self) -> u32 {
        self.id
    }

    /// The canonical resolved string.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.s
    }
}

impl Deref for Istr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.s
    }
}

impl AsRef<str> for Istr {
    #[inline]
    fn as_ref(&self) -> &str {
        self.s
    }
}

impl PartialEq for Istr {
    #[inline]
    fn eq(&self, other: &Istr) -> bool {
        self.id == other.id
    }
}

impl Eq for Istr {}

impl PartialEq<str> for Istr {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.s == other
    }
}

impl PartialEq<&str> for Istr {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.s == *other
    }
}

impl Hash for Istr {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The precomputed *string* hash, not the slab id: map layout and
        // therefore iteration order must be a function of contents only.
        state.write_u32(self.shash);
    }
}

// Ordering resolves through the string so that every ordered container
// behaves exactly as it did when keys were `Arc<str>`. Id order is
// first-seen order and varies run to run; it must stay unobservable.
impl Ord for Istr {
    #[inline]
    fn cmp(&self, other: &Istr) -> std::cmp::Ordering {
        if self.id == other.id {
            std::cmp::Ordering::Equal
        } else {
            self.s.cmp(other.s)
        }
    }
}

impl PartialOrd for Istr {
    #[inline]
    fn partial_cmp(&self, other: &Istr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.s)
    }
}

impl fmt::Debug for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.s, f)
    }
}

impl Default for Istr {
    fn default() -> Istr {
        Istr::intern("")
    }
}

impl From<&str> for Istr {
    fn from(s: &str) -> Istr {
        Istr::intern(s)
    }
}

impl From<String> for Istr {
    fn from(s: String) -> Istr {
        Istr::intern(&s)
    }
}

impl From<&String> for Istr {
    fn from(s: &String) -> Istr {
        Istr::intern(s)
    }
}

impl From<std::sync::Arc<str>> for Istr {
    fn from(s: std::sync::Arc<str>) -> Istr {
        Istr::intern(&s)
    }
}

impl From<Cow<'_, str>> for Istr {
    fn from(s: Cow<'_, str>) -> Istr {
        Istr::intern(&s)
    }
}

impl From<Istr> for String {
    fn from(s: Istr) -> String {
        s.as_str().to_owned()
    }
}

const POISONED: &str = "a thread panicked while holding the interner lock";

/// Slots the global table starts with, and the size of an arena chunk.
const INITIAL_SLOTS: usize = 1 << 12;
const CHUNK_BYTES: usize = 1 << 20;

/// The probe hash: one pass over the string a word at a time, computed once
/// per [`Istr::intern`] call and kept in the slot. It only places strings in
/// the table; it never reaches a handle (that is `shash`), so it may change
/// freely without moving any map layout.
fn probe_hash(s: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    // Multiply to 128 bits and fold the halves: every input bit reaches
    // the low bits the table masks with.
    fn fold(a: u64, b: u64) -> u64 {
        let m = u128::from(a) * u128::from(b);
        (m as u64) ^ ((m >> 64) as u64)
    }
    let bytes = s.as_bytes();
    // Seeded with the length, so the zero padding of the last word cannot
    // collide `"ab"` with `"ab\0"`.
    let mut h = (bytes.len() as u64 ^ K).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = fold(h ^ w, K);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = 0u64;
        for (i, &b) in rest.iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        h = fold(h ^ last, K);
    }
    fold(h, 0xbf58_476d_1ce4_e5b9)
}

/// One slot of the table: the probe hash beside the handle, so growth
/// re-places every entry without reading its string and a probe compares
/// strings only on a full 64-bit hash match.
#[derive(Clone, Copy)]
struct Slot {
    hash: u64,
    k: Option<Istr>,
}

/// Insert-only open-addressed table (linear probing, at most 3/4 full) over
/// a bump arena. Ids are handed out in first-seen order.
struct Table {
    /// Power-of-two length.
    slots: Vec<Slot>,
    len: usize,
    /// Unused tail of the current arena chunk.
    rest: &'static mut [u8],
    chunk_bytes: usize,
}

impl Table {
    fn new(slots: usize, chunk_bytes: usize) -> Table {
        assert!(slots.is_power_of_two());
        Table {
            slots: vec![Slot { hash: 0, k: None }; slots],
            len: 0,
            rest: &mut [],
            chunk_bytes,
        }
    }

    fn find(&self, hash: u64, s: &str) -> Option<Istr> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = &self.slots[i];
            match slot.k {
                None => return None,
                Some(k) if slot.hash == hash && k.s == s => return Some(k),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn intern(&mut self, hash: u64, s: &str) -> Istr {
        if let Some(k) = self.find(hash, s) {
            return k;
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![Slot { hash: 0, k: None }; self.slots.len() * 2];
            for slot in std::mem::replace(&mut self.slots, doubled) {
                if let Some(k) = slot.k {
                    self.place(slot.hash, k);
                }
            }
        }
        let canon = self.alloc(s);
        let k = Istr {
            id: u32::try_from(self.len).expect("interner slab id overflow"),
            shash: str_hash(canon),
            s: canon,
        };
        self.place(hash, k);
        self.len += 1;
        k
    }

    /// Stores `k` in the first free slot of `hash`'s probe sequence.
    fn place(&mut self, hash: u64, k: Istr) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].k.is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { hash, k: Some(k) };
    }

    /// Copies `s` into the arena. A string that does not fit the current
    /// chunk starts a new one (the tail left behind is wasted); one longer
    /// than a chunk gets an allocation of its own.
    fn alloc(&mut self, s: &str) -> &'static str {
        if s.len() > self.chunk_bytes {
            return Box::leak(s.to_owned().into_boxed_str());
        }
        if s.len() > self.rest.len() {
            self.rest = Box::leak(vec![0u8; self.chunk_bytes].into_boxed_slice());
        }
        let (head, rest) = std::mem::take(&mut self.rest).split_at_mut(s.len());
        self.rest = rest;
        head.copy_from_slice(s.as_bytes());
        let head: &'static [u8] = head;
        std::str::from_utf8(head).expect("copied from a str")
    }
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Table::new(INITIAL_SLOTS, CHUNK_BYTES)))
}

/// Number of distinct strings interned so far (diagnostics only).
pub fn interned_count() -> usize {
    table().read().expect(POISONED).len
}

/// Memoised `"{key}#chunk{i}"` composition (chunked payload sub-keys): the
/// cache layer derives a chunk's key on every access to a striped object,
/// so the plain name is kept under the `(key, i)` pair and steady-state
/// derivation is one map probe.
pub fn compose_chunk(key: Name, i: u32) -> Name {
    static CHUNKS: OnceLock<RwLock<IdHashMap<(Name, u32), Name>>> = OnceLock::new();
    let chunks = CHUNKS.get_or_init(Default::default);
    let found = chunks.read().expect(POISONED).get(&(key, i)).copied();
    if let Some(k) = found {
        return k;
    }
    let composed = Name::from_fmt(format_args!("{key}#chunk{i}"));
    chunks.write().expect(POISONED).insert((key, i), composed);
    composed
}

// ---------------------------------------------------------------------------
// Id-oriented hasher
// ---------------------------------------------------------------------------

/// A fast multiply-mix hasher for small integer-shaped keys ([`Istr`],
/// ids, id pairs). Not DoS-resistant — simulation-internal maps only.
#[derive(Default)]
pub struct IdHasher {
    state: u64,
}

const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix64 tail) so sequential ids spread
        // across buckets.
        let mut z = self.state;
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys: FNV-1a folded into the state.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.state = (self.state.rotate_left(5) ^ h).wrapping_mul(MIX);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(MIX);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// `HashMap` keyed by interned handles (or other id-shaped keys) using
/// the fast id hasher. Construct with `IdHashMap::default()`.
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// `HashSet` companion to [`IdHashMap`].
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn intern_dedups_and_round_trips() {
        let a = Istr::intern("alpha");
        let b = Istr::intern("alpha");
        let c = Istr::intern("beta");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(&*c, "beta");
        assert_eq!(format!("{a}"), "alpha");
        assert_eq!(format!("{a:?}"), "\"alpha\"");
    }

    #[test]
    fn ord_is_string_order_not_id_order() {
        // Intern in reverse lexicographic order so id order and string
        // order disagree; Ord must follow the strings.
        let z = Istr::intern("zzz-ord-test");
        let a = Istr::intern("aaa-ord-test");
        assert!(z.id() < a.id());
        assert!(a < z);
        let set: BTreeSet<Istr> = [z, a].into_iter().collect();
        let in_order: Vec<&str> = set.iter().map(|k| k.as_str()).collect();
        assert_eq!(in_order, vec!["aaa-ord-test", "zzz-ord-test"]);
    }

    #[test]
    fn compose_tables_memoise() {
        let first = Name::new("bucket/object");
        let c0 = compose_chunk(first, 0);
        assert_eq!(c0, "bucket/object#chunk0");
        assert_eq!(compose_chunk(first, 0), c0);
        assert_ne!(compose_chunk(first, 1), c0);
    }

    /// splitmix64: the generator of the table property test below. The
    /// crate has no dev-dependencies, and a `proptest` edge would move
    /// `Cargo.lock`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Empty and one-byte strings, lengths on either side of every
        /// 8-byte step, one- to four-byte characters, behind one of a few
        /// shared prefixes about a third of the time.
        fn string(&mut self) -> String {
            const LENS: [usize; 14] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 33];
            const CHARS: [char; 10] = ['a', 'b', '-', '/', '0', '.', 'é', 'λ', '日', '🦀'];
            const PREFIXES: [&str; 4] = ["", "intermediate/wc_map-", "m0007/", "日本/"];
            let mut s = String::from(PREFIXES[self.below(2) * self.below(PREFIXES.len())]);
            let len = LENS[self.below(LENS.len())];
            let ascii_only = self.below(2) == 0;
            let start = s.len();
            while s.len() - start < len {
                let c = CHARS[self.below(if ascii_only { 6 } else { CHARS.len() })];
                s.push(c);
            }
            s
        }
    }

    /// FNV-1a as `Istr::shash` has always been defined, written
    /// independently of `str_hash`.
    fn fnv1a(s: &str) -> u32 {
        s.bytes().fold(0x811c_9dc5, |h, b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        })
    }

    #[test]
    fn shash_is_fnv1a() {
        assert_eq!(Istr::intern("").shash, 0x811c_9dc5);
        assert_eq!(Istr::intern("a").shash, 0xe40c_292c);
        assert_eq!(Istr::intern("foobar").shash, 0xbf9c_f968);
    }

    #[test]
    fn table_matches_string_keyed_reference() {
        const SLOTS: usize = 4;
        const CHUNK: usize = 256;
        for case in 0..256u64 {
            let mut rng = Rng(case);
            let mut table = Table::new(SLOTS, CHUNK);
            let mut reference: HashMap<String, u32> = HashMap::new();
            let mut seen: Vec<String> = Vec::new();
            // One string longer than an arena chunk, somewhere in the run.
            let long_at = rng.below(200);
            for step in 0..200 {
                let s = if step == long_at {
                    "x".repeat(CHUNK + 1 + rng.below(CHUNK))
                } else if !seen.is_empty() && rng.below(3) == 0 {
                    seen[rng.below(seen.len())].clone()
                } else {
                    rng.string()
                };
                let k = table.intern(probe_hash(&s), &s);
                let next_id = reference.len() as u32;
                let id = *reference.entry(s.clone()).or_insert(next_id);
                assert_eq!(k.id, id, "case {case}: id of {s:?}");
                assert_eq!(k.as_str(), s, "case {case}");
                assert_eq!(k.shash, fnv1a(&s), "case {case}: shash of {s:?}");
                assert_eq!(table.len, reference.len(), "case {case}");
                assert_eq!(table.find(probe_hash(&s), &s), Some(k), "case {case}");
                seen.push(s);
            }
            // Every earlier handle is still found after all the growth.
            for s in &seen {
                let k = table.find(probe_hash(s), s).expect("interned above");
                assert_eq!(k.id, reference[s], "case {case}: {s:?} after growth");
                assert_eq!(k.as_str(), s);
            }
            assert!(
                table.slots.len() >= SLOTS << 5,
                "case {case}: {} slots for {} strings is fewer than five doublings",
                table.slots.len(),
                table.len
            );
        }
    }

    #[test]
    fn id_hash_map_basic() {
        let mut m: IdHashMap<Istr, u64> = IdHashMap::default();
        for i in 0..1000 {
            m.insert(Istr::intern(&format!("key-{i}")), i);
        }
        for i in 0..1000 {
            assert_eq!(m[&Istr::intern(&format!("key-{i}"))], i);
        }
    }

    #[test]
    fn cross_thread_ids_agree() {
        // The collect is load-bearing: all four threads must be spawned
        // (and race the interner) before any is joined.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| Istr::intern(&format!("thread-shared-{i}")).id())
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        let ids: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in ids.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
