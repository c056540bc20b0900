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
//! Interned strings are leaked (`Box::leak`) and live for the process
//! lifetime. The key universe of a simulation run is small (object names,
//! function ids) and heavily re-used, so the arena is bounded in practice;
//! see DESIGN.md §17 for the lifecycle discussion.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, RwLock};

/// An interned, copyable string handle.
///
/// 16 bytes: `u32` slab id, a precomputed string hash, and the canonical
/// `&'static str`. Copy, so the hot path moves ids instead of bumping
/// `Arc` refcounts or cloning heap strings.
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
    let mut h: u32 = 0x811c_9dc5;
    for &b in s.as_bytes() {
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
        let table = table();
        // Fast path: already interned.
        {
            let rd = table.read().unwrap();
            if let Some(&k) = rd.map.get(s) {
                return k;
            }
        }
        let mut wr = table.write().unwrap();
        // Double-check: another thread may have interned it meanwhile.
        if let Some(&k) = wr.map.get(s) {
            return k;
        }
        let canon: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(wr.map.len()).expect("interner slab id overflow");
        let k = Istr {
            id,
            shash: str_hash(canon),
            s: canon,
        };
        wr.map.insert(canon, k);
        k
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

struct Table {
    map: HashMap<&'static str, Istr>,
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Table {
            map: HashMap::new(),
        })
    })
}

/// Number of distinct strings interned so far (diagnostics only).
pub fn interned_count() -> usize {
    table().read().unwrap().map.len()
}

// ---------------------------------------------------------------------------
// Pair-compose tables
// ---------------------------------------------------------------------------
//
// The cache layer derives RAMCloud keys from object ids ("{bucket}/{key}")
// and chunk keys from parent keys ("{key}#chunk{i}") on every access. With
// plain strings that is a `format!` allocation per access; here the derived
// handle is memoised under the (id, id) pair so steady-state derivation is
// a single u64-keyed map probe.

type PairMap = HashMap<u64, Istr, IdBuildHasher>;

fn pair_table(cell: &'static OnceLock<RwLock<PairMap>>) -> &'static RwLock<PairMap> {
    cell.get_or_init(|| RwLock::new(PairMap::default()))
}

fn compose_cached(
    cell: &'static OnceLock<RwLock<PairMap>>,
    pair: u64,
    make: impl FnOnce() -> String,
) -> Istr {
    let table = pair_table(cell);
    {
        let rd = table.read().unwrap();
        if let Some(&k) = rd.get(&pair) {
            return k;
        }
    }
    let composed = Istr::intern(&make());
    table.write().unwrap().insert(pair, composed);
    composed
}

/// Memoised `"{a}/{b}"` composition (object id → store key).
pub fn compose_slash(a: Istr, b: Istr) -> Istr {
    static CELL: OnceLock<RwLock<PairMap>> = OnceLock::new();
    let pair = (u64::from(a.id) << 32) | u64::from(b.id);
    compose_cached(&CELL, pair, || format!("{a}/{b}"))
}

/// Memoised `"{key}#chunk{i}"` composition (chunked payload sub-keys).
pub fn compose_chunk(key: Istr, i: u32) -> Istr {
    static CELL: OnceLock<RwLock<PairMap>> = OnceLock::new();
    let pair = (u64::from(key.id) << 32) | u64::from(i);
    compose_cached(&CELL, pair, || format!("{key}#chunk{i}"))
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
        let b = Istr::intern("bucket");
        let k = Istr::intern("object");
        let first = compose_slash(b, k);
        let second = compose_slash(b, k);
        assert_eq!(first, second);
        assert_eq!(first.as_str(), "bucket/object");
        let c0 = compose_chunk(first, 0);
        assert_eq!(c0.as_str(), "bucket/object#chunk0");
        assert_eq!(compose_chunk(first, 0), c0);
        assert_ne!(compose_chunk(first, 1), c0);
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
