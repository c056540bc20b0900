//! Remote shared data store (RSDS) substrate: a Swift/S3-model object store
//! plus a Redis-model in-memory object cache (IMOC) baseline.
//!
//! The paper's functions follow the Extract-Transform-Load pattern against a
//! remote object store (§1); OFC interposes a cache between the two. This
//! crate provides the storage side:
//!
//! * [`store::ObjectStore`] — buckets, versioned objects, metadata tags
//!   (where extracted ML features live, §5.1.2), **shadow objects**
//!   (empty-payload placeholders carrying two version numbers, §6.2), and
//!   read/write **webhooks** for external-client consistency,
//! * [`imoc::Imoc`] — the Redis-like cache used by the `OWK-Redis` baseline
//!   of §7.2,
//! * [`latency::LatencyModel`] — first-order per-operation cost models with
//!   presets calibrated to the paper's measurements.
//!
//! All operations are *time-functional*: they return the operation latency
//! along with the result; the caller advances virtual time.

pub mod imoc;
pub mod latency;
pub mod store;

use bytes::Bytes;
use ofc_intern::Istr;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of an object: `(bucket, key)`, held as the interned
/// `bucket/key` path plus where the bucket ends.
///
/// The path is what every layer below keys on — the cache plane's
/// RAMCloud key, the store's and the catalog's map key — so an id is
/// formatted and interned once, when it is made, and everything after is
/// a field read. `Copy`, 32 bytes. Equality and hashing go through the
/// path handle; ordering is *bucket string, then key string* (see `Ord`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ObjectId {
    path: Istr,
    /// Byte length of the bucket name: `path[bucket_len]` is the `/`
    /// between bucket and key. Compared by `Eq` too, so `("a/b", "c")`
    /// and `("a", "b/c")` stay distinct ids over the same path.
    bucket_len: u32,
}

/// `HashMap` for [`ObjectId`] keys: one multiply over the path's
/// precomputed string hash in place of SipHash. Probe it, never iterate it
/// where order can be observed.
pub use ofc_intern::IdHashMap;

impl ObjectId {
    /// Creates an id from bucket and key names.
    pub fn new(bucket: impl AsRef<str>, key: impl AsRef<str>) -> Self {
        ObjectId::from_fmt(bucket, format_args!("{}", key.as_ref()))
    }

    /// Creates an id whose key is formatted from `key`, straight behind
    /// the bucket: one formatting pass, one interner probe, and no heap
    /// allocation when the path is already interned.
    pub fn from_fmt(bucket: impl AsRef<str>, key: fmt::Arguments<'_>) -> Self {
        let bucket = bucket.as_ref();
        ObjectId {
            path: Istr::intern_fmt(format_args!("{bucket}/{key}")),
            bucket_len: u32::try_from(bucket.len()).expect("bucket name longer than 4 GB"),
        }
    }

    /// Bucket (Swift container) name.
    pub fn bucket(&self) -> &'static str {
        &self.path.as_str()[..self.bucket_len as usize]
    }

    /// Object key within the bucket.
    pub fn key(&self) -> &'static str {
        &self.path.as_str()[self.bucket_len as usize + 1..]
    }

    /// The interned `bucket/key` path — the RAMCloud-layer cache key.
    pub fn path(&self) -> Istr {
        self.path
    }
}

impl Hash for ObjectId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.path.hash(state);
    }
}

// Bucket first, then key: the order the `(bucket, key)` pair of handles
// derived. It is not the path's order — `/` sorts after `-` and `.`, so
// `"a-b/x"` precedes `"a/x"` as a path and follows it as a pair — and
// sorted listings and `BTreeMap`s over ids must not move.
impl Ord for ObjectId {
    fn cmp(&self, other: &ObjectId) -> std::cmp::Ordering {
        self.bucket()
            .cmp(other.bucket())
            .then_with(|| self.key().cmp(other.key()))
    }
}

impl PartialOrd for ObjectId {
    fn partial_cmp(&self, other: &ObjectId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.path.as_str())
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectId")
            .field("bucket", &self.bucket())
            .field("key", &self.key())
            .finish()
    }
}

/// An object payload.
///
/// Simulated workloads carry [`Payload::Synthetic`] (a byte count only) so a
/// 30-minute macro experiment does not allocate gigabytes; real byte
/// payloads are supported for API users and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A payload of the given size whose bytes are not materialized.
    Synthetic(u64),
    /// Actual bytes.
    Data(Bytes),
}

impl Payload {
    /// Payload size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Synthetic(n) => *n,
            Payload::Data(b) => b.len() as u64,
        }
    }

    /// Whether the payload is empty (a shadow placeholder has no payload at
    /// all and is represented separately).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real bytes, if materialized.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Synthetic(_) => None,
            Payload::Data(b) => Some(b),
        }
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::Data(b)
    }
}

impl From<&[u8]> for Payload {
    fn from(b: &[u8]) -> Self {
        Payload::Data(Bytes::copy_from_slice(b))
    }
}

/// Errors returned by the storage substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object (or bucket) does not exist.
    NotFound(ObjectId),
    /// A shadow fulfillment arrived out of order or for a stale version.
    VersionConflict {
        /// The object concerned.
        id: ObjectId,
        /// Version the caller tried to act on.
        attempted: u64,
        /// Current latest version.
        current: u64,
    },
    /// The object's payload is not yet persisted (only its shadow exists)
    /// and the store was asked for strict reads.
    ShadowOnly(ObjectId),
    /// The store/cache is out of capacity.
    CapacityExceeded {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "object {id} not found"),
            StoreError::VersionConflict {
                id,
                attempted,
                current,
            } => write!(
                f,
                "version conflict on {id}: attempted {attempted}, current {current}"
            ),
            StoreError::ShadowOnly(id) => {
                write!(f, "object {id} has an unfulfilled shadow (payload pending)")
            }
            StoreError::CapacityExceeded {
                requested,
                available,
            } => write!(
                f,
                "capacity exceeded: requested {requested} B, available {available} B"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_display_and_eq() {
        let a = ObjectId::new("imgs", "cat.png");
        let b = ObjectId::new("imgs", "cat.png");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "imgs/cat.png");
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::Synthetic(42).len(), 42);
        assert_eq!(Payload::from(&b"abc"[..]).len(), 3);
        assert!(Payload::Synthetic(0).is_empty());
        assert!(Payload::from(&b"xy"[..]).bytes().is_some());
        assert!(Payload::Synthetic(9).bytes().is_none());
    }

    #[test]
    fn error_messages_are_informative() {
        let id = ObjectId::new("b", "k");
        let e = StoreError::VersionConflict {
            id,
            attempted: 3,
            current: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("b/k") && msg.contains('3') && msg.contains('5'));
        assert!(StoreError::NotFound(id).to_string().contains("not found"));
    }
}
