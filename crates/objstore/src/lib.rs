//! Remote shared data store (RSDS) substrate: a Swift/S3-model object store
//! plus a Redis-model in-memory object cache (IMOC) baseline.
//!
//! The paper's functions follow the Extract-Transform-Load pattern against a
//! remote object store (§1); OFC interposes a cache between the two. This
//! crate provides the storage side:
//!
//! * [`store::ObjectStore`] — buckets, versioned objects, **shadow
//!   objects** (empty-payload placeholders carrying two version numbers,
//!   §6.2), and read/write **webhooks** for external-client consistency,
//! * [`imoc::Imoc`] — the Redis-like cache used by the `OWK-Redis` baseline
//!   of §7.2,
//! * [`latency::LatencyModel`] — first-order per-operation cost models with
//!   presets calibrated to the paper's measurements.
//!
//! All operations are *time-functional*: they return the operation latency
//! along with the result; the caller advances virtual time. Payloads carry
//! their size only ([`Payload::Synthetic`]).

pub mod imoc;
pub mod latency;
pub mod store;

use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of an object: `(bucket, key)`, held as its `bucket/key`
/// path.
///
/// The path is what every layer below keys on — the cache plane's
/// RAMCloud key, the store's and the catalog's map key — so an id is made
/// once and everything after is a field read. The path is a [`Name`]: an
/// input's is interned whole, a fresh output's is an interned stem
/// (`intermediate/wc_map-`) plus its numeric tail, which is never
/// formatted or interned. `Copy`, 32 bytes. A bucket name holds no `/`
/// (as in Swift and S3), so the bucket is the path up to its first `/`,
/// which always lies inside the interned text. Equality and hashing go
/// through the path; ordering is *bucket string, then key string* (see
/// `Ord`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ObjectId {
    path: Name,
}

/// `HashMap` for [`ObjectId`] keys: one multiply over the path's
/// precomputed string hash in place of SipHash. Probe it, never iterate it
/// where order can be observed.
pub use ofc_intern::IdHashMap;
/// The name types an object path is made of: [`Name`] (the path),
/// [`Istr`] (a stem) and [`Suffix`] (the key behind the bucket).
pub use ofc_intern::{Istr, Name, Suffix};

impl ObjectId {
    /// Creates an id from bucket and key names.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` contains a `/`.
    pub fn new(bucket: impl AsRef<str>, key: impl AsRef<str>) -> Self {
        ObjectId::from_fmt(bucket, format_args!("{}", key.as_ref()))
    }

    /// Creates an id whose key is formatted from `key`, straight behind
    /// the bucket: one formatting pass, one interner probe, and no heap
    /// allocation when the path is already interned.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` contains a `/`.
    pub fn from_fmt(bucket: impl AsRef<str>, key: fmt::Arguments<'_>) -> Self {
        let bucket = bucket.as_ref();
        assert!(
            !bucket.contains('/'),
            "bucket name {bucket:?} contains a `/`"
        );
        ObjectId {
            path: Name::from_fmt(format_args!("{bucket}/{key}")),
        }
    }

    /// A fresh output's id, `{stem}{seed}` or `{stem}{seed}-{index}`: no
    /// formatting, no interning and no heap allocation. `stem` starts with
    /// the bucket and its `/` (`intermediate/wc_map-`).
    ///
    /// # Panics
    ///
    /// Panics if `stem` contains no `/`.
    pub fn with_tail(stem: Istr, seed: u64, index: Option<u32>) -> Self {
        assert!(stem.contains('/'), "stem {stem:?} names no bucket");
        ObjectId {
            path: Name::with_tail(stem, seed, index),
        }
    }

    /// Byte length of the bucket name: the path's first `/`.
    fn bucket_len(&self) -> usize {
        self.path
            .text()
            .find('/')
            .expect("an object path holds a `/` in its interned text")
    }

    /// Bucket (Swift container) name.
    pub fn bucket(&self) -> &'static str {
        &self.path.text()[..self.bucket_len()]
    }

    /// Object key within the bucket: the path behind the bucket's `/`.
    pub fn key(&self) -> Suffix {
        self.path.suffix(self.bucket_len() + 1)
    }

    /// The `bucket/key` path — the RAMCloud-layer cache key.
    pub fn path(&self) -> Name {
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
            .then_with(|| self.key().cmp(&other.key()))
    }
}

impl PartialOrd for ObjectId {
    fn partial_cmp(&self, other: &ObjectId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl AsRef<ObjectId> for ObjectId {
    fn as_ref(&self) -> &ObjectId {
        self
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.path, f)
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
/// Only its size is modelled ([`Payload::Synthetic`] is a byte count), so a
/// 30-minute macro experiment does not allocate gigabytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A payload of the given size whose bytes are not materialized.
    Synthetic(u64),
}

impl Payload {
    /// Payload size in bytes.
    pub fn len(&self) -> u64 {
        let Payload::Synthetic(n) = self;
        *n
    }

    /// Whether the payload is empty (a shadow placeholder has no payload at
    /// all and is represented separately).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        assert!(Payload::Synthetic(0).is_empty());
        assert!(!Payload::Synthetic(9).is_empty());
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
