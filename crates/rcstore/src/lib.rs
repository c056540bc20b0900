//! RAMCloud-model distributed in-memory key-value store — the substrate of
//! OFC's cache (§6.1).
//!
//! Each FaaS worker co-hosts a storage node comprising a **master** (the
//! in-memory primary copy of some objects, accounted in live bytes against
//! the node's pool) and a **backup** (on-disk replicas of other nodes'
//! objects). A **coordinator** maintains the key→master map. The pieces
//! OFC extends are implemented faithfully:
//!
//! * per-object **access statistics** (`n_access` counter and `t_access`
//!   last-access epoch) driving the periodic eviction policy (§6.3),
//! * **vertical scaling** of each node's memory pool — OFC donates the
//!   memory left over by sandbox right-sizing and reclaims it on demand
//!   (§6.4),
//! * **migration by promotion** (§6.4): instead of copying an evicted-but-hot
//!   object to a new master, a backup node already holding an on-disk
//!   replica is promoted to master and the old master demotes itself to
//!   backup — no inter-node transfer of the payload,
//! * **crash recovery** from backups, preserving the replication factor.
//!
//! The store is deliberately time-functional: every operation returns its
//! modelled latency (see [`latency`], calibrated to §7.2.1's
//! measurements) and the caller advances the simulation clock.
//!
//! # Examples
//!
//! ```
//! use ofc_rcstore::cluster::Cluster;
//! use ofc_rcstore::{ClusterConfig, Value};
//! use ofc_simtime::SimTime;
//!
//! let mut cluster = Cluster::new(ClusterConfig {
//!     nodes: 3,
//!     replication_factor: 2,
//!     node_pool_bytes: 64 << 20,
//!     ..ClusterConfig::default()
//! });
//! let key = ofc_rcstore::Key::from("imgs/cat.png");
//! cluster
//!     .write(0, &key, Value::synthetic(4096), SimTime::ZERO)
//!     .result
//!     .unwrap();
//! let read = cluster.read(0, &key, SimTime::from_millis(1));
//! assert!(read.result.is_ok());
//! ```

pub mod cluster;
pub mod gossip;
pub mod latency;
pub mod membership;
pub mod node;
pub mod raft;

use ofc_simtime::SimTime;
use std::fmt;
use std::time::Duration;

/// A cache key (OFC uses `bucket/key` object paths).
///
/// A 32-byte `Copy` [`ofc_intern::Name`]: an interned string, or a fresh
/// output's interned stem plus its numeric tail. Equality, hashing
/// (a precomputed hash of the rendering) and ordering all follow the
/// rendered string, whichever form a key takes (DESIGN.md §17).
pub type Key = ofc_intern::Name;

/// Identifier of a storage node (co-located with a FaaS invoker).
pub type NodeId = usize;

/// Resolves the owning tenant of a cache key: the bucket component of the
/// `bucket/key` object path (the whole key when there is no `/`).
///
/// Tenant attribution is by bucket: workloads wanting per-tenant quota
/// accounting place each tenant's objects in tenant-named buckets (the
/// mega scenario does; the paper-mix buckets like `outputs` simply act as
/// one shared pseudo-tenant). The owner is always a plain interned name:
/// the bucket lies inside the key's interned text (a fresh output's stem
/// holds it), so only that prefix is interned, and repeat resolutions of
/// the same bucket are a hash probe, not an allocation.
pub fn owner_of(key: &Key) -> Key {
    let text = key.text();
    match text.find('/') {
        Some(i) => Key::new(&text[..i]),
        None => Key::from_fmt(format_args!("{key}")),
    }
}

/// A stored value. Only its size is modelled: simulated workloads keep
/// payloads synthetic so long runs stay small.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    size: u64,
}

impl Value {
    /// A synthetic value of `size` bytes.
    pub fn synthetic(size: u64) -> Self {
        Value { size }
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// Where a read was served from (drives the LH/RH/M scenarios of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadLocality {
    /// Master copy on the requesting node.
    LocalHit,
    /// Master copy on another node (one network round trip).
    RemoteHit,
}

/// Per-object access statistics — the RAMCloud extension OFC adds (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessStats {
    /// Number of reads since insertion (`n_access`).
    pub n_access: u64,
    /// Epoch of the last read (`t_access`).
    pub t_access: SimTime,
    /// Epoch of insertion.
    pub created: SimTime,
}

/// Errors from the cache store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RcError {
    /// Key has no master copy in the cluster.
    NotFound(Key),
    /// Not enough memory in the target node's pool.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes available in the pool.
        available: u64,
    },
    /// Object exceeds the configured maximum object size.
    ObjectTooLarge {
        /// Object size.
        size: u64,
        /// Maximum allowed.
        max: u64,
    },
    /// Eviction refused: the object is dirty (not yet persisted upstream).
    Dirty(Key),
    /// No backup node is eligible for a promotion/recovery.
    NoEligibleBackup(Key),
    /// Referenced node does not exist or is down.
    NodeUnavailable(NodeId),
    /// Transient fault (injected or environmental); the operation may
    /// succeed if retried.
    Transient,
}

impl RcError {
    /// Whether the error is transient — safe to retry or to degrade
    /// around (bypass to the RSDS) rather than treat as data corruption.
    pub fn is_transient(&self) -> bool {
        matches!(self, RcError::Transient | RcError::NodeUnavailable(_))
    }
}

impl fmt::Display for RcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RcError::NotFound(k) => write!(f, "key {k} not found"),
            RcError::OutOfMemory {
                requested,
                available,
            } => write!(f, "out of memory: need {requested} B, have {available} B"),
            RcError::ObjectTooLarge { size, max } => {
                write!(f, "object of {size} B exceeds max {max} B")
            }
            RcError::Dirty(k) => write!(f, "cannot evict dirty object {k}"),
            RcError::NoEligibleBackup(k) => write!(f, "no eligible backup for {k}"),
            RcError::NodeUnavailable(n) => write!(f, "node {n} unavailable"),
            RcError::Transient => write!(f, "transient store error"),
        }
    }
}

impl std::error::Error for RcError {}

/// Outcome of a store operation: result plus modelled latency.
#[derive(Debug)]
pub struct Timed<T> {
    /// The operation result.
    pub result: T,
    /// Modelled latency to charge to virtual time.
    pub latency: Duration,
}

impl<T> Timed<T> {
    /// Wraps a result with its latency.
    pub fn new(result: T, latency: Duration) -> Self {
        Timed { result, latency }
    }
}

/// Largest object the cache stores whole (§6.1: OFC raises RAMCloud's
/// 1 MB default to 10 MB). The one statement of the paper's limit: the
/// cluster default below and the data plane's admission bound both read it.
pub const MAX_OBJECT_BYTES: u64 = 10 << 20;

/// Cluster-level configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Number of backup replicas per object (in addition to the master
    /// copy). RAMCloud's default is 3; the paper's testbed uses 2.
    pub replication_factor: usize,
    /// Initial memory pool per node, in bytes.
    pub node_pool_bytes: u64,
    /// Maximum object size ([`MAX_OBJECT_BYTES`] unless a test shrinks it).
    pub max_object_bytes: u64,
    /// Read by nothing: the model keeps no segment layout. A field only
    /// because the frozen `benchmark/` package sets it (DESIGN.md §5).
    pub segment_bytes: u64,
    /// The replicated control plane (DESIGN.md §16), carrying its
    /// election seed ([`raft::ELECTION_SEED`] in production): a Raft group
    /// of [`raft::COORDINATOR_REPLICAS`] coordinators and SWIM gossip
    /// membership. `None` (the default) keeps the single omniscient
    /// coordinator, which commits for free and sees crashes as they happen.
    pub control_plane: Option<u64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            replication_factor: 2,
            node_pool_bytes: 256 << 20,
            max_object_bytes: MAX_OBJECT_BYTES,
            segment_bytes: 16 << 20,
            control_plane: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_constructors() {
        assert_eq!(Value::synthetic(7).size(), 7);
        assert_eq!(Value::synthetic(0).size(), 0);
    }

    #[test]
    fn errors_render() {
        let e = RcError::OutOfMemory {
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(RcError::Dirty(Key::from("a/b")).to_string().contains("a/b"));
    }

    #[test]
    fn default_config_is_sane() {
        let c = ClusterConfig::default();
        assert!(c.replication_factor < c.nodes);
    }
}
