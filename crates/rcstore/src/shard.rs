//! Sharded routing and batched replication for the cluster data plane.
//!
//! The coordinator maps every key to one of N **shards** through a seeded,
//! stable hash ([`ShardRouter`]): the mapping depends only on the key bytes
//! and the configured seed, never on process hash state, so placements are
//! reproducible across runs (the determinism contract of the whole
//! simulator). Each shard anchors its masters on a home node
//! (`shard % nodes`), which turns the tablet map into per-shard ranges the
//! way RAMCloud partitions its key space across masters.
//!
//! Replication traffic is coalesced per `(shard, backup)` pair by the
//! [`ReplicationBatcher`]: instead of one synchronous backup RPC per write,
//! pending replica payloads accumulate in a buffer that is flushed either
//! when it reaches `batch_max_entries` or when the caller asks
//! ([`crate::cluster::Cluster::flush_replication`]). Acked writes are
//! never lost to batching: the coordinator owns the buffers (they survive
//! node crashes) and every structural operation — crash, restart,
//! migration — flushes before mutating placement.
//!
//! With `shards == 1` and `batch_max_entries == 1` (the defaults) both
//! mechanisms are inert and the cluster behaves byte-identically to the
//! unsharded data plane.

use crate::{Key, NodeId, Value};
use std::collections::BTreeMap;

/// Identifier of a shard (a contiguous slice of the key space).
pub type ShardId = usize;

/// Seed of the router's stable key→shard mapping ("OFC1").
pub const DEFAULT_ROUTER_SEED: u64 = 0x4f46_4331;

/// Sharding and replication-batching knobs of the data plane.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards the key space is split into. 1 disables sharding.
    pub shards: usize,
    /// Replica writes buffered per `(shard, backup)` pair before an
    /// automatic flush. 1 disables batching (every write replicates
    /// synchronously, as without this module).
    pub batch_max_entries: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            batch_max_entries: 1,
        }
    }
}

impl ShardConfig {
    /// Whether replica writes are coalesced rather than synchronous.
    pub fn batching(&self) -> bool {
        self.batch_max_entries > 1
    }
}

/// Stable key→shard mapping: seeded FNV-1a over the key bytes with a final
/// avalanche, reduced modulo the shard count. Independent of process hash
/// state — the same `(seed, key)` always lands on the same shard.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    seed: u64,
}

impl ShardRouter {
    /// Builds a router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "router needs at least one shard");
        ShardRouter { shards, seed }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`. Total: every key maps to exactly one shard
    /// in `0..shards`.
    pub fn shard_of(&self, key: &Key) -> ShardId {
        if self.shards == 1 {
            return 0;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for &b in key.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // FNV mixes the low bits poorly; avalanche before the modulo so
        // short numeric suffixes spread evenly across shards.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % self.shards as u64) as ShardId
    }
}

/// A drained replica buffer: its `(shard, backup)` pair and the pending
/// entries, in insertion order.
pub type DrainedBuffer = ((ShardId, NodeId), Vec<(Key, Value)>);

/// Coordinator-side buffers of pending replica writes, keyed by
/// `(shard, backup)` pair.
///
/// Buffers keep insertion order and hold at most one entry per key (a
/// re-enqueue of a key overwrites its pending payload in place), so a flush
/// applies each key's newest value exactly once — appends within a key are
/// never reordered. The `BTreeMap` keying makes full drains flush pairs in
/// deterministic order.
#[derive(Debug, Default)]
pub struct ReplicationBatcher {
    buffers: BTreeMap<(ShardId, NodeId), Vec<(Key, Value)>>,
}

impl ReplicationBatcher {
    /// An empty batcher.
    pub fn new() -> Self {
        ReplicationBatcher::default()
    }

    /// Buffers a replica write of `key` towards `backup`; returns the
    /// buffer's length so the caller can flush at its threshold. A pending
    /// entry for the same key is overwritten in place (last write wins).
    pub fn enqueue(&mut self, shard: ShardId, backup: NodeId, key: Key, value: Value) -> usize {
        let buf = self.buffers.entry((shard, backup)).or_default();
        match buf.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => buf.push((key, value)),
        }
        buf.len()
    }

    /// Takes (and empties) the buffer of one `(shard, backup)` pair.
    pub fn take(&mut self, shard: ShardId, backup: NodeId) -> Vec<(Key, Value)> {
        self.buffers.remove(&(shard, backup)).unwrap_or_default()
    }

    /// Drains every buffer, in deterministic `(shard, backup)` order.
    pub fn drain(&mut self) -> Vec<DrainedBuffer> {
        std::mem::take(&mut self.buffers).into_iter().collect()
    }

    /// Drops every pending entry of `key` (the object was deleted or
    /// overwritten at the coordinator — a later flush must not resurrect
    /// it).
    pub fn purge_key(&mut self, key: &Key) {
        for buf in self.buffers.values_mut() {
            buf.retain(|(k, _)| k != key);
        }
        self.buffers.retain(|_, buf| !buf.is_empty());
    }

    /// Total pending entries across all buffers.
    pub fn pending_entries(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn single_shard_short_circuits() {
        let r = ShardRouter::new(1, DEFAULT_ROUTER_SEED);
        for i in 0..100 {
            assert_eq!(r.shard_of(&key(&format!("k{i}"))), 0);
        }
    }

    #[test]
    fn mapping_is_total_and_stable() {
        let a = ShardRouter::new(8, 42);
        let b = ShardRouter::new(8, 42);
        for i in 0..1000 {
            let k = key(&format!("bucket/object-{i}"));
            let s = a.shard_of(&k);
            assert!(s < 8);
            assert_eq!(s, b.shard_of(&k), "same seed, same mapping");
        }
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let a = ShardRouter::new(16, 1);
        let b = ShardRouter::new(16, 2);
        let diverging = (0..256)
            .filter(|i| {
                let k = key(&format!("k{i}"));
                a.shard_of(&k) != b.shard_of(&k)
            })
            .count();
        assert!(diverging > 64, "only {diverging}/256 keys moved");
    }

    #[test]
    fn balance_within_2x_of_ideal() {
        let r = ShardRouter::new(8, DEFAULT_ROUTER_SEED);
        let mut counts = [0usize; 8];
        let n = 4096;
        for i in 0..n {
            counts[r.shard_of(&key(&format!("obj/{i}")))] += 1;
        }
        let ideal = n / 8;
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                c <= 2 * ideal && c >= ideal / 2,
                "shard {shard} holds {c} of {n} keys (ideal {ideal})"
            );
        }
    }

    #[test]
    fn batcher_keeps_one_entry_per_key_with_last_write_winning() {
        let mut b = ReplicationBatcher::new();
        assert_eq!(b.enqueue(0, 1, key("a"), Value::synthetic(10)), 1);
        assert_eq!(b.enqueue(0, 1, key("b"), Value::synthetic(20)), 2);
        // Re-enqueue of "a" overwrites in place: length stays 2.
        assert_eq!(b.enqueue(0, 1, key("a"), Value::synthetic(30)), 2);
        let entries = b.take(0, 1);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, key("a"));
        assert_eq!(entries[0].1.size(), 30, "newest value");
        assert_eq!(entries[1].0, key("b"));
        assert!(b.is_empty());
    }

    #[test]
    fn purge_key_drops_pending_entries_everywhere() {
        let mut b = ReplicationBatcher::new();
        b.enqueue(0, 1, key("a"), Value::synthetic(1));
        b.enqueue(0, 2, key("a"), Value::synthetic(1));
        b.enqueue(1, 1, key("b"), Value::synthetic(1));
        b.purge_key(&key("a"));
        assert_eq!(b.pending_entries(), 1);
        assert_eq!(b.take(1, 1).len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn drain_returns_pairs_in_deterministic_order() {
        let mut b = ReplicationBatcher::new();
        b.enqueue(3, 0, key("x"), Value::synthetic(1));
        b.enqueue(0, 2, key("y"), Value::synthetic(1));
        b.enqueue(0, 1, key("z"), Value::synthetic(1));
        let pairs: Vec<(ShardId, NodeId)> = b.drain().into_iter().map(|(p, _)| p).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 0)]);
        assert!(b.is_empty());
    }
}
