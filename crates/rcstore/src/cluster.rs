//! The cluster driver: storage nodes, the tablet map and replica sets,
//! client operations, migration-by-promotion, and crash recovery. The
//! coordinator's view of the cluster (leader, observed liveness,
//! reachability, parked recoveries) is the [`Membership`] core it steps.

use crate::gossip::{GossipEvent, MemberState};
use crate::latency;
use crate::membership::{Membership, Partition};
use crate::node::StorageNode;
use crate::raft::{ReplicaId, ReplicatedCoordinator};
use crate::{AccessStats, ClusterConfig, Key, NodeId, RcError, ReadLocality, Timed, Value};
use ofc_intern::IdHashMap;
use ofc_simtime::SimTime;
use ofc_telemetry::{Counter, Histogram, Telemetry};
use std::collections::BTreeMap;
use std::time::Duration;

/// Pre-registered recording handles for the store's `rcstore.*` metrics
/// (feeds Table 2 through [`ofc_telemetry::MetricsSnapshot`]).
#[derive(Debug)]
struct ClusterMetrics {
    local_hits: Counter,
    remote_hits: Counter,
    misses: Counter,
    writes: Counter,
    evictions: Counter,
    promotions: Counter,
    scale_ups: Counter,
    scale_downs: Counter,
    objects_lost: Counter,
    transient_errors: Counter,
    migrate_nanos: Histogram,
    recovery_nanos: Histogram,
}

impl ClusterMetrics {
    fn new(t: &Telemetry) -> Self {
        // Registered, never incremented: replication is synchronous, but
        // the frozen `benchmark/` folds every registered counter *name*
        // into `sim_digest` and reports the first (DESIGN.md §5).
        t.counter("rcstore.batch_flushes");
        t.counter("rcstore.batched_appends");
        ClusterMetrics {
            local_hits: t.counter("rcstore.local_hits"),
            remote_hits: t.counter("rcstore.remote_hits"),
            misses: t.counter("rcstore.misses"),
            writes: t.counter("rcstore.writes"),
            evictions: t.counter("rcstore.evictions"),
            promotions: t.counter("rcstore.promotions"),
            scale_ups: t.counter("rcstore.scale_ups"),
            scale_downs: t.counter("rcstore.scale_downs"),
            objects_lost: t.counter("rcstore.objects_lost"),
            transient_errors: t.counter("rcstore.transient_errors"),
            migrate_nanos: t.histogram("rcstore.migrate_nanos"),
            recovery_nanos: t.histogram("rcstore.recovery_nanos"),
        }
    }
}

/// The distributed cache store: the data plane (nodes, tablet map,
/// replica sets, fencing) and the control-plane decisions that act on it.
/// See the crate docs for an example.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<StorageNode>,
    /// Key → master node.
    tablet: IdHashMap<Key, NodeId>,
    /// Key → backup nodes (in ring order).
    replicas: IdHashMap<Key, Vec<NodeId>>,
    telemetry: Telemetry,
    metrics: ClusterMetrics,
    /// Injected fault state (see [`Cluster::inject_transient_errors`] and
    /// friends): remaining client operations that fail with
    /// [`RcError::Transient`].
    transient_budget: u32,
    /// Per-node latency inflation factor (1.0 = nominal).
    slowdown: Vec<f64>,
    /// The coordinator group, gossip plane, partition, parked recoveries
    /// and control-plane clock. Coordinator replica `r` is co-located with
    /// storage node `r`; coordinator and storage processes fail
    /// independently (`crash_coordinator` vs `crash_node`).
    membership: Membership,
    /// Master keys re-owned away from an unreachable-but-alive node
    /// (fencing); their stale physical copies are expunged once the node
    /// is reachable again.
    fenced: BTreeMap<NodeId, Vec<Key>>,
}

impl Cluster {
    /// Builds a cluster of `cfg.nodes` empty storage nodes.
    ///
    /// # Panics
    ///
    /// Panics if the replication factor leaves no distinct backup nodes or
    /// the node count is zero.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "cluster needs at least one node");
        assert!(
            cfg.replication_factor < cfg.nodes,
            "replication factor {} needs more than {} nodes",
            cfg.replication_factor,
            cfg.nodes
        );
        assert!(
            cfg.raft.replicas <= 1 || cfg.raft.replicas <= cfg.nodes,
            "coordinator replicas ({}) are co-located with storage nodes ({})",
            cfg.raft.replicas,
            cfg.nodes
        );
        let nodes = (0..cfg.nodes)
            .map(|id| StorageNode::new(id, cfg.node_pool_bytes))
            .collect();
        let telemetry = Telemetry::new();
        let metrics = ClusterMetrics::new(&telemetry);
        let slowdown = vec![1.0; cfg.nodes];
        let membership = Membership::new(&cfg, &telemetry);
        Cluster {
            cfg,
            nodes,
            tablet: IdHashMap::default(),
            replicas: IdHashMap::default(),
            telemetry,
            metrics,
            transient_budget: 0,
            slowdown,
            membership,
            fenced: BTreeMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Rebinds the store onto a shared observability plane, registering
    /// every `rcstore.*` metric there, and `raft.*` and `gossip.*` when
    /// those planes are on. Call before the first operation: the control
    /// plane is rebuilt in its initial state on the new plane.
    pub fn bind_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.metrics = ClusterMetrics::new(&self.telemetry);
        self.membership = Membership::new(&self.cfg, &self.telemetry);
    }

    /// The observability plane this store records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of nodes (up or down).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow of a node (panics on bad id — internal invariant).
    pub fn node(&self, id: NodeId) -> &StorageNode {
        &self.nodes[id]
    }

    /// Master node of `key`, if cached.
    pub fn master_of(&self, key: &Key) -> Option<NodeId> {
        self.tablet.get(key).copied()
    }

    /// Backup nodes of `key`.
    pub fn backups_of(&self, key: &Key) -> &[NodeId] {
        self.replicas.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `key` has a cached master copy.
    pub fn contains(&self, key: &Key) -> bool {
        self.tablet.contains_key(key)
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.tablet.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.tablet.is_empty()
    }

    /// Total bytes of master copies across the cluster.
    pub fn used_bytes(&self) -> u64 {
        self.nodes.iter().map(StorageNode::used_bytes).sum()
    }

    /// Total pool bytes across live nodes.
    pub fn pool_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.is_up())
            .map(StorageNode::pool_bytes)
            .sum()
    }

    /// Pool bytes not occupied by master copies (the slack an over-quota
    /// tenant may opportunistically win).
    pub fn free_bytes(&self) -> u64 {
        self.pool_bytes().saturating_sub(self.used_bytes())
    }

    /// Live master bytes charged to `owner` across the cluster: one hash
    /// probe per node, and the node count is a small constant — this is
    /// the per-operation quota probe.
    pub fn owner_used(&self, owner: &Key) -> u64 {
        self.nodes.iter().map(|n| n.owner_used(owner)).sum()
    }

    /// Per-tenant live-byte accounting aggregated over every node,
    /// ascending by owner. Summed in a hash map, sorted once; O(tenants ·
    /// log tenants) — for the periodic fairness gauge and tests, never the
    /// per-operation hot path.
    pub fn owner_usage(&self) -> BTreeMap<Key, u64> {
        let mut sums: IdHashMap<Key, u64> = IdHashMap::default();
        for node in &self.nodes {
            for (owner, used) in node.owner_usages() {
                *sums.entry(*owner).or_insert(0) += used;
            }
        }
        sums.into_iter().collect()
    }

    /// Up to `max` of `owner`'s masters across the cluster in LRU order
    /// (`(key, dirty, charged bytes)`), merged from the per-node per-tenant
    /// sub-indexes — the quota-reclamation victim feed. Visits at most
    /// `nodes · max` index entries, never another tenant's objects.
    pub fn owner_victims(&self, owner: &Key, max: usize) -> Vec<(Key, bool, u64)> {
        let mut merged: Vec<(Key, bool, u64, SimTime)> = Vec::new();
        for node in &self.nodes {
            merged.extend(node.owner_victims(owner, max));
        }
        // LRU across nodes; tie-break on key for placement-independence.
        merged.sort_by_key(|&(key, _, _, t_access)| (t_access, key));
        merged.truncate(max);
        merged
            .into_iter()
            .map(|(key, dirty, size, _)| (key, dirty, size))
            .collect()
    }

    /// Access statistics of a cached object.
    pub fn stats_of(&self, key: &Key) -> Option<AccessStats> {
        let master = self.master_of(key)?;
        self.nodes[master].peek_master(key).map(|o| o.stats)
    }

    /// Whether the cached object is dirty (unpersisted).
    pub fn is_dirty(&self, key: &Key) -> Option<bool> {
        let master = self.master_of(key)?;
        self.nodes[master].peek_master(key).map(|o| o.dirty)
    }

    /// Cluster-wide periodic-eviction candidates (§6.3), aggregated over
    /// every node's eviction index: key-sorted `(key, dirty)` pairs plus
    /// the total number of index entries visited. Each key is mastered on
    /// exactly one node, so per-node victim lists concatenate without
    /// duplicates; the final sort keeps the order independent of placement.
    pub fn evict_candidates(
        &self,
        now: SimTime,
        min_age: Duration,
        min_idle: Duration,
    ) -> (Vec<(Key, bool)>, u64) {
        let mut victims = Vec::new();
        let mut visited = 0u64;
        for node in &self.nodes {
            let (mut v, seen) = node.evict_candidates(now, min_age, min_idle);
            victims.append(&mut v);
            visited += seen;
        }
        victims.sort();
        (victims, visited)
    }

    /// Writes an object into the cache.
    ///
    /// The master is placed on `home` (the invoker node running the writing
    /// function, §6.5 locality) when it has room, otherwise on the live node
    /// with the most available pool. Backups go to the next
    /// `replication_factor` live nodes in ring order.
    pub fn write(
        &mut self,
        home: NodeId,
        key: &Key,
        value: Value,
        now: SimTime,
    ) -> Timed<Result<NodeId, RcError>> {
        self.write_with_dirty(home, key, value, now, true)
    }

    /// [`Cluster::write`] with an explicit dirty flag (tests and pre-warmed
    /// caches insert clean objects).
    pub fn write_with_dirty(
        &mut self,
        home: NodeId,
        key: &Key,
        value: Value,
        now: SimTime,
        dirty: bool,
    ) -> Timed<Result<NodeId, RcError>> {
        if self.consume_transient() {
            return Timed::new(Err(RcError::Transient), Duration::ZERO);
        }
        let size = value.size();
        if size > self.cfg.max_object_bytes {
            return Timed::new(
                Err(RcError::ObjectTooLarge {
                    size,
                    max: self.cfg.max_object_bytes,
                }),
                Duration::ZERO,
            );
        }
        // Control-plane gate: the write's tablet assignment must commit on
        // a coordinator quorum reachable from the writer (free and
        // infallible with a single-replica coordinator).
        if !self.membership.gate(Some(home), now) {
            return Timed::new(Err(RcError::Transient), Duration::ZERO);
        }
        // An overwrite first retires the previous placement.
        if self.tablet.contains_key(key) {
            self.remove_entry(key);
        }
        let Some(master) = self.place_master(home, size) else {
            // Placement is reachability-filtered, so a partitioned side
            // can exhaust its candidates while remote pools sit idle.
            return Timed::new(
                Err(RcError::OutOfMemory {
                    requested: size,
                    available: self.max_node_available(),
                }),
                Duration::ZERO,
            );
        };
        if let Err(e) = self.nodes[master].insert_master(*key, value, now, dirty) {
            return Timed::new(Err(e), Duration::ZERO);
        }
        let backups = self.replicate(key, master, &value, Vec::new());
        // Commit the assignment through the replicated log (free no-op in
        // single-replica mode); the gate above guarantees the quorum, so
        // this cannot fail between the gate and here.
        let commit = self.membership.commit();
        self.tablet.insert(*key, master);
        self.replicas.insert(*key, backups);
        self.metrics.writes.inc();
        let latency = self.inflate(master, latency::write(size, master != home)) + commit;
        Timed::new(Ok(master), latency)
    }

    /// Reads an object from the viewpoint of node `from`.
    pub fn read(
        &mut self,
        from: NodeId,
        key: &Key,
        now: SimTime,
    ) -> Timed<Result<(Value, ReadLocality), RcError>> {
        if self.consume_transient() {
            return Timed::new(Err(RcError::Transient), Duration::ZERO);
        }
        let Some(&master) = self.tablet.get(key) else {
            self.metrics.misses.inc();
            return Timed::new(Err(RcError::NotFound(*key)), Duration::ZERO);
        };
        // Reads use the client-cached tablet map (no quorum round trip, as
        // in RAMCloud) but still need a network path to the master.
        if !self.membership.partition().reachable(from, master) {
            self.metrics.misses.inc();
            return Timed::new(Err(RcError::NodeUnavailable(master)), Duration::ZERO);
        }
        let Some(obj) = self.nodes[master].read_master(key, now) else {
            self.metrics.misses.inc();
            return Timed::new(Err(RcError::NodeUnavailable(master)), Duration::ZERO);
        };
        let value = obj.value;
        let locality = if master == from {
            self.metrics.local_hits.inc();
            ReadLocality::LocalHit
        } else {
            self.metrics.remote_hits.inc();
            ReadLocality::RemoteHit
        };
        let latency = self.inflate(
            master,
            latency::read(value.size(), locality == ReadLocality::RemoteHit),
        );
        Timed::new(Ok((value, locality)), latency)
    }

    /// Marks an object clean (persisted to the RSDS).
    pub fn mark_clean(&mut self, key: &Key) -> Result<(), RcError> {
        let master = self.master_of(key).ok_or(RcError::NotFound(*key))?;
        self.nodes[master].set_dirty(key, false)
    }

    /// Evicts an object entirely (master and backups).
    ///
    /// Dirty objects are refused — the caller must write them back first
    /// (§6.4's reclamation order guarantees this).
    pub fn evict(&mut self, key: &Key) -> Timed<Result<u64, RcError>> {
        let Some(&master) = self.tablet.get(key) else {
            return Timed::new(Err(RcError::NotFound(*key)), Duration::ZERO);
        };
        if self.nodes[master].peek_master(key).is_some_and(|o| o.dirty) {
            return Timed::new(Err(RcError::Dirty(*key)), Duration::ZERO);
        }
        if !self.membership.gate_internal(None) {
            return Timed::new(Err(RcError::Transient), Duration::ZERO);
        }
        self.membership.commit();
        let size = self.remove_entry(key);
        self.metrics.evictions.inc();
        Timed::new(Ok(size), latency::DELETE_BASE)
    }

    /// Deletes an object unconditionally (pipeline intermediates are dropped
    /// without persistence once the pipeline ends, §6.3).
    pub fn delete(&mut self, key: &Key) -> Timed<Result<u64, RcError>> {
        if !self.tablet.contains_key(key) {
            return Timed::new(Err(RcError::NotFound(*key)), Duration::ZERO);
        }
        if !self.membership.gate_internal(None) {
            return Timed::new(Err(RcError::Transient), Duration::ZERO);
        }
        self.membership.commit();
        let size = self.remove_entry(key);
        Timed::new(Ok(size), latency::DELETE_BASE)
    }

    /// Moves the mastership of `key` off its current node by promoting a
    /// backup replica (§6.4): no payload crosses the network; the old master
    /// keeps an on-disk copy and becomes a backup, preserving the
    /// replication factor.
    pub fn migrate_by_promotion(
        &mut self,
        key: &Key,
        now: SimTime,
    ) -> Timed<Result<NodeId, RcError>> {
        if !self.membership.gate_internal(Some(now)) {
            return Timed::new(Err(RcError::Transient), Duration::ZERO);
        }
        let Some(&old_master) = self.tablet.get(key) else {
            return Timed::new(Err(RcError::NotFound(*key)), Duration::ZERO);
        };
        let (size, dirty) = self.nodes[old_master]
            .peek_master(key)
            .map_or((0, false), |o| (o.value.size(), o.dirty));
        // Elect the backup with the most available memory.
        let backups = self.backups_of(key).to_vec();
        let new_master = backups
            .iter()
            .copied()
            .filter(|&b| self.nodes[b].is_up() && self.nodes[b].available_bytes() >= size)
            .max_by_key(|&b| self.nodes[b].available_bytes());
        let Some(new_master) = new_master else {
            return Timed::new(Err(RcError::NoEligibleBackup(*key)), Duration::ZERO);
        };
        if let Err(e) = self.nodes[new_master].promote_backup(key, now, dirty) {
            return Timed::new(Err(e), Duration::ZERO);
        }
        // Old master demotes to backup: removes from memory, keeps on disk.
        if self.nodes[old_master].demote_to_backup(key).is_err() {
            // Master vanished under us; treat as recovery-grade promotion.
            self.nodes[old_master].remove_master(key);
        }
        self.tablet.insert(*key, new_master);
        let new_backups: Vec<NodeId> = backups
            .into_iter()
            .map(|b| if b == new_master { old_master } else { b })
            .collect();
        let commit = self.membership.commit();
        self.replicas.insert(*key, new_backups);
        self.metrics.promotions.inc();
        let latency = latency::promote(size) + commit;
        self.metrics.migrate_nanos.record_duration(latency);
        Timed::new(Ok(new_master), latency)
    }

    /// Resizes a node's memory pool (vertical scaling).
    ///
    /// Shrinks that would cut into live data are refused — the cache agent
    /// must evict or migrate first; this keeps the mechanism/policy split
    /// clean.
    pub fn resize_pool(&mut self, node: NodeId, bytes: u64) -> Timed<Result<(), RcError>> {
        if node >= self.nodes.len() || !self.nodes[node].is_up() {
            return Timed::new(Err(RcError::NodeUnavailable(node)), Duration::ZERO);
        }
        let growing = bytes >= self.nodes[node].pool_bytes();
        if !growing && self.nodes[node].used_bytes() > bytes {
            return Timed::new(
                Err(RcError::OutOfMemory {
                    requested: bytes,
                    available: self.nodes[node].used_bytes(),
                }),
                Duration::ZERO,
            );
        }
        let over = self.nodes[node].set_pool_bytes(bytes);
        debug_assert!(!over, "live data was checked to fit the new pool");
        if growing {
            self.metrics.scale_ups.inc();
        } else {
            self.metrics.scale_downs.inc();
        }
        Timed::new(Ok(()), latency::RESCALE_BASE)
    }

    /// Crashes a node and recovers its data: every object it mastered is
    /// promoted on a surviving backup; replicas it held are re-created
    /// elsewhere to restore the replication factor.
    ///
    /// Returns the number of objects lost (no surviving replica), with the
    /// recovery latency. Losses are surfaced as the `rcstore.objects_lost`
    /// counter and the recovery time as an `rcstore.recovery_nanos` sample
    /// — silent data loss is an observability bug.
    pub fn crash_node(&mut self, node: NodeId, now: SimTime) -> Timed<usize> {
        if node >= self.nodes.len() || !self.nodes[node].is_up() {
            return Timed::new(0, Duration::ZERO);
        }
        self.nodes[node].set_up(false);
        self.membership.observe(now);
        // Under gossip, failure detection is the membership plane's job:
        // recovery starts once a quorum-side probe confirms the death (or
        // the node restarts first), not at the instant of the crash. A
        // headless control plane parks the recovery for the pump.
        if self.membership.gossip().enabled() || !self.membership.act_or_park(node, None, now) {
            return Timed::new(0, Duration::ZERO);
        }
        self.recover_crashed(node, now)
    }

    /// The coordinator-driven recovery of a failed (or fenced) node:
    /// re-masters its tablets onto reachable surviving backups and
    /// restores the replication factor of every object that replicated
    /// through it.
    fn recover_crashed(&mut self, node: NodeId, now: SimTime) -> Timed<usize> {
        let (lost, latency) = self.recover_tablets_of(node, now);
        self.top_up_where(|c, k| c.backups_of(k).contains(&node), |_, b, _| b != node);
        self.metrics.objects_lost.add(lost as u64);
        self.metrics.recovery_nanos.record_duration(latency);
        Timed::new(lost, latency)
    }

    /// Re-masters every tablet pinned to `node` that the cluster can no
    /// longer serve from it: the node is down, rejoined empty, or sits on
    /// the far side of a partition — in which case its still-live master
    /// copies are *fenced* (left in place, expunged once reachable again)
    /// rather than declared lost. Returns `(objects lost, latency)`.
    fn recover_tablets_of(&mut self, node: NodeId, now: SimTime) -> (usize, Duration) {
        let origin = self.membership.origin();
        let node_alive = self.nodes[node].is_up();
        let node_reachable = self.membership.partition().reachable(origin, node);
        let mut latency = Duration::ZERO;
        let mut lost = 0usize;
        let mut orphaned: Vec<Key> = self
            .tablet
            .iter()
            .filter(|&(k, &m)| {
                m == node && (!node_alive || !node_reachable || !self.nodes[node].has_master(k))
            })
            .map(|(k, _)| *k)
            .collect();
        // Recovery order must not depend on hash-map iteration.
        orphaned.sort();
        for key in orphaned {
            let survivors: Vec<NodeId> = self
                .backups_of(&key)
                .iter()
                .copied()
                .filter(|&b| {
                    self.holds_backup(b, &key) && self.membership.partition().reachable(origin, b)
                })
                // ofc-lint: allow(hotloop) reason=recovery snapshots the surviving backup set before mutating nodes
                .collect();
            let promoted = match survivors.first() {
                Some(&m) => self.nodes[m]
                    .promote_backup(&key, now, false)
                    .is_ok()
                    .then_some(m),
                // The only copy lives across the partition: leave the
                // tablet pointed there (reads fail transiently) rather
                // than declare an acked write lost.
                None if node_alive && !node_reachable => continue,
                // A live backup across the partition still holds a copy:
                // park the node so the pump re-walks it once the
                // partition heals, instead of declaring the write lost.
                None if self.backups_of(&key).iter().any(|&b| {
                    self.holds_backup(b, &key) && !self.membership.partition().reachable(origin, b)
                }) =>
                {
                    self.membership.park(node);
                    continue;
                }
                None => None,
            };
            let Some(new_master) = promoted else {
                self.membership.commit();
                self.remove_entry(&key);
                lost += 1;
                continue;
            };
            // Every recovered object is charged a 1-byte promotion whatever
            // its size: the goldens pin that charge.
            latency += latency::promote(1);
            if node_alive && !node_reachable && self.nodes[node].has_master(&key) {
                // Fence the unreachable-but-alive old master: its stale
                // copy stays physical until the partition heals.
                self.fenced.entry(node).or_default().push(key);
            }
            self.tablet.insert(key, new_master);
            // ofc-lint: allow(hotloop) reason=recovery builds an owned backup list from the survivor tail
            let backups: Vec<NodeId> = survivors[1..].to_vec();
            // Restore the replication factor from the new master's copy.
            let value = self.nodes[new_master].peek_master(&key).map(|o| o.value);
            let backups = match value {
                Some(value) => self.replicate(&key, new_master, &value, backups),
                None => backups,
            };
            self.membership.commit();
            self.replicas.insert(key, backups);
        }
        (lost, latency)
    }

    /// Restores the replication factor of every object `weakened` selects,
    /// in key order: its backups that `keep` accepts stay, and ring
    /// successors of its master fill the rest. The crash walk selects the
    /// objects that replicated through the dead node; the rejoin and heal
    /// walk, every object short of live backup copies.
    fn top_up_where(
        &mut self,
        weakened: impl Fn(&Self, &Key) -> bool,
        keep: impl Fn(&Self, NodeId, &Key) -> bool,
    ) {
        let mut keys: Vec<Key> = self
            .replicas
            .keys()
            .filter(|k| weakened(self, k))
            .copied()
            .collect();
        keys.sort();
        for key in keys {
            let Some(&master) = self.tablet.get(&key) else {
                continue;
            };
            let value = match self.nodes[master].peek_master(&key) {
                Some(o) => o.value,
                None => continue,
            };
            let backups: Vec<NodeId> = self.replicas[&key]
                .iter()
                .copied()
                .filter(|&b| keep(self, b, &key))
                // ofc-lint: allow(hotloop) reason=recovery snapshots the kept backup set before mutating nodes
                .collect();
            let backups = self.replicate(&key, master, &value, backups);
            self.replicas.insert(key, backups);
        }
    }

    /// Restarts a crashed node at `now`. It rejoins empty and announces
    /// itself to the control plane, which reconciles any state still
    /// naming it: stale tablet pointers left by a deferred recovery are
    /// rescued from backups, fenced copies it no longer owns are expunged,
    /// and every object below the replication factor is topped back up.
    /// With a headless replicated coordinator the reconciliation parks
    /// until a quorum returns (drained by [`Cluster::coordinator_pump`]).
    pub fn restart_node(&mut self, node: NodeId, now: SimTime) {
        if node >= self.nodes.len() {
            return;
        }
        self.nodes[node].set_up(true);
        if self.membership.act_or_park(node, None, now) {
            self.reconcile_rejoin(node, now);
        }
    }

    /// A node's rejoin reconciliation: release it from the parked set,
    /// rescue tablets still pinned to it (it rejoined empty), drop fenced
    /// copies it no longer owns, and top up every under-replicated object
    /// now that it hosts backups again.
    fn reconcile_rejoin(&mut self, node: NodeId, now: SimTime) {
        self.membership.unpark(node);
        self.expunge_fenced(node);
        let (lost, latency) = self.recover_tablets_of(node, now);
        if lost > 0 || latency > Duration::ZERO {
            self.metrics.objects_lost.add(lost as u64);
            self.metrics.recovery_nanos.record_duration(latency);
        }
        self.top_up_where(Self::under_replicated, Self::holds_backup);
    }

    /// Current replication factor of `key` (backup copies actually present).
    pub fn live_replicas(&self, key: &Key) -> usize {
        self.backups_of(key)
            .iter()
            .filter(|&&b| self.holds_backup(b, key))
            .count()
    }

    /// Whether `key` has fewer live backup copies than the replication
    /// factor (the rejoin and heal walks' selection).
    fn under_replicated(&self, key: &Key) -> bool {
        self.live_replicas(key) < self.cfg.replication_factor
    }

    /// Whether `node` is up and holds a backup copy of `key`.
    fn holds_backup(&self, node: NodeId, key: &Key) -> bool {
        self.nodes[node].is_up() && self.nodes[node].has_backup(key)
    }

    /// The cached value of `key`, without touching access stats.
    pub fn peek_value(&self, key: &Key) -> Option<Value> {
        let master = self.master_of(key)?;
        self.nodes[master].peek_master(key).map(|o| o.value)
    }

    /// Number of live (up) nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_up()).count()
    }

    /// Fault injection: the next `n` client operations (reads and writes)
    /// fail with [`RcError::Transient`], counted as
    /// `rcstore.transient_errors`.
    pub fn inject_transient_errors(&mut self, n: u32) {
        self.transient_budget = self.transient_budget.saturating_add(n);
    }

    /// Fault injection: inflates `node`'s operation latencies by `factor`
    /// (clamped to ≥ 1.0) until cleared — models a slow node.
    pub fn set_node_slowdown(&mut self, node: NodeId, factor: f64) {
        if let Some(s) = self.slowdown.get_mut(node) {
            *s = factor.max(1.0);
        }
    }

    /// Restores `node` to nominal latency.
    pub fn clear_node_slowdown(&mut self, node: NodeId) {
        self.set_node_slowdown(node, 1.0);
    }

    /// Clears all injected fault state (error budgets, slowdowns).
    /// Crashed nodes stay down — restart them explicitly.
    pub fn clear_faults(&mut self) {
        self.transient_budget = 0;
        for s in &mut self.slowdown {
            *s = 1.0;
        }
    }

    // --- Replicated control plane -------------------------------------

    /// Splits the network into reachability `groups` (each a list of node
    /// ids; nodes listed nowhere become singleton islands). Both planes
    /// split together: coordinator replica `r` is co-located with storage
    /// node `r`, so an isolated minority loses the control plane too.
    pub fn partition_network(&mut self, groups: &[Vec<NodeId>], now: SimTime) {
        let partition = Partition::split(groups, self.nodes.len());
        self.membership.set_partition(partition, now);
        self.coordinator_pump(now);
    }

    /// Heals any active partition: fenced stale copies are expunged, the
    /// control plane re-elects across the full group, deferred recoveries
    /// drain, and partition-era short replication is topped back up.
    pub fn heal_partition(&mut self, now: SimTime) {
        self.membership.set_partition(Partition::CONNECTED, now);
        let fenced: Vec<NodeId> = self.fenced.keys().copied().collect();
        for node in fenced {
            self.expunge_fenced(node);
        }
        self.coordinator_pump(now);
        // The pump already ticked the group at `now`: this gate only asks.
        if self.membership.gate(None, now) {
            self.top_up_where(Self::under_replicated, Self::holds_backup);
        }
    }

    /// Drives the control plane at `now`: elections/catch-up tick, then —
    /// once a reachable leader with a quorum exists — drains every
    /// deferred recovery and tops up replication weakened while headless.
    /// The runtime schedules this at the raft heartbeat interval; fault
    /// and heal paths call it inline.
    pub fn coordinator_pump(&mut self, now: SimTime) {
        let Some(ready) = self.membership.drain(now, |n| self.nodes[n].is_up()) else {
            return;
        };
        for &node in &ready {
            if self.in_reach(node) {
                self.reconcile_rejoin(node, now);
            } else {
                self.recover_crashed(node, now);
            }
        }
        if !ready.is_empty() {
            self.top_up_where(Self::under_replicated, Self::holds_backup);
        }
    }

    /// Runs one gossip probe round at `now` and applies its membership
    /// transitions: quorum-side confirmations trigger recovery (or fencing
    /// of unreachable-but-alive nodes), quorum-side rejoins reconcile, and
    /// minority-side observations park for the pump, which re-checks
    /// liveness before acting. Returns the round's events (inspection).
    pub fn gossip_round(&mut self, now: SimTime) -> Vec<GossipEvent> {
        let events = self
            .membership
            .gossip_round(now, |n| self.nodes.get(n).is_some_and(StorageNode::is_up));
        for &event in &events {
            match event {
                GossipEvent::Confirmed { node, observer } => {
                    // A node that is in fact up and reachable is a gossip
                    // false positive: a later probe will refute it.
                    if self.membership.act_or_park(node, Some(observer), now)
                        && !self.in_reach(node)
                    {
                        self.recover_crashed(node, now);
                    }
                }
                GossipEvent::Rejoined { node, observer } => {
                    if self.membership.act_or_park(node, Some(observer), now) {
                        self.reconcile_rejoin(node, now);
                    }
                }
                GossipEvent::Suspected { .. } | GossipEvent::Refuted { .. } => {}
            }
        }
        events
    }

    /// Crashes coordinator replica `r` (the co-located storage node keeps
    /// serving data: the processes fail independently).
    pub fn crash_coordinator(&mut self, r: ReplicaId, now: SimTime) {
        self.membership.crash_coordinator(r, now);
    }

    /// Restarts coordinator replica `r`; it catches up by log replay or
    /// snapshot install on the next tick.
    pub fn restart_coordinator(&mut self, r: ReplicaId, now: SimTime) {
        self.membership.restart_coordinator(r, now);
        self.coordinator_pump(now);
    }

    /// Isolates the current leader's node from every other node (the
    /// classic Raft partition drill). Returns the isolated replica, or
    /// `None` when there is no leader to isolate.
    pub fn isolate_leader(&mut self, now: SimTime) -> Option<ReplicaId> {
        let leader = self.membership.coordinator().leader()?;
        let rest: Vec<NodeId> = (0..self.nodes.len()).filter(|&n| n != leader).collect();
        self.partition_network(&[vec![leader], rest], now);
        Some(leader)
    }

    /// The replicated coordinator group (inspection).
    pub fn coordinator(&self) -> &ReplicatedCoordinator {
        self.membership.coordinator()
    }

    /// The membership core (inspection).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Observed membership state of `node` (always `Alive` when gossip is
    /// disabled: the control plane is omniscient).
    pub fn member_state(&self, node: NodeId) -> MemberState {
        self.membership.gossip().state(node)
    }

    /// Number of node recoveries deferred until the control plane regains
    /// a quorum.
    pub fn deferred_recoveries(&self) -> usize {
        self.membership.parked()
    }

    /// Whether `node` is up and reachable from the coordinator.
    fn in_reach(&self, node: NodeId) -> bool {
        self.nodes[node].is_up()
            && self
                .membership
                .partition()
                .reachable(self.membership.origin(), node)
    }

    /// Drops the stale master copies fenced on `node` for keys the quorum
    /// side re-owned while it was unreachable.
    fn expunge_fenced(&mut self, node: NodeId) {
        let Some(keys) = self.fenced.remove(&node) else {
            return;
        };
        for key in keys {
            if self.tablet.get(&key) != Some(&node) {
                self.nodes[node].remove_master(&key);
            }
        }
    }

    fn consume_transient(&mut self) -> bool {
        if self.transient_budget > 0 {
            self.transient_budget -= 1;
            self.metrics.transient_errors.inc();
            true
        } else {
            false
        }
    }

    fn inflate(&self, node: NodeId, base: Duration) -> Duration {
        let factor = self.slowdown.get(node).copied().unwrap_or(1.0);
        if factor > 1.0 {
            base.mul_f64(factor)
        } else {
            base
        }
    }

    fn remove_entry(&mut self, key: &Key) -> u64 {
        let mut size = 0;
        if let Some(master) = self.tablet.remove(key) {
            if let Some(obj) = self.nodes[master].remove_master(key) {
                size = obj.value.size();
            }
        }
        if let Some(backups) = self.replicas.remove(key) {
            for b in backups {
                self.nodes[b].remove_backup(key);
            }
        }
        size
    }

    fn place_master(&self, home: NodeId, size: u64) -> Option<NodeId> {
        let fits = |n: &StorageNode| {
            n.is_up()
                && n.available_bytes() >= size.max(1)
                && self.membership.partition().reachable(home, n.id())
        };
        if home < self.nodes.len() && fits(&self.nodes[home]) {
            return Some(home);
        }
        self.nodes
            .iter()
            .filter(|n| fits(n))
            .max_by_key(|n| n.available_bytes())
            .map(StorageNode::id)
    }

    fn max_node_available(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.is_up())
            .map(StorageNode::available_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Walks the ring from `master`, storing backup copies of `key` on
    /// live nodes it reaches until `backups` holds the replication factor.
    /// A write places its backups from none; recovery tops up survivors.
    fn replicate(
        &mut self,
        key: &Key,
        master: NodeId,
        value: &Value,
        mut backups: Vec<NodeId>,
    ) -> Vec<NodeId> {
        let n = self.nodes.len();
        for candidate in (1..=n).map(|i| (master + i) % n) {
            if backups.len() >= self.cfg.replication_factor {
                break;
            }
            if candidate != master
                && self.nodes[candidate].is_up()
                && self.membership.partition().reachable(master, candidate)
                && !backups.contains(&candidate)
            {
                self.nodes[candidate].store_backup(*key, *value);
                backups.push(candidate);
            }
        }
        backups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from(s)
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig {
            nodes: 4,
            replication_factor: 2,
            node_pool_bytes: 4 << 20,
            max_object_bytes: 1 << 20,
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn write_places_on_home_and_replicates() {
        let mut c = cluster();
        let t = c.write(1, &key("a"), Value::synthetic(1000), SimTime::ZERO);
        assert_eq!(t.result.unwrap(), 1);
        assert_eq!(c.master_of(&key("a")), Some(1));
        assert_eq!(c.backups_of(&key("a")), &[2, 3]);
        assert_eq!(c.live_replicas(&key("a")), 2);
    }

    #[test]
    fn read_locality_distinguished() {
        let mut c = cluster();
        c.write(1, &key("a"), Value::synthetic(10), SimTime::ZERO)
            .result
            .unwrap();
        let local = c.read(1, &key("a"), SimTime::ZERO);
        let remote = c.read(0, &key("a"), SimTime::ZERO);
        assert_eq!(local.result.unwrap().1, ReadLocality::LocalHit);
        assert_eq!(remote.result.unwrap().1, ReadLocality::RemoteHit);
        assert!(remote.latency > local.latency);
        let m = c.telemetry().metrics();
        assert_eq!(
            (
                m.counter("rcstore.local_hits"),
                m.counter("rcstore.remote_hits")
            ),
            (1, 1)
        );
    }

    #[test]
    fn miss_reported() {
        let mut c = cluster();
        assert!(c.read(0, &key("nope"), SimTime::ZERO).result.is_err());
        assert_eq!(c.telemetry().metrics().counter("rcstore.misses"), 1);
    }

    #[test]
    fn oversized_object_rejected() {
        let mut c = cluster();
        let t = c.write(0, &key("big"), Value::synthetic(2 << 20), SimTime::ZERO);
        assert!(matches!(t.result, Err(RcError::ObjectTooLarge { .. })));
    }

    #[test]
    fn full_home_spills_to_roomiest_node() {
        let mut c = cluster();
        // Fill node 0 (pool 4 MB, objects 1 MB each).
        for i in 0..4 {
            c.write(
                0,
                &key(&format!("f{i}")),
                Value::synthetic(1 << 20),
                SimTime::ZERO,
            )
            .result
            .unwrap();
        }
        let t = c.write(0, &key("spill"), Value::synthetic(1 << 20), SimTime::ZERO);
        let master = t.result.unwrap();
        assert_ne!(master, 0);
    }

    #[test]
    fn dirty_objects_resist_eviction_until_clean() {
        let mut c = cluster();
        c.write(0, &key("a"), Value::synthetic(10), SimTime::ZERO)
            .result
            .unwrap();
        assert_eq!(c.is_dirty(&key("a")), Some(true));
        assert!(matches!(c.evict(&key("a")).result, Err(RcError::Dirty(_))));
        c.mark_clean(&key("a")).unwrap();
        assert_eq!(c.evict(&key("a")).result.unwrap(), 10);
        assert!(!c.contains(&key("a")));
        // Backups must be gone too.
        for n in 0..4 {
            assert!(!c.node(n).has_backup(&key("a")));
        }
    }

    #[test]
    fn delete_is_unconditional() {
        let mut c = cluster();
        c.write(0, &key("tmp"), Value::synthetic(10), SimTime::ZERO)
            .result
            .unwrap();
        assert_eq!(c.delete(&key("tmp")).result.unwrap(), 10);
        assert!(!c.contains(&key("tmp")));
    }

    #[test]
    fn migration_by_promotion_moves_master_without_copying() {
        let mut c = cluster();
        c.write_with_dirty(1, &key("hot"), Value::synthetic(1000), SimTime::ZERO, false)
            .result
            .unwrap();
        let before_backups = c.backups_of(&key("hot")).to_vec();
        let t = c.migrate_by_promotion(&key("hot"), SimTime::from_secs(1));
        let new_master = t.result.unwrap();
        assert!(before_backups.contains(&new_master));
        assert_eq!(c.master_of(&key("hot")), Some(new_master));
        // Old master (1) is now a backup: replication factor preserved.
        assert_eq!(c.live_replicas(&key("hot")), 2);
        assert!(c.node(1).has_backup(&key("hot")));
        assert!(!c.node(1).has_master(&key("hot")));
        let m = c.telemetry().metrics();
        assert_eq!(m.counter("rcstore.promotions"), 1);
        let timed = m.histogram("rcstore.migrate_nanos").map(|h| h.count);
        assert_eq!(timed, Some(1));
    }

    #[test]
    fn promotion_latency_scales_with_size() {
        let mut c = cluster();
        c.write_with_dirty(
            0,
            &key("s"),
            Value::synthetic(8 << 10),
            SimTime::ZERO,
            false,
        )
        .result
        .unwrap();
        c.write_with_dirty(
            0,
            &key("l"),
            Value::synthetic(1 << 20),
            SimTime::ZERO,
            false,
        )
        .result
        .unwrap();
        let small = c.migrate_by_promotion(&key("s"), SimTime::ZERO).latency;
        let large = c.migrate_by_promotion(&key("l"), SimTime::ZERO).latency;
        assert!(large > small);
    }

    #[test]
    fn resize_pool_guards_live_data() {
        let mut c = cluster();
        c.write_with_dirty(
            0,
            &key("a"),
            Value::synthetic(1 << 20),
            SimTime::ZERO,
            false,
        )
        .result
        .unwrap();
        // Shrinking node 0 below its live bytes is refused.
        let t = c.resize_pool(0, 100);
        assert!(matches!(t.result, Err(RcError::OutOfMemory { .. })));
        // Evict, then shrink succeeds.
        c.mark_clean(&key("a")).ok();
        c.evict(&key("a")).result.unwrap();
        c.resize_pool(0, 100).result.unwrap();
        assert_eq!(c.node(0).pool_bytes(), 100);
        // The refused shrink is not counted; only the successful one is.
        let m = c.telemetry().metrics();
        assert_eq!(
            (
                m.counter("rcstore.scale_ups"),
                m.counter("rcstore.scale_downs")
            ),
            (0, 1)
        );
    }

    #[test]
    fn crash_recovery_promotes_and_restores_replication() {
        let mut c = cluster();
        for i in 0..3 {
            c.write_with_dirty(
                0,
                &key(&format!("k{i}")),
                Value::synthetic(1000),
                SimTime::ZERO,
                false,
            )
            .result
            .unwrap();
        }
        let lost = c.crash_node(0, SimTime::ZERO);
        assert_eq!(lost.result, 0, "replicated data must survive");
        for i in 0..3 {
            let k = key(&format!("k{i}"));
            let master = c.master_of(&k).expect("still cached");
            assert_ne!(master, 0);
            assert_eq!(c.live_replicas(&k), 2, "replication factor restored");
            // Data still readable.
            assert!(c.read(1, &k, SimTime::ZERO).result.is_ok());
        }
    }

    #[test]
    fn unreplicated_cluster_loses_data_on_crash() {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 2,
            replication_factor: 0,
            node_pool_bytes: 1 << 20,
            max_object_bytes: 1 << 20,
            ..ClusterConfig::default()
        });
        c.write_with_dirty(0, &key("a"), Value::synthetic(10), SimTime::ZERO, false)
            .result
            .unwrap();
        let lost = c.crash_node(0, SimTime::from_secs(3));
        assert_eq!(lost.result, 1);
        assert!(!c.contains(&key("a")));
        // The loss is surfaced: counter plus a timed recovery.
        let m = c.telemetry().metrics();
        assert_eq!(m.counter("rcstore.objects_lost"), 1);
        let timed = m.histogram("rcstore.recovery_nanos").map(|h| h.count);
        assert_eq!(timed, Some(1));
    }

    #[test]
    fn restart_rejoins_empty() {
        let mut c = cluster();
        c.write_with_dirty(0, &key("a"), Value::synthetic(10), SimTime::ZERO, false)
            .result
            .unwrap();
        c.crash_node(0, SimTime::ZERO);
        c.restart_node(0, SimTime::ZERO);
        assert!(c.node(0).is_up());
        assert_eq!(c.node(0).master_count(), 0);
        // New writes can land on it again.
        c.write(0, &key("b"), Value::synthetic(10), SimTime::ZERO)
            .result
            .unwrap();
        assert_eq!(c.master_of(&key("b")), Some(0));
    }

    #[test]
    fn overwrite_replaces_placement() {
        let mut c = cluster();
        c.write(0, &key("a"), Value::synthetic(100), SimTime::ZERO)
            .result
            .unwrap();
        c.write(2, &key("a"), Value::synthetic(200), SimTime::ZERO)
            .result
            .unwrap();
        assert_eq!(c.master_of(&key("a")), Some(2));
        assert_eq!(c.len(), 1);
        let (v, _) = c.read(2, &key("a"), SimTime::ZERO).result.unwrap();
        assert_eq!(v.size(), 200);
    }

    #[test]
    fn injected_transient_errors_fail_then_clear() {
        let mut c = cluster();
        c.write(0, &key("a"), Value::synthetic(10), SimTime::ZERO)
            .result
            .unwrap();
        c.inject_transient_errors(2);
        let r1 = c.read(0, &key("a"), SimTime::ZERO).result;
        let w1 = c
            .write(0, &key("b"), Value::synthetic(5), SimTime::ZERO)
            .result;
        assert_eq!(r1, Err(RcError::Transient));
        assert_eq!(w1, Err(RcError::Transient));
        assert!(RcError::Transient.is_transient());
        // Budget exhausted: operations succeed again.
        assert!(c.read(0, &key("a"), SimTime::ZERO).result.is_ok());
        assert_eq!(
            c.telemetry().metrics().counter("rcstore.transient_errors"),
            2
        );
    }

    #[test]
    fn slow_node_inflates_latency_until_restored() {
        let mut c = cluster();
        c.write(1, &key("a"), Value::synthetic(4096), SimTime::ZERO)
            .result
            .unwrap();
        let nominal = c.read(1, &key("a"), SimTime::ZERO).latency;
        c.set_node_slowdown(1, 8.0);
        let slowed = c.read(1, &key("a"), SimTime::ZERO).latency;
        assert_eq!(slowed, nominal.mul_f64(8.0));
        c.clear_node_slowdown(1);
        assert_eq!(c.read(1, &key("a"), SimTime::ZERO).latency, nominal);
    }

    #[test]
    fn stats_accumulate_across_reads() {
        let mut c = cluster();
        c.write(0, &key("a"), Value::synthetic(10), SimTime::ZERO)
            .result
            .unwrap();
        for i in 1..=5u64 {
            c.read(0, &key("a"), SimTime::from_secs(i)).result.unwrap();
        }
        let stats = c.stats_of(&key("a")).unwrap();
        assert_eq!(stats.n_access, 5);
        assert_eq!(stats.t_access, SimTime::from_secs(5));
    }
}

#[cfg(test)]
mod failover_tests {
    use super::*;
    use crate::gossip::GossipConfig;
    use crate::raft::RaftConfig;

    fn key(s: &str) -> Key {
        Key::from(s)
    }

    fn base_config() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            replication_factor: 2,
            node_pool_bytes: 4 << 20,
            max_object_bytes: 1 << 20,
            ..ClusterConfig::default()
        }
    }

    fn replicated() -> Cluster {
        Cluster::new(ClusterConfig {
            raft: RaftConfig {
                replicas: 3,
                ..RaftConfig::default()
            },
            ..base_config()
        })
    }

    fn gossiped() -> Cluster {
        Cluster::new(ClusterConfig {
            gossip: GossipConfig { enabled: true },
            ..base_config()
        })
    }

    /// Enough pump rounds, spaced past the election timeout ceiling, to
    /// elect a leader whenever one side can form a quorum.
    fn settle(c: &mut Cluster, from: SimTime) -> SimTime {
        let mut t = from;
        for _ in 0..4 {
            t += Duration::from_millis(400);
            c.coordinator_pump(t);
        }
        t
    }

    #[test]
    fn crash_restart_sequence_keeps_every_acked_write() {
        let mut c = Cluster::new(base_config());
        for i in 0..8 {
            c.write(
                i % 4,
                &key(&format!("k{i}")),
                Value::synthetic(1000),
                SimTime::ZERO,
            )
            .result
            .unwrap();
        }
        c.crash_node(1, SimTime::from_secs(1));
        c.restart_node(1, SimTime::from_secs(2));
        for i in 0..8 {
            let r = c.read(0, &key(&format!("k{i}")), SimTime::from_secs(3));
            assert!(r.result.is_ok(), "k{i} lost across crash/restart");
        }
        assert_eq!(c.telemetry().metrics().counter("rcstore.objects_lost"), 0);
    }

    #[test]
    fn double_crash_before_restart_walks_top_up_twice() {
        let mut c = Cluster::new(base_config());
        c.write(1, &key("a"), Value::synthetic(1000), SimTime::ZERO)
            .result
            .unwrap();
        assert_eq!(c.backups_of(&key("a")), &[2, 3]);
        // First backup dies: the weakened walk recruits the only spare.
        c.crash_node(2, SimTime::from_secs(1));
        assert_eq!(c.live_replicas(&key("a")), 2);
        assert_eq!(c.backups_of(&key("a")), &[3, 0]);
        // Second backup dies before the first returns: only one candidate
        // is left, so replication degrades to 1 — but never to 0.
        c.crash_node(3, SimTime::from_secs(2));
        assert_eq!(c.live_replicas(&key("a")), 1);
        assert_eq!(c.backups_of(&key("a")), &[0]);
        assert!(c.read(0, &key("a"), SimTime::from_secs(3)).result.is_ok());
        // Both return: the restart walk tops replication back up to 2.
        c.restart_node(2, SimTime::from_secs(4));
        c.restart_node(3, SimTime::from_secs(5));
        assert_eq!(c.live_replicas(&key("a")), 2);
        assert_eq!(c.telemetry().metrics().counter("rcstore.objects_lost"), 0);
    }

    #[test]
    fn leader_crash_elects_and_service_resumes() {
        let mut c = replicated();
        c.write(0, &key("a"), Value::synthetic(100), SimTime::ZERO)
            .result
            .unwrap();
        assert_eq!(c.coordinator().leader(), Some(0));
        let term_before = c.coordinator().term();
        c.crash_coordinator(0, SimTime::from_secs(1));
        let t = settle(&mut c, SimTime::from_secs(1));
        let leader = c.coordinator().leader().expect("new leader elected");
        assert_ne!(leader, 0);
        assert!(c.coordinator().term() > term_before);
        // Service resumes: control-plane mutations commit again.
        c.write(2, &key("b"), Value::synthetic(100), t)
            .result
            .unwrap();
        assert!(c.read(1, &key("b"), t).result.is_ok());
        // The crashed replica rejoins and catches up from the log.
        c.restart_coordinator(0, t + Duration::from_secs(1));
        let t2 = settle(&mut c, t + Duration::from_secs(1));
        c.write(3, &key("c"), Value::synthetic(100), t2)
            .result
            .unwrap();
        assert_eq!(
            c.coordinator().leader(),
            Some(leader),
            "a healthy leader is not deposed by a rejoin"
        );
    }

    #[test]
    fn headless_coordinator_defers_recovery_until_quorum_returns() {
        let mut c = replicated();
        c.write(1, &key("a"), Value::synthetic(1000), SimTime::ZERO)
            .result
            .unwrap();
        // Two of three replicas down: no quorum anywhere.
        c.crash_coordinator(0, SimTime::from_secs(1));
        c.crash_coordinator(1, SimTime::from_secs(1));
        settle(&mut c, SimTime::from_secs(1));
        assert_eq!(c.coordinator().leader(), None);
        // A data-node crash while headless cannot be acted on: recovery is
        // parked, and writes bounce with a typed transient error.
        c.crash_node(1, SimTime::from_secs(2));
        assert_eq!(c.deferred_recoveries(), 1);
        let w = c.write(2, &key("b"), Value::synthetic(100), SimTime::from_secs(2));
        assert!(matches!(w.result, Err(RcError::Transient)));
        // Quorum returns: the pump drains the parked recovery.
        c.restart_coordinator(0, SimTime::from_secs(3));
        let t = settle(&mut c, SimTime::from_secs(3));
        assert_eq!(c.deferred_recoveries(), 0);
        assert!(c.read(0, &key("a"), t).result.is_ok(), "re-mastered");
        assert_eq!(c.telemetry().metrics().counter("rcstore.objects_lost"), 0);
        c.write(2, &key("b"), Value::synthetic(100), t)
            .result
            .unwrap();
    }

    #[test]
    fn minority_partition_rejects_writes_and_heals_clean() {
        let mut c = replicated();
        c.write(3, &key("a"), Value::synthetic(1000), SimTime::ZERO)
            .result
            .unwrap();
        // Coordinators live on nodes 0..3; isolating node 0 leaves a
        // 2-of-3 quorum with nodes 1-3.
        c.partition_network(&[vec![0], vec![1, 2, 3]], SimTime::from_secs(1));
        let t = settle(&mut c, SimTime::from_secs(1));
        assert!(c.membership().partition().is_split());
        // Minority side: typed transient rejection, never silent loss.
        let w = c.write(0, &key("m"), Value::synthetic(100), t);
        assert!(matches!(w.result, Err(RcError::Transient)));
        // Majority side keeps serving.
        c.write(1, &key("q"), Value::synthetic(100), t)
            .result
            .unwrap();
        assert!(c.read(2, &key("q"), t).result.is_ok());
        c.heal_partition(t + Duration::from_secs(1));
        let t2 = settle(&mut c, t + Duration::from_secs(1));
        // Everyone serves again, nothing was lost.
        c.write(0, &key("m"), Value::synthetic(100), t2)
            .result
            .unwrap();
        assert!(c.read(0, &key("a"), t2).result.is_ok());
        assert_eq!(c.telemetry().metrics().counter("rcstore.objects_lost"), 0);
    }

    #[test]
    fn isolated_leader_steps_down_and_majority_reelects() {
        let mut c = replicated();
        let old = c.isolate_leader(SimTime::from_secs(1)).unwrap();
        assert_eq!(old, 0);
        let t = settle(&mut c, SimTime::from_secs(1));
        let new = c.coordinator().leader().expect("majority re-elected");
        assert_ne!(new, old);
        // The old leader's side cannot commit; the majority side can.
        let w = c.write(old, &key("x"), Value::synthetic(100), t);
        assert!(matches!(w.result, Err(RcError::Transient)));
        c.write(new, &key("y"), Value::synthetic(100), t)
            .result
            .unwrap();
        c.heal_partition(t + Duration::from_secs(1));
        let t2 = settle(&mut c, t + Duration::from_secs(1));
        c.write(old, &key("x"), Value::synthetic(100), t2)
            .result
            .unwrap();
    }

    #[test]
    fn gossip_confirms_dead_node_then_recovers_it() {
        let mut c = gossiped();
        c.write(1, &key("a"), Value::synthetic(1000), SimTime::ZERO)
            .result
            .unwrap();
        let master = c.master_of(&key("a")).unwrap();
        assert_eq!(master, 1);
        // A crash under gossip is *not* recovered omnisciently: the tablet
        // map still points at the dead node until membership confirms it.
        c.crash_node(1, SimTime::from_secs(1));
        assert_eq!(c.master_of(&key("a")), Some(1));
        // Drive probe rounds until suspicion matures into confirmation
        // (period 1 s, confirm_after 3 s).
        let mut t = SimTime::from_secs(1);
        let mut confirmed = false;
        for _ in 0..20 {
            t += crate::gossip::PROBE_PERIOD;
            let events = c.gossip_round(t);
            if events
                .iter()
                .any(|e| matches!(e, GossipEvent::Confirmed { node: 1, .. }))
            {
                confirmed = true;
                break;
            }
        }
        assert!(confirmed, "gossip confirmed the dead node");
        assert_eq!(c.member_state(1), MemberState::Dead);
        // Confirmation triggered re-mastering off the dead node.
        let m = c.master_of(&key("a")).unwrap();
        assert_ne!(m, 1);
        assert!(c.read(0, &key("a"), t).result.is_ok());
        // The node comes back: probes refute the verdict and reconcile.
        c.restart_node(1, t);
        let mut rejoined = false;
        for _ in 0..20 {
            t += crate::gossip::PROBE_PERIOD;
            let events = c.gossip_round(t);
            if events
                .iter()
                .any(|e| matches!(e, GossipEvent::Rejoined { node: 1, .. }))
            {
                rejoined = true;
                break;
            }
        }
        assert!(rejoined, "gossip observed the rejoin");
        assert_eq!(c.member_state(1), MemberState::Alive);
        assert_eq!(c.telemetry().metrics().counter("rcstore.objects_lost"), 0);
    }

    #[test]
    fn partition_fences_stale_masters_on_heal() {
        let mut c = gossiped();
        c.write(3, &key("a"), Value::synthetic(1000), SimTime::ZERO)
            .result
            .unwrap();
        assert_eq!(c.master_of(&key("a")), Some(3));
        // Node 3 lands alone across the partition. Probes stop reaching
        // it, suspicion matures, and the confirmed-dead verdict re-masters
        // its keys from reachable backups — fencing the copy it still
        // holds (the node is alive, just unreachable).
        c.partition_network(&[vec![0, 1, 2], vec![3]], SimTime::from_secs(1));
        let mut t = SimTime::from_secs(1);
        let mut confirmed = false;
        for _ in 0..20 {
            t += crate::gossip::PROBE_PERIOD;
            let events = c.gossip_round(t);
            if events
                .iter()
                .any(|e| matches!(e, GossipEvent::Confirmed { node: 3, .. }))
            {
                confirmed = true;
                break;
            }
        }
        assert!(confirmed, "membership confirmed the unreachable node");
        let m = c.master_of(&key("a")).unwrap();
        assert_ne!(m, 3, "re-mastered off the unreachable node");
        assert!(c.read(1, &key("a"), t).result.is_ok());
        assert!(
            c.node(3).has_master(&key("a")),
            "stale copy still on the minority side, fenced"
        );
        // Heal: the fenced copy is expunged, not resurrected.
        c.heal_partition(t + Duration::from_secs(1));
        let t2 = t + Duration::from_secs(1);
        assert_eq!(c.master_of(&key("a")), Some(m));
        assert!(!c.node(3).has_master(&key("a")), "stale master expunged");
        assert!(c.read(3, &key("a"), t2).result.is_ok());
        assert_eq!(c.telemetry().metrics().counter("rcstore.objects_lost"), 0);
    }

    #[test]
    fn replicated_failover_is_deterministic_per_seed() {
        let run = || {
            let mut c = replicated();
            c.write(0, &key("a"), Value::synthetic(500), SimTime::ZERO)
                .result
                .unwrap();
            c.crash_coordinator(0, SimTime::from_secs(1));
            let t = settle(&mut c, SimTime::from_secs(1));
            c.write(1, &key("b"), Value::synthetic(500), t)
                .result
                .unwrap();
            c.isolate_leader(t + Duration::from_secs(1));
            let t2 = settle(&mut c, t + Duration::from_secs(1));
            c.heal_partition(t2);
            let t3 = settle(&mut c, t2);
            c.write(2, &key("c"), Value::synthetic(500), t3)
                .result
                .unwrap();
            (
                c.coordinator().leader(),
                c.coordinator().term(),
                c.coordinator().last_index(),
                c.telemetry().metrics().counter("raft.commits"),
            )
        };
        assert_eq!(run(), run(), "same seed, same trajectory");
    }

    #[test]
    fn single_replica_coordinator_charges_no_commit_latency() {
        let mut c = Cluster::new(base_config());
        assert!(!c.coordinator().is_replicated());
        let t = c.write(0, &key("a"), Value::synthetic(100), SimTime::ZERO);
        t.result.unwrap();
        // Raft metrics are absent entirely in the default layout: lazily
        // registered only for replicated control planes.
        assert_eq!(c.telemetry().metrics().counter("raft.commits"), 0);
        let mut r = replicated();
        let rt = r.write(0, &key("a"), Value::synthetic(100), SimTime::ZERO);
        rt.result.unwrap();
        assert!(rt.latency > t.latency, "replication charges commit latency");
        assert_eq!(r.telemetry().metrics().counter("raft.commits"), 1);
    }
}
