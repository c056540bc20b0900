//! The CacheAgent (§6.4): vertical autoscaling of the per-node cache pool,
//! the slack pool, fast reclamation (Figure 8's Sc1–Sc3), and the periodic
//! eviction policy (§6.3).
//!
//! The agent is the [`MemoryBroker`] between sandboxes and the co-located
//! cache node: every byte a sandbox gains is a byte the cache gives up, and
//! vice versa. Reclamation follows the paper's order — first drop objects
//! already persisted to the RSDS (clean, cold), migrate hot objects to
//! another node by backup promotion, and write back dirty outputs in
//! parallel — so a sandbox never waits on a full data transfer.

use crate::ml::FnKey;
use crate::policy::{build_policy, CapacityTelemetry, EvictView, PolicyHandle, PolicyKind};
use ofc_faas::{MemoryBroker, NodeId};
use ofc_objstore::store::ObjectStore;
use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::Key;
use ofc_simtime::{Sim, SimTime};
use ofc_telemetry::{Counter, Gauge, Histogram, Phase, Telemetry};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

/// Initial per-node slack pool (§6.4: 100 MB).
pub const SLACK_INITIAL: u64 = 100 << 20;

/// Lower bound of the adapted slack pool.
pub const SLACK_MIN: u64 = 64 << 20;

/// Upper bound of the adapted slack pool.
pub const SLACK_MAX: u64 = 512 << 20;

/// Slack adjustment period (§6.4: 120 s).
pub const SLACK_ADJUST_EVERY: Duration = Duration::from_secs(120);

/// Memory-churn sampling period (§6.4: 60 s).
pub const CHURN_SAMPLE_EVERY: Duration = Duration::from_secs(60);

/// Sliding-window length of churn samples.
pub const CHURN_WINDOW: usize = 5;

/// Safety factor over mean churn.
pub const SLACK_FACTOR: f64 = 1.5;

/// Periodic eviction period (§6.3: 300 s).
pub const EVICT_EVERY: Duration = Duration::from_secs(300);

/// Eviction rule (§6.3): fewer reads than this (`n_access < 5`).
pub const EVICT_MIN_ACCESS: u64 = 5;

/// Cadence of the cache-size telemetry series (Figure 10).
pub const TELEMETRY_EVERY: Duration = Duration::from_secs(30);

/// Agent tunables (paper defaults, §6.3–6.4).
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Eviction rule: idle longer than this (30 min).
    pub evict_idle: Duration,
    /// Grace period before the `n_access` rule applies to young objects.
    pub evict_grace: Duration,
    /// Objects at or above this access count are migrated (promotion)
    /// rather than dropped during reclamation.
    pub hot_access_threshold: u64,
    /// Hard cap on the per-node cache pool. The agent normally regrows
    /// the pool into every released byte of node memory; contention
    /// studies (`macro_mega`'s noisy-neighbor and occupancy-attack
    /// variants) cap it so a fixed budget stays contended. `None` (the
    /// default) keeps the opportunistic regrowth byte-identical to
    /// earlier revisions.
    pub pool_cap: Option<u64>,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            evict_idle: Duration::from_secs(30 * 60),
            evict_grace: Duration::from_secs(300),
            hot_access_threshold: 5,
            pool_cap: None,
        }
    }
}

/// Pre-registered handles for the agent's `agent.*` metrics (feeds
/// Table 2 and, through the cache-size gauge series, Figure 10).
#[derive(Debug)]
struct AgentMetrics {
    scale_ups: Counter,
    scale_downs_plain: Counter,
    scale_downs_migration: Counter,
    scale_downs_eviction: Counter,
    periodic_evictions: Counter,
    evict_scan_visited: Counter,
    writebacks: Counter,
    scale_up_nanos: Histogram,
    scale_down_nanos: Histogram,
    cache_size: Gauge,
}

impl AgentMetrics {
    fn new(t: &Telemetry) -> Self {
        AgentMetrics {
            scale_ups: t.counter("agent.scale_ups"),
            scale_downs_plain: t.counter("agent.scale_downs_plain"),
            scale_downs_migration: t.counter("agent.scale_downs_migration"),
            scale_downs_eviction: t.counter("agent.scale_downs_eviction"),
            periodic_evictions: t.counter("agent.periodic_evictions"),
            evict_scan_visited: t.counter("agent.evict_scan_visited"),
            writebacks: t.counter("agent.writebacks"),
            scale_up_nanos: t.histogram("agent.scale_up_nanos"),
            scale_down_nanos: t.histogram("agent.scale_down_nanos"),
            cache_size: t.gauge("agent.cache_size_bytes"),
        }
    }
}

/// Write-back callback for dirty objects reclaimed from the cache.
pub type WritebackFn = Box<dyn FnMut(&Key)>;

/// A recurring agent activity driven by [`AgentHandle::start`].
type PeriodicFn = Rc<dyn Fn(&mut CacheAgent, SimTime)>;

/// The cache agent. Wrap in [`AgentHandle`] for the broker seam.
pub struct CacheAgent {
    cfg: AgentConfig,
    cluster: Rc<RefCell<Cluster>>,
    store: Rc<RefCell<ObjectStore>>,
    /// Per-node slack pool size.
    slack: Vec<u64>,
    /// Per-node last-known sandbox commitment.
    committed: Vec<u64>,
    /// Per-node total node memory (learned from broker calls).
    totals: Vec<u64>,
    /// Per-node churn samples.
    churn: Vec<VecDeque<u64>>,
    /// Per-node committed value at the previous churn sample.
    churn_prev: Vec<u64>,
    telemetry: Telemetry,
    metrics: AgentMetrics,
    /// Callback invoked when a dirty object must be written back during
    /// reclamation (installed by the data plane; performs the shadow
    /// fulfillment so the store sees the payload).
    writeback: Option<WritebackFn>,
    /// The installed cache policy: janitor victims and slack targets
    /// delegate here (DESIGN.md §15).
    policy: PolicyHandle,
}

/// Shared handle to the agent.
#[derive(Clone)]
pub struct AgentHandle(pub Rc<RefCell<CacheAgent>>);

impl CacheAgent {
    /// Creates an agent over a cache cluster and the RSDS.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        cfg: AgentConfig,
        cluster: Rc<RefCell<Cluster>>,
        store: Rc<RefCell<ObjectStore>>,
        telemetry: &Telemetry,
    ) -> AgentHandle {
        let n = cluster.borrow().n_nodes();
        let metrics = AgentMetrics::new(telemetry);
        // The store's cold eviction index must agree with this agent's
        // access bound before the periodic sweeps start.
        cluster
            .borrow_mut()
            .set_cold_access_threshold(EVICT_MIN_ACCESS);
        // Default policy until `set_policy` installs the shared one.
        let policy = build_policy(PolicyKind::Ofc, telemetry);
        AgentHandle(Rc::new(RefCell::new(CacheAgent {
            slack: vec![SLACK_INITIAL; n],
            committed: vec![0; n],
            totals: vec![0; n],
            churn: vec![VecDeque::new(); n],
            churn_prev: vec![0; n],
            cfg,
            cluster,
            store,
            telemetry: telemetry.clone(),
            metrics,
            writeback: None,
            policy,
        })))
    }

    /// Installs the dirty-object write-back callback (wired by the data
    /// plane, which owns the shadow-version bookkeeping).
    pub fn set_writeback(&mut self, f: Box<dyn FnMut(&Key)>) {
        self.writeback = Some(f);
    }

    /// Installs a cache policy (shared with the scheduler and the plane).
    pub fn set_policy(&mut self, policy: PolicyHandle) {
        self.policy = policy;
    }

    /// The observability plane this agent records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current slack pool of `node`.
    pub fn slack(&self, node: NodeId) -> u64 {
        self.slack[node]
    }

    fn record_size(&mut self, now: SimTime) {
        let size = self.cluster.borrow().pool_bytes();
        self.metrics.cache_size.set(now, size as f64);
    }

    /// Frees node memory so sandboxes can commit `committed_after` bytes:
    /// shrinks the cache pool following §6.4's reclamation order. Returns
    /// the critical-path delay.
    fn reserve_impl(
        &mut self,
        sim: &mut Sim,
        node: NodeId,
        committed_after: u64,
        total: u64,
    ) -> Option<Duration> {
        self.note_committed(node, committed_after, total);
        if committed_after > total {
            return None;
        }
        let pool = self.cluster.borrow().node(node).pool_bytes();
        if committed_after + pool + self.slack[node] <= total {
            // The request fits beside the cache (absorbed by free + slack).
            return Some(Duration::ZERO);
        }
        // Deficit comes out of the cache pool.
        let target_pool = self.cap_pool(total.saturating_sub(committed_after + self.slack[node]));
        let mut delay = Duration::ZERO;
        let used = self.cluster.borrow().node(node).used_bytes();
        let mut migrated = false;
        let mut evicted = false;

        if used > target_pool {
            // Free live objects: §6.4 order — persisted outputs and cold
            // inputs are dropped, hot inputs migrate by promotion, dirty
            // outputs are written back in parallel and dropped.
            let mut need = used - target_pool;
            let lru = self.cluster.borrow().node(node).lru_masters();
            for key in lru {
                if need == 0 {
                    break;
                }
                let (size, n_access, dirty) = {
                    let c = self.cluster.borrow();
                    let Some(obj) = c.node(node).peek_master(&key) else {
                        continue;
                    };
                    (obj.value.size(), obj.stats.n_access, obj.dirty)
                };
                if dirty {
                    // Parallel write-back (does not block the reclamation);
                    // afterwards the object is clean and evictable.
                    if let Some(wb) = self.writeback.as_mut() {
                        wb(&key);
                    }
                    self.cluster.borrow_mut().mark_clean(&key).ok();
                    self.metrics.writebacks.inc();
                }
                if n_access >= self.cfg.hot_access_threshold {
                    let t = self
                        .cluster
                        .borrow_mut()
                        .migrate_by_promotion(&key, sim.now());
                    if t.result.is_ok() {
                        delay += t.latency;
                        migrated = true;
                        need = need.saturating_sub(size);
                        continue;
                    }
                }
                let t = self.cluster.borrow_mut().evict(&key);
                if t.result.is_ok() {
                    evicted = true;
                    need = need.saturating_sub(size);
                }
            }
            if need > 0 {
                // Could not free enough (e.g. everything is busy/dirty).
                return None;
            }
        }
        let t = self.cluster.borrow_mut().resize_pool(node, target_pool);
        if t.result.is_err() {
            return None;
        }
        delay += t.latency;
        if evicted {
            delay += Duration::from_micros(84); // Sc3 − Sc1 residual (§7.2.1)
        }

        if migrated {
            self.metrics.scale_downs_migration.inc();
        } else if evicted {
            self.metrics.scale_downs_eviction.inc();
        } else {
            self.metrics.scale_downs_plain.inc();
        }
        self.metrics.scale_down_nanos.record_duration(delay);
        self.telemetry
            .span_at(node as u64, Phase::ScaleDown, sim.now(), delay);
        self.record_size(sim.now());
        Some(delay)
    }

    /// Applies the configured [`AgentConfig::pool_cap`] to a pool target.
    fn cap_pool(&self, target: u64) -> u64 {
        self.cfg.pool_cap.map_or(target, |cap| target.min(cap))
    }

    /// Returns memory to the cache after sandboxes released it.
    fn release_impl(&mut self, sim: &mut Sim, node: NodeId, committed_after: u64, total: u64) {
        self.note_committed(node, committed_after, total);
        let target_pool = self.cap_pool(total.saturating_sub(committed_after + self.slack[node]));
        let pool = self.cluster.borrow().node(node).pool_bytes();
        if target_pool > pool {
            let t = self.cluster.borrow_mut().resize_pool(node, target_pool);
            if t.result.is_ok() {
                self.metrics.scale_ups.inc();
                self.metrics.scale_up_nanos.record_duration(t.latency);
                self.telemetry
                    .span_at(node as u64, Phase::ScaleUp, sim.now(), t.latency);
                self.record_size(sim.now());
            }
        }
    }

    fn note_committed(&mut self, node: NodeId, committed: u64, total: u64) {
        if node < self.committed.len() {
            self.committed[node] = committed;
            self.totals[node] = total;
        }
    }

    /// One churn sample: records `|Δ committed|` per node (§6.4).
    fn sample_churn(&mut self) {
        for node in 0..self.committed.len() {
            let delta = self.committed[node].abs_diff(self.churn_prev[node]);
            self.churn_prev[node] = self.committed[node];
            let w = self.churn[node].len();
            if w >= CHURN_WINDOW {
                self.churn[node].pop_front();
            }
            self.churn[node].push_back(delta);
        }
    }

    /// Slack adjustment (§6.4, every 120 s): the installed policy turns
    /// the churn window plus plane hit-rate telemetry into a per-node
    /// slack target.
    fn adjust_slack(&mut self) {
        let m = self.telemetry.metrics();
        let (local_hits, remote_hits, misses) = (
            m.counter("plane.local_hits"),
            m.counter("plane.remote_hits"),
            m.counter("plane.misses"),
        );
        for node in 0..self.slack.len() {
            let churn_mean = if self.churn[node].is_empty() {
                None
            } else {
                Some(self.churn[node].iter().sum::<u64>() as f64 / self.churn[node].len() as f64)
            };
            self.slack[node] = self
                .policy
                .borrow_mut()
                .target_capacity(&CapacityTelemetry {
                    node,
                    churn_mean,
                    current_slack: self.slack[node],
                    slack_min: SLACK_MIN,
                    slack_max: SLACK_MAX,
                    slack_factor: SLACK_FACTOR,
                    local_hits,
                    remote_hits,
                    misses,
                });
        }
    }

    /// Periodic eviction pass (§6.3): the installed policy selects janitor
    /// victims from a read-only [`EvictView`]; the agent applies them —
    /// write-back if dirty, then evict.
    ///
    /// The default policy draws victims from the store's eviction-candidate
    /// index, so each tick visits only the expirable prefix of the object
    /// population; `agent.evict_scan_visited` counts the entries actually
    /// inspected, whichever scan the policy chose.
    fn periodic_evict(&mut self, now: SimTime) {
        let keys = {
            let c = self.cluster.borrow();
            let view = EvictView::new(&c, now, self.cfg.evict_grace, self.cfg.evict_idle);
            let keys = self.policy.borrow_mut().select_victims(&view, 0);
            self.metrics.evict_scan_visited.add(view.visited());
            keys
        };
        for key in keys {
            let dirty = self.cluster.borrow().is_dirty(&key).unwrap_or(false);
            if dirty {
                if let Some(wb) = self.writeback.as_mut() {
                    wb(&key);
                }
                self.cluster.borrow_mut().mark_clean(&key).ok();
                self.metrics.writebacks.inc();
            }
            let t = self.cluster.borrow_mut().evict(&key);
            if t.result.is_ok() {
                self.metrics.periodic_evictions.inc();
                self.telemetry.span_at(0, Phase::Evict, now, t.latency);
            }
        }
        let _ = &self.store; // Store participates via the writeback hook.
    }
}

impl AgentHandle {
    /// Starts the agent's recurring activities on the simulator: churn
    /// sampling, slack adjustment, periodic eviction, telemetry.
    pub fn start(&self, sim: &mut Sim) {
        fn every(sim: &mut Sim, period: Duration, agent: AgentHandle, f: PeriodicFn) {
            sim.schedule_in(period, move |sim| {
                f(&mut agent.0.borrow_mut(), sim.now());
                every(sim, period, agent, f);
            });
        }
        every(
            sim,
            CHURN_SAMPLE_EVERY,
            self.clone(),
            Rc::new(|a, _| a.sample_churn()),
        );
        every(
            sim,
            SLACK_ADJUST_EVERY,
            self.clone(),
            Rc::new(|a, _| a.adjust_slack()),
        );
        every(
            sim,
            EVICT_EVERY,
            self.clone(),
            Rc::new(|a, now| a.periodic_evict(now)),
        );
        every(
            sim,
            TELEMETRY_EVERY,
            self.clone(),
            Rc::new(|a, now| a.record_size(now)),
        );
    }

    /// The observability plane this agent records into (cloned handle).
    pub fn telemetry(&self) -> Telemetry {
        self.0.borrow().telemetry().clone()
    }
}

impl MemoryBroker for AgentHandle {
    fn reserve(
        &mut self,
        sim: &mut Sim,
        node: NodeId,
        _bytes: u64,
        committed_after: u64,
        total: u64,
    ) -> Option<Duration> {
        self.0
            .borrow_mut()
            .reserve_impl(sim, node, committed_after, total)
    }

    fn release(
        &mut self,
        sim: &mut Sim,
        node: NodeId,
        _bytes: u64,
        committed_after: u64,
        total: u64,
    ) {
        self.0
            .borrow_mut()
            .release_impl(sim, node, committed_after, total)
    }
}

/// Dummy key type re-export check (keeps `FnKey` linked into docs).
#[doc(hidden)]
pub type _FnKeyAlias = FnKey;

#[cfg(test)]
mod tests {
    use super::*;
    use ofc_rcstore::{ClusterConfig, Value};

    const MB: u64 = 1 << 20;

    fn setup(pool_mb: u64) -> (AgentHandle, Rc<RefCell<Cluster>>, Sim) {
        let cluster = Rc::new(RefCell::new(Cluster::new(ClusterConfig {
            nodes: 3,
            replication_factor: 1,
            node_pool_bytes: pool_mb * MB,
            max_object_bytes: 10 * MB,
            segment_bytes: 16 * MB,
            ..ClusterConfig::default()
        })));
        let store = Rc::new(RefCell::new(ObjectStore::swift()));
        let agent = CacheAgent::new(
            AgentConfig::default(),
            Rc::clone(&cluster),
            store,
            &Telemetry::standalone(),
        );
        (agent, cluster, Sim::new(0))
    }

    #[test]
    fn reserve_within_free_memory_is_instant() {
        let (mut agent, _cluster, mut sim) = setup(256);
        // Node total 4 GB, pool 256 MB, slack 100 MB: a 1 GB commit fits.
        let d = agent.reserve(&mut sim, 0, 1 << 30, 1 << 30, 4 << 30);
        assert_eq!(d, Some(Duration::ZERO));
    }

    #[test]
    fn reserve_shrinks_empty_cache_plain() {
        let (mut agent, cluster, mut sim) = setup(1024);
        // total 2 GB: commit 1.5 GB forces the 1 GB pool down (Sc1).
        let d = agent
            .reserve(&mut sim, 0, 1536 * MB, 1536 * MB, 2048 * MB)
            .expect("reserve must succeed");
        assert_eq!(d, Duration::from_micros(289));
        assert!(cluster.borrow().node(0).pool_bytes() <= 512 * MB);
        let m = agent.telemetry().metrics();
        assert_eq!(m.counter("agent.scale_downs_plain"), 1);
        assert_eq!(m.counter("agent.scale_downs_eviction"), 0);
    }

    #[test]
    fn reserve_evicts_cold_objects() {
        let (mut agent, cluster, mut sim) = setup(1024);
        // Fill node 0 with 60 cold clean objects of 10 MB.
        for i in 0..60 {
            cluster
                .borrow_mut()
                .write_with_dirty(
                    0,
                    &Key::from(format!("k{i}")),
                    Value::synthetic(10 * MB),
                    SimTime::ZERO,
                    false,
                )
                .result
                .unwrap();
        }
        let used = cluster.borrow().node(0).used_bytes();
        assert!(used >= 500 * MB);
        let d = agent
            .reserve(&mut sim, 0, 1536 * MB, 1536 * MB, 2048 * MB)
            .expect("reserve must succeed");
        // Sc3: eviction happened; scaling time reflects it.
        assert!(d >= Duration::from_micros(373), "got {d:?}");
        let m = agent.telemetry().metrics();
        assert_eq!(m.counter("agent.scale_downs_eviction"), 1);
        assert!(cluster.borrow().node(0).used_bytes() < used);
    }

    #[test]
    fn reserve_migrates_hot_objects() {
        let (mut agent, cluster, mut sim) = setup(1024);
        for i in 0..60 {
            let key = Key::from(format!("k{i}"));
            cluster
                .borrow_mut()
                .write_with_dirty(0, &key, Value::synthetic(10 * MB), SimTime::ZERO, false)
                .result
                .unwrap();
            // Make every object hot (n_access >= 5).
            for _ in 0..5 {
                cluster
                    .borrow_mut()
                    .read(0, &key, SimTime::ZERO)
                    .result
                    .unwrap();
            }
        }
        agent
            .reserve(&mut sim, 0, 1536 * MB, 1536 * MB, 2048 * MB)
            .expect("reserve must succeed");
        let m = agent.telemetry().metrics();
        assert_eq!(
            m.counter("agent.scale_downs_migration"),
            1,
            "hot objects must migrate"
        );
        // The scale-down appears in the span stream as well.
        assert_eq!(agent.telemetry().trace().phase_count(Phase::ScaleDown), 1);
        // The objects stay cached, just mastered elsewhere.
        let c = cluster.borrow();
        assert!(c.len() == 60, "migration must not lose objects");
    }

    #[test]
    fn reserve_writes_back_dirty_objects_via_hook() {
        let (agent, cluster, mut sim) = setup(1024);
        for i in 0..60 {
            cluster
                .borrow_mut()
                .write(
                    0,
                    &Key::from(format!("k{i}")),
                    Value::synthetic(10 * MB),
                    SimTime::ZERO,
                )
                .result
                .unwrap();
        }
        let written: Rc<RefCell<Vec<String>>> = Rc::default();
        {
            let sink = Rc::clone(&written);
            agent.0.borrow_mut().set_writeback(Box::new(move |k| {
                sink.borrow_mut().push(k.to_string());
            }));
        }
        let mut broker = agent.clone();
        broker
            .reserve(&mut sim, 0, 1536 * MB, 1536 * MB, 2048 * MB)
            .expect("reserve must succeed");
        assert!(
            !written.borrow().is_empty(),
            "dirty objects must write back"
        );
        assert!(agent.telemetry().metrics().counter("agent.writebacks") > 0);
    }

    #[test]
    fn infeasible_reserve_refused() {
        let (mut agent, _cluster, mut sim) = setup(256);
        assert!(agent
            .reserve(&mut sim, 0, 5 << 30, 5 << 30, 4 << 30)
            .is_none());
    }

    #[test]
    fn release_regrows_cache() {
        let (mut agent, cluster, mut sim) = setup(1024);
        agent
            .reserve(&mut sim, 0, 1536 * MB, 1536 * MB, 2048 * MB)
            .unwrap();
        let shrunk = cluster.borrow().node(0).pool_bytes();
        agent.release(&mut sim, 0, 1024 * MB, 512 * MB, 2048 * MB);
        let regrown = cluster.borrow().node(0).pool_bytes();
        assert!(regrown > shrunk, "{regrown} !> {shrunk}");
        assert_eq!(agent.telemetry().metrics().counter("agent.scale_ups"), 1);
    }

    #[test]
    fn periodic_eviction_drops_cold_keeps_hot() {
        let (agent, cluster, mut sim) = setup(1024);
        let hot = Key::from("hot");
        let cold = Key::from("cold");
        cluster
            .borrow_mut()
            .write_with_dirty(0, &hot, Value::synthetic(MB), SimTime::ZERO, false)
            .result
            .unwrap();
        cluster
            .borrow_mut()
            .write_with_dirty(0, &cold, Value::synthetic(MB), SimTime::ZERO, false)
            .result
            .unwrap();
        agent.start(&mut sim);
        // Keep `hot` warm: it crosses the access threshold (5 reads)
        // before the first eviction pass at t = 300 s.
        for i in 1..=20u64 {
            let cluster = Rc::clone(&cluster);
            sim.schedule_at(SimTime::from_secs(i * 30), move |sim| {
                cluster
                    .borrow_mut()
                    .read(0, &hot, sim.now())
                    .result
                    .unwrap();
            });
        }
        sim.run_until(SimTime::from_secs(10 * 60));
        let c = cluster.borrow();
        assert!(c.contains(&hot), "hot object evicted");
        assert!(!c.contains(&cold), "cold object survived periodic eviction");
        drop(c);
        assert!(
            agent
                .telemetry()
                .metrics()
                .counter("agent.periodic_evictions")
                >= 1
        );
    }

    #[test]
    fn slack_adapts_to_churn() {
        let (agent, _cluster, mut sim) = setup(1024);
        agent.start(&mut sim);
        // Violent committed-memory swings on node 0, phase-shifted so each
        // 60 s churn sample observes an alternating value.
        for i in 0..20u64 {
            let a = agent.clone();
            sim.schedule_at(SimTime::from_secs(45 + i * 60), move |sim| {
                let committed = if i % 2 == 0 { 1 << 30 } else { 256 << 20 };
                let mut broker = a;
                broker.reserve(sim, 0, 0, committed, 4 << 30);
            });
        }
        sim.run_until(SimTime::from_secs(11 * 60));
        let slack = agent.0.borrow().slack(0);
        assert!(
            slack > SLACK_INITIAL,
            "slack should grow under churn: {slack}"
        );
        // Node 1 saw no churn: slack shrinks to the floor.
        let slack1 = agent.0.borrow().slack(1);
        assert_eq!(slack1, SLACK_MIN);
    }

    #[test]
    fn telemetry_series_records_cache_size() {
        let (agent, _cluster, mut sim) = setup(512);
        agent.start(&mut sim);
        sim.run_until(SimTime::from_secs(120));
        let m = agent.telemetry().metrics();
        let series = m.gauge_series("agent.cache_size_bytes").expect("series");
        assert!(series.len() >= 3);
    }
}
