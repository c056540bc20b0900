//! Assembly: installs OFC onto an OpenWhisk-model platform (§4's
//! architecture diagram).
//!
//! [`Ofc::builder`] wires every component into the platform's seams:
//!
//! * Predictor + ModelTrainer → [`crate::scheduler::OfcScheduler`] and
//!   [`crate::monitor::OfcMonitor`],
//! * CacheAgent (+ slack pool, periodic eviction) → the memory broker,
//! * Proxy/rclib + persistors + webhooks → the data plane,
//! * the RAMCloud-model cluster (one storage node per invoker) and the
//!   locality oracle → the load balancer.
//!
//! Every component records into one shared [`Telemetry`] plane, so a
//! single [`Ofc::metrics`] / [`Ofc::trace`] pair replaces the per-subsystem
//! snapshot methods of earlier revisions:
//!
//! ```no_run
//! # use ofc_core::ofc::Ofc;
//! # let (platform, store, features): (ofc_faas::platform::PlatformHandle,
//! #     std::rc::Rc<std::cell::RefCell<ofc_objstore::store::ObjectStore>>,
//! #     ofc_core::scheduler::FeatureFn) = unimplemented!();
//! let ofc = Ofc::builder(&platform)
//!     .store(store)
//!     .features(features)
//!     .replication(2)
//!     .build();
//! // ... run the simulation ...
//! let m = ofc.metrics();
//! println!("hits: {}", m.counter("plane.local_hits"));
//! println!("{}", ofc.trace().to_json());
//! ```

use crate::agent::{AgentConfig, AgentHandle, CacheAgent};
use crate::cache::{rc_key, OfcPlane, Persistence, PlaneConfig};
use crate::ml::{FnKey, MlConfig, MlEngine};
use crate::monitor::{MonitorConfig, OfcMonitor};
use crate::policy::{build_policy, PolicyHandle, PolicyKind};
use crate::scheduler::{FeatureFn, OfcScheduler};
use ofc_dtree::data::Attribute;
use ofc_faas::platform::PlatformHandle;
use ofc_faas::{FunctionId, TenantId};
use ofc_objstore::store::ObjectStore;
use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::shard::ShardConfig;
use ofc_rcstore::ClusterConfig;
use ofc_simtime::Sim;
use ofc_telemetry::{MetricsSnapshot, Telemetry, TelemetryConfig, TraceHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// Top-level OFC configuration.
#[derive(Debug, Clone, Default)]
pub struct OfcConfig {
    /// ML engine tunables.
    pub ml: MlConfig,
    /// Cache-agent tunables.
    pub agent: AgentConfig,
    /// Data-plane tunables.
    pub plane: PlaneConfig,
    /// Monitor tunables.
    pub monitor: MonitorConfig,
    /// Replication factor of the cache store (paper testbed: 2).
    pub replication_factor: usize,
    /// Data-plane shards of the cache store (DESIGN.md §11); `0` or `1`
    /// keeps the unsharded single-coordinator layout.
    pub shards: usize,
    /// Replica-batching threshold: backup writes coalesce per
    /// (shard, backup) pair and flush at this many entries (or on the
    /// periodic flush tick). `0` or `1` keeps unbatched synchronous
    /// replication.
    pub replication_batch: usize,
    /// Coordinator replicas of the cache store's control plane
    /// (DESIGN.md §16); `0` or `1` keeps the single omniscient
    /// coordinator and is byte-identical to earlier revisions.
    pub coordinator_replicas: usize,
    /// Enables SWIM-style gossip membership (DESIGN.md §16): node
    /// liveness is then learned by probing instead of assumed, and crash
    /// recovery waits for a confirmed-dead verdict.
    pub gossip: bool,
    /// Which cache policy to install (DESIGN.md §15). The default
    /// [`PolicyKind::Ofc`] reproduces the paper's behavior byte-for-byte;
    /// the rivals feed the `bakeoff` bench.
    pub policy: PolicyKind,
    /// Ablation: disable the cache-benefit gate (cache everything).
    pub disable_benefit_gate: bool,
    /// Ablation: disable locality-aware routing (§6.5).
    pub disable_locality_routing: bool,
    /// Overrides the initial per-node cache pool (contention studies);
    /// `None` uses all node memory beyond the slack pool.
    pub cache_pool_override: Option<u64>,
    /// Recording level of the shared observability plane.
    pub telemetry: TelemetryConfig,
}

/// Fluent assembly of an [`Ofc`] instance onto a platform.
///
/// Obtained from [`Ofc::builder`]; every knob defaults sensibly, and only
/// [`OfcBuilder::store`] and [`OfcBuilder::features`] are mandatory.
#[must_use = "an OfcBuilder does nothing until .build() is called"]
pub struct OfcBuilder {
    platform: PlatformHandle,
    store: Option<Rc<RefCell<ObjectStore>>>,
    features: Option<FeatureFn>,
    cfg: OfcConfig,
}

impl OfcBuilder {
    /// The backing object store OFC interposes on (mandatory).
    pub fn store(mut self, store: Rc<RefCell<ObjectStore>>) -> Self {
        self.store = Some(store);
        self
    }

    /// The ML feature extractor (mandatory).
    pub fn features(mut self, features: FeatureFn) -> Self {
        self.features = Some(features);
        self
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, cfg: OfcConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// ML engine tunables.
    pub fn ml(mut self, ml: MlConfig) -> Self {
        self.cfg.ml = ml;
        self
    }

    /// Cache-agent tunables.
    pub fn agent(mut self, agent: AgentConfig) -> Self {
        self.cfg.agent = agent;
        self
    }

    /// Data-plane tunables.
    pub fn plane(mut self, plane: PlaneConfig) -> Self {
        self.cfg.plane = plane;
        self
    }

    /// Monitor tunables.
    pub fn monitor(mut self, monitor: MonitorConfig) -> Self {
        self.cfg.monitor = monitor;
        self
    }

    /// Replication factor of the cache store (paper testbed: 2).
    pub fn replication(mut self, factor: usize) -> Self {
        self.cfg.replication_factor = factor;
        self
    }

    /// Shards the cache store's data plane (DESIGN.md §11).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Batches backup replication, flushing every `entries` per
    /// (shard, backup) pair (DESIGN.md §11).
    pub fn replication_batch(mut self, entries: usize) -> Self {
        self.cfg.replication_batch = entries;
        self
    }

    /// Replicates the control plane across `replicas` coordinator
    /// processes (DESIGN.md §16).
    pub fn coordinator_replicas(mut self, replicas: usize) -> Self {
        self.cfg.coordinator_replicas = replicas;
        self
    }

    /// Enables gossip-based membership (DESIGN.md §16).
    pub fn gossip(mut self, enabled: bool) -> Self {
        self.cfg.gossip = enabled;
        self
    }

    /// Recording level of the shared observability plane.
    pub fn telemetry(mut self, level: TelemetryConfig) -> Self {
        self.cfg.telemetry = level;
        self
    }

    /// Selects the cache policy (DESIGN.md §15): one shared instance
    /// serves the scheduler (admission + placement), the agent (eviction
    /// victims + slack sizing) and the data plane (access notifications +
    /// cold-tier lookups).
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.cfg.policy = kind;
        self
    }

    /// Ablation: disable the cache-benefit gate (cache everything).
    pub fn disable_benefit_gate(mut self) -> Self {
        self.cfg.disable_benefit_gate = true;
        self
    }

    /// Ablation: disable locality-aware routing (§6.5).
    pub fn disable_locality_routing(mut self) -> Self {
        self.cfg.disable_locality_routing = true;
        self
    }

    /// Overrides the initial per-node cache pool (contention studies).
    pub fn cache_pool(mut self, bytes: u64) -> Self {
        self.cfg.cache_pool_override = Some(bytes);
        self
    }

    /// Enables per-tenant cache quotas (DESIGN.md §18): each tenant may
    /// hold up to `bytes` of cache, plus slack while the pool keeps
    /// headroom free. Also starts the periodic fairness sample
    /// (`plane.quota_fairness_bps`).
    pub fn tenant_quota(mut self, bytes: u64) -> Self {
        self.cfg.plane.tenant_quota_bytes = Some(bytes);
        self
    }

    /// Wires everything onto the platform.
    ///
    /// The cache cluster gets one storage node per invoker; each node's
    /// initial pool is the node memory minus the initial slack (sandboxes
    /// then claim memory through the broker).
    ///
    /// # Panics
    ///
    /// When [`OfcBuilder::store`] or [`OfcBuilder::features`] was not set.
    pub fn build(self) -> Ofc {
        let OfcBuilder {
            platform,
            store,
            features,
            cfg,
        } = self;
        let store = store.expect("OfcBuilder: .store(..) is mandatory");
        let features = features.expect("OfcBuilder: .features(..) is mandatory");

        let telemetry = Telemetry::new(cfg.telemetry);
        platform.bind_telemetry(&telemetry);

        let pcfg = platform.config();
        let nodes = pcfg.nodes;
        let replication = if cfg.replication_factor == 0 {
            2.min(nodes.saturating_sub(1))
        } else {
            cfg.replication_factor.min(nodes.saturating_sub(1))
        };
        let mut cluster = Cluster::new(ClusterConfig {
            nodes,
            replication_factor: replication,
            node_pool_bytes: cfg
                .cache_pool_override
                .unwrap_or_else(|| pcfg.node_mem.saturating_sub(cfg.agent.slack_initial)),
            max_object_bytes: cfg.plane.max_cached_object,
            segment_bytes: (cfg.plane.max_cached_object * 2).max(16 << 20),
            shard: ShardConfig {
                shards: cfg.shards.max(1),
                batch_max_entries: cfg.replication_batch.max(1),
                ..ShardConfig::default()
            },
            raft: ofc_rcstore::raft::RaftConfig {
                replicas: cfg.coordinator_replicas.max(1),
                ..ofc_rcstore::raft::RaftConfig::default()
            },
            gossip: ofc_rcstore::gossip::GossipConfig {
                enabled: cfg.gossip,
                ..ofc_rcstore::gossip::GossipConfig::default()
            },
            ..ClusterConfig::default()
        });
        cluster.bind_telemetry(&telemetry);
        let cluster = Rc::new(RefCell::new(cluster));

        // One shared policy instance serves every seam (DESIGN.md §15).
        let policy = build_policy(cfg.policy, &telemetry);

        // Data plane (Proxy + rclib + persistors + webhooks).
        let mut plane = OfcPlane::new(
            cfg.plane.clone(),
            Rc::clone(&cluster),
            Rc::clone(&store),
            &telemetry,
        );
        plane.set_policy(Rc::clone(&policy));
        let persistence = plane.persistence();
        let breakers = plane.breakers();
        platform.set_dataplane(Box::new(plane));

        // Cache agent (broker seam) with the write-back hook.
        let agent = CacheAgent::new(
            cfg.agent.clone(),
            Rc::clone(&cluster),
            Rc::clone(&store),
            &telemetry,
        );
        {
            let persistence = Rc::clone(&persistence);
            let mut a = agent.0.borrow_mut();
            a.set_writeback(Box::new(move |key| {
                persistence.borrow_mut().persist_now(key);
            }));
            a.set_policy(Rc::clone(&policy));
        }
        platform.set_broker(Box::new(agent.clone()));

        // ML engine behind the scheduler and monitor seams.
        let ml = Rc::new(RefCell::new(MlEngine::with_telemetry(
            cfg.ml.clone(),
            &telemetry,
        )));
        let mut scheduler =
            OfcScheduler::with_telemetry(Rc::clone(&ml), Rc::clone(&features), &telemetry);
        scheduler.benefit_gate = !cfg.disable_benefit_gate;
        scheduler.locality_routing = !cfg.disable_locality_routing;
        scheduler.set_policy(Rc::clone(&policy));
        platform.set_scheduler(Box::new(scheduler));
        platform.set_monitor(Box::new(OfcMonitor::with_telemetry(
            cfg.monitor.clone(),
            Rc::clone(&ml),
            features,
            &telemetry,
        )));

        // Locality oracle (§6.5): the load balancer asks the coordinator
        // which node masters the request's input object.
        {
            let cluster = Rc::clone(&cluster);
            platform
                .set_locality_oracle(Rc::new(move |id| cluster.borrow().master_of(&rc_key(id))));
        }

        Ofc {
            ml,
            cluster,
            agent,
            persistence,
            telemetry,
            policy,
            breakers,
            tenant_quota: cfg.plane.tenant_quota_bytes,
        }
    }
}

/// Period of the replication flush tick: batched backup writes sit at
/// most this long before they reach their backups (DESIGN.md §11).
const REPLICATION_FLUSH_TICK: std::time::Duration = std::time::Duration::from_millis(5);

/// Recurring replication flush: drains the cluster's coalescing buffers
/// every [`REPLICATION_FLUSH_TICK`] so batched backup writes cannot go
/// stale under a trickle workload that never hits the batch threshold.
fn start_flush_tick(sim: &mut Sim, cluster: Rc<RefCell<Cluster>>) {
    sim.schedule_in(REPLICATION_FLUSH_TICK, move |sim| {
        cluster.borrow_mut().flush_replication();
        start_flush_tick(sim, cluster);
    });
}

/// Recurring coordinator heartbeat (DESIGN.md §16): ticks the replicated
/// control plane — elections fire on heartbeat loss, deferred recoveries
/// drain once quorum returns — at the Raft heartbeat cadence.
fn start_coordinator_tick(
    sim: &mut Sim,
    period: std::time::Duration,
    cluster: Rc<RefCell<Cluster>>,
) {
    sim.schedule_in(period, move |sim| {
        cluster.borrow_mut().coordinator_pump(sim.now());
        start_coordinator_tick(sim, period, cluster);
    });
}

/// Recurring gossip round (DESIGN.md §16): runs the SWIM probe cycle and
/// reacts to membership verdicts. A quorum-side confirmed-dead verdict
/// trips the breakers of every shard anchored on the dead node, so the
/// data plane bypasses to the RSDS immediately instead of eating
/// `failure_threshold` more timeouts while recovery runs.
fn start_gossip_tick(
    sim: &mut Sim,
    period: std::time::Duration,
    cluster: Rc<RefCell<Cluster>>,
    breakers: Rc<RefCell<crate::health::ShardBreakers>>,
) {
    sim.schedule_in(period, move |sim| {
        let now = sim.now();
        let (events, anchors) = {
            let mut c = cluster.borrow_mut();
            // Snapshot shard anchors *before* the round: confirm-dead
            // recovery reassigns them, and the breakers guard the shards
            // whose requests were failing while the node was down.
            let anchors: Vec<usize> = (0..c.shards()).map(|s| c.shard_master(s)).collect();
            (c.gossip_round(now), anchors)
        };
        for ev in &events {
            if let ofc_rcstore::gossip::GossipEvent::Confirmed { node, .. } = ev {
                let mut b = breakers.borrow_mut();
                for (shard, anchor) in anchors.iter().enumerate() {
                    if anchor == node {
                        b.trip(shard, now);
                    }
                }
            }
        }
        start_gossip_tick(sim, period, cluster, breakers);
    });
}

/// Period of the quota-fairness sample (DESIGN.md §18). O(tenants) work
/// every 30 sim-seconds — off the per-operation hot path by design.
const FAIRNESS_TICK: std::time::Duration = std::time::Duration::from_secs(30);

/// Recurring fairness sample: scores how evenly over-quota tenants split
/// the slack memory (Jain index in basis points; see [`crate::fairness`])
/// and records it on the `plane.quota_fairness_bps` gauge.
fn start_fairness_tick(
    sim: &mut Sim,
    quota: u64,
    cluster: Rc<RefCell<Cluster>>,
    gauge: ofc_telemetry::Gauge,
) {
    sim.schedule_in(FAIRNESS_TICK, move |sim| {
        let usage = cluster.borrow().owner_usage();
        let bps = crate::fairness::quota_fairness_bps(&usage, quota);
        gauge.set(sim.now(), bps as f64);
        start_fairness_tick(sim, quota, cluster, gauge);
    });
}

/// Recurring policy tick: runs [`crate::policy::CachePolicy::tick`] at the
/// policy's own cadence and applies any returned prefetch requests —
/// objects not currently cached are re-filled as clean copies (their
/// payload is in the RSDS), counted by `policy.prefetches`.
fn start_policy_tick(
    sim: &mut Sim,
    period: std::time::Duration,
    policy: PolicyHandle,
    cluster: Rc<RefCell<Cluster>>,
    prefetches: ofc_telemetry::Counter,
) {
    sim.schedule_in(period, move |sim| {
        let now = sim.now();
        let requests = policy.borrow_mut().tick(now);
        for req in requests {
            let mut c = cluster.borrow_mut();
            if c.contains(&req.key) {
                continue;
            }
            if c.write_with_dirty(
                req.node,
                &req.key,
                ofc_rcstore::Value::synthetic(req.size),
                now,
                false,
            )
            .result
            .is_ok()
            {
                prefetches.inc();
            }
        }
        start_policy_tick(sim, period, policy, cluster, prefetches);
    });
}

/// A fully installed OFC instance with handles to every subsystem.
pub struct Ofc {
    /// The shared Predictor/ModelTrainer.
    pub ml: Rc<RefCell<MlEngine>>,
    /// The cache store cluster.
    pub cluster: Rc<RefCell<Cluster>>,
    /// The cache agent.
    pub agent: AgentHandle,
    /// Pending write-back state (webhook and reclamation paths).
    pub persistence: Rc<RefCell<Persistence>>,
    telemetry: Telemetry,
    policy: PolicyHandle,
    breakers: Rc<RefCell<crate::health::ShardBreakers>>,
    /// Per-tenant quota, when the quota plane is on (DESIGN.md §18).
    tenant_quota: Option<u64>,
}

impl Ofc {
    /// Starts assembling OFC onto `platform`.
    pub fn builder(platform: &PlatformHandle) -> OfcBuilder {
        OfcBuilder {
            platform: platform.clone(),
            store: None,
            features: None,
            cfg: OfcConfig::default(),
        }
    }

    /// Starts the recurring activities (slack adaptation, periodic
    /// eviction, telemetry sampling, dead-letter sweeping, and — when
    /// replica batching is on — the periodic replication flush tick that
    /// bounds how long an acked write can sit in a coalescing buffer).
    pub fn start(&self, sim: &mut Sim) {
        self.agent.start(sim);
        crate::cache::start_sweeper(sim, Rc::clone(&self.persistence));
        let batching = self.cluster.borrow().batching();
        if batching {
            start_flush_tick(sim, Rc::clone(&self.cluster));
        }
        // Control-plane loops (DESIGN.md §16): only scheduled when the
        // knobs are on, so default runs stay event-for-event identical.
        let (replicated, heartbeat, gossip_period) = {
            let c = self.cluster.borrow();
            (
                c.coordinator().is_replicated(),
                c.config().raft.heartbeat_interval,
                c.gossip_enabled().then(|| c.gossip_period()),
            )
        };
        if replicated {
            start_coordinator_tick(sim, heartbeat, Rc::clone(&self.cluster));
        }
        if let Some(period) = gossip_period {
            start_gossip_tick(
                sim,
                period,
                Rc::clone(&self.cluster),
                Rc::clone(&self.breakers),
            );
        }
        // Policy tick (DESIGN.md §15): periodic policy work — prefetch
        // selection, cold-tier expiry, cost accrual. Returned prefetch
        // requests re-fill evicted objects from the RSDS (clean copies).
        // Quota plane (DESIGN.md §18): periodic fairness sample, only
        // when quotas are on — default runs schedule nothing extra.
        if let Some(quota) = self.tenant_quota {
            let gauge = self.telemetry.gauge("plane.quota_fairness_bps");
            start_fairness_tick(sim, quota, Rc::clone(&self.cluster), gauge);
        }
        let tick_every = self.policy.borrow().tick_every();
        if let Some(period) = tick_every {
            let prefetches = self.telemetry.counter("policy.prefetches");
            start_policy_tick(
                sim,
                period,
                Rc::clone(&self.policy),
                Rc::clone(&self.cluster),
                prefetches,
            );
        }
    }

    /// The installed cache policy (shared across scheduler, agent, plane).
    pub fn policy(&self) -> PolicyHandle {
        Rc::clone(&self.policy)
    }

    /// Registers a function's ML feature schema (models start blank).
    pub fn register_function(
        &self,
        tenant: impl AsRef<str>,
        function: impl AsRef<str>,
        schema: Vec<Attribute>,
    ) {
        let key: FnKey = (
            TenantId::from(tenant.as_ref()),
            FunctionId::from(function.as_ref()),
        );
        self.ml.borrow_mut().register(key, schema);
    }

    /// The shared observability plane every subsystem records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A point-in-time snapshot of every registered metric, across all
    /// subsystems (`rcstore.*`, `agent.*`, `plane.*`, `ml.*`, `monitor.*`,
    /// `sched.*`, `faas.*`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.telemetry.metrics()
    }

    /// A point-in-time snapshot of the span stream and per-phase duration
    /// statistics.
    pub fn trace(&self) -> TraceHandle {
        self.telemetry.trace()
    }
}
