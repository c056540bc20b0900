//! Assembly: installs OFC onto an OpenWhisk-model platform (§4's
//! architecture diagram).
//!
//! [`Ofc::builder`] wires every component into the platform's seams:
//!
//! * Predictor + ModelTrainer → [`crate::scheduler::OfcScheduler`] and
//!   [`crate::monitor::OfcMonitor`],
//! * CacheAgent (+ slack pool, periodic eviction) → the memory broker,
//! * Proxy/rclib + persistors + webhooks → the data plane,
//! * the RAMCloud-model cluster (one storage node per invoker), which the
//!   scheduler also asks for each request's input master (§6.5).
//!
//! Every component records into one shared [`Telemetry`] plane, so the
//! one [`Ofc::metrics`] snapshot replaces the per-subsystem snapshot
//! methods of earlier revisions:
//!
//! ```no_run
//! # use ofc_core::ofc::{Ofc, OfcConfig};
//! # let (platform, store, features): (ofc_faas::platform::PlatformHandle,
//! #     std::rc::Rc<std::cell::RefCell<ofc_objstore::store::ObjectStore>>,
//! #     ofc_core::scheduler::FeatureFn) = unimplemented!();
//! let ofc = Ofc::builder(&platform)
//!     .store(store)
//!     .features(features)
//!     .config(OfcConfig {
//!         replicated_control_plane: true,
//!         ..OfcConfig::default()
//!     })
//!     .build();
//! // ... run the simulation ...
//! let m = ofc.metrics();
//! println!("hits: {}", m.counter("plane.local_hits"));
//! ```

use crate::agent::{AgentConfig, AgentHandle, CacheAgent, SLACK_INITIAL};
use crate::cache::{OfcPlane, Persistence, PlaneConfig, SWEEP_EVERY};
use crate::ml::{FnKey, MlConfig, MlEngine};
use crate::monitor::{MonitorConfig, OfcMonitor};
use crate::policy::{build_policy, PolicyHandle, PolicyKind};
use crate::scheduler::{FeatureFn, OfcScheduler};
use ofc_dtree::data::Attribute;
use ofc_faas::platform::PlatformHandle;
use ofc_faas::{FunctionId, TenantId};
use ofc_objstore::store::ObjectStore;
use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::gossip::PROBE_PERIOD;
use ofc_rcstore::raft::{ELECTION_SEED, HEARTBEAT_INTERVAL};
use ofc_rcstore::ClusterConfig;
use ofc_simtime::Sim;
use ofc_telemetry::{MetricsSnapshot, Telemetry};
use std::cell::RefCell;
use std::rc::Rc;

/// Backup replicas per cached object (paper testbed: 2), clamped to the
/// nodes the platform has.
pub const REPLICATION_FACTOR: usize = 2;

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
    /// Replicates the cache store's control plane (DESIGN.md §16): a Raft
    /// group of [`ofc_rcstore::raft::COORDINATOR_REPLICAS`] coordinators,
    /// and SWIM-style gossip membership, so node liveness is learned by
    /// probing instead of assumed and crash recovery waits for a
    /// confirmed-dead verdict.
    /// Off (the default) keeps the single omniscient coordinator and
    /// schedules no control-plane loop.
    pub replicated_control_plane: bool,
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
}

/// Fluent assembly of an [`Ofc`] instance onto a platform.
///
/// Obtained from [`Ofc::builder`]; [`OfcBuilder::store`] and
/// [`OfcBuilder::features`] are mandatory, and every knob travels in the
/// one [`OfcConfig`] passed to [`OfcBuilder::config`].
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

    /// The configuration (defaults reproduce the paper's settings).
    pub fn config(mut self, cfg: OfcConfig) -> Self {
        self.cfg = cfg;
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

        // Adopt the platform's plane: its `faas.*` counters come first in
        // every snapshot.
        let telemetry = platform.telemetry();

        let pcfg = platform.config();
        let nodes = pcfg.nodes;
        let mut cluster = Cluster::new(ClusterConfig {
            nodes,
            replication_factor: REPLICATION_FACTOR.min(nodes.saturating_sub(1)),
            node_pool_bytes: cfg
                .cache_pool_override
                .unwrap_or_else(|| pcfg.node_mem.saturating_sub(SLACK_INITIAL)),
            max_object_bytes: cfg.plane.max_cached_object,
            control_plane: cfg.replicated_control_plane.then_some(ELECTION_SEED),
            ..ClusterConfig::default()
        });
        cluster.bind_telemetry(&telemetry);
        let cluster = Rc::new(RefCell::new(cluster));

        // One shared policy instance serves every seam (DESIGN.md §15).
        let policy = build_policy(cfg.policy, &telemetry);

        // Data plane (Proxy + rclib + persistors + webhooks).
        let plane = OfcPlane::new(
            cfg.plane.clone(),
            Rc::clone(&cluster),
            store,
            Rc::clone(&policy),
            &telemetry,
        );
        let persistence = plane.persistence();
        platform.set_dataplane(Box::new(plane));

        // Cache agent (broker seam) with the write-back hook.
        let agent = CacheAgent::new(
            cfg.agent.clone(),
            Rc::clone(&cluster),
            Rc::clone(&policy),
            &telemetry,
        );
        {
            let persistence = Rc::clone(&persistence);
            agent.0.borrow_mut().set_writeback(Box::new(move |key| {
                persistence.borrow_mut().persist_now(key);
            }));
        }
        platform.set_broker(Box::new(agent.clone()));

        // ML engine behind the scheduler and monitor seams.
        let ml = Rc::new(RefCell::new(MlEngine::with_telemetry(cfg.ml, &telemetry)));
        platform.set_scheduler(Box::new(OfcScheduler::new(
            Rc::clone(&ml),
            Rc::clone(&features),
            Rc::clone(&cluster),
            Rc::clone(&policy),
            &telemetry,
            !cfg.disable_benefit_gate,
            !cfg.disable_locality_routing,
        )));
        platform.set_monitor(Box::new(OfcMonitor::new(
            cfg.monitor.clone(),
            Rc::clone(&ml),
            features,
            &telemetry,
        )));

        Ofc {
            ml,
            cluster,
            agent,
            persistence,
            telemetry,
            policy,
            tenant_quota: cfg.plane.tenant_quota_bytes,
        }
    }
}

/// Period of the quota-fairness sample (DESIGN.md §18). O(tenants) work
/// every 30 sim-seconds — off the per-operation hot path by design.
const FAIRNESS_TICK: std::time::Duration = std::time::Duration::from_secs(30);

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
    /// eviction, telemetry sampling, dead-letter sweeping).
    pub fn start(&self, sim: &mut Sim) {
        self.agent.start(sim);
        // Dead-letter sweeper (§6.2): re-drives write-backs whose
        // persistor gave up, so every accepted write eventually lands in
        // the RSDS once faults cease.
        let persistence = Rc::clone(&self.persistence);
        sim.every(SWEEP_EVERY, move |_| {
            persistence.borrow_mut().sweep();
        });
        // Control-plane loops (DESIGN.md §16): only scheduled for a
        // replicated control plane, so default runs schedule nothing extra.
        if self.cluster.borrow().coordinator().is_some() {
            // Coordinator heartbeat: elections fire on heartbeat loss,
            // deferred recoveries drain once quorum returns.
            let cluster = Rc::clone(&self.cluster);
            sim.every(HEARTBEAT_INTERVAL, move |sim| {
                cluster.borrow_mut().coordinator_pump(sim.now());
            });
            // SWIM probe cycle: the cluster applies the membership
            // verdicts (recovery, fencing) inside the round.
            let cluster = Rc::clone(&self.cluster);
            sim.every(PROBE_PERIOD, move |sim| {
                cluster.borrow_mut().gossip_round(sim.now());
            });
        }
        // Quota plane (DESIGN.md §18): periodic fairness sample, only
        // when quotas are on — default runs schedule nothing extra. It
        // scores how evenly over-quota tenants split the slack memory
        // (Jain index in basis points; see [`crate::fairness`]).
        if let Some(quota) = self.tenant_quota {
            let gauge = self.telemetry.gauge("plane.quota_fairness_bps");
            let cluster = Rc::clone(&self.cluster);
            sim.every(FAIRNESS_TICK, move |sim| {
                let usage = cluster.borrow().owner_usage();
                let bps = crate::fairness::quota_fairness_bps(&usage, quota);
                gauge.set(sim.now(), bps as f64);
            });
        }
        let tick_every = self.policy.borrow().tick_every();
        if let Some(period) = tick_every {
            // Policy tick (DESIGN.md §15): periodic policy work — prefetch
            // selection, cold-tier expiry, cost accrual. Returned prefetch
            // requests re-fill evicted objects from the RSDS (clean
            // copies), counted by `policy.prefetches`.
            let prefetches = self.telemetry.counter("policy.prefetches");
            let (policy, cluster) = (Rc::clone(&self.policy), Rc::clone(&self.cluster));
            sim.every(period, move |sim| {
                let now = sim.now();
                let requests = policy.borrow_mut().tick(now);
                for req in requests {
                    let mut c = cluster.borrow_mut();
                    if c.contains(&req.key) {
                        continue;
                    }
                    let value = ofc_rcstore::Value::synthetic(req.size);
                    if c.write_with_dirty(req.node, &req.key, value, now, false)
                        .result
                        .is_ok()
                    {
                        prefetches.inc();
                    }
                }
            });
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
}
