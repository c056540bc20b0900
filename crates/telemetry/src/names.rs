//! The central metric-name registry.
//!
//! Every metric name recorded anywhere in the workspace is declared here
//! exactly once, as a `pub const`. Instrumentation sites may use the
//! constant or repeat the literal, but either way `ofc-lint` (rule
//! `D3-TELEMETRY`) cross-checks each name used in `crates/{core,faas,
//! rcstore,bench}` against this module, so a typo'd or undeclared name
//! fails CI instead of silently splitting a time series. D3 also checks
//! this module itself: no two constants share a value, and every value
//! has the `<subsystem>.<snake_case_metric>` shape.
//!
//! Conventions:
//! * names are `<subsystem>.<snake_case_metric>`,
//! * duration histograms end in `_nanos`,
//! * byte-valued gauges/counters end in `_bytes`.

// ---- chaos plane (fault injection) ------------------------------------

/// Faults injected by the chaos driver (all kinds).
pub const CHAOS_FAULTS_INJECTED: &str = "chaos.faults_injected";
/// Injected node crashes.
pub const CHAOS_NODE_CRASHES: &str = "chaos.node_crashes";
/// Injected node restarts.
pub const CHAOS_NODE_RESTARTS: &str = "chaos.node_restarts";
/// Injected slow-node episodes (latency inflation).
pub const CHAOS_SLOWDOWNS: &str = "chaos.slowdowns";
/// Injected transient store-error bursts.
pub const CHAOS_TRANSIENT_BURSTS: &str = "chaos.transient_bursts";
/// Injected persistor-failure bursts.
pub const CHAOS_PERSISTOR_FAILURES: &str = "chaos.persistor_failures";
/// Injected coordinator-replica crashes.
pub const CHAOS_COORDINATOR_CRASHES: &str = "chaos.coordinator_crashes";
/// Injected coordinator-replica restarts.
pub const CHAOS_COORDINATOR_RESTARTS: &str = "chaos.coordinator_restarts";
/// Injected leader-isolation partitions (leader node cut from the rest).
pub const CHAOS_LEADER_ISOLATIONS: &str = "chaos.leader_isolations";
/// Injected network partitions (grouped reachability splits).
pub const CHAOS_PARTITIONS: &str = "chaos.partitions";

// ---- replicated coordinator (raft) ------------------------------------

/// Leader elections completed by the replicated coordinator.
pub const RAFT_ELECTIONS: &str = "raft.elections";
/// Current coordinator term (bumped on every election).
pub const RAFT_TERM: &str = "raft.term";
/// Committed length of the replicated coordinator log.
pub const RAFT_LOG_LEN: &str = "raft.log_len";
/// Snapshot installs used to catch a lagging replica up past compaction.
pub const RAFT_SNAPSHOT_INSTALLS: &str = "raft.snapshot_installs";
/// Commands committed on a majority of coordinator replicas.
pub const RAFT_COMMITS: &str = "raft.commits";
/// Proposals rejected because no leader with a replica quorum was
/// reachable (surfaced to clients as `RcError::Transient`).
pub const RAFT_NO_QUORUM_REJECTS: &str = "raft.no_quorum_rejects";

// ---- gossip membership (SWIM-style) -----------------------------------

/// Gossip probe rounds executed.
pub const GOSSIP_ROUNDS: &str = "gossip.rounds";
/// Members newly marked Suspect after a failed probe.
pub const GOSSIP_SUSPECTS: &str = "gossip.suspects";
/// Suspects confirmed dead after the suspicion timeout.
pub const GOSSIP_CONFIRMS: &str = "gossip.confirms";
/// Suspicions refuted by a later successful probe.
pub const GOSSIP_REFUTES: &str = "gossip.refutes";

// ---- faas platform -----------------------------------------------------

/// Invocations submitted to the platform.
pub const FAAS_SUBMITTED: &str = "faas.submitted";
/// Invocations that ran to completion.
pub const FAAS_COMPLETED: &str = "faas.completed";
/// Invocations killed for exceeding their memory booking.
pub const FAAS_OOM_KILLS: &str = "faas.oom_kills";
/// Invocations re-run after an OOM kill.
pub const FAAS_RETRIES: &str = "faas.retries";
/// Invocations that could not be placed on any node.
pub const FAAS_UNSCHEDULABLE: &str = "faas.unschedulable";
/// Sandboxes created from scratch.
pub const FAAS_COLD_STARTS: &str = "faas.cold_starts";
/// Invocations that reused an idle sandbox.
pub const FAAS_WARM_STARTS: &str = "faas.warm_starts";
/// Sandbox memory-limit resizes after a misprediction.
pub const FAAS_RESIZES: &str = "faas.resizes";

// ---- scheduler ---------------------------------------------------------

/// Invocations routed to a warm sandbox.
pub const SCHED_WARM_ROUTES: &str = "sched.warm_routes";
/// Invocations routed to a cold placement.
pub const SCHED_COLD_ROUTES: &str = "sched.cold_routes";
/// Memory bookings taken from the predictor.
pub const SCHED_PREDICTED_SIZES: &str = "sched.predicted_sizes";
/// Memory bookings that fell back to the static maximum.
pub const SCHED_BOOKED_FALLBACKS: &str = "sched.booked_fallbacks";

// ---- memory predictor (ML) --------------------------------------------

/// Predictions within the safety margin.
pub const ML_GOOD_PREDICTIONS: &str = "ml.good_predictions";
/// Mispredictions (under- or gross over-provisioning).
pub const ML_BAD_PREDICTIONS: &str = "ml.bad_predictions";
/// Model retraining rounds.
pub const ML_RETRAINS: &str = "ml.retrains";

// ---- out-of-memory monitor --------------------------------------------

/// Sandboxes whose limit was raised under memory pressure.
pub const MONITOR_RAISES: &str = "monitor.raises";
/// Sandboxes killed under memory pressure.
pub const MONITOR_KILLS: &str = "monitor.kills";

// ---- persistor retry plane --------------------------------------------

/// Persistor attempts re-scheduled after a transient failure.
pub const PERSIST_RETRIES: &str = "persist.retries";
/// Shadow objects whose persistor exhausted its retry budget and entered
/// the dead-letter set (re-driven by the periodic sweeper).
pub const PERSIST_DEAD_LETTERS: &str = "persist.dead_letters";

// ---- data plane (core cache) ------------------------------------------

/// Circuit-breaker state of the cache plane over time
/// (0 = closed, 1 = half-open, 2 = open).
pub const PLANE_BREAKER_STATE: &str = "plane.breaker_state";
/// Reads/writes that bypassed the cache straight to the RSDS because the
/// breaker was open or the store failed transiently.
pub const PLANE_DEGRADED_BYPASSES: &str = "plane.degraded_bypasses";
/// Reads served by the invoking node's cache.
pub const PLANE_LOCAL_HITS: &str = "plane.local_hits";
/// Reads served by a remote cache node.
pub const PLANE_REMOTE_HITS: &str = "plane.remote_hits";
/// Reads that fell through to durable storage.
pub const PLANE_MISSES: &str = "plane.misses";
/// Reads that bypassed the cache (uncacheable objects).
pub const PLANE_BYPASSES: &str = "plane.bypasses";
/// Objects inserted into the cache after a miss.
pub const PLANE_FILLS: &str = "plane.fills";
/// Write-back shadow objects created in durable storage.
pub const PLANE_SHADOWS: &str = "plane.shadows";
/// Cached objects invalidated by an uncached overwrite.
pub const PLANE_INVALIDATIONS: &str = "plane.invalidations";
/// Ephemeral intermediates dropped at pipeline end.
pub const PLANE_INTERMEDIATES_DROPPED: &str = "plane.intermediates_dropped";
/// Bytes of ephemeral intermediates that never reached storage.
pub const PLANE_EPHEMERAL_BYTES: &str = "plane.ephemeral_bytes";
/// Large objects stored as chunk sets.
pub const PLANE_CHUNKED_OBJECTS: &str = "plane.chunked_objects";
/// Reads reassembled from cached chunks.
pub const PLANE_CHUNKED_HITS: &str = "plane.chunked_hits";
/// Dirty cached objects persisted to durable storage.
pub const PLANE_PERSISTS: &str = "plane.persists";
/// Over-quota admissions denied after own-tenant reclaim failed; the
/// write/fill fell back to the RSDS (quota plane, DESIGN.md §18).
pub const PLANE_QUOTA_BYPASSES: &str = "plane.quota_bypasses";
/// Own-tenant clean LRU objects evicted to make room under quota
/// contention.
pub const PLANE_QUOTA_EVICTIONS: &str = "plane.quota_evictions";
/// Jain fairness index of the slack-memory split across over-quota
/// tenants, in basis points (10 000 = perfectly fair); sampled on the
/// telemetry tick. Per-tenant ledgers live in the cluster, keeping this
/// registry low-cardinality.
pub const PLANE_QUOTA_FAIRNESS_BPS: &str = "plane.quota_fairness_bps";
/// Over-quota admissions that won slack memory (pool headroom was free).
pub const PLANE_QUOTA_OVERSHOOTS: &str = "plane.quota_overshoots";

// ---- cache-policy plane (DESIGN.md §15) -------------------------------

/// Cold-tier hits: reads served from a policy-private cold tier (e.g.
/// InfiniCache's erasure-coded parked objects) instead of the RSDS.
pub const POLICY_COLD_HITS: &str = "policy.cold_hits";
/// Parked cold-tier objects lost to sandbox keep-alive expiry.
pub const POLICY_COLD_EXPIRIES: &str = "policy.cold_expiries";
/// Bytes currently parked in a policy-private cold tier (pre-EC).
pub const POLICY_PARKED_BYTES: &str = "policy.parked_bytes";
/// Prefetch candidates a policy requested per tick.
pub const POLICY_PREFETCH_WANTED: &str = "policy.prefetch_wanted";
/// Prefetch requests actually filled into the cache by the runtime.
pub const POLICY_PREFETCHES: &str = "policy.prefetches";
/// Accrued sandbox-rental cost of a cold tier, in nanodollars
/// (InfiniCache's Lambda-style GB-second billing).
pub const POLICY_RENTAL_COST: &str = "policy.rental_cost";

// ---- cache agent -------------------------------------------------------

/// Cache pool grow operations.
pub const AGENT_SCALE_UPS: &str = "agent.scale_ups";
/// Pool shrinks satisfied from free space.
pub const AGENT_SCALE_DOWNS_PLAIN: &str = "agent.scale_downs_plain";
/// Pool shrinks that migrated objects away.
pub const AGENT_SCALE_DOWNS_MIGRATION: &str = "agent.scale_downs_migration";
/// Pool shrinks that evicted objects.
pub const AGENT_SCALE_DOWNS_EVICTION: &str = "agent.scale_downs_eviction";
/// Objects evicted by the periodic janitor.
pub const AGENT_PERIODIC_EVICTIONS: &str = "agent.periodic_evictions";
/// Eviction-index entries inspected by the periodic janitor (the full
/// pre-index sweep visited every master per tick).
pub const AGENT_EVICT_SCAN_VISITED: &str = "agent.evict_scan_visited";
/// Dirty objects written back by the agent.
pub const AGENT_WRITEBACKS: &str = "agent.writebacks";
/// Scale-up latency distribution (nanoseconds).
pub const AGENT_SCALE_UP_NANOS: &str = "agent.scale_up_nanos";
/// Scale-down latency distribution (nanoseconds).
pub const AGENT_SCALE_DOWN_NANOS: &str = "agent.scale_down_nanos";
/// Total cache pool size over time (Figure 10).
pub const AGENT_CACHE_SIZE_BYTES: &str = "agent.cache_size_bytes";

// ---- replicated cache store -------------------------------------------

/// Reads served by the requesting node.
pub const RCSTORE_LOCAL_HITS: &str = "rcstore.local_hits";
/// Reads served by another node's master replica.
pub const RCSTORE_REMOTE_HITS: &str = "rcstore.remote_hits";
/// Reads that found no replica.
pub const RCSTORE_MISSES: &str = "rcstore.misses";
/// Object writes accepted by the store.
pub const RCSTORE_WRITES: &str = "rcstore.writes";
/// Frozen at zero: registered for the benchmark's counter set, never
/// incremented (replication is synchronous; DESIGN.md §5).
pub const RCSTORE_BATCH_FLUSHES: &str = "rcstore.batch_flushes";
/// Frozen at zero, like `rcstore.batch_flushes`.
pub const RCSTORE_BATCHED_APPENDS: &str = "rcstore.batched_appends";
/// Objects evicted from the store.
pub const RCSTORE_EVICTIONS: &str = "rcstore.evictions";
/// Backup replicas promoted to master.
pub const RCSTORE_PROMOTIONS: &str = "rcstore.promotions";
/// Per-node pool grow operations.
pub const RCSTORE_SCALE_UPS: &str = "rcstore.scale_ups";
/// Per-node pool shrink operations.
pub const RCSTORE_SCALE_DOWNS: &str = "rcstore.scale_downs";
/// Objects lost to node failures (no surviving replica); the recovery
/// that found them is timed in `rcstore.recovery_nanos`.
pub const RCSTORE_OBJECTS_LOST: &str = "rcstore.objects_lost";
/// Client store operations failed by an injected transient fault.
pub const RCSTORE_TRANSIENT_ERRORS: &str = "rcstore.transient_errors";
/// Object migration latency distribution (nanoseconds).
pub const RCSTORE_MIGRATE_NANOS: &str = "rcstore.migrate_nanos";
/// Failure recovery latency distribution (nanoseconds).
pub const RCSTORE_RECOVERY_NANOS: &str = "rcstore.recovery_nanos";

// ---- benchmark harness -------------------------------------------------

/// Synthetic ticks recorded by the telemetry overhead driver
/// (`benchmark/src/drivers.rs`).
pub const BENCH_TICKS: &str = "bench.ticks";
