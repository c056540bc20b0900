//! OpenWhisk-model FaaS platform — the substrate OFC modifies (§2.1, §4).
//!
//! The platform reproduces the OpenWhisk mechanisms the paper's design
//! depends on:
//!
//! * a **controller / load balancer** routing each invocation to a worker
//!   node, with the stock home-invoker hashing policy,
//! * per-worker **invokers** managing Docker-like **sandboxes**: cold and
//!   warm starts, per-sandbox memory limits (cgroup resize ≈ 23.8 ms),
//!   one-invocation-at-a-time, never shared across functions or tenants,
//!   keep-alive reclamation after 600 s of idleness,
//! * **sequences/pipelines** (parallel and sequential stage composition),
//! * OOM kills, retried immediately at the booked size.
//!
//! OFC plugs in through five seams, each a trait with a stock default:
//! [`Scheduler`] (Predictor + locality routing), [`MemoryBroker`]
//! (CacheAgent reclamation, Figure 8's Sc1–Sc3), [`DataPlane`] (the
//! Proxy/rclib interposition), [`ExecutionMonitor`] (the Monitor +
//! ModelTrainer feedback loop), and [`FunctionModel`] (workload behaviour).
//!
//! Everything runs on the deterministic [`ofc_simtime`] event loop; the
//! platform lives in an `Rc<RefCell<…>>` and schedules continuation events
//! on itself.

pub mod baselines;
pub mod platform;
pub mod registry;
pub mod sandbox;

use ofc_objstore::ObjectId;
use ofc_simtime::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Tenant identifier (interned: `Copy`, id-hashed, string-ordered).
pub type TenantId = ofc_intern::Istr;
/// Function identifier (unique per tenant; interned like [`TenantId`]).
pub type FunctionId = ofc_intern::Istr;
/// Worker-node identifier (an invoker and, under OFC, the co-located cache
/// storage node).
pub type NodeId = usize;
/// Invocation identifier.
pub type InvocationId = u64;
/// Pipeline-run identifier.
pub type PipelineId = u64;

/// An argument value of an invocation request.
///
/// The FaaS platform knows the list and names of the arguments but nothing
/// about their semantics (§5.1.2); object-reference arguments are the ones
/// annotated as storage inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A numeric argument (e.g. a blur radius).
    Num(f64),
    /// An opaque string argument (nominal feature for the ML layer).
    Str(String),
    /// A reference to an object in the RSDS (the function's input data).
    Obj(ObjectId),
}

/// Named invocation arguments, ordered and deterministic.
pub type Args = BTreeMap<String, ArgValue>;

/// A reference to an object together with its (announced) size.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRef {
    /// Object identity.
    pub id: ObjectId,
    /// Size in bytes.
    pub size: u64,
}

/// One output produced by an invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectWrite {
    /// Object identity.
    pub id: ObjectId,
    /// Size in bytes.
    pub size: u64,
    /// Final outputs are write-backed and then dropped from the cache;
    /// non-final (intermediate) outputs feed later pipeline stages and are
    /// deleted when the pipeline completes (§6.3).
    pub is_final: bool,
}

/// The resolved runtime behaviour of one invocation: what the function
/// would actually do on its input.
#[derive(Debug, Clone, Default)]
pub struct Behavior {
    /// Peak physical memory the invocation needs.
    pub mem_bytes: u64,
    /// Pure compute (Transform-phase) duration.
    pub compute: Duration,
    /// Objects read during the Extract phase, in order.
    pub reads: Vec<ObjectRef>,
    /// Objects written during the Load phase, in order.
    pub writes: Vec<ObjectWrite>,
}

/// A function's runtime model: maps arguments to concrete behaviour.
///
/// Implemented by the workload crate; the platform calls it when the
/// sandbox starts executing (ground truth stays hidden from the scheduler,
/// which only sees [`Args`]).
pub trait FunctionModel {
    /// Resolves the behaviour of an invocation with the given arguments.
    fn behavior(&self, args: &Args, seed: u64) -> Behavior;
}

/// An invocation request as submitted to the controller.
#[derive(Debug, Clone)]
pub struct InvocationRequest {
    /// Target function.
    pub function: FunctionId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Named arguments.
    pub args: Args,
    /// Deterministic behaviour seed.
    pub seed: u64,
    /// Pipeline this invocation belongs to, if any.
    pub pipeline: Option<PipelineId>,
}

/// How an Extract-phase read was served (Figure 7's scenario axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// From a cache master on the executing node.
    LocalHit,
    /// From a cache master on another node.
    RemoteHit,
    /// Cache miss — fetched from the RSDS (and possibly inserted).
    Miss,
    /// No cache in the configuration; direct RSDS (or IMOC) access.
    Direct,
}

/// Outcome of a data-plane read.
#[derive(Debug, Clone, Copy)]
pub struct ReadOutcome {
    /// Modelled latency of the read.
    pub latency: Duration,
    /// How it was served.
    pub served: Served,
}

/// Outcome of a data-plane write.
#[derive(Debug, Clone, Copy)]
pub struct WriteOutcome {
    /// Latency on the invocation's critical path (under OFC: cache write +
    /// synchronous shadow creation; the payload persists asynchronously).
    pub latency: Duration,
}

/// A typed admission decision, produced per invocation by the installed
/// cache policy and threaded through the data plane.
///
/// This replaces the bare `should_cache: bool` the platform used to carry:
/// a policy states *whether* to cache and whether objects above the data
/// plane's size ceiling may be striped into chunks — so call sites cannot
/// transpose flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Cache this invocation's reads and writes at all.
    pub cache: bool,
    /// Stripe objects above the size ceiling into chunks instead of
    /// bypassing them.
    pub chunk_large: bool,
}

impl Admission {
    /// Admit everything up to the plane's size ceiling, without striping.
    /// Equivalent to the old `should_cache = true`.
    pub fn admit() -> Self {
        Admission {
            cache: true,
            chunk_large: false,
        }
    }

    /// Cache nothing. Equivalent to the old `should_cache = false`.
    pub fn bypass() -> Self {
        Admission {
            cache: false,
            chunk_large: false,
        }
    }
}

impl Default for Admission {
    fn default() -> Self {
        Admission::admit()
    }
}

/// The data plane: where function reads and writes actually go.
///
/// OFC's Proxy + rclib implement this; [`baselines`] provides the
/// `OWK-Swift` and `OWK-Redis` planes.
pub trait DataPlane {
    /// Performs one Extract-phase read on behalf of `node`.
    fn read(
        &mut self,
        sim: &mut ofc_simtime::Sim,
        node: NodeId,
        obj: &ObjectRef,
        admission: Admission,
    ) -> ReadOutcome;

    /// Performs one Load-phase write on behalf of `node`.
    fn write(
        &mut self,
        sim: &mut ofc_simtime::Sim,
        node: NodeId,
        obj: &ObjectWrite,
        admission: Admission,
        pipeline: Option<PipelineId>,
    ) -> WriteOutcome;

    /// Called when a pipeline completes, with every intermediate object it
    /// produced (OFC drops them from the cache without persisting, §6.3).
    fn pipeline_ended(&mut self, _intermediates: &[ObjectId]) {}
}

/// Snapshot of one sandbox offered to the scheduler.
#[derive(Debug, Clone)]
pub struct SandboxView {
    /// Node hosting the sandbox.
    pub node: NodeId,
    /// Sandbox identifier on that node.
    pub sandbox: u64,
    /// Current memory limit.
    pub mem_limit: u64,
    /// When it last finished an invocation.
    pub idle_since: SimTime,
}

/// Snapshot of one worker node offered to the scheduler.
#[derive(Debug, Clone)]
pub struct NodeView {
    /// Node id.
    pub node: NodeId,
    /// Total node memory.
    pub total_mem: u64,
    /// Memory committed to sandboxes (sum of limits).
    pub committed_mem: u64,
    /// Busy sandboxes on the node.
    pub busy: usize,
}

/// Everything the scheduler may consult for one routing decision.
#[derive(Debug, Clone)]
pub struct RoutingContext<'a> {
    /// The request being routed.
    pub function: FunctionId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Its arguments, on loan from the request.
    pub args: &'a Args,
    /// Memory booked by the tenant for this function.
    pub booked_mem: u64,
    /// The stock home node (`hash(function, tenant) % n`).
    pub home: NodeId,
    /// Idle warm sandboxes for this function, cluster-wide, in ascending
    /// `(node, sandbox id)` order — a scheduler that breaks a tie by
    /// position picks the same sandbox on every run.
    pub warm: Vec<SandboxView>,
    /// Per-node status.
    pub nodes: Vec<NodeView>,
    /// Node holding the cache master of the request's input object, if the
    /// installed locality oracle knows one (§6.5).
    pub input_master: Option<NodeId>,
}

/// The scheduler's routing decision.
#[derive(Debug, Clone)]
pub struct RoutingDecision {
    /// Target node.
    pub node: NodeId,
    /// Warm sandbox to reuse, if any (must belong to `node`).
    pub sandbox: Option<u64>,
    /// Memory limit to apply to the sandbox (OFC: predicted `Mp`; stock:
    /// the booked amount).
    pub mem_limit: u64,
    /// The cache-admission decision for this invocation (OFC's
    /// `shouldBeCached`, typed; ignored by the stock planes).
    pub admission: Admission,
    /// Extra latency spent deciding (OFC's Predictor + Sizer ≈ 6 ms).
    pub overhead: Duration,
}

/// Routing policy seam. The stock implementation mirrors OWK; OFC replaces
/// it with the Predictor-driven, locality-aware policy of §6.5.
pub trait Scheduler {
    /// Routes one invocation.
    fn route(&mut self, ctx: &RoutingContext<'_>) -> RoutingDecision;
}

/// The stock OpenWhisk policy: home-invoker first, booked memory, no cache.
#[derive(Debug, Default)]
pub struct StockScheduler;

impl Scheduler for StockScheduler {
    fn route(&mut self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        // Prefer a warm sandbox: most recently used first (stock OWK keeps
        // per-invoker affinity; MRU maximizes reclaimable idle tails).
        if let Some(sb) = ctx.warm.iter().max_by_key(|s| s.idle_since) {
            return RoutingDecision {
                node: sb.node,
                sandbox: Some(sb.sandbox),
                mem_limit: sb.mem_limit.max(ctx.booked_mem),
                admission: Admission::bypass(),
                overhead: Duration::ZERO,
            };
        }
        // Otherwise create on the home node if it fits, else the roomiest.
        let fits = |n: &NodeView| n.total_mem.saturating_sub(n.committed_mem) >= ctx.booked_mem;
        let node = ctx
            .nodes
            .iter()
            .find(|n| n.node == ctx.home && fits(n))
            .or_else(|| {
                ctx.nodes
                    .iter()
                    .filter(|n| fits(n))
                    .max_by_key(|n| n.total_mem.saturating_sub(n.committed_mem))
            })
            .map(|n| n.node)
            .unwrap_or(ctx.home);
        RoutingDecision {
            node,
            sandbox: None,
            mem_limit: ctx.booked_mem,
            admission: Admission::bypass(),
            overhead: Duration::ZERO,
        }
    }
}

/// Memory arbitration seam between sandboxes and the co-located cache.
///
/// Stock platforms only check `committed + request <= total`. OFC's
/// CacheAgent shrinks the cache (evict / migrate / plain rescale — Figure
/// 8's scenarios) to make room, and re-expands it when sandboxes release
/// memory.
pub trait MemoryBroker {
    /// Tries to let sandboxes on `node` commit `committed_after` of its
    /// `total` bytes; returns the reclamation delay on success, `None` when
    /// the node truly cannot fit the request.
    fn reserve(
        &mut self,
        sim: &mut ofc_simtime::Sim,
        node: NodeId,
        committed_after: u64,
        total: u64,
    ) -> Option<Duration>;

    /// Notifies that sandboxes on `node` released memory and now commit
    /// `committed_after` of its `total` bytes.
    fn release(
        &mut self,
        sim: &mut ofc_simtime::Sim,
        node: NodeId,
        committed_after: u64,
        total: u64,
    );
}

/// Stock broker: sandboxes may use all node memory; no cache to shrink.
#[derive(Debug, Default)]
pub struct StockBroker;

impl MemoryBroker for StockBroker {
    fn reserve(
        &mut self,
        _sim: &mut ofc_simtime::Sim,
        _node: NodeId,
        committed_after: u64,
        total: u64,
    ) -> Option<Duration> {
        (committed_after <= total).then_some(Duration::ZERO)
    }

    fn release(
        &mut self,
        _sim: &mut ofc_simtime::Sim,
        _node: NodeId,
        _committed_after: u64,
        _total: u64,
    ) {
    }
}

/// Decision returned by the monitor when an invocation is about to exceed
/// its memory limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureAction {
    /// Raise the sandbox limit to the given amount and continue.
    RaiseTo(u64),
    /// Let the OOM killer terminate the invocation.
    Kill,
}

/// Execution monitoring seam (OFC's Monitor + ModelTrainer feedback, §5.3).
pub trait ExecutionMonitor {
    /// An invocation is about to exceed `limit` while needing `needed`;
    /// `elapsed` is how long it has run. OFC raises the cap only for
    /// invocations that have run ≥ 3 s and when slack memory is available.
    fn on_pressure(
        &mut self,
        sim: &mut ofc_simtime::Sim,
        record: &InvocationRecord,
        needed: u64,
        elapsed: Duration,
    ) -> PressureAction;

    /// An invocation finished (successfully or not); the trainer harvests
    /// ground-truth memory usage from the record here.
    fn on_complete(&mut self, sim: &mut ofc_simtime::Sim, record: &InvocationRecord);
}

/// Stock monitor: never raises limits, learns nothing.
#[derive(Debug, Default)]
pub struct StockMonitor;

impl ExecutionMonitor for StockMonitor {
    fn on_pressure(
        &mut self,
        _sim: &mut ofc_simtime::Sim,
        _record: &InvocationRecord,
        _needed: u64,
        _elapsed: Duration,
    ) -> PressureAction {
        PressureAction::Kill
    }

    fn on_complete(&mut self, _sim: &mut ofc_simtime::Sim, _record: &InvocationRecord) {}
}

/// Why an invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Ran to completion.
    Success,
    /// Killed by the OOM killer (may be retried).
    OomKilled,
    /// Dropped: no node could host it.
    Unschedulable,
}

/// The full record of one invocation, used for experiment output and as ML
/// ground truth.
#[derive(Debug, Clone)]
pub struct InvocationRecord {
    /// Invocation id.
    pub id: InvocationId,
    /// Function.
    pub function: FunctionId,
    /// Tenant.
    pub tenant: TenantId,
    /// Arguments (the ML features derive from these).
    pub args: Args,
    /// Pipeline membership.
    pub pipeline: Option<PipelineId>,
    /// Node that executed it.
    pub node: NodeId,
    /// Arrival at the controller.
    pub arrival: SimTime,
    /// Execution start (sandbox ready).
    pub exec_start: SimTime,
    /// Completion instant.
    pub end: SimTime,
    /// Scheduling + sandbox setup overhead (everything before Extract).
    pub sched_time: Duration,
    /// Extract-phase duration.
    pub e_time: Duration,
    /// Transform-phase duration.
    pub t_time: Duration,
    /// Load-phase duration.
    pub l_time: Duration,
    /// Whether a new sandbox had to be created.
    pub cold_start: bool,
    /// Whether an existing sandbox was resized for this invocation.
    pub resized: bool,
    /// Memory limit applied (predicted under OFC).
    pub mem_limit: u64,
    /// Peak memory actually used (ground truth).
    pub mem_actual: u64,
    /// Memory booked by the tenant.
    pub mem_booked: u64,
    /// How each Extract read was served.
    pub reads_served: Vec<Served>,
    /// Number of OOM kills suffered before this attempt.
    pub attempt: u32,
    /// Admission decision the scheduler chose.
    pub admission: Admission,
    /// Outcome.
    pub completion: Completion,
}

impl InvocationRecord {
    /// End-to-end latency (arrival to completion).
    pub fn total(&self) -> Duration {
        self.end.saturating_since(self.arrival)
    }

    /// Execution latency (E+T+L, excluding scheduling).
    pub fn etl(&self) -> Duration {
        self.e_time + self.t_time + self.l_time
    }

    /// Ground truth for the cache-benefit classifier: E&L dominance (§5.2).
    pub fn el_ratio(&self) -> f64 {
        let etl = self.etl().as_secs_f64();
        if etl == 0.0 {
            0.0
        } else {
            (self.e_time + self.l_time).as_secs_f64() / etl
        }
    }
}

/// Sandbox idle keep-alive before reclamation (OWK: 600 s).
pub const KEEP_ALIVE: Duration = Duration::from_secs(600);

/// Minimum sandbox memory (OWK: 64 MB).
pub const MIN_SANDBOX_MEM: u64 = 64 << 20;

/// Maximum sandbox memory (OWK default range top: 2 GB).
pub const MAX_SANDBOX_MEM: u64 = 2 << 30;

/// Platform path overhead for a warm invocation (§6.4: ~8 ms end to end
/// for an empty function).
pub const WARM_OVERHEAD: Duration = Duration::from_millis(8);

/// Additional overhead of a cold start (container creation; ~100 ms
/// median per \[44\]).
pub const COLD_START: Duration = Duration::from_millis(100);

/// Cost of updating a sandbox's memory limit (cgroup + docker update:
/// 23.8 ms, §6.4). OFC resizes asynchronously, off the critical path, so
/// the platform never charges it to an invocation; Figure 8 reports it.
pub const RESIZE_COST: Duration = Duration::from_micros(23_800);

/// Platform-level configuration (defaults follow OWK and the paper).
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Memory per worker node, bytes.
    pub node_mem: u64,
    /// Maximum OOM retries per invocation (OFC: retry once at booked size,
    /// immediately).
    pub max_retries: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            nodes: 4,
            node_mem: 16 << 30,
            max_retries: 1,
        }
    }
}

impl fmt::Display for Served {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Served::LocalHit => "LH",
            Served::RemoteHit => "RH",
            Served::Miss => "M",
            Served::Direct => "direct",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static NO_ARGS: Args = Args::new();

    fn ctx(warm: Vec<SandboxView>) -> RoutingContext<'static> {
        RoutingContext {
            function: FunctionId::from("f"),
            tenant: TenantId::from("t"),
            args: &NO_ARGS,
            booked_mem: 512 << 20,
            home: 1,
            warm,
            nodes: (0..3)
                .map(|node| NodeView {
                    node,
                    total_mem: 4 << 30,
                    committed_mem: if node == 1 { 4 << 30 } else { 0 },
                    busy: 0,
                })
                .collect(),
            input_master: None,
        }
    }

    #[test]
    fn stock_scheduler_prefers_warm_sandbox() {
        let warm = vec![
            SandboxView {
                node: 2,
                sandbox: 7,
                mem_limit: 512 << 20,
                idle_since: SimTime::from_secs(5),
            },
            SandboxView {
                node: 0,
                sandbox: 3,
                mem_limit: 512 << 20,
                idle_since: SimTime::from_secs(9),
            },
        ];
        let d = StockScheduler.route(&ctx(warm));
        // Most recently used sandbox wins.
        assert_eq!(d.node, 0);
        assert_eq!(d.sandbox, Some(3));
        assert!(!d.admission.cache);
    }

    #[test]
    fn stock_scheduler_breaks_an_mru_tie_the_same_way_every_run() {
        // Two sandboxes of one function idle since the same instant with
        // the same limit. A fresh invoker per round: a table walked in
        // `RandomState` order would offer them in either order.
        for _ in 0..16 {
            let mut inv = sandbox::Invoker::new(0, 4 << 30);
            let (f, t) = (FunctionId::from("f"), TenantId::from("t"));
            for _ in 0..2 {
                let id = inv.create_sandbox(f, t, 512 << 20, 512 << 20, SimTime::ZERO);
                inv.release(id, SimTime::from_secs(5));
            }
            let d = StockScheduler.route(&ctx(inv.warm_for(&f, &t).collect()));
            // `max_by_key` keeps the last maximum of an ascending-id list.
            assert_eq!((d.node, d.sandbox), (0, Some(1)));
        }
    }

    #[test]
    fn stock_scheduler_spills_off_full_home() {
        // Home node 1 is fully committed; the decision must move elsewhere.
        let d = StockScheduler.route(&ctx(vec![]));
        assert_ne!(d.node, 1);
        assert_eq!(d.sandbox, None);
        assert_eq!(d.mem_limit, 512 << 20);
    }

    #[test]
    fn stock_broker_enforces_capacity() {
        let mut sim = ofc_simtime::Sim::new(0);
        let mut b = StockBroker;
        assert!(b.reserve(&mut sim, 0, 100, 200).is_some());
        assert!(b.reserve(&mut sim, 0, 300, 200).is_none());
    }

    #[test]
    fn record_ratios() {
        let rec = InvocationRecord {
            id: 0,
            function: FunctionId::from("f"),
            tenant: TenantId::from("t"),
            args: Args::new(),
            pipeline: None,
            node: 0,
            arrival: SimTime::ZERO,
            exec_start: SimTime::from_millis(10),
            end: SimTime::from_millis(110),
            sched_time: Duration::from_millis(10),
            e_time: Duration::from_millis(40),
            t_time: Duration::from_millis(20),
            l_time: Duration::from_millis(40),
            cold_start: false,
            resized: false,
            mem_limit: 0,
            mem_actual: 0,
            mem_booked: 0,
            reads_served: vec![],
            attempt: 0,
            admission: Admission::bypass(),
            completion: Completion::Success,
        };
        assert_eq!(rec.total(), Duration::from_millis(110));
        assert_eq!(rec.etl(), Duration::from_millis(100));
        assert!((rec.el_ratio() - 0.8).abs() < 1e-12);
    }
}
