//! The platform engine: controller, load balancer, invocation lifecycle,
//! pipelines, keep-alive — all driven by the simulation event loop.
//!
//! An invocation flows through: submit → route (scheduler seam) → sandbox
//! acquisition (warm reuse / cold start, memory via the broker seam) →
//! Extract (data-plane reads) → Transform (compute, with OOM/pressure
//! handling through the monitor seam) → Load (data-plane writes) → finish
//! (sandbox idles under keep-alive; pipelines advance).

use crate::registry::Registry;
use crate::sandbox::Invoker;
use crate::{
    ArgValue, Behavior, Completion, DataPlane, ExecutionMonitor, FunctionId, InvocationId,
    InvocationRecord, InvocationRequest, MemoryBroker, NodeId, NodeView, PipelineId,
    PlatformConfig, PressureAction, RoutingContext, Scheduler, Served, StockBroker, StockMonitor,
    StockScheduler, TenantId,
};
use ofc_objstore::ObjectId;
use ofc_simtime::{Sim, SimTime};
use ofc_telemetry::{Counter, Phase, Telemetry};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// Drives a multi-stage application (sequence/workflow, §2.1).
pub trait PipelineDriver {
    /// The owning tenant.
    fn tenant(&self) -> TenantId;

    /// Returns the invocations of stage `stage`, given the outputs of the
    /// previous stage; `None` when the pipeline is complete.
    fn stage(
        &self,
        stage: usize,
        prev_outputs: &[crate::ObjectRef],
        seed: u64,
    ) -> Option<Vec<InvocationRequest>>;
}

/// Completion record of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineRecord {
    /// Pipeline id.
    pub id: PipelineId,
    /// Submission instant.
    pub start: SimTime,
    /// Completion instant.
    pub end: SimTime,
    /// Number of stages executed.
    pub stages: usize,
    /// Number of invocations executed.
    pub invocations: usize,
    /// Whether any stage failed permanently.
    pub failed: bool,
}

/// Platform-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformCounters {
    /// Requests submitted (retries not included).
    pub submitted: u64,
    /// Invocations completed successfully.
    pub completed: u64,
    /// OOM kills.
    pub oom_kills: u64,
    /// Retries after OOM.
    pub retries: u64,
    /// Requests dropped for lack of capacity.
    pub unschedulable: u64,
    /// Cold starts.
    pub cold_starts: u64,
    /// Warm reuses.
    pub warm_starts: u64,
    /// Sandbox resizes applied.
    pub resizes: u64,
}

/// Telemetry mirrors of [`PlatformCounters`] (`faas.*`), so the unified
/// observability plane sees platform lifecycle events alongside the cache
/// and ML metrics.
struct FaasMetrics {
    submitted: Counter,
    completed: Counter,
    oom_kills: Counter,
    retries: Counter,
    unschedulable: Counter,
    cold_starts: Counter,
    warm_starts: Counter,
    resizes: Counter,
}

impl FaasMetrics {
    fn new(t: &Telemetry) -> Self {
        FaasMetrics {
            submitted: t.counter("faas.submitted"),
            completed: t.counter("faas.completed"),
            oom_kills: t.counter("faas.oom_kills"),
            retries: t.counter("faas.retries"),
            unschedulable: t.counter("faas.unschedulable"),
            cold_starts: t.counter("faas.cold_starts"),
            warm_starts: t.counter("faas.warm_starts"),
            resizes: t.counter("faas.resizes"),
        }
    }
}

struct Inflight {
    record: InvocationRecord,
    request: InvocationRequest,
    node: NodeId,
    sandbox: u64,
    behavior: Behavior,
    /// Set once the Transform deadline is known (for pressure handling).
    compute_started: SimTime,
}

struct PipelineRun {
    driver: Rc<dyn PipelineDriver>,
    stage: usize,
    outstanding: usize,
    stage_outputs: Vec<crate::ObjectRef>,
    intermediates: Vec<ObjectId>,
    started: SimTime,
    invocations: usize,
    seed: u64,
    failed: bool,
}

/// Maps an object to the node caching its master copy, if any (§6.5).
pub type LocalityOracle = Rc<dyn Fn(&ObjectId) -> Option<NodeId>>;

/// The FaaS platform. Construct with [`Platform::build`], which returns a
/// shared handle usable from event closures.
pub struct Platform {
    cfg: PlatformConfig,
    registry: Registry,
    invokers: Vec<Invoker>,
    scheduler: Box<dyn Scheduler>,
    broker: Box<dyn MemoryBroker>,
    dataplane: Box<dyn DataPlane>,
    monitor: Box<dyn ExecutionMonitor>,
    locality_oracle: Option<LocalityOracle>,
    inflight: HashMap<InvocationId, Inflight>,
    pipelines: HashMap<PipelineId, PipelineRun>,
    records: Vec<InvocationRecord>,
    pipeline_records: Vec<PipelineRecord>,
    counters: PlatformCounters,
    telemetry: Telemetry,
    metrics: FaasMetrics,
    next_inv: InvocationId,
    next_pipe: PipelineId,
}

/// Shared handle to the platform.
#[derive(Clone)]
pub struct PlatformHandle(Rc<RefCell<Platform>>);

impl Platform {
    /// Builds a platform with the stock seams; swap them via the handle's
    /// `set_*` methods before submitting work.
    pub fn build(
        cfg: PlatformConfig,
        registry: Registry,
        dataplane: Box<dyn DataPlane>,
    ) -> PlatformHandle {
        let invokers = (0..cfg.nodes)
            .map(|n| Invoker::new(n, cfg.node_mem))
            .collect();
        let telemetry = Telemetry::standalone();
        let metrics = FaasMetrics::new(&telemetry);
        PlatformHandle(Rc::new(RefCell::new(Platform {
            cfg,
            registry,
            invokers,
            scheduler: Box::new(StockScheduler),
            broker: Box::new(StockBroker),
            dataplane,
            monitor: Box::new(StockMonitor),
            locality_oracle: None,
            inflight: HashMap::new(),
            pipelines: HashMap::new(),
            records: Vec::new(),
            pipeline_records: Vec::new(),
            counters: PlatformCounters::default(),
            telemetry,
            metrics,
            next_inv: 0,
            next_pipe: 0,
        })))
    }

    fn home_node(&self, tenant: &TenantId, function: &FunctionId) -> NodeId {
        // OWK hashes function id and tenant to pick the home invoker (§2.1).
        // Hash the resolved *strings*: interned ids are assigned in
        // first-seen order, which varies across threads, so an id-based
        // hash would make placement depend on sim scheduling.
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        str::hash(tenant, &mut h);
        str::hash(function, &mut h);
        (h.finish() as usize) % self.invokers.len()
    }

    fn routing_context<'a>(&self, req: &'a InvocationRequest, booked: u64) -> RoutingContext<'a> {
        let warm = self
            .invokers
            .iter()
            .flat_map(|inv| inv.warm_for(&req.function, &req.tenant))
            .collect();
        let nodes = self
            .invokers
            .iter()
            .map(|inv| NodeView {
                node: inv.node(),
                total_mem: inv.total_mem(),
                // The scheduler routes against the admission currency.
                committed_mem: inv.booked_mem(),
                busy: inv.busy_count(),
            })
            .collect();
        let input_master = self.locality_oracle.as_ref().and_then(|oracle| {
            req.args.values().find_map(|v| match v {
                ArgValue::Obj(id) => oracle(id),
                _ => None,
            })
        });
        RoutingContext {
            function: req.function,
            tenant: req.tenant,
            args: &req.args,
            booked_mem: booked,
            home: self.home_node(&req.tenant, &req.function),
            warm,
            nodes,
            input_master,
        }
    }
}

impl PlatformHandle {
    /// Replaces the scheduler seam.
    pub fn set_scheduler(&self, s: Box<dyn Scheduler>) {
        self.0.borrow_mut().scheduler = s;
    }

    /// Replaces the memory-broker seam.
    pub fn set_broker(&self, b: Box<dyn MemoryBroker>) {
        self.0.borrow_mut().broker = b;
    }

    /// Replaces the data plane (OFC installs its Proxy/rclib here).
    pub fn set_dataplane(&self, d: Box<dyn DataPlane>) {
        self.0.borrow_mut().dataplane = d;
    }

    /// Replaces the execution-monitor seam.
    pub fn set_monitor(&self, m: Box<dyn ExecutionMonitor>) {
        self.0.borrow_mut().monitor = m;
    }

    /// Installs the cache-locality oracle used for routing (§6.5).
    pub fn set_locality_oracle(&self, f: LocalityOracle) {
        self.0.borrow_mut().locality_oracle = Some(f);
    }

    /// Rebinds the platform onto a shared telemetry plane, re-registering
    /// its `faas.*` counters there.
    pub fn bind_telemetry(&self, t: &Telemetry) {
        let mut p = self.0.borrow_mut();
        p.telemetry = t.clone();
        p.metrics = FaasMetrics::new(t);
    }

    /// The telemetry plane the platform records into.
    pub fn telemetry(&self) -> Telemetry {
        self.0.borrow().telemetry.clone()
    }

    /// Registers a function.
    pub fn register(&self, spec: crate::registry::FunctionSpec) {
        self.0.borrow_mut().registry.register(spec);
    }

    /// Current counters.
    pub fn counters(&self) -> PlatformCounters {
        self.0.borrow().counters
    }

    /// Takes all finished invocation records accumulated so far.
    pub fn drain_records(&self) -> Vec<InvocationRecord> {
        std::mem::take(&mut self.0.borrow_mut().records)
    }

    /// Takes all finished pipeline records.
    pub fn drain_pipeline_records(&self) -> Vec<PipelineRecord> {
        std::mem::take(&mut self.0.borrow_mut().pipeline_records)
    }

    /// Memory committed to sandboxes on `node`.
    pub fn committed_mem(&self, node: NodeId) -> u64 {
        self.0.borrow().invokers[node].committed_mem()
    }

    /// Number of sandboxes (any state) on `node`.
    pub fn sandbox_count(&self, node: NodeId) -> usize {
        self.0.borrow().invokers[node].sandbox_count()
    }

    /// Checks every invoker's running totals and idle index against a
    /// full scan ([`Invoker::audit`]). For tests, never on a timed path.
    pub fn audit(&self) -> Result<(), String> {
        self.0.borrow().invokers.iter().try_for_each(Invoker::audit)
    }

    /// The platform configuration.
    pub fn config(&self) -> PlatformConfig {
        self.0.borrow().cfg.clone()
    }

    /// Submits a single invocation.
    pub fn submit(&self, sim: &mut Sim, req: InvocationRequest) -> InvocationId {
        self.submit_attempt(sim, req, 0, None)
    }

    /// Submits a pipeline; stages are driven to completion automatically.
    pub fn submit_pipeline(
        &self,
        sim: &mut Sim,
        driver: Rc<dyn PipelineDriver>,
        seed: u64,
    ) -> PipelineId {
        let pipe_id = {
            let mut p = self.0.borrow_mut();
            let id = p.next_pipe;
            p.next_pipe += 1;
            p.pipelines.insert(
                id,
                PipelineRun {
                    driver: Rc::clone(&driver),
                    stage: 0,
                    outstanding: 0,
                    stage_outputs: Vec::new(),
                    intermediates: Vec::new(),
                    started: sim.now(),
                    invocations: 0,
                    seed,
                    failed: false,
                },
            );
            id
        };
        self.launch_stage(sim, pipe_id, 0, &[]);
        pipe_id
    }

    fn launch_stage(
        &self,
        sim: &mut Sim,
        pipe_id: PipelineId,
        stage: usize,
        prev: &[crate::ObjectRef],
    ) {
        let (driver, seed) = {
            let p = self.0.borrow();
            let run = &p.pipelines[&pipe_id];
            (Rc::clone(&run.driver), run.seed)
        };
        match driver.stage(stage, prev, seed.wrapping_add(stage as u64)) {
            Some(reqs) if !reqs.is_empty() => {
                {
                    let mut p = self.0.borrow_mut();
                    // ofc-lint: allow(panic) reason=pipeline runs outlive their stage callbacks; ids are platform-issued
                    let run = p.pipelines.get_mut(&pipe_id).expect("pipeline exists");
                    run.stage = stage;
                    run.outstanding = reqs.len();
                    run.invocations += reqs.len();
                    run.stage_outputs.clear();
                }
                for mut req in reqs {
                    req.pipeline = Some(pipe_id);
                    self.submit_attempt(sim, req, 0, None);
                }
            }
            _ => self.finish_pipeline(sim, pipe_id, stage),
        }
    }

    fn finish_pipeline(&self, sim: &mut Sim, pipe_id: PipelineId, stages: usize) {
        let (intermediates, record) = {
            let mut p = self.0.borrow_mut();
            // ofc-lint: allow(panic) reason=pipeline runs outlive their stage callbacks; ids are platform-issued
            let run = p.pipelines.remove(&pipe_id).expect("pipeline exists");
            let record = PipelineRecord {
                id: pipe_id,
                start: run.started,
                end: sim.now(),
                stages,
                invocations: run.invocations,
                failed: run.failed,
            };
            (run.intermediates, record)
        };
        {
            let mut p = self.0.borrow_mut();
            p.pipeline_records.push(record);
            // Intermediate outputs are dropped from the cache, unpersisted,
            // once the pipeline ends (§6.3).
            let mut plane = std::mem::replace(&mut p.dataplane, Box::new(NullPlane));
            drop(p);
            plane.pipeline_ended(sim, pipe_id, &intermediates);
            self.0.borrow_mut().dataplane = plane;
        }
    }

    fn submit_attempt(
        &self,
        sim: &mut Sim,
        req: InvocationRequest,
        attempt: u32,
        force_mem: Option<u64>,
    ) -> InvocationId {
        let now = sim.now();
        let mut p = self.0.borrow_mut();
        let p = &mut *p;
        if attempt == 0 {
            p.counters.submitted += 1;
            p.metrics.submitted.inc();
        }
        let inv_id = p.next_inv;
        p.next_inv += 1;

        let Some(spec) = p.registry.get(&req.tenant, &req.function).cloned() else {
            // ofc-lint: allow(panic) reason=invoking an unregistered function is caller API misuse; fail loudly at submit
            panic!(
                "invoking unregistered function {}/{}",
                req.tenant, req.function
            );
        };

        let ctx = p.routing_context(&req, spec.booked_mem);
        let mut decision = p.scheduler.route(&ctx);
        if let Some(m) = force_mem {
            // OOM retry: raise to the tenant-booked amount (§5.3.1).
            decision.mem_limit = m;
        }
        decision.mem_limit = decision
            .mem_limit
            .clamp(crate::MIN_SANDBOX_MEM, crate::MAX_SANDBOX_MEM);

        let node = decision.node;
        let total = p.invokers[node].total_mem();
        let mut setup = crate::WARM_OVERHEAD + decision.overhead;
        let mut cold = false;
        let mut resized = false;

        // Acquire a sandbox.
        let sandbox = match decision.sandbox {
            Some(sb)
                if p.invokers[node].sandbox(sb).is_some_and(|s| {
                    matches!(s.state, crate::sandbox::SandboxState::Idle { .. })
                }) =>
            {
                // ofc-lint: allow(panic) reason=the match guard above just checked this sandbox exists
                let current = p.invokers[node].sandbox(sb).expect("checked").mem_limit;
                if decision.mem_limit > current {
                    let delta = decision.mem_limit - current;
                    let committed_after = p.invokers[node].committed_mem() + delta;
                    match p.broker.reserve(sim, node, delta, committed_after, total) {
                        Some(delay) => {
                            setup += delay;
                            p.invokers[node].resize(sb, decision.mem_limit);
                            resized = true;
                        }
                        None => {
                            // Cannot grow: run at the current limit and let
                            // pressure handling cope.
                            decision.mem_limit = current;
                        }
                    }
                } else if decision.mem_limit < current {
                    let delta = current - decision.mem_limit;
                    p.invokers[node].resize(sb, decision.mem_limit);
                    let committed_after = p.invokers[node].committed_mem();
                    p.broker.release(sim, node, delta, committed_after, total);
                    resized = true;
                }
                if resized {
                    p.counters.resizes += 1;
                    p.metrics.resizes.inc();
                }
                p.counters.warm_starts += 1;
                p.metrics.warm_starts.inc();
                sb
            }
            _ => {
                // Cold start. Admission control is by *booked* memory, as
                // in stock OWK (§2.2.1: the booking is the guarantee);
                // physical memory is arbitrated with the broker at the
                // (possibly much smaller) cgroup limit.
                let committed_after = p.invokers[node].committed_mem() + decision.mem_limit;
                let admissible = p.invokers[node].booked_mem() + spec.booked_mem <= total;
                let reserved = admissible
                    .then(|| {
                        p.broker
                            .reserve(sim, node, decision.mem_limit, committed_after, total)
                    })
                    .flatten();
                match reserved {
                    Some(delay) => setup += delay,
                    None => {
                        p.counters.unschedulable += 1;
                        p.metrics.unschedulable.inc();
                        let mut record = new_record(
                            inv_id,
                            &req,
                            node,
                            now,
                            decision.mem_limit,
                            spec.booked_mem,
                        );
                        record.completion = Completion::Unschedulable;
                        record.end = now;
                        p.monitor.on_complete(sim, &record);
                        p.records.push(record);
                        if let Some(pipeline) = req.pipeline {
                            drop_pipeline_member(p, sim, self, pipeline);
                        }
                        return inv_id;
                    }
                }
                cold = true;
                p.counters.cold_starts += 1;
                p.metrics.cold_starts.inc();
                setup += crate::COLD_START;
                p.invokers[node].create_sandbox(
                    req.function,
                    req.tenant,
                    decision.mem_limit,
                    spec.booked_mem,
                    now,
                )
            }
        };
        p.invokers[node].claim(sandbox, inv_id);

        let mut record = new_record(inv_id, &req, node, now, decision.mem_limit, spec.booked_mem);
        record.cold_start = cold;
        record.resized = resized;
        record.attempt = attempt;
        record.admission = decision.admission;

        p.inflight.insert(
            inv_id,
            Inflight {
                record,
                request: req,
                node,
                sandbox,
                behavior: Behavior::default(),
                compute_started: now,
            },
        );

        // The setup window, from arrival to Extract, is the cold/warm start
        // phase; the scheduler's critical-path overhead is the Predict phase.
        p.telemetry
            .span_at(inv_id, Phase::Predict, now, decision.overhead);
        let start_phase = if cold {
            Phase::ColdStart
        } else {
            Phase::WarmStart
        };
        p.telemetry.span_at(inv_id, start_phase, now, setup);

        let handle = self.clone();
        sim.schedule_in(setup, move |sim| handle.exec_start(sim, inv_id));
        inv_id
    }

    fn exec_start(&self, sim: &mut Sim, inv_id: InvocationId) {
        let now = sim.now();
        let (e_time, node) = {
            let mut p = self.0.borrow_mut();
            let p = &mut *p;
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let fl = p.inflight.get_mut(&inv_id).expect("inflight");
            let spec = p
                .registry
                .get(&fl.request.tenant, &fl.request.function)
                // ofc-lint: allow(panic) reason=submit_attempt resolved this spec from the registry; specs are never unregistered mid-run
                .expect("registered")
                .clone();
            fl.behavior = spec.model.behavior(&fl.request.args, fl.request.seed);
            fl.record.exec_start = now;
            fl.record.sched_time = now.saturating_since(fl.record.arrival);
            fl.record.mem_actual = fl.behavior.mem_bytes;

            // Extract phase: data-plane reads, sequential.
            let mut e_time = Duration::ZERO;
            let reads = fl.behavior.reads.clone();
            let admission = fl.record.admission;
            let node = fl.node;
            let mut served = Vec::with_capacity(reads.len());
            for obj in &reads {
                let out = p.dataplane.read(sim, node, obj, admission);
                e_time += out.latency;
                served.push(out.served);
            }
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let fl = p.inflight.get_mut(&inv_id).expect("inflight");
            fl.record.e_time = e_time;
            fl.record.reads_served = served;
            p.telemetry.span_at(inv_id, Phase::Extract, now, e_time);
            (e_time, fl.node)
        };
        let _ = node;
        let handle = self.clone();
        sim.schedule_in(e_time, move |sim| handle.extract_done(sim, inv_id));
    }

    fn extract_done(&self, sim: &mut Sim, inv_id: InvocationId) {
        let now = sim.now();
        let (fits, compute, limit, needed) = {
            let mut p = self.0.borrow_mut();
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let fl = p.inflight.get_mut(&inv_id).expect("inflight");
            fl.compute_started = now;
            let limit = fl.record.mem_limit;
            let needed = fl.behavior.mem_bytes;
            (needed <= limit, fl.behavior.compute, limit, needed)
        };
        let handle = self.clone();
        if fits {
            sim.schedule_in(compute, move |sim| handle.transform_done(sim, inv_id));
        } else {
            // Memory ramps with progress: the OOM boundary is hit after the
            // fraction of the compute corresponding to limit/needed.
            let frac = (limit as f64 / needed as f64).clamp(0.0, 1.0);
            let to_oom = compute.mul_f64(frac);
            sim.schedule_in(to_oom, move |sim| handle.pressure(sim, inv_id));
        }
    }

    fn pressure(&self, sim: &mut Sim, inv_id: InvocationId) {
        let now = sim.now();
        let (action, remaining) = {
            let mut p = self.0.borrow_mut();
            let p = &mut *p;
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let fl = p.inflight.get_mut(&inv_id).expect("inflight");
            let elapsed = now.saturating_since(fl.record.exec_start);
            let needed = fl.behavior.mem_bytes;
            let action = p.monitor.on_pressure(sim, &fl.record, needed, elapsed);
            let done = now.saturating_since(fl.compute_started);
            let remaining = fl.behavior.compute.saturating_sub(done);
            (action, remaining)
        };
        match action {
            PressureAction::RaiseTo(new_limit) => {
                let ok = {
                    let mut p = self.0.borrow_mut();
                    let p = &mut *p;
                    // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
                    let fl = p.inflight.get_mut(&inv_id).expect("inflight");
                    let node = fl.node;
                    let sandbox = fl.sandbox;
                    let old = fl.record.mem_limit;
                    let needed = fl.behavior.mem_bytes;
                    if new_limit < needed {
                        false
                    } else {
                        let delta = new_limit - old;
                        let total = p.invokers[node].total_mem();
                        let committed_after = p.invokers[node].committed_mem() + delta;
                        match p.broker.reserve(sim, node, delta, committed_after, total) {
                            Some(_delay) => {
                                p.invokers[node].resize(sandbox, new_limit);
                                p.counters.resizes += 1;
                                // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
                                let fl = p.inflight.get_mut(&inv_id).expect("inflight");
                                fl.record.mem_limit = new_limit;
                                fl.record.resized = true;
                                true
                            }
                            None => false,
                        }
                    }
                };
                let handle = self.clone();
                if ok {
                    sim.schedule_in(remaining, move |sim| handle.transform_done(sim, inv_id));
                } else {
                    self.oom_kill(sim, inv_id);
                }
            }
            PressureAction::Kill => self.oom_kill(sim, inv_id),
        }
    }

    fn oom_kill(&self, sim: &mut Sim, inv_id: InvocationId) {
        let now = sim.now();
        let retry = {
            let mut p = self.0.borrow_mut();
            let p = &mut *p;
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let mut fl = p.inflight.remove(&inv_id).expect("inflight");
            p.counters.oom_kills += 1;
            p.metrics.oom_kills.inc();
            // The OOM killer destroys the container; its memory returns to
            // the pool.
            if let Some(freed) = p.invokers[fl.node].destroy(fl.sandbox) {
                let total = p.invokers[fl.node].total_mem();
                let committed_after = p.invokers[fl.node].committed_mem();
                p.broker
                    .release(sim, fl.node, freed, committed_after, total);
            }
            fl.record.completion = Completion::OomKilled;
            fl.record.end = now;
            p.monitor.on_complete(sim, &fl.record);
            let attempt = fl.record.attempt;
            let booked = fl.record.mem_booked;
            let request = fl.request.clone();
            p.records.push(fl.record);
            if attempt < p.cfg.max_retries {
                p.counters.retries += 1;
                p.metrics.retries.inc();
                Some((request, attempt + 1, booked))
            } else {
                if let Some(pipe) = request.pipeline {
                    drop_pipeline_member(p, sim, self, pipe);
                }
                None
            }
        };
        if let Some((request, attempt, booked)) = retry {
            // Retry at the tenant-booked size (§5.3.1). The default policy
            // resubmits immediately and synchronously (preserving event
            // order); a configured backoff delays on the simulated clock.
            let backoff = self.0.borrow().cfg.oom_retry.backoff(attempt);
            if backoff.is_zero() {
                self.submit_attempt(sim, request, attempt, Some(booked));
            } else {
                let handle = self.clone();
                sim.schedule_in(backoff, move |sim| {
                    handle.submit_attempt(sim, request, attempt, Some(booked));
                });
            }
        }
    }

    fn transform_done(&self, sim: &mut Sim, inv_id: InvocationId) {
        let now = sim.now();
        let l_time = {
            let mut p = self.0.borrow_mut();
            let p = &mut *p;
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let fl = p.inflight.get_mut(&inv_id).expect("inflight");
            let writes = fl.behavior.writes.clone();
            let admission = fl.record.admission;
            let node = fl.node;
            let pipeline = fl.record.pipeline;
            let compute = fl.behavior.compute;
            let compute_started = fl.compute_started;
            let mut l_time = Duration::ZERO;
            for w in &writes {
                let out = p.dataplane.write(sim, node, w, admission, pipeline);
                l_time += out.latency;
            }
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let fl = p.inflight.get_mut(&inv_id).expect("inflight");
            fl.record.t_time = fl.behavior.compute;
            fl.record.l_time = l_time;
            p.telemetry
                .span_at(inv_id, Phase::Transform, compute_started, compute);
            p.telemetry.span_at(inv_id, Phase::Load, now, l_time);
            l_time
        };
        let handle = self.clone();
        sim.schedule_in(l_time, move |sim| handle.finish(sim, inv_id));
    }

    fn finish(&self, sim: &mut Sim, inv_id: InvocationId) {
        let now = sim.now();
        let pipeline_step = {
            let mut p = self.0.borrow_mut();
            let p = &mut *p;
            // ofc-lint: allow(panic) reason=inflight entries live until their completion event; ids are platform-issued
            let mut fl = p.inflight.remove(&inv_id).expect("inflight");
            fl.record.completion = Completion::Success;
            fl.record.end = now;
            p.counters.completed += 1;
            p.metrics.completed.inc();

            // Sandbox idles under keep-alive.
            p.invokers[fl.node].release(fl.sandbox, now);
            let uses = p.invokers[fl.node]
                .sandbox(fl.sandbox)
                .map(|s| s.uses)
                .unwrap_or(0);
            let (node, sandbox) = (fl.node, fl.sandbox);
            let handle = self.clone();
            sim.schedule_in(crate::KEEP_ALIVE, move |sim| {
                handle.keep_alive_check(sim, node, sandbox, uses)
            });

            p.monitor.on_complete(sim, &fl.record);
            let pipeline = fl.record.pipeline;
            let outputs: Vec<crate::ObjectRef> = fl
                .behavior
                .writes
                .iter()
                .map(|w| crate::ObjectRef {
                    id: w.id,
                    size: w.size,
                })
                .collect();
            let intermediates: Vec<ObjectId> = fl
                .behavior
                .writes
                .iter()
                .filter(|w| !w.is_final)
                .map(|w| w.id)
                .collect();
            p.records.push(fl.record);

            pipeline.map(|pipe| {
                // ofc-lint: allow(panic) reason=pipeline runs outlive their stage callbacks; ids are platform-issued
                let run = p.pipelines.get_mut(&pipe).expect("pipeline exists");
                run.stage_outputs.extend(outputs);
                run.intermediates.extend(intermediates);
                run.outstanding -= 1;
                (
                    pipe,
                    run.outstanding == 0,
                    run.stage,
                    run.stage_outputs.clone(),
                )
            })
        };
        if let Some((pipe, stage_done, stage, outputs)) = pipeline_step {
            if stage_done {
                self.launch_stage(sim, pipe, stage + 1, &outputs);
            }
        }
    }

    fn keep_alive_check(&self, sim: &mut Sim, node: NodeId, sandbox: u64, uses: u64) {
        let mut p = self.0.borrow_mut();
        let p = &mut *p;
        if let Some(freed) = p.invokers[node].reclaim_if_stale(sandbox, uses) {
            let total = p.invokers[node].total_mem();
            let committed_after = p.invokers[node].committed_mem();
            p.broker.release(sim, node, freed, committed_after, total);
        }
    }
}

/// A pipeline member died permanently: mark the run failed and advance.
fn drop_pipeline_member(
    p: &mut Platform,
    sim: &mut Sim,
    handle: &PlatformHandle,
    pipe: PipelineId,
) {
    let step = p.pipelines.get_mut(&pipe).map(|run| {
        run.failed = true;
        run.outstanding = run.outstanding.saturating_sub(1);
        (run.outstanding == 0, run.stage, run.stage_outputs.clone())
    });
    if let Some((stage_done, stage, outputs)) = step {
        if stage_done {
            // Continue the pipeline with whatever outputs exist; drivers may
            // return None to abort.
            let handle = handle.clone();
            sim.schedule_in(Duration::ZERO, move |sim| {
                handle.launch_stage(sim, pipe, stage + 1, &outputs);
            });
        }
    }
}

fn new_record(
    id: InvocationId,
    req: &InvocationRequest,
    node: NodeId,
    now: SimTime,
    mem_limit: u64,
    booked: u64,
) -> InvocationRecord {
    InvocationRecord {
        id,
        function: req.function,
        tenant: req.tenant,
        args: req.args.clone(),
        pipeline: req.pipeline,
        node,
        arrival: now,
        exec_start: now,
        end: now,
        sched_time: Duration::ZERO,
        e_time: Duration::ZERO,
        t_time: Duration::ZERO,
        l_time: Duration::ZERO,
        cold_start: false,
        resized: false,
        mem_limit,
        mem_actual: 0,
        mem_booked: booked,
        reads_served: Vec::new(),
        attempt: 0,
        admission: crate::Admission::bypass(),
        completion: Completion::Success,
    }
}

/// Data plane that drops everything (used transiently while the real plane
/// is borrowed out for a callback).
struct NullPlane;

impl DataPlane for NullPlane {
    fn read(
        &mut self,
        _sim: &mut Sim,
        _node: NodeId,
        _obj: &crate::ObjectRef,
        _admission: crate::Admission,
    ) -> crate::ReadOutcome {
        crate::ReadOutcome {
            latency: Duration::ZERO,
            served: Served::Direct,
        }
    }

    fn write(
        &mut self,
        _sim: &mut Sim,
        _node: NodeId,
        _obj: &crate::ObjectWrite,
        _admission: crate::Admission,
        _pipeline: Option<PipelineId>,
    ) -> crate::WriteOutcome {
        crate::WriteOutcome {
            latency: Duration::ZERO,
        }
    }
}
