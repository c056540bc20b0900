//! Lifecycle tests of the platform engine: scheduling, sandbox reuse,
//! keep-alive, OOM handling, pipelines, and the seam contracts.

use ofc_faas::baselines::NoopPlane;
use ofc_faas::platform::{PipelineDriver, Platform, PlatformHandle};
use ofc_faas::registry::{FunctionSpec, Registry};
use ofc_faas::{
    ArgValue, Args, Behavior, Completion, ExecutionMonitor, FunctionId, FunctionModel,
    InvocationRecord, InvocationRequest, MemoryBroker, ObjectRef, ObjectWrite, PlatformConfig,
    PressureAction, TenantId,
};
use ofc_objstore::ObjectId;
use ofc_simtime::{Sim, SimTime};
use std::rc::Rc;
use std::time::Duration;

const MB: u64 = 1 << 20;

struct ScaledModel {
    mem: u64,
    compute: Duration,
}

impl FunctionModel for ScaledModel {
    fn behavior(&self, args: &Args, _seed: u64) -> Behavior {
        let reads = args
            .values()
            .filter_map(|v| match v {
                ArgValue::Obj(r) => Some(*r),
                _ => None,
            })
            .collect();
        Behavior {
            mem_bytes: self.mem,
            compute: self.compute,
            reads,
            writes: vec![ObjectWrite {
                id: ObjectId::new("out", "o"),
                size: 512,
                is_final: true,
            }],
        }
    }
}

fn platform_with(mem: u64, compute: Duration) -> PlatformHandle {
    let mut reg = Registry::new();
    reg.register(FunctionSpec {
        id: FunctionId::from("f"),
        tenant: TenantId::from("t"),
        booked_mem: 512 * MB,
        model: Rc::new(ScaledModel { mem, compute }),
    });
    Platform::build(PlatformConfig::default(), reg, Box::new(NoopPlane))
}

fn request() -> InvocationRequest {
    InvocationRequest {
        function: FunctionId::from("f"),
        tenant: TenantId::from("t"),
        args: Args::new(),
        seed: 0,
        pipeline: None,
    }
}

#[test]
fn single_invocation_happy_path() {
    let p = platform_with(100 * MB, Duration::from_millis(50));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(10));
    let recs = p.drain_records();
    assert_eq!(recs.len(), 1);
    let r = &recs[0];
    assert_eq!(r.completion, Completion::Success);
    assert!(r.cold_start);
    assert_eq!(r.t_time, Duration::from_millis(50));
    assert_eq!(r.mem_actual, 100 * MB);
    assert_eq!(r.mem_limit, 512 * MB);
    // Cold start: warm overhead (8 ms) + cold start (100 ms).
    assert_eq!(r.sched_time, Duration::from_millis(108));
    // End-to-end = scheduling + compute (NoopPlane E/L are free).
    assert_eq!(r.total(), Duration::from_millis(158));
    let c = p.counters();
    assert_eq!((c.submitted, c.completed, c.cold_starts), (1, 1, 1));
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn second_invocation_reuses_warm_sandbox() {
    let p = platform_with(100 * MB, Duration::from_millis(10));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(1));
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(2));
    let recs = p.drain_records();
    assert_eq!(recs.len(), 2);
    assert!(recs[0].cold_start);
    assert!(!recs[1].cold_start);
    // Warm path: only the 8 ms platform overhead.
    assert_eq!(recs[1].sched_time, Duration::from_millis(8));
    let c = p.counters();
    assert_eq!((c.cold_starts, c.warm_starts), (1, 1));
    assert_eq!(p.sandbox_count(recs[0].node), 1);
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn concurrent_invocations_get_separate_sandboxes() {
    let p = platform_with(100 * MB, Duration::from_millis(500));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(5));
    let recs = p.drain_records();
    assert_eq!(recs.len(), 2);
    // Both are cold starts: the first sandbox was busy when the second
    // arrived (one invocation at a time, §2.1).
    assert!(recs.iter().all(|r| r.cold_start));
    assert_eq!(p.counters().cold_starts, 2);
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn keep_alive_reclaims_idle_sandboxes() {
    let p = platform_with(100 * MB, Duration::from_millis(10));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(1));
    let recs = p.drain_records();
    let node = recs[0].node;
    assert_eq!(p.sandbox_count(node), 1);
    assert!(p.committed_mem(node) > 0);
    // Keep-alive is 600 s; after it fires the sandbox is gone.
    sim.run_until(SimTime::from_secs(700));
    assert_eq!(p.sandbox_count(node), 0);
    assert_eq!(p.committed_mem(node), 0);
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn reuse_before_timeout_extends_keep_alive() {
    let p = platform_with(100 * MB, Duration::from_millis(10));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(1));
    let node = p.drain_records()[0].node;
    // Reuse at t=500 s, before the t≈600 s expiry.
    sim.schedule_at(SimTime::from_secs(500), {
        let p = p.clone();
        move |sim| {
            p.submit(sim, request());
        }
    });
    sim.run_until(SimTime::from_secs(650));
    // The original keep-alive check fired but found the sandbox reused.
    assert_eq!(p.sandbox_count(node), 1);
    sim.run_until(SimTime::from_secs(1200));
    assert_eq!(p.sandbox_count(node), 0);
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn oom_kill_and_retry_at_booked() {
    // Needs 800 MB; a custom scheduler underpredicts 128 MB; booked 512 MB
    // is still not enough, so the retry is also killed (max_retries = 1).
    struct Tight;
    impl ofc_faas::Scheduler for Tight {
        fn route(&mut self, ctx: &ofc_faas::RoutingContext) -> ofc_faas::RoutingDecision {
            ofc_faas::RoutingDecision {
                node: 0,
                sandbox: ctx.warm.first().map(|s| s.sandbox),
                mem_limit: ofc_faas::Limit(128 * MB),
                admission: ofc_faas::Admission::bypass(),
                overhead: Duration::ZERO,
            }
        }
    }
    let p = platform_with(800 * MB, Duration::from_millis(100));
    p.set_scheduler(Box::new(Tight));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(10));
    let recs = p.drain_records();
    assert_eq!(recs.len(), 2, "original + one retry");
    assert_eq!(recs[0].completion, Completion::OomKilled);
    assert_eq!(recs[0].mem_limit, 128 * MB);
    // Retry ran at the tenant-booked 512 MB (§5.3.1) — and still died.
    assert_eq!(recs[1].mem_limit, 512 * MB);
    assert_eq!(recs[1].completion, Completion::OomKilled);
    let c = p.counters();
    assert_eq!((c.oom_kills, c.retries, c.completed), (2, 1, 0));
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn oom_retry_succeeds_when_booked_is_enough() {
    struct Tight;
    impl ofc_faas::Scheduler for Tight {
        fn route(&mut self, _ctx: &ofc_faas::RoutingContext) -> ofc_faas::RoutingDecision {
            ofc_faas::RoutingDecision {
                node: 0,
                sandbox: None,
                mem_limit: ofc_faas::Limit(128 * MB),
                admission: ofc_faas::Admission::bypass(),
                overhead: Duration::ZERO,
            }
        }
    }
    let p = platform_with(400 * MB, Duration::from_millis(100));
    p.set_scheduler(Box::new(Tight));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(10));
    let recs = p.drain_records();
    assert_eq!(recs.len(), 2);
    assert_eq!(recs[0].completion, Completion::OomKilled);
    assert_eq!(recs[1].completion, Completion::Success);
    assert_eq!(recs[1].attempt, 1);
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn monitor_cap_raise_is_counted_once() {
    // The scheduler under-sizes every sandbox; the monitor answers each
    // pressure event by raising the cap to what the invocation needs.
    struct Tight;
    impl ofc_faas::Scheduler for Tight {
        fn route(&mut self, _ctx: &ofc_faas::RoutingContext) -> ofc_faas::RoutingDecision {
            ofc_faas::RoutingDecision {
                node: 0,
                sandbox: None,
                mem_limit: ofc_faas::Limit(128 * MB),
                admission: ofc_faas::Admission::bypass(),
                overhead: Duration::ZERO,
            }
        }
    }
    struct Raise;
    impl ExecutionMonitor for Raise {
        fn on_pressure(
            &mut self,
            _sim: &mut Sim,
            _record: &InvocationRecord,
            needed: u64,
            _elapsed: Duration,
        ) -> PressureAction {
            PressureAction::RaiseTo(needed)
        }
        fn on_complete(&mut self, _sim: &mut Sim, _record: &InvocationRecord) {}
    }
    let p = platform_with(400 * MB, Duration::from_millis(100));
    p.set_scheduler(Box::new(Tight));
    p.set_monitor(Box::new(Raise));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(10));
    let recs = p.drain_records();
    assert!(recs
        .iter()
        .all(|r| r.completion == Completion::Success && r.resized));
    let resizes = p.counters().resizes;
    assert!(resizes > 0);
    let cell = p.telemetry().metrics().counter("faas.resizes");
    assert_eq!(resizes, cell, "counters() and faas.resizes are one count");
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn broker_refusal_makes_request_unschedulable() {
    struct Stingy;
    impl MemoryBroker for Stingy {
        fn reserve(
            &mut self,
            _sim: &mut Sim,
            _node: usize,
            _committed_after: u64,
            _total: u64,
        ) -> Option<Duration> {
            None
        }
        fn release(&mut self, _sim: &mut Sim, _node: usize, _committed_after: u64, _total: u64) {}
    }
    let p = platform_with(100 * MB, Duration::from_millis(10));
    p.set_broker(Box::new(Stingy));
    let mut sim = Sim::new(0);
    p.submit(&mut sim, request());
    sim.run_until(SimTime::from_secs(1));
    let recs = p.drain_records();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].completion, Completion::Unschedulable);
    assert_eq!(p.counters().unschedulable, 1);
    assert_eq!(p.audit(), Ok(()));
}

struct TwoStage {
    fanout: usize,
}

impl PipelineDriver for TwoStage {
    fn stage(
        &self,
        stage: usize,
        prev: &[ObjectRef],
        _seed: u64,
    ) -> Option<Vec<InvocationRequest>> {
        match stage {
            // Stage 0: fan out N parallel workers.
            0 => Some((0..self.fanout).map(|_| request()).collect()),
            // Stage 1: one reducer consuming the outputs of stage 0.
            1 => {
                assert_eq!(prev.len(), self.fanout, "reducer sees all map outputs");
                Some(vec![request()])
            }
            _ => None,
        }
    }
}

#[test]
fn pipeline_runs_stages_in_order() {
    let p = platform_with(100 * MB, Duration::from_millis(50));
    let mut sim = Sim::new(0);
    p.submit_pipeline(&mut sim, Rc::new(TwoStage { fanout: 3 }), 7);
    sim.run_until(SimTime::from_secs(30));
    let recs = p.drain_records();
    assert_eq!(recs.len(), 4, "3 mappers + 1 reducer");
    let pipes = p.drain_pipeline_records();
    assert_eq!(pipes.len(), 1);
    let pipe = &pipes[0];
    assert_eq!(pipe.invocations, 4);
    assert_eq!(pipe.stages, 2);
    assert!(!pipe.failed);
    // The reducer started only after all mappers finished.
    let reducer = recs.iter().max_by_key(|r| r.arrival.as_nanos()).unwrap();
    let last_mapper_end = recs
        .iter()
        .filter(|r| r.id != reducer.id)
        .map(|r| r.end)
        .max()
        .unwrap();
    assert!(reducer.arrival >= last_mapper_end);
    assert_eq!(p.audit(), Ok(()));
}

#[test]
fn pipeline_parallel_stage_overlaps() {
    let p = platform_with(100 * MB, Duration::from_millis(500));
    let mut sim = Sim::new(0);
    p.submit_pipeline(&mut sim, Rc::new(TwoStage { fanout: 4 }), 7);
    sim.run_until(SimTime::from_secs(60));
    let pipes = p.drain_pipeline_records();
    let wall = pipes[0].end.saturating_since(pipes[0].start);
    // 4 parallel mappers (0.5 s each) + 1 reducer ≈ ~1.2 s, far below the
    // 2.5 s a serial execution would take.
    assert!(wall < Duration::from_secs(2), "no parallelism: {wall:?}");
}

#[test]
fn records_expose_ml_ground_truth() {
    let p = platform_with(300 * MB, Duration::from_millis(20));
    let mut sim = Sim::new(0);
    let mut req = request();
    req.args.insert(
        "input".into(),
        ArgValue::Obj(ObjectRef {
            id: ObjectId::new("imgs", "a.png"),
            size: 1024,
        }),
    );
    req.args.insert("sigma".into(), ArgValue::Num(2.5));
    p.submit(&mut sim, req);
    sim.run_until(SimTime::from_secs(5));
    let recs = p.drain_records();
    let r = &recs[0];
    assert_eq!(r.mem_actual, 300 * MB);
    assert_eq!(r.args.len(), 2);
    assert_eq!(r.reads_served.len(), 1, "one object argument was read");
}

/// A stage function that writes `outputs` objects named after its seed.
struct Naming {
    mem: u64,
    outputs: usize,
}

impl FunctionModel for Naming {
    fn behavior(&self, _args: &Args, seed: u64) -> Behavior {
        Behavior {
            mem_bytes: self.mem,
            compute: Duration::from_millis(20),
            reads: Vec::new(),
            writes: (0..self.outputs)
                .map(|i| ObjectWrite {
                    id: ObjectId::from_fmt("mid", format_args!("{seed}-{i}")),
                    size: 512,
                    is_final: false,
                })
                .collect(),
        }
    }
}

/// Split → one map per split output → reduce; the first mapper runs
/// `map_huge`, which no attempt survives.
struct ScatterGather;

fn call(function: &str, seed: u64) -> InvocationRequest {
    InvocationRequest {
        function: FunctionId::from(function),
        tenant: TenantId::from("t"),
        args: Args::new(),
        seed,
        pipeline: None,
    }
}

impl PipelineDriver for ScatterGather {
    fn stage(&self, stage: usize, prev: &[ObjectRef], seed: u64) -> Option<Vec<InvocationRequest>> {
        match stage {
            0 => Some(vec![call("split", seed)]),
            1 => Some(
                (0..prev.len() as u64)
                    .map(|i| call(if i == 0 { "map_huge" } else { "map" }, seed * 10 + i))
                    .collect(),
            ),
            2 => Some(vec![call("reduce", seed + 100)]),
            _ => None,
        }
    }
}

#[test]
fn pipeline_stops_after_a_member_fails_for_good() {
    let mut reg = Registry::new();
    for (name, mem, outputs) in [
        ("split", 100 * MB, 3),
        ("map", 100 * MB, 1),
        // Needs more than the 512 MB booking: killed on every attempt.
        ("map_huge", 800 * MB, 2),
        ("reduce", 100 * MB, 1),
    ] {
        reg.register(FunctionSpec {
            id: FunctionId::from(name),
            tenant: TenantId::from("t"),
            booked_mem: 512 * MB,
            model: Rc::new(Naming { mem, outputs }),
        });
    }
    let p = Platform::build(PlatformConfig::default(), reg, Box::new(NoopPlane));
    let mut sim = Sim::new(0);
    p.submit_pipeline(&mut sim, Rc::new(ScatterGather), 1);
    sim.run_until(SimTime::from_secs(60));
    let pipes = p.drain_pipeline_records();
    assert_eq!(pipes.len(), 1);
    assert!(pipes[0].failed);
    // The split and its three mappers ran; the reduce stage was never
    // asked for.
    assert_eq!((pipes[0].stages, pipes[0].invocations), (2, 4));
    let recs = p.drain_records();
    assert!(recs.iter().all(|r| r.function.as_ref() != "reduce"));
    let killed = recs
        .iter()
        .filter(|r| r.completion == Completion::OomKilled)
        .count();
    assert_eq!(killed, 2, "map_huge and its one retry");
    assert_eq!(p.counters().completed, 3);
    assert_eq!(p.audit(), Ok(()));
}
