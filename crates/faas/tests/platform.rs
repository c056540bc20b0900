//! Lifecycle tests of the platform engine: scheduling, sandbox reuse,
//! keep-alive, OOM handling, pipelines, and the seam contracts.

use ofc_faas::baselines::NoopPlane;
use ofc_faas::platform::{PipelineDriver, Platform, PlatformHandle};
use ofc_faas::registry::{FunctionSpec, Registry};
use ofc_faas::{
    ArgValue, Args, Behavior, Completion, FunctionId, FunctionModel, InvocationRequest,
    MemoryBroker, ObjectRef, ObjectWrite, PlatformConfig, TenantId,
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
                ArgValue::Obj(id) => Some(ObjectRef {
                    id: *id,
                    size: 1024,
                }),
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
                mem_limit: 128 * MB,
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
                mem_limit: 128 * MB,
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
    fn tenant(&self) -> TenantId {
        TenantId::from("t")
    }

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
        ArgValue::Obj(ObjectId::new("imgs", "a.png")),
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
