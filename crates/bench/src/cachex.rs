//! Cache experiments (§7.2): Figures 3, 7, 8, 9, 10, Table 2, the §7.2.1
//! migration sweep, and the 24-tenant variant.

use crate::scenario::{
    is_failure, pretrain_single, register_single, register_stages, PinnedScheduler, PlaneKind,
    SpreadScheduler, Testbed, TestbedSpec,
};
use ofc_core::cache::rc_key;
use ofc_core::ofc::OfcConfig;
use ofc_faas::{ArgValue, Args, Completion, FunctionId, InvocationRequest, ObjectRef, TenantId};
use ofc_objstore::{ObjectId, Payload};
use ofc_rcstore::Value as RcValue;
use ofc_simtime::SimTime;
use ofc_workloads::catalog::{gen_image_with_bytes, gen_text, gen_video, MediaMeta};
use ofc_workloads::faasload::{FaasLoad, FaasLoadConfig, TenantProfile};
use ofc_workloads::multimedia::profile;
use ofc_workloads::pipelines::{ScatterGather, Sequence};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

/// The data-placement scenario of a Figure 7 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// `OWK-Swift` baseline.
    Swift,
    /// `OWK-Redis` baseline (data pre-loaded into the IMOC).
    Redis,
    /// OFC with the input cached on the executing node.
    LocalHit,
    /// OFC with a cold cache.
    Miss,
    /// OFC with the input cached on a *different* node.
    RemoteHit,
}

impl Scenario {
    /// All five scenarios, in the paper's presentation order.
    pub const ALL: [Scenario; 5] = [
        Scenario::Swift,
        Scenario::Redis,
        Scenario::LocalHit,
        Scenario::Miss,
        Scenario::RemoteHit,
    ];

    /// Short label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Swift => "Swift",
            Scenario::Redis => "Redis",
            Scenario::LocalHit => "LH",
            Scenario::Miss => "M",
            Scenario::RemoteHit => "RH",
        }
    }

    fn plane(self) -> PlaneKind {
        match self {
            Scenario::Swift => PlaneKind::Swift,
            Scenario::Redis => PlaneKind::Redis,
            _ => PlaneKind::Ofc,
        }
    }
}

/// E/T/L phase breakdown of one run (seconds).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Phases {
    /// Extract time.
    pub e: f64,
    /// Transform time.
    pub t: f64,
    /// Load time.
    pub l: f64,
}

impl Phases {
    /// Total E+T+L.
    pub fn total(&self) -> f64 {
        self.e + self.t + self.l
    }

    fn from_records(records: &[ofc_faas::InvocationRecord]) -> Phases {
        let mut p = Phases::default();
        for r in records {
            p.e += r.e_time.as_secs_f64();
            p.t += r.t_time.as_secs_f64();
            p.l += r.l_time.as_secs_f64();
        }
        p
    }
}

const EXEC_NODE: usize = 0;
const REMOTE_NODE: usize = 1;

/// Stages an input object in the RSDS (+ catalog), and in the cache/IMOC
/// according to the scenario.
pub fn stage_input(tb: &mut Testbed, scenario: Scenario, meta: MediaMeta, key: &str) -> ObjectRef {
    let id = ObjectId::new("inputs", key);
    let input = tb.catalog.stage(&mut tb.store.borrow_mut(), id, meta);
    let size = input.size;
    match scenario {
        Scenario::Redis => {
            let imoc = tb.imoc.as_ref().expect("redis testbed");
            imoc.borrow_mut()
                .put(&id, Payload::Synthetic(size))
                .0
                .expect("imoc preload");
        }
        Scenario::LocalHit | Scenario::RemoteHit => {
            let node = if scenario == Scenario::LocalHit {
                EXEC_NODE
            } else {
                REMOTE_NODE
            };
            let ofc = tb.ofc.as_ref().expect("ofc testbed");
            let max = ofc.cluster.borrow().config().max_object_bytes;
            // Objects above the cache's 10 MB limit are never cached (§6.3);
            // pipelines with large inputs still benefit via their (small)
            // intermediate chunks.
            if size <= max {
                ofc.cluster
                    .borrow_mut()
                    .write_with_dirty(
                        node,
                        &rc_key(&id),
                        RcValue::synthetic(size),
                        SimTime::ZERO,
                        false,
                    )
                    .result
                    .expect("cache preload");
            }
        }
        Scenario::Swift | Scenario::Miss => {}
    }
    input
}

/// Pins all scheduling to the measurement node (scenario isolation).
pub fn pin(tb: &Testbed, mem: u64) {
    tb.platform.set_scheduler(Box::new(PinnedScheduler {
        node: EXEC_NODE,
        mem_limit: ofc_faas::Limit(mem),
        admission: ofc_faas::Admission::admit(),
    }));
}

/// Runs one single-stage function once under `scenario` and returns its
/// phase breakdown (Figure 7a–f).
pub fn single_stage(fn_name: &str, input_bytes: u64, scenario: Scenario, seed: u64) -> Phases {
    let p = profile(fn_name).unwrap_or_else(|| panic!("unknown function {fn_name}"));
    let tenant = TenantId::from("micro");
    let mut tb = Testbed::build(TestbedSpec::new(scenario.plane(), seed));
    register_single(&tb, &tenant, p, 2 << 30);
    pin(&tb, 2 << 30);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let meta = gen_image_with_bytes(input_bytes, &mut rng);
    let input = stage_input(&mut tb, scenario, meta, "img");
    let mut args = Args::new();
    args.insert("input".into(), ArgValue::Obj(input));
    if let Some(spec) = p.arg {
        args.insert(spec.name.into(), ArgValue::Num((spec.lo + spec.hi) / 2.0));
    }
    tb.platform.submit(
        &mut tb.sim,
        InvocationRequest {
            function: FunctionId::from(p.name),
            tenant,
            args,
            seed,
            pipeline: None,
        },
    );
    tb.sim.run_until(SimTime::from_secs(3600));
    let records = tb.platform.drain_records();
    assert_eq!(records.len(), 1, "{fn_name}/{scenario:?}");
    Phases::from_records(&records)
}

/// The four multi-stage applications of Figure 7g–j.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// MapReduce word count.
    MapReduce,
    /// Thousand Island Scanner.
    This,
    /// Illegitimate Mobile App Detector.
    Imad,
    /// ServerlessBench image processing.
    ImageProcessing,
}

impl App {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            App::MapReduce => "map_reduce",
            App::This => "THIS",
            App::Imad => "IMAD",
            App::ImageProcessing => "image_processing",
        }
    }
}

/// Result of one pipeline run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PipelineRun {
    /// Summed phase breakdown across all stage invocations.
    pub phases: Phases,
    /// Wall-clock pipeline latency (seconds).
    pub wall: f64,
}

/// Runs one pipeline under `scenario` (Figure 7g–j).
pub fn pipeline(
    app: App,
    input_bytes: u64,
    fanout: usize,
    scenario: Scenario,
    seed: u64,
) -> PipelineRun {
    let tenant = TenantId::from("micro");
    let mut tb = Testbed::build(TestbedSpec::new(scenario.plane(), seed));
    // 512 MB covers every stage's peak; wide fan-outs spread over the
    // cluster (the first stage deterministically lands on node 0, where
    // the LH preload lives).
    register_stages(&tb, &tenant, 512 << 20);
    tb.platform.set_scheduler(Box::new(SpreadScheduler {
        mem_limit: ofc_faas::Limit(512 << 20),
        admission: ofc_faas::Admission::admit(),
    }));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let driver: Rc<dyn ofc_faas::platform::PipelineDriver> = match app {
        App::MapReduce => {
            let meta = gen_text(Some(input_bytes), &mut rng);
            let input = stage_input(&mut tb, scenario, meta, "pipe-in");
            Rc::new(ScatterGather::word_count(tenant, input, fanout))
        }
        App::This => {
            // Large video inputs are stored pre-split into <=10 MB chunk
            // objects (§3), each individually cacheable.
            let n_chunks = input_bytes.div_ceil(8 << 20).max(1);
            let chunks: Vec<ObjectRef> = (0..n_chunks)
                .map(|i| {
                    let mut v = gen_video(&mut rng);
                    v.bytes = input_bytes / n_chunks;
                    stage_input(&mut tb, scenario, v, &format!("pipe-in{i}"))
                })
                .collect();
            Rc::new(ScatterGather::this_video_chunks(tenant, chunks, fanout))
        }
        App::Imad => {
            let meta = gen_text(Some(input_bytes), &mut rng);
            let input = stage_input(&mut tb, scenario, meta, "pipe-in");
            Rc::new(Sequence::imad(tenant, input))
        }
        App::ImageProcessing => {
            let meta = gen_image_with_bytes(input_bytes, &mut rng);
            let input = stage_input(&mut tb, scenario, meta, "pipe-in");
            Rc::new(Sequence::image_processing(tenant, input))
        }
    };
    tb.platform.submit_pipeline(&mut tb.sim, driver, seed);
    tb.sim.run_until(SimTime::from_secs(24 * 3600));
    let records = tb.platform.drain_records();
    let pipes = tb.platform.drain_pipeline_records();
    assert_eq!(pipes.len(), 1, "{app:?}/{scenario:?}");
    assert!(!pipes[0].failed, "{app:?}/{scenario:?} failed");
    PipelineRun {
        phases: Phases::from_records(&records),
        wall: pipes[0].end.saturating_since(pipes[0].start).as_secs_f64(),
    }
}

/// Figure 8 scenario: the state of the worker's cache when a sandbox asks
/// for memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingScenario {
    /// Sc0: no cache shrinking required.
    Sc0,
    /// Sc1: shrink without data movement.
    Sc1,
    /// Sc2: shrink with migration of hot objects.
    Sc2,
    /// Sc3: shrink with eviction (no migration).
    Sc3,
}

/// One Figure 8 measurement.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ScalingRun {
    /// Input size (bytes).
    pub input_bytes: u64,
    /// Cache scale-down time on the critical path (ms).
    pub scaling_ms: f64,
    /// cgroup/docker resize time (ms).
    pub cgroup_ms: f64,
    /// Overall function execution time (ms).
    pub exec_ms: f64,
}

/// Runs the Figure 8 experiment for `wand_sepia` under one scenario.
pub fn cache_scaling(scenario: ScalingScenario, input_bytes: u64, seed: u64) -> ScalingRun {
    let p = profile("wand_sepia").expect("known profile");
    let tenant = TenantId::from("micro");
    // A small (2 GB) worker makes the cache interaction visible.
    let mut tb = Testbed::build(TestbedSpec {
        node_mem: 2 << 30,
        ..TestbedSpec::new(PlaneKind::Ofc, seed)
    });
    register_single(&tb, &tenant, p, 2 << 30);

    // Create the warm 64 MB container first (its own shrink is not part of
    // the measurement).
    pin(&tb, 64 << 20);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let warm_meta = gen_image_with_bytes(512, &mut rng);
    let warm_input = stage_input(&mut tb, Scenario::Miss, warm_meta, "warm");
    let mut warm_args = Args::new();
    warm_args.insert("input".into(), ArgValue::Obj(warm_input));
    warm_args.insert("threshold".into(), ArgValue::Num(0.5));
    tb.platform.submit(
        &mut tb.sim,
        InvocationRequest {
            function: FunctionId::from(p.name),
            tenant,
            args: warm_args,
            seed,
            pipeline: None,
        },
    );
    tb.sim.run_until(SimTime::from_secs(60));
    tb.platform.drain_records();

    // Prepare the cache state on the executing node.
    {
        let ofc = tb.ofc.as_ref().expect("ofc installed");
        let mut cluster = ofc.cluster.borrow_mut();
        match scenario {
            ScalingScenario::Sc0 => {
                // Plenty of free memory: shrink the pool ahead of time.
                cluster.resize_pool(EXEC_NODE, 256 << 20).result.unwrap();
            }
            ScalingScenario::Sc1 => {} // full pool, no data
            ScalingScenario::Sc2 | ScalingScenario::Sc3 => {
                let pool = cluster.node(EXEC_NODE).pool_bytes();
                let objs = (pool / (10 << 20)) as usize;
                for i in 0..objs {
                    let key = ofc_rcstore::Key::from(format!("fill{i}"));
                    if cluster
                        .write_with_dirty(
                            EXEC_NODE,
                            &key,
                            RcValue::synthetic(10 << 20),
                            tb.sim.now(),
                            false,
                        )
                        .result
                        .is_err()
                    {
                        break;
                    }
                    if scenario == ScalingScenario::Sc2 {
                        for _ in 0..5 {
                            cluster.read(EXEC_NODE, &key, tb.sim.now()).result.ok();
                        }
                    }
                }
            }
        }
    }

    // The measured invocation: the paper's sweep maps 1 kB–3072 kB inputs
    // to 84–152 MB memory requirements; the warm 64 MB container must be
    // resized and the cache shrunk accordingly.
    let scale_down_nanos = |m: &ofc_telemetry::MetricsSnapshot| {
        m.histogram("agent.scale_down_nanos").map_or(0, |h| h.sum)
    };
    let before = scale_down_nanos(&tb.ofc.as_ref().expect("ofc").metrics());
    let meta = gen_image_with_bytes(input_bytes, &mut rng);
    // The paper's sweep maps 1 kB-3072 kB inputs to 84-152 MB requirements;
    // the limit must also cover this input's true footprint (no OOM retry
    // is part of the scenario).
    let curve = (84 << 20) + ((input_bytes as u128 * (68 << 20)) / (3072 << 10)) as u64;
    let needed = curve.max(p.memory(&meta, Some(0.5), seed + 1) + (16 << 20));
    pin(&tb, needed);
    let input = stage_input(&mut tb, Scenario::Miss, meta, "measured");
    let mut args = Args::new();
    args.insert("input".into(), ArgValue::Obj(input));
    args.insert("threshold".into(), ArgValue::Num(0.5));
    tb.platform.submit(
        &mut tb.sim,
        InvocationRequest {
            function: FunctionId::from(p.name),
            tenant,
            args,
            seed: seed + 1,
            pipeline: None,
        },
    );
    tb.sim.run_until(SimTime::from_secs(7200));
    let records = tb.platform.drain_records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].completion, Completion::Success);
    let after = scale_down_nanos(&tb.ofc.as_ref().expect("ofc").metrics());
    let scaling = Duration::from_nanos(after.saturating_sub(before));
    ScalingRun {
        input_bytes,
        scaling_ms: scaling.as_secs_f64() * 1e3,
        cgroup_ms: ofc_faas::RESIZE_COST.as_secs_f64() * 1e3,
        exec_ms: records[0].total().as_secs_f64() * 1e3,
    }
}

/// Table 2 rows: OFC internal metrics for one macro run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Table2 {
    /// Cache scale-up operations.
    pub scale_ups: u64,
    /// Total scale-up time (s).
    pub scale_up_time_s: f64,
    /// Scale-downs without eviction.
    pub scale_down_no_eviction: u64,
    /// Scale-downs with migration.
    pub scale_down_migration: u64,
    /// Scale-downs with eviction.
    pub scale_down_eviction: u64,
    /// Total scale-down time (s).
    pub scale_down_time_s: f64,
    /// Memory predictions that fell short.
    pub bad_predictions: u64,
    /// Memory predictions that covered the need.
    pub good_predictions: u64,
    /// Invocations that permanently failed.
    pub failed_invocations: u64,
    /// Cache hit ratio (%).
    pub hit_ratio_pct: f64,
    /// Ephemeral (intermediate) data generated (GB).
    pub ephemeral_gb: f64,
}

/// Result of one §7.2.2 macro run.
#[derive(Debug, Clone, Serialize)]
pub struct MacroResult {
    /// Tenant profile label.
    pub profile: String,
    /// Configuration label (`OWK-Swift` or `OFC`).
    pub config: String,
    /// Per-tenant sum of invocation end-to-end times (s) — Figure 9's bars
    /// (pipelines report pipeline wall time).
    pub per_function_total_s: BTreeMap<String, f64>,
    /// OFC cache size over time, `(minutes, GB)` — Figure 10.
    pub cache_series: Vec<(f64, f64)>,
    /// Table 2 metrics (OFC runs only).
    pub table2: Table2,
}

/// Bake-off measurements that ride alongside a [`MacroResult`] without
/// touching its golden-frozen JSON shape: E+L latency, cache footprint,
/// and the cold-tier economics of rival policies (DESIGN.md §15).
#[derive(Debug, Clone, Default, Serialize)]
pub struct MacroExtras {
    /// Summed Extract + Load time across all invocations (s).
    pub el_seconds: f64,
    /// Peak cache footprint over the run (GB).
    pub peak_cache_gb: f64,
    /// Mean cache footprint over the run (GB).
    pub mean_cache_gb: f64,
    /// Accrued sandbox rent (nanodollars; InfiniCache only).
    pub rental_cost_nanodollars: u64,
    /// Restores served from the cold tier (InfiniCache only).
    pub cold_hits: u64,
    /// Prefetch fills issued by the policy tick (Faa$T only).
    pub prefetches: u64,
    /// Write-backs still queued when the run ended (durability check).
    pub persist_pending: u64,
    /// Write-backs parked in the dead-letter set (durability check).
    pub persist_dead_letters: u64,
}

/// One §7.2.2 macro run: which plane serves which tenant mix, for how
/// long, under which OFC configuration.
pub struct MacroSpec {
    /// The data-plane configuration under test (Swift or OFC).
    pub plane: PlaneKind,
    /// Tenant booking profile of the FaaSLoad mix.
    pub profile: TenantProfile,
    /// `1` reproduces the 8-tenant experiment; `3` the 24-tenant variant.
    pub tenants_per_function: usize,
    /// Observation window (arrivals stop here; the run settles 600 s more).
    pub window: Duration,
    /// Seed of the simulator and the load generator.
    pub seed: u64,
    /// OFC configuration: ablations, the cache policy of the bake-off,
    /// the contended pool, the replicated control plane.
    pub ofc: OfcConfig,
    /// Invoked on the assembled testbed after setup, just before the
    /// simulation runs. The chaos bench installs its fault schedule here
    /// (and stashes handles for post-run durability checks).
    pub hook: Box<dyn FnOnce(&mut Testbed)>,
}

impl MacroSpec {
    /// The 8-tenant experiment under the default OFC configuration.
    pub fn new(plane: PlaneKind, profile: TenantProfile, window: Duration, seed: u64) -> Self {
        MacroSpec {
            plane,
            profile,
            tenants_per_function: 1,
            window,
            seed,
            ofc: OfcConfig::default(),
            hook: Box::new(|_| {}),
        }
    }
}

/// Runs the §7.2.2 macro workload and returns the figure result plus the
/// [`MacroExtras`] side channel. The extras never feed figure JSON
/// directly, so extending them cannot drift the committed goldens.
pub fn run_macro(spec: MacroSpec) -> (MacroResult, MacroExtras) {
    let MacroSpec {
        plane: kind,
        profile: profile_kind,
        tenants_per_function,
        window: duration,
        seed,
        ofc,
        hook,
    } = spec;
    assert!(
        kind != PlaneKind::Redis,
        "the macro experiment compares Swift and OFC"
    );
    let mut tb = Testbed::build(TestbedSpec {
        ofc,
        ..TestbedSpec::new(kind, seed)
    });

    // Assemble the tenant set (8 × multiplier).
    let base = FaasLoad::paper_macro(profile_kind);
    let mut tenants = Vec::new();
    for copy in 0..tenants_per_function {
        for spec in base.tenants() {
            let mut spec = spec.clone();
            if copy > 0 {
                spec.name = format!("{}-{copy}", spec.name);
            }
            tenants.push(spec);
        }
    }
    let load = FaasLoad::new(
        FaasLoadConfig {
            duration,
            inputs_per_tenant: 12,
            seed,
        },
        tenants,
    );
    let prepared = load.install(&mut tb.sim, &tb.platform, &tb.store, &tb.catalog);

    // OFC: register schemas and pre-train models to maturity (production
    // functions have history, §7.1.3). Snapshot the prediction counters
    // afterwards so Table 2 only reports the observation window.
    let mut counter_baseline = (0u64, 0u64);
    if let Some(ofc) = &tb.ofc {
        for pt in &prepared {
            match pt.function.as_str() {
                "map_reduce" | "THIS" => {
                    for sp in &ofc_workloads::pipelines::STAGE_PROFILES {
                        ofc.register_function(pt.tenant.as_ref(), sp.name, sp.feature_schema());
                        pretrain_stage(ofc, &pt.tenant, sp, 200, seed);
                    }
                }
                name => {
                    let p = profile(name).expect("single-stage profile");
                    ofc.register_function(pt.tenant.as_ref(), p.name, p.feature_schema());
                    pretrain_single(&tb, &pt.tenant, p, 1200);
                }
            }
        }
        let m = ofc.metrics();
        counter_baseline = (
            m.counter("ml.good_predictions"),
            m.counter("ml.bad_predictions"),
        );
    }

    hook(&mut tb);

    tb.sim
        .run_until(SimTime::ZERO + duration + Duration::from_secs(600));

    let records = tb.platform.drain_records();
    let pipes = tb.platform.drain_pipeline_records();

    // Figure 9: per-tenant totals. Single-stage tenants sum invocation
    // latencies; pipeline tenants sum pipeline wall times.
    let mut per_function_total_s: BTreeMap<String, f64> = BTreeMap::new();
    let mut pipeline_tenants: std::collections::HashSet<String> = Default::default();
    for pt in &prepared {
        if matches!(pt.function.as_str(), "map_reduce" | "THIS") {
            pipeline_tenants.insert(pt.tenant.to_string());
        }
        per_function_total_s.insert(pt.tenant.to_string(), 0.0);
    }
    let mut pipe_tenant_by_id: BTreeMap<u64, String> = BTreeMap::new();
    for r in &records {
        if let Some(pid) = r.pipeline {
            pipe_tenant_by_id
                .entry(pid)
                .or_insert_with(|| r.tenant.to_string());
        } else if r.completion == Completion::Success {
            *per_function_total_s
                .entry(r.tenant.to_string())
                .or_default() += r.total().as_secs_f64();
        }
    }
    for p in &pipes {
        if let Some(tenant) = pipe_tenant_by_id.get(&p.id) {
            *per_function_total_s.entry(tenant.clone()).or_default() +=
                p.end.saturating_since(p.start).as_secs_f64();
        }
    }

    // Failures: OOM kills that exhausted retries, plus drops.
    let max_retries = tb.platform.config().max_retries;
    let failed = records
        .iter()
        .filter(|r| is_failure(r.completion, r.attempt, max_retries))
        .count() as u64;

    let (cache_series, table2) = match &tb.ofc {
        Some(ofc) => {
            let m = ofc.metrics();
            let (g0, b0) = counter_baseline;
            let good = m.counter("ml.good_predictions").saturating_sub(g0);
            let bad = m.counter("ml.bad_predictions").saturating_sub(b0);
            let series = m
                .gauge_series("agent.cache_size_bytes")
                .map(|s| s.downsample(64))
                .unwrap_or_default()
                .into_iter()
                .map(|(t, v)| (t.as_secs_f64() / 60.0, v / (1u64 << 30) as f64))
                .collect();
            // ofc-lint: allow(telemetry) reason=helper forwards literal registry names from the call sites below
            let hist_secs = |name: &str| m.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9);
            (
                series,
                Table2 {
                    scale_ups: m.counter("agent.scale_ups"),
                    scale_up_time_s: hist_secs("agent.scale_up_nanos"),
                    scale_down_no_eviction: m.counter("agent.scale_downs_plain"),
                    scale_down_migration: m.counter("agent.scale_downs_migration"),
                    scale_down_eviction: m.counter("agent.scale_downs_eviction"),
                    scale_down_time_s: hist_secs("agent.scale_down_nanos"),
                    bad_predictions: bad,
                    good_predictions: good,
                    failed_invocations: failed,
                    hit_ratio_pct: 100.0 * ofc_core::cache::plane_hit_ratio(&m),
                    ephemeral_gb: m.counter("plane.ephemeral_bytes") as f64 / (1u64 << 30) as f64,
                },
            )
        }
        None => (
            Vec::new(),
            Table2 {
                failed_invocations: failed,
                ..Table2::default()
            },
        ),
    };

    let el_seconds = records
        .iter()
        .map(|r| r.e_time.as_secs_f64() + r.l_time.as_secs_f64())
        .sum();
    let extras = match &tb.ofc {
        Some(ofc) => {
            let m = ofc.metrics();
            let gb = |v: f64| v / (1u64 << 30) as f64;
            let (peak, mean) = m
                .gauge_series("agent.cache_size_bytes")
                .map(|s| {
                    let pts = s.points();
                    let peak = pts.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
                    let mean = if pts.is_empty() {
                        0.0
                    } else {
                        pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
                    };
                    (peak, mean)
                })
                .unwrap_or((0.0, 0.0));
            MacroExtras {
                el_seconds,
                peak_cache_gb: gb(peak),
                mean_cache_gb: gb(mean),
                rental_cost_nanodollars: m.counter("policy.rental_cost"),
                cold_hits: m.counter("policy.cold_hits"),
                prefetches: m.counter("policy.prefetches"),
                persist_pending: ofc.persistence.borrow().pending_count() as u64,
                persist_dead_letters: ofc.persistence.borrow().dead_letter_count() as u64,
            }
        }
        None => MacroExtras {
            el_seconds,
            ..MacroExtras::default()
        },
    };

    let result = MacroResult {
        profile: format!("{profile_kind:?}"),
        config: match kind {
            PlaneKind::Swift => "OWK-Swift".into(),
            PlaneKind::Redis => "OWK-Redis".into(),
            PlaneKind::Ofc => "OFC".into(),
        },
        per_function_total_s,
        cache_series,
        table2,
    };
    (result, extras)
}

/// Pre-trains a pipeline stage function's models.
fn pretrain_stage(
    ofc: &ofc_core::ofc::Ofc,
    tenant: &TenantId,
    sp: &'static ofc_workloads::pipelines::StageProfile,
    n: usize,
    seed: u64,
) {
    use ofc_dtree::data::Value;
    use rand::Rng;
    let key = (*tenant, FunctionId::from(sp.name));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57A63);
    let mut ml = ofc.ml.borrow_mut();
    for _ in 0..n {
        let bytes: u64 = rng.gen_range(4 << 10..30 << 20);
        let n_inputs = rng.gen_range(1..10u32);
        let fanout = rng.gen_range(0..10u32);
        let mem = sp.mem_base + ((bytes as f64) * sp.mem_per_byte) as u64;
        ml.observe(
            &key,
            ofc_core::ml::Observation {
                features: vec![
                    Value::Num(bytes as f64),
                    Value::Num(f64::from(n_inputs)),
                    Value::Num(f64::from(fanout)),
                ],
                actual_mem: mem,
                el_ratio: 0.7,
            },
        );
    }
}

/// §7.2.1 migration sweep: promotion latency per object volume.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MigrationPoint {
    /// Migrated volume (MB).
    pub volume_mb: u64,
    /// Measured migration time (ms).
    pub time_ms: f64,
}

/// Measures migration-by-promotion times for the paper's sweep
/// (8 MB … 1 GB).
pub fn migration_sweep() -> Vec<MigrationPoint> {
    use ofc_rcstore::cluster::Cluster;
    use ofc_rcstore::ClusterConfig;
    [8u64, 64, 256, 512, 1024]
        .into_iter()
        .map(|volume_mb| {
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 4,
                replication_factor: 2,
                node_pool_bytes: 4 << 30,
                max_object_bytes: 10 << 20,
                ..ClusterConfig::default()
            });
            // The volume is split into <=10 MB objects, as OFC stores them.
            let n = (volume_mb).div_ceil(8);
            let mut total = Duration::ZERO;
            for i in 0..n {
                let key = ofc_rcstore::Key::from(format!("m{i}"));
                cluster
                    .write_with_dirty(
                        0,
                        &key,
                        RcValue::synthetic((volume_mb << 20) / n),
                        SimTime::ZERO,
                        false,
                    )
                    .result
                    .expect("fits");
                let t = cluster.migrate_by_promotion(&key, SimTime::ZERO);
                t.result.expect("backup exists");
                total += t.latency;
            }
            MigrationPoint {
                volume_mb,
                time_ms: total.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_local_hit_beats_swift_for_small_images() {
        let swift = single_stage("wand_edge", 16 << 10, Scenario::Swift, 3);
        let lh = single_stage("wand_edge", 16 << 10, Scenario::LocalHit, 3);
        // The headline: up to ~82% improvement for single-stage functions.
        let gain = 1.0 - lh.total() / swift.total();
        assert!(gain > 0.5, "LH gain only {:.0}%", gain * 100.0);
        // E&L dominate the Swift run (97% at 128 kB per Figure 3).
        assert!((swift.e + swift.l) / swift.total() > 0.7);
        // The LH Load phase is the constant ~11 ms shadow persist.
        assert!(lh.l > 0.010 && lh.l < 0.020, "LH L-phase {}", lh.l);
    }

    #[test]
    fn fig7_scenario_ordering_holds() {
        let runs: Vec<(Scenario, f64)> = Scenario::ALL
            .iter()
            .map(|&s| (s, single_stage("wand_sepia", 64 << 10, s, 5).total()))
            .collect();
        let get = |s: Scenario| runs.iter().find(|(x, _)| *x == s).unwrap().1;
        // Redis ≈ LH < RH < M < Swift.
        assert!(get(Scenario::LocalHit) < get(Scenario::RemoteHit));
        assert!(get(Scenario::RemoteHit) < get(Scenario::Miss));
        assert!(get(Scenario::Miss) < get(Scenario::Swift));
        let redis_vs_lh =
            (get(Scenario::Redis) - get(Scenario::LocalHit)).abs() / get(Scenario::LocalHit);
        assert!(
            redis_vs_lh < 0.6,
            "Redis and LH should be close: {redis_vs_lh:.2}"
        );
    }

    #[test]
    fn fig7_pipeline_improves_under_cache() {
        let swift = pipeline(App::MapReduce, 5 << 20, 4, Scenario::Swift, 7);
        let lh = pipeline(App::MapReduce, 5 << 20, 4, Scenario::LocalHit, 7);
        assert!(
            lh.wall < swift.wall,
            "LH {} !< Swift {}",
            lh.wall,
            swift.wall
        );
        let gain = 1.0 - lh.wall / swift.wall;
        assert!(gain > 0.25, "pipeline gain only {:.0}%", gain * 100.0);
    }

    #[test]
    fn fig8_scenarios_order_by_cost() {
        let sc0 = cache_scaling(ScalingScenario::Sc0, 16 << 10, 1);
        let sc1 = cache_scaling(ScalingScenario::Sc1, 16 << 10, 1);
        let sc3 = cache_scaling(ScalingScenario::Sc3, 16 << 10, 1);
        assert!(
            sc0.scaling_ms < 0.01,
            "Sc0 must not scale: {}",
            sc0.scaling_ms
        );
        assert!(
            sc1.scaling_ms > 0.2 && sc1.scaling_ms < 1.0,
            "Sc1 {}",
            sc1.scaling_ms
        );
        assert!(
            sc3.scaling_ms > sc1.scaling_ms,
            "Sc3 {} !> Sc1 {}",
            sc3.scaling_ms,
            sc1.scaling_ms
        );
        // cgroup resize is the constant ~23.8 ms.
        assert!((sc1.cgroup_ms - 23.8).abs() < 0.1);
    }

    #[test]
    fn migration_sweep_matches_paper_scale() {
        let points = migration_sweep();
        let at = |mb: u64| points.iter().find(|p| p.volume_mb == mb).unwrap().time_ms;
        // Paper: 0.18 ms @ 8 MB … 13.5 ms @ 1 GB (plus per-object bases
        // since OFC splits volumes into <=10 MB objects).
        assert!(at(8) < 1.0, "8 MB: {} ms", at(8));
        assert!(at(1024) > at(8) * 10.0);
        assert!(at(1024) < 40.0, "1 GB: {} ms", at(1024));
    }

    #[test]
    fn macro_run_produces_fig9_table2() {
        let dur = Duration::from_secs(300);
        let run = |plane| run_macro(MacroSpec::new(plane, TenantProfile::Normal, dur, 11)).0;
        let (swift, ofc) = (run(PlaneKind::Swift), run(PlaneKind::Ofc));
        assert_eq!(swift.per_function_total_s.len(), 8);
        assert_eq!(ofc.per_function_total_s.len(), 8);
        // OFC outperforms OWK-Swift in aggregate.
        let total = |m: &MacroResult| m.per_function_total_s.values().sum::<f64>();
        assert!(
            total(&ofc) < total(&swift),
            "OFC {} !< Swift {}",
            total(&ofc),
            total(&swift)
        );
        assert_eq!(ofc.table2.failed_invocations, 0);
        assert!(
            ofc.table2.hit_ratio_pct > 50.0,
            "hit {}",
            ofc.table2.hit_ratio_pct
        );
        assert!(!ofc.cache_series.is_empty());
    }
}
