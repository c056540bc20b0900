//! The four workloads and how each stack is assembled.
//!
//! Everything goes through the layers' public API (`Platform::build`,
//! `Ofc::builder`, `FaasLoad`/`MegaLoad::install`, `Ofc::register_function`,
//! `MlEngine::observe`) — the benchmark does not depend on `ofc-bench`,
//! whose runners are due to be rewritten. The scales below are frozen:
//! changing one changes every recorded number, so it is a benchmark
//! change of its own, never part of a change that claims a gain.

use crate::trace::Tracer;
use ofc::core::agent::AgentConfig;
use ofc::core::cache::PlaneConfig;
use ofc::core::ml::Observation;
use ofc::core::monitor::MonitorConfig;
use ofc::core::ofc::{Ofc, OfcConfig};
use ofc::core::scheduler::FeatureFn;
use ofc::dtree::data::Value;
use ofc::faas::baselines::{DirectPlane, NoopPlane};
use ofc::faas::platform::{Platform, PlatformHandle};
use ofc::faas::registry::Registry;
use ofc::faas::{
    ArgValue, ExecutionMonitor, FunctionId, InvocationRecord, PlatformConfig, PressureAction,
    TenantId,
};
use ofc::objstore::latency::LatencyModel;
use ofc::objstore::store::ObjectStore;
use ofc::simtime::Sim;
use ofc::workloads::catalog::Catalog;
use ofc::workloads::datasets::invocation_stream;
use ofc::workloads::faasload::{
    Arrival, FaasLoad, FaasLoadConfig, TenantProfile, TenantSpec, Workload,
};
use ofc::workloads::mega::{self, MegaConfig, MegaLoad};
use ofc::workloads::multimedia::{profile, Profile};
use ofc::workloads::pipelines::{stage_profile, StageProfile, STAGE_PROFILES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Name and reason of each workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_macro",
        "paper 7.2.2 mix, mature models, no memory pressure: simtime, faas and the cache read path run it; ML pretraining is the set-up",
    ),
    (
        "mega_tail",
        "1200 tenants x 96 functions, blank models, quotas: population-scale maps, live C4.5 retrains and the streaming generator dominate",
    ),
    (
        "cache_pressure",
        "200 x 12 steep-skew tenants on a pinned 2 MB pool: eviction, scale-down, write-back and the miss path at a tiny population",
    ),
    (
        "pipeline_etl",
        "48 scatter-gather pipeline tenants: writes beside reads - intermediates, shadow objects, persistor, fan-out/fan-in",
    ),
];

/// Drain after the arrival window: in-flight invocations finish, pending
/// write-backs persist.
const DRAIN: Duration = Duration::from_secs(600);

/// What generates the arrivals.
pub enum Load {
    /// Materialized FaaSLoad tenants (§7.2.2), models pretrained to
    /// maturity.
    Faas(Vec<TenantSpec>),
    /// The streaming multi-tenant generator, models blank.
    Mega(MegaConfig),
}

/// One fully specified run: load, cluster shape, OFC knobs, window, seed.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Arrival generator.
    pub load: Load,
    /// Worker nodes.
    pub nodes: usize,
    /// Memory per worker.
    pub node_mem: u64,
    /// OFC configuration.
    pub ofc: OfcConfig,
    /// Arrival window (simulated).
    pub window: Duration,
    /// Drain after the window (simulated).
    pub drain: Duration,
    /// The only generator input.
    pub seed: u64,
}

/// `FaasLoad::paper_macro(profile)` replicated `copies` times
/// (`tenant-x`, `tenant-x-1`, …), as the 24-tenant variant does.
pub fn macro_tenants(profile: TenantProfile, copies: usize) -> Vec<TenantSpec> {
    let base = FaasLoad::paper_macro(profile);
    let mut tenants = Vec::new();
    for copy in 0..copies {
        for spec in base.tenants() {
            let mut spec = spec.clone();
            if copy > 0 {
                spec.name = format!("{}-{copy}", spec.name);
            }
            tenants.push(spec);
        }
    }
    tenants
}

/// Draws every pipeline tenant's input size from the seed: 80–100 % of
/// the nominal size. The paper mix gives every pipeline tenant the same
/// 30 MB input, which makes each stage's latency one fixed number and the
/// latency percentiles blind to the seed; with per-tenant sizes they move
/// with it like every other statistic. (Sizes only shrink: 30 MB is the
/// most whose chunks still fit the 10 MB cacheable-object limit.)
fn vary_pipeline_inputs(mut tenants: Vec<TenantSpec>, seed: u64) -> Vec<TenantSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1B_9075);
    for t in &mut tenants {
        if let Workload::WordCount { input_bytes, .. } | Workload::ThisVideo { input_bytes, .. } =
            &mut t.workload
        {
            *input_bytes = (*input_bytes as f64 * rng.gen_range(0.8..1.0)) as u64;
        }
    }
    tenants
}

/// `word_count` word-count and `this` video pipeline tenants, one arrival
/// a minute each. Two word-count tenants per video tenant: with equal
/// shares the median request would sit on the gap between the two
/// pipelines' latency ranges and jump across it from seed to seed.
fn etl_tenants(word_count: usize, this: usize) -> Vec<TenantSpec> {
    let tenant = |name: String, workload| TenantSpec {
        name,
        workload,
        profile: TenantProfile::Normal,
        arrival: Arrival::Exponential(Duration::from_secs(60)),
    };
    let wc = (0..word_count).map(|i| {
        tenant(
            format!("etl-wc-{i:02}"),
            Workload::WordCount {
                fanout: 8,
                input_bytes: 30 << 20,
            },
        )
    });
    let video = (0..this).map(|i| {
        tenant(
            format!("etl-this-{i:02}"),
            Workload::ThisVideo {
                fanout: 10,
                input_bytes: 30 << 20,
            },
        )
    });
    wc.chain(video).collect()
}

/// The mega contention shape runs on a pool pinned to `pool` bytes per
/// node: the override sets the starting size, the cap keeps the agent
/// from regrowing it into the idle node.
fn pinned_pool(pool: u64) -> OfcConfig {
    OfcConfig {
        cache_pool_override: Some(pool),
        agent: AgentConfig {
            pool_cap: Some(pool),
            ..AgentConfig::default()
        },
        ..OfcConfig::default()
    }
}

/// Per-tenant quotas (`MegaOpts::headline()`), and a Monitor that watches
/// every invocation — the one departure from the headline settings.
///
/// The mega generator books three times a profile's base footprint, less
/// than some audio and video inputs need; with the paper's 3 s monitoring
/// threshold a short under-booked invocation is OOM-killed, retried at the
/// booked size and killed again: 75 / 62 / 79 of about 59 000 arrivals
/// fail for good on seeds 1 / 2 / 3 (the shipped headline run loses 1 757
/// of 1 724 237 the same way). The driver's contract asks for workloads
/// on which nothing fails, so the Monitor raises the cap for short
/// invocations too.
fn quotas(bytes: u64) -> OfcConfig {
    OfcConfig {
        plane: PlaneConfig {
            tenant_quota_bytes: Some(bytes),
            ..PlaneConfig::default()
        },
        monitor: MonitorConfig {
            min_runtime: Duration::ZERO,
            ..MonitorConfig::default()
        },
        ..OfcConfig::default()
    }
}

const GB: u64 = 1 << 30;

impl Spec {
    /// The frozen full-scale spec of `name`, or its smoke-scale twin (the
    /// untimed warm-up and the harness tests), for `seed`.
    pub fn of(name: &str, seed: u64, smoke: bool) -> Option<Spec> {
        let faas = |name, tenants, node_mem, window_s| Spec {
            name,
            load: Load::Faas(vary_pipeline_inputs(tenants, seed)),
            nodes: 4,
            node_mem,
            ofc: OfcConfig::default(),
            window: Duration::from_secs(window_s),
            drain: DRAIN,
            seed,
        };
        let mega = |name, cfg: MegaConfig, nodes, node_mem, ofc| Spec {
            name,
            window: cfg.duration,
            load: Load::Mega(MegaConfig { seed, ..cfg }),
            nodes,
            node_mem,
            ofc,
            drain: DRAIN,
            seed,
        };
        // Whole diurnal cycles fit the window (here and on `mega_tail`): with
        // the generator's 24 h wave a window of a few hours would sample one
        // random phase of the head tenants' swell, and the arrival count —
        // the work per pass — would swing by tens of percent with the seed.
        let contention = |tenants, window_s: u64, max_mean_s, base: MegaConfig| MegaConfig {
            tenants,
            // One tenant carries three quarters of the traffic at this
            // skew; 128 images (default 6) keep its handful of inputs from
            // deciding every statistic of a seed.
            inputs_per_tenant: 128,
            diurnal_period: Duration::from_secs(window_s / 6),
            // The first 12 profiles are the image functions: every object
            // is cacheable in the tiny pool.
            fns_per_tenant: 12,
            duration: Duration::from_secs(window_s),
            zipf_s: 2.5,
            max_mean: Duration::from_secs(max_mean_s),
            ..base
        };
        Some(match (name, smoke) {
            // 256 GB nodes on both FaaSLoad workloads: dozens of tenants fan
            // out 8-10 stage sandboxes a minute each, and at 64 GB every
            // seed overflows admission — 51 / 233 / 195 / 151 of about
            // 241 000 arrivals (a 9 h window) unschedulable here on seeds
            // 1-4, 148 / 188 / 181 / 75 of about 339 000 on `pipeline_etl`.
            // (Per tenant that is still less memory than the shipped
            // 24-tenant experiment has: 8 GB against 10.7 GB.)
            // 16 copies = 128 tenants, each 0.8 % of the requests. Now and
            // then a seed's live-trained benefit model stops caching one
            // pipeline tenant's intermediates and all its requests take
            // 9 s instead of 5; at 12 copies one tenant is 1.04 % of the
            // requests and drags p99 with it.
            ("paper_macro", false) => faas(
                "paper_macro",
                macro_tenants(TenantProfile::Normal, 16),
                256 * GB,
                10 * 3600,
            ),
            ("paper_macro", true) => faas(
                "paper_macro",
                macro_tenants(TenantProfile::Normal, 1),
                256 * GB,
                600,
            ),
            // 24 nodes x 256 GB: 115 200 distinct functions leave a warm
            // sandbox behind each for the 600 s keep-alive, and at the
            // headline's 64 GB per node their bookings crowd out new
            // arrivals on some seeds (9 and 8 of about 59 000 unschedulable
            // on seeds 3 and 6, none on 1, 2, 4, 5). The cache is bounded
            // by the 64 MB tenant quotas, not by the pool.
            ("mega_tail", false) => mega(
                "mega_tail",
                MegaConfig {
                    duration: Duration::from_secs(2100),
                    diurnal_period: Duration::from_secs(300),
                    // 24 inputs per media kind (default 6): the latency
                    // tail is a few heavy (function, input) pairs, and
                    // with six inputs its p99 moved 16 % between seeds.
                    inputs_per_tenant: 24,
                    ..MegaConfig::default()
                },
                24,
                256 * GB,
                quotas(64 << 20),
            ),
            ("mega_tail", true) => mega(
                "mega_tail",
                MegaConfig::smoke(),
                4,
                256 * GB,
                quotas(64 << 10),
            ),
            ("cache_pressure", false) => mega(
                "cache_pressure",
                contention(200, 27_000, 60, MegaConfig::default()),
                4,
                64 * GB,
                pinned_pool(2 << 20),
            ),
            ("cache_pressure", true) => mega(
                "cache_pressure",
                contention(20, 120, 10, MegaConfig::smoke()),
                4,
                64 * GB,
                pinned_pool(2 << 20),
            ),
            ("pipeline_etl", false) => {
                faas("pipeline_etl", etl_tenants(32, 16), 256 * GB, 11 * 3600)
            }
            ("pipeline_etl", true) => faas("pipeline_etl", etl_tenants(2, 1), 256 * GB, 600),
            _ => return None,
        })
    }

    /// End of the run (window plus drain) in simulated seconds.
    pub fn horizon(&self) -> Duration {
        self.window + self.drain
    }
}

/// Which data plane the platform gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The full OFC stack.
    Ofc,
    /// The `DirectPlane` twin (`OWK-Swift`): simtime + workloads + faas +
    /// objstore only — same arrivals, no cache.
    Twin,
}

/// An assembled stack, ready to run.
pub struct Stack {
    /// The simulator.
    pub sim: Sim,
    /// The FaaS platform.
    pub platform: PlatformHandle,
    /// The RSDS.
    pub store: Rc<RefCell<ObjectStore>>,
    /// OFC handles (absent on the twin).
    pub ofc: Option<Ofc>,
    /// Every registered `(tenant, function)` with a generator of matching
    /// feature vectors — the population the layer drivers replay against.
    pub functions: Vec<FnEntry>,
    /// Buckets holding the prepared inputs.
    pub input_buckets: Vec<String>,
}

/// Where a registered function's feature vectors come from.
#[derive(Clone, Copy)]
pub enum FnKind {
    /// A single-stage multimedia function.
    Single(&'static Profile),
    /// A pipeline stage.
    Stage(&'static StageProfile),
}

/// One registered function.
#[derive(Clone, Copy)]
pub struct FnEntry {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Function id.
    pub function: FunctionId,
    /// Profile behind it.
    pub kind: FnKind,
}

/// Host seconds of each set-up step (zero where a step does not apply).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Platform::build` + `Ofc::builder().build()` + `Ofc::start`.
    pub build_s: f64,
    /// `FaasLoad`/`MegaLoad::install`.
    pub install_s: f64,
    /// `Ofc::register_function` over the population.
    pub register_s: f64,
    /// `MlEngine::observe` pretraining.
    pub pretrain_s: f64,
    /// The whole set-up span.
    pub setup_s: f64,
}

/// The Predictor's feature extractor: resolves mega variants
/// (`wand_blur.17`), plain single-stage profiles and pipeline stages by
/// function name, reading metadata through the catalog.
fn feature_fn(catalog: Catalog) -> FeatureFn {
    Rc::new(move |_tenant, function, args| {
        let name: &str = function.as_ref();
        if let Some(p) = mega::profile_of_function(name) {
            let input = args.values().find_map(|v| match v {
                ArgValue::Obj(id) => Some(*id),
                _ => None,
            })?;
            let meta = catalog.get(&input)?;
            return Some(p.features(&meta, args));
        }
        stage_profile(name).map(|sp| sp.features(args, &catalog))
    })
}

/// The twin's memory monitor under the mega generator: raises a sandbox's
/// cap to what the invocation needs, as the OFC Monitor does on the other
/// side. The generator books three times a profile's base footprint, less
/// than some audio and video inputs need, and the stock kill-and-retry
/// monitor fails those for good: 1 211 of 42 559 arrivals of a 1 500 s
/// `mega_tail` window on seed 1. They are the heaviest work of the run, the
/// OFC side completes them, and `exec_gain_pct` over what is left reads
/// -114 %. The FaaSLoad workloads keep the stock monitor (it never kills
/// there: no twin OOM kill on seeds 1-8).
struct RaisingMonitor;

impl ExecutionMonitor for RaisingMonitor {
    fn on_pressure(
        &mut self,
        _sim: &mut Sim,
        record: &InvocationRecord,
        needed: u64,
        _elapsed: Duration,
    ) -> PressureAction {
        PressureAction::RaiseTo(needed.max(record.mem_limit))
    }

    fn on_complete(&mut self, _sim: &mut Sim, _record: &InvocationRecord) {}
}

/// Pretraining volume per single-stage function and per pipeline stage:
/// production functions have history (§7.1.3), and these match what the
/// shipped macro experiments feed.
const PRETRAIN_SINGLE: usize = 1200;
const PRETRAIN_STAGE: usize = 200;

fn pretrain(ofc: &Ofc, f: &FnEntry, seed: u64) {
    let key = (f.tenant, f.function);
    let mut ml = ofc.ml.borrow_mut();
    match f.kind {
        FnKind::Single(p) => {
            for s in invocation_stream(p, PRETRAIN_SINGLE, 0xC0FFEE) {
                ml.observe(
                    &key,
                    Observation {
                        features: s.features,
                        actual_mem: s.mem_bytes,
                        el_ratio: if s.cache_benefit { 0.9 } else { 0.1 },
                    },
                );
            }
        }
        FnKind::Stage(sp) => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57A63);
            for _ in 0..PRETRAIN_STAGE {
                let bytes: u64 = rng.gen_range(4 << 10..30 << 20);
                let n_inputs = rng.gen_range(1..10u32);
                let fanout = rng.gen_range(0..10u32);
                ml.observe(
                    &key,
                    Observation {
                        features: vec![
                            Value::Num(bytes as f64),
                            Value::Num(f64::from(n_inputs)),
                            Value::Num(f64::from(fanout)),
                        ],
                        actual_mem: sp.mem_base + ((bytes as f64) * sp.mem_per_byte) as u64,
                        el_ratio: 0.7,
                    },
                );
            }
        }
    }
}

/// Builds the stack of `spec` on `plane`, timing each set-up step through
/// `tr` (spans `setup` › `faas.build` / `workloads.install` /
/// `core.ml.register` / `core.ml.pretrain`).
pub fn assemble(spec: &Spec, plane: Plane, tr: &mut Tracer) -> (Stack, SetupTimes) {
    let mut times = SetupTimes::default();
    let setup = tr.open("setup");

    let open = tr.open("faas.build");
    let catalog = Catalog::new();
    let store = Rc::new(RefCell::new(ObjectStore::new(LatencyModel::swift())));
    let pcfg = PlatformConfig {
        nodes: spec.nodes,
        node_mem: spec.node_mem,
        ..PlatformConfig::default()
    };
    let mut sim = Sim::new(spec.seed);
    let (platform, ofc) = match plane {
        Plane::Twin => {
            let platform = Platform::build(
                pcfg,
                Registry::new(),
                Box::new(DirectPlane::new(Rc::clone(&store))),
            );
            if matches!(spec.load, Load::Mega(_)) {
                platform.set_monitor(Box::new(RaisingMonitor));
            }
            (platform, None)
        }
        Plane::Ofc => {
            let platform = Platform::build(pcfg, Registry::new(), Box::new(NoopPlane));
            let ofc = Ofc::builder(&platform)
                .store(Rc::clone(&store))
                .features(feature_fn(catalog.clone()))
                .config(spec.ofc.clone())
                .build();
            ofc.start(&mut sim);
            (platform, Some(ofc))
        }
    };
    times.build_s = tr.close(open).as_secs_f64();

    let open = tr.open("workloads.install");
    let mut functions = Vec::new();
    let mut input_buckets = Vec::new();
    match &spec.load {
        Load::Faas(tenants) => {
            let load = FaasLoad::new(
                FaasLoadConfig {
                    duration: spec.window,
                    inputs_per_tenant: 12,
                    seed: spec.seed,
                },
                tenants.clone(),
            );
            for pt in load.install(&mut sim, &platform, &store, &catalog) {
                input_buckets.push(format!("{}-inputs", pt.tenant));
                match pt.function.as_str() {
                    "map_reduce" | "THIS" => {
                        functions.extend(STAGE_PROFILES.iter().map(|sp| FnEntry {
                            tenant: pt.tenant,
                            function: FunctionId::from(sp.name),
                            kind: FnKind::Stage(sp),
                        }));
                    }
                    name => {
                        let p = profile(name).expect("FaaSLoad installs known profiles");
                        functions.push(FnEntry {
                            tenant: pt.tenant,
                            function: FunctionId::from(p.name),
                            kind: FnKind::Single(p),
                        });
                    }
                }
            }
        }
        Load::Mega(cfg) => {
            MegaLoad::new(cfg.clone()).install(&mut sim, &platform, &store, &catalog);
            let per_tenant: Vec<(FunctionId, &'static Profile)> = (0..cfg.fns_per_tenant)
                .map(|k| {
                    let name = mega::fn_name(k);
                    let p = mega::profile_of_function(&name).expect("mega names resolve");
                    (FunctionId::from(name.as_str()), p)
                })
                .collect();
            for t in 0..cfg.tenants {
                let name = mega::tenant_name(t);
                let tenant = TenantId::from(name.as_str());
                functions.extend(per_tenant.iter().map(|&(function, p)| FnEntry {
                    tenant,
                    function,
                    kind: FnKind::Single(p),
                }));
                input_buckets.push(name);
            }
        }
    }
    times.install_s = tr.close(open).as_secs_f64();

    if let Some(ofc) = &ofc {
        let open = tr.open("core.ml.register");
        for f in &functions {
            let schema = match f.kind {
                FnKind::Single(p) => p.feature_schema(),
                FnKind::Stage(sp) => sp.feature_schema(),
            };
            ofc.register_function(f.tenant, f.function, schema);
        }
        times.register_s = tr.close(open).as_secs_f64();

        if matches!(spec.load, Load::Faas(_)) {
            let open = tr.open("core.ml.pretrain");
            for f in &functions {
                pretrain(ofc, f, spec.seed);
            }
            times.pretrain_s = tr.close(open).as_secs_f64();
        }
    }

    times.setup_s = tr.close(setup).as_secs_f64();
    (
        Stack {
            sim,
            platform,
            store,
            ofc,
            functions,
            input_buckets,
        },
        times,
    )
}
