//! FaaSLoad — the multi-tenant load injector of §7.2.2 and Appendix A.
//!
//! FaaSLoad prepares each tenant's input data in the RSDS, registers the
//! tenant's function(s) with a booked memory chosen by the tenant profile,
//! and fires invocations over an observation window with exponential
//! inter-arrival times.
//!
//! Arrivals are **streamed**, as in [`crate::mega`]: each tenant is one
//! pending event that, when it fires, draws its invocation from the
//! tenant's RNG, submits it, draws the next gap and re-arms itself while
//! the next instant is inside the window. Live state is O(tenants) however
//! long the window, and the RNG makes the same draws in the same order as
//! materializing the whole window up front would, so every arrival lands
//! at the same instant with the same arguments.
//!
//! Tie rule: an arrival is scheduled by the tenant's previous arrival, so
//! it takes its place in the simulator's `(at, seq)` order like any other
//! event. Exponential gaps practically never tie, so materializing the
//! window at install would order the same events the same way.

use crate::catalog::Catalog;
use crate::multimedia::{MultimediaModel, Profile};
use crate::pipelines::{register_stage_functions, ScatterGather};
use crate::stream::{self, Stream};
use ofc_faas::platform::PlatformHandle;
use ofc_faas::registry::FunctionSpec;
use ofc_faas::{FunctionId, InvocationRequest, ObjectRef, TenantId};
use ofc_objstore::store::ObjectStore;
use ofc_objstore::ObjectId;
use ofc_simtime::{Sim, SimTime};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// How a tenant sizes the memory booking of their functions (§7.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantProfile {
    /// Always books the platform maximum (2 GB).
    Naive,
    /// Books the maximum memory observed across previous runs.
    Advanced,
    /// Books 1.7× the advanced amount (the common practice reported by
    /// \[39\]).
    Normal,
}

impl TenantProfile {
    /// The booked memory for a function whose observed peak is `max_used`.
    pub fn booked(self, max_used: u64) -> u64 {
        let b = match self {
            TenantProfile::Naive => 2 << 30,
            TenantProfile::Advanced => max_used,
            TenantProfile::Normal => (max_used as f64 * 1.7) as u64,
        };
        b.clamp(64 << 20, 2 << 30)
    }
}

/// Inter-arrival law of a tenant's invocations. Exponential is the only
/// one; the enum stays so that every caller, the benchmark's workloads
/// among them, names the law it builds.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Exponential with the given mean (λ = 1/mean).
    Exponential(Duration),
}

impl Arrival {
    /// Draws the gap to the next arrival.
    fn gap(self, rng: &mut ChaCha8Rng) -> Duration {
        match self {
            Arrival::Exponential(mean) => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                mean.mul_f64(-u.ln())
            }
        }
    }
}

/// A tenant's workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// One of the 19 single-stage functions.
    Single(&'static Profile),
    /// The MapReduce word-count pipeline with the given fan-out.
    WordCount {
        /// Number of mappers.
        fanout: usize,
        /// Input text size in bytes.
        input_bytes: u64,
    },
    /// The THIS video pipeline with the given fan-out.
    ThisVideo {
        /// Number of chunk processors.
        fanout: usize,
        /// Input video size in bytes (chunked decoding keeps intermediates
        /// under the 10 MB cache limit when `input_bytes / fanout * 2.4`
        /// stays small).
        input_bytes: u64,
    },
}

/// One tenant of the injected load.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name.
    pub name: String,
    /// What they run.
    pub workload: Workload,
    /// How they size memory.
    pub profile: TenantProfile,
    /// Invocation arrival law.
    pub arrival: Arrival,
}

/// Injector configuration.
#[derive(Debug, Clone)]
pub struct FaasLoadConfig {
    /// Observation window (the paper uses 30 min).
    pub duration: Duration,
    /// Input objects prepared per tenant.
    pub inputs_per_tenant: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FaasLoadConfig {
    fn default() -> Self {
        FaasLoadConfig {
            duration: Duration::from_secs(30 * 60),
            inputs_per_tenant: 16,
            seed: 0,
        }
    }
}

/// Per-tenant facts the harness reports on (booked memory, input pool).
#[derive(Debug, Clone)]
pub struct PreparedTenant {
    /// Tenant name.
    pub tenant: TenantId,
    /// Function name invoked (pipeline tenants report the pipeline kind).
    pub function: String,
    /// Booked memory applied.
    pub booked_mem: u64,
    /// Maximum ground-truth memory over the prepared inputs.
    pub max_used: u64,
    /// Prepared input objects.
    pub inputs: Vec<ObjectRef>,
}

/// One tenant's live arrival stream; its RNG continues the draws that
/// prepared the tenant's inputs and booking.
struct TenantStream {
    platform: PlatformHandle,
    tenant: TenantId,
    workload: Workload,
    arrival: Arrival,
    inputs: Vec<ObjectRef>,
    /// Last instant of the observation window.
    end: SimTime,
    rng: ChaCha8Rng,
}

impl Stream for TenantStream {
    fn fire(&mut self, sim: &mut Sim) -> Option<SimTime> {
        let input = self.inputs[self.rng.gen_range(0..self.inputs.len())];
        let inv_seed = self.rng.gen::<u64>();
        match self.workload {
            Workload::Single(p) => {
                let args = p.sample_args(&input, &mut self.rng);
                let req = InvocationRequest {
                    function: FunctionId::from(p.name),
                    tenant: self.tenant,
                    args,
                    seed: inv_seed,
                    pipeline: None,
                };
                self.platform.submit(sim, req);
            }
            Workload::WordCount { fanout, .. } => {
                let driver = ScatterGather::word_count(self.tenant, input, fanout);
                self.platform
                    .submit_pipeline(sim, Rc::new(driver), inv_seed);
            }
            Workload::ThisVideo { fanout, .. } => {
                let driver = ScatterGather::this_video(self.tenant, input, fanout);
                self.platform
                    .submit_pipeline(sim, Rc::new(driver), inv_seed);
            }
        }
        let next = sim.now() + self.arrival.gap(&mut self.rng);
        (next <= self.end).then_some(next)
    }
}

/// The FaaSLoad injector.
pub struct FaasLoad {
    cfg: FaasLoadConfig,
    tenants: Vec<TenantSpec>,
}

impl FaasLoad {
    /// Creates an injector for the given tenants.
    ///
    /// # Panics
    ///
    /// Panics if a tenant's arrival mean is zero: its stream would fire
    /// forever at one instant.
    pub fn new(cfg: FaasLoadConfig, tenants: Vec<TenantSpec>) -> Self {
        for t in &tenants {
            let Arrival::Exponential(mean) = t.arrival;
            assert!(
                !mean.is_zero(),
                "tenant {}: arrival gap must be positive",
                t.name
            );
        }
        FaasLoad { cfg, tenants }
    }

    /// The 8-tenant workload of §7.2.2: six wand functions plus the two
    /// analytics pipelines, exponential arrivals with a 1-minute mean.
    pub fn paper_macro(profile: TenantProfile) -> Self {
        let minute = Duration::from_secs(60);
        let singles = [
            "wand_blur",
            "wand_resize",
            "wand_sepia",
            "wand_rotate",
            "wand_denoise",
            "wand_edge",
        ];
        let mut tenants: Vec<TenantSpec> = singles
            .iter()
            .map(|name| TenantSpec {
                name: format!("tenant-{name}"),
                workload: Workload::Single(
                    crate::multimedia::profile(name).expect("known profile"),
                ),
                profile,
                arrival: Arrival::Exponential(minute),
            })
            .collect();
        tenants.push(TenantSpec {
            name: "tenant-map_reduce".into(),
            workload: Workload::WordCount {
                fanout: 8,
                input_bytes: 30 << 20,
            },
            profile,
            arrival: Arrival::Exponential(minute),
        });
        tenants.push(TenantSpec {
            name: "tenant-THIS".into(),
            workload: Workload::ThisVideo {
                fanout: 10,
                input_bytes: 30 << 20,
            },
            profile,
            arrival: Arrival::Exponential(minute),
        });
        FaasLoad::new(FaasLoadConfig::default(), tenants)
    }

    /// The tenants.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Prepares data and registers functions for every tenant, then arms
    /// each tenant's arrival stream: one pending event per tenant whose
    /// first arrival falls inside the observation window. Each arrival
    /// schedules the next (see the module docs for the tie rule).
    pub fn install(
        &self,
        sim: &mut Sim,
        platform: &PlatformHandle,
        store: &Rc<RefCell<ObjectStore>>,
        catalog: &Catalog,
    ) -> Vec<PreparedTenant> {
        let end = SimTime::ZERO + self.cfg.duration;
        let mut out = Vec::new();
        for (t_idx, spec) in self.tenants.iter().enumerate() {
            let (prepared, mut rng) = self.prepare(t_idx, spec, platform, store, catalog);
            let first = SimTime::ZERO + spec.arrival.gap(&mut rng);
            if first <= end {
                let st = TenantStream {
                    platform: platform.clone(),
                    tenant: prepared.tenant,
                    workload: spec.workload,
                    arrival: spec.arrival,
                    inputs: prepared.inputs.clone(),
                    end,
                    rng,
                };
                stream::arm(sim, first, Box::new(st));
            }
            out.push(prepared);
        }
        out
    }

    /// Prepares tenant `t_idx`'s inputs, sizes its booking and registers
    /// its functions; returns the facts and the tenant's RNG, positioned
    /// at its first arrival draw.
    fn prepare(
        &self,
        t_idx: usize,
        spec: &TenantSpec,
        platform: &PlatformHandle,
        store: &Rc<RefCell<ObjectStore>>,
        catalog: &Catalog,
    ) -> (PreparedTenant, ChaCha8Rng) {
        let seed = self
            .cfg
            .seed
            .wrapping_add((t_idx as u64).wrapping_mul(0x9E37_79B9));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tenant = TenantId::from(spec.name.as_str());

        // Prepare the input pool in the RSDS and the catalog.
        let inputs = self.prepare_inputs(spec, &tenant, store, catalog, &mut rng);

        // Size the booking from ground truth over the pool.
        let max_used = self.max_memory_over(spec, &inputs, catalog, &mut rng);
        let booked = spec.profile.booked(max_used);

        // Register the functions.
        let function = match spec.workload {
            Workload::Single(p) => {
                platform.register(FunctionSpec {
                    id: FunctionId::from(p.name),
                    tenant,
                    booked_mem: booked,
                    model: Rc::new(MultimediaModel::new(p, catalog.clone())),
                });
                p.name.to_string()
            }
            Workload::WordCount { .. } => {
                register_stage_functions(platform, &tenant, booked);
                "map_reduce".to_string()
            }
            Workload::ThisVideo { .. } => {
                register_stage_functions(platform, &tenant, booked);
                "THIS".to_string()
            }
        };

        let prepared = PreparedTenant {
            tenant,
            function,
            booked_mem: booked,
            max_used,
            inputs,
        };
        (prepared, rng)
    }

    fn prepare_inputs(
        &self,
        spec: &TenantSpec,
        tenant: &TenantId,
        store: &Rc<RefCell<ObjectStore>>,
        catalog: &Catalog,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ObjectRef> {
        (0..self.cfg.inputs_per_tenant)
            .map(|i| {
                let meta = match spec.workload {
                    Workload::Single(p) => crate::catalog::gen_input(p.kind, rng),
                    Workload::WordCount { input_bytes, .. } => {
                        crate::catalog::gen_text(Some(input_bytes), rng)
                    }
                    Workload::ThisVideo { input_bytes, .. } => {
                        let mut v = crate::catalog::gen_video(rng);
                        v.bytes = input_bytes;
                        v
                    }
                };
                let id = ObjectId::new(format!("{tenant}-inputs"), format!("in{i:04}"));
                catalog.stage(&mut store.borrow_mut(), id, meta)
            })
            .collect()
    }

    fn max_memory_over(
        &self,
        spec: &TenantSpec,
        inputs: &[ObjectRef],
        catalog: &Catalog,
        rng: &mut ChaCha8Rng,
    ) -> u64 {
        match spec.workload {
            // "Previous runs" cover many argument draws per input; an
            // advanced tenant books the true observed maximum.
            Workload::Single(p) => {
                inputs
                    .iter()
                    .flat_map(|r| {
                        let meta = catalog.get(&r.id).expect("prepared input");
                        (0..8)
                            .map(|_| {
                                let arg = p.arg.map(|s| s.sample(rng));
                                p.memory(&meta, arg, rng.gen())
                            })
                            .collect::<Vec<_>>()
                    })
                    .max()
                    .unwrap_or(0)
                    + (8 << 20)
            }
            // Pipeline stages scale with the largest chunk; approximate the
            // observed peak from the heaviest stage on the whole input.
            Workload::WordCount { .. } | Workload::ThisVideo { .. } => {
                let biggest = inputs.iter().map(|r| r.size).max().unwrap_or(0);
                let heaviest = crate::pipelines::STAGE_PROFILES
                    .iter()
                    .map(|sp| sp.mem_base + ((biggest as f64 / 8.0) * sp.mem_per_byte) as u64)
                    .max()
                    .unwrap_or(0);
                heaviest
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofc_faas::baselines::DirectPlane;
    use ofc_faas::platform::Platform;
    use ofc_faas::registry::Registry;
    use ofc_faas::PlatformConfig;

    /// Reference driver: materializes every arrival of the window at
    /// install, the way the injector worked before it streamed. The
    /// streamed install must reproduce its schedule.
    fn install_eager(
        load: &FaasLoad,
        sim: &mut Sim,
        platform: &PlatformHandle,
        store: &Rc<RefCell<ObjectStore>>,
        catalog: &Catalog,
    ) {
        for (t_idx, spec) in load.tenants.iter().enumerate() {
            let (prepared, mut rng) = load.prepare(t_idx, spec, platform, store, catalog);
            let tenant = prepared.tenant;
            let mut at = SimTime::ZERO;
            loop {
                at += spec.arrival.gap(&mut rng);
                if at.as_duration() > load.cfg.duration {
                    break;
                }
                let input = prepared.inputs[rng.gen_range(0..prepared.inputs.len())];
                let inv_seed = rng.gen::<u64>();
                let platform = platform.clone();
                match spec.workload {
                    Workload::Single(p) => {
                        let req = InvocationRequest {
                            function: FunctionId::from(p.name),
                            tenant,
                            args: p.sample_args(&input, &mut rng),
                            seed: inv_seed,
                            pipeline: None,
                        };
                        sim.schedule_at(at, move |sim| {
                            platform.submit(sim, req);
                        });
                    }
                    Workload::WordCount { fanout, .. } => {
                        let driver = ScatterGather::word_count(tenant, input, fanout);
                        sim.schedule_at(at, move |sim| {
                            platform.submit_pipeline(sim, Rc::new(driver), inv_seed);
                        });
                    }
                    Workload::ThisVideo { fanout, .. } => {
                        let driver = ScatterGather::this_video(tenant, input, fanout);
                        sim.schedule_at(at, move |sim| {
                            platform.submit_pipeline(sim, Rc::new(driver), inv_seed);
                        });
                    }
                }
            }
        }
    }

    /// A platform straight on the object store: no OFC loops, no events of
    /// its own.
    fn direct_platform(store: &Rc<RefCell<ObjectStore>>) -> PlatformHandle {
        Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(DirectPlane::new(Rc::clone(store))),
        )
    }

    fn tenant(name: &str, workload: Workload, arrival: Arrival) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            workload,
            profile: TenantProfile::Naive,
            arrival,
        }
    }

    fn single(name: &str) -> Workload {
        Workload::Single(crate::multimedia::profile(name).expect("known profile"))
    }

    /// Installs `load` through the streamed injector or the eager
    /// reference, runs it dry and returns the drained records.
    fn drained(
        load: &FaasLoad,
        seed: u64,
        eager: bool,
    ) -> (
        Vec<ofc_faas::InvocationRecord>,
        Vec<ofc_faas::platform::PipelineRecord>,
    ) {
        let store = Rc::new(RefCell::new(ObjectStore::swift()));
        let catalog = Catalog::new();
        let platform = direct_platform(&store);
        let mut sim = Sim::new(seed);
        if eager {
            install_eager(load, &mut sim, &platform, &store, &catalog);
        } else {
            load.install(&mut sim, &platform, &store, &catalog);
        }
        sim.run();
        (platform.drain_records(), platform.drain_pipeline_records())
    }

    #[test]
    fn streamed_arrivals_equal_the_eager_schedule() {
        let minute = Duration::from_secs(60);
        for seed in [1, 2] {
            let load = FaasLoad::new(
                FaasLoadConfig {
                    duration: Duration::from_secs(900),
                    inputs_per_tenant: 4,
                    seed,
                },
                vec![
                    tenant("t-blur", single("wand_blur"), Arrival::Exponential(minute)),
                    tenant(
                        "t-sepia",
                        single("wand_sepia"),
                        Arrival::Exponential(minute / 2),
                    ),
                    tenant(
                        "t-wc",
                        Workload::WordCount {
                            fanout: 4,
                            input_bytes: 4 << 20,
                        },
                        Arrival::Exponential(minute),
                    ),
                    tenant(
                        "t-this",
                        Workload::ThisVideo {
                            fanout: 4,
                            input_bytes: 4 << 20,
                        },
                        Arrival::Exponential(minute),
                    ),
                ],
            );
            let (records, pipes) = drained(&load, seed, false);
            let (want_records, want_pipes) = drained(&load, seed, true);
            assert!(
                records.len() > 40 && pipes.len() > 10,
                "seed {seed}: too little load"
            );
            assert_eq!(
                format!("{records:?}"),
                format!("{want_records:?}"),
                "seed {seed}"
            );
            assert_eq!(
                format!("{pipes:?}"),
                format!("{want_pipes:?}"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn pending_events_stay_one_per_tenant_however_long_the_window() {
        let minute = Duration::from_secs(60);
        for window_h in [1, 10] {
            let store = Rc::new(RefCell::new(ObjectStore::swift()));
            let catalog = Catalog::new();
            let platform = direct_platform(&store);
            let load = FaasLoad::new(
                FaasLoadConfig {
                    duration: Duration::from_secs(window_h * 3600),
                    inputs_per_tenant: 2,
                    seed: 4,
                },
                vec![
                    tenant("t-blur", single("wand_blur"), Arrival::Exponential(minute)),
                    tenant("t-edge", single("wand_edge"), Arrival::Exponential(minute)),
                    tenant(
                        "t-wc",
                        Workload::WordCount {
                            fanout: 2,
                            input_bytes: 1 << 20,
                        },
                        Arrival::Exponential(minute),
                    ),
                    // First arrival past either window (a mean of a year):
                    // never armed.
                    tenant(
                        "t-late",
                        single("wand_sepia"),
                        Arrival::Exponential(Duration::from_secs(365 * 24 * 3600)),
                    ),
                ],
            );
            let mut sim = Sim::new(4);
            load.install(&mut sim, &platform, &store, &catalog);
            assert_eq!(sim.events_pending(), 3, "{window_h} h window");
        }
    }

    #[test]
    fn catalog_holds_only_the_prepared_inputs_after_drain() {
        // Probed every minute of the run as well as after it: no pipeline
        // output ever enters the catalog.
        let minute = Duration::from_secs(60);
        for window_s in [900, 1800] {
            let store = Rc::new(RefCell::new(ObjectStore::swift()));
            let catalog = Catalog::new();
            let platform = direct_platform(&store);
            let load = FaasLoad::new(
                FaasLoadConfig {
                    duration: Duration::from_secs(window_s),
                    inputs_per_tenant: 3,
                    seed: 5,
                },
                vec![
                    tenant(
                        "t-wc",
                        Workload::WordCount {
                            fanout: 4,
                            input_bytes: 4 << 20,
                        },
                        Arrival::Exponential(minute),
                    ),
                    tenant(
                        "t-this",
                        Workload::ThisVideo {
                            fanout: 4,
                            input_bytes: 4 << 20,
                        },
                        Arrival::Exponential(minute),
                    ),
                ],
            );
            let mut sim = Sim::new(5);
            let prepared = load.install(&mut sim, &platform, &store, &catalog);
            let seen = Rc::new(RefCell::new(Vec::new()));
            {
                let (catalog, seen) = (catalog.clone(), Rc::clone(&seen));
                sim.every(minute, move |_| seen.borrow_mut().push(catalog.len()));
            }
            // The probe re-arms forever: run an hour past the window, long
            // enough for every pipeline to end.
            sim.run_until(SimTime::from_secs(window_s + 3600));
            let pipes = platform.drain_pipeline_records();
            assert!(pipes.len() > 10, "{window_s} s window: too little load");
            let inputs: usize = prepared.iter().map(|t| t.inputs.len()).sum();
            let seen = seen.take();
            assert_eq!(seen.len() as u64, window_s / 60 + 60);
            assert!(
                seen.iter().all(|&n| n == inputs),
                "{window_s} s window: catalog sizes {seen:?}, {inputs} inputs"
            );
            assert_eq!(catalog.len(), inputs, "{window_s} s window");
            for t in &prepared {
                assert!(t.inputs.iter().all(|r| catalog.get(&r.id).is_some()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "tenant t-zero: arrival gap must be positive")]
    fn zero_exponential_mean_is_rejected() {
        FaasLoad::new(
            FaasLoadConfig::default(),
            vec![tenant(
                "t-zero",
                single("wand_blur"),
                Arrival::Exponential(Duration::ZERO),
            )],
        );
    }

    #[test]
    fn tenant_profile_booking() {
        assert_eq!(TenantProfile::Naive.booked(100 << 20), 2 << 30);
        assert_eq!(TenantProfile::Advanced.booked(100 << 20), 100 << 20);
        assert_eq!(
            TenantProfile::Normal.booked(100 << 20),
            (100.0f64 * 1.7 * (1 << 20) as f64) as u64
        );
        // Clamped to the platform range.
        assert_eq!(TenantProfile::Advanced.booked(1), 64 << 20);
        assert_eq!(TenantProfile::Normal.booked(3 << 30), 2 << 30);
    }

    #[test]
    fn paper_macro_has_eight_tenants() {
        let load = FaasLoad::paper_macro(TenantProfile::Normal);
        assert_eq!(load.tenants().len(), 8);
    }

    /// Runs a small mix; returns (arrivals, completed invocations), the
    /// arrivals counted from the records: one per single-stage invocation
    /// outside a pipeline, one per pipeline.
    fn run_small(profile: TenantProfile, seed: u64) -> (u64, u64) {
        let store = Rc::new(RefCell::new(ObjectStore::swift()));
        let catalog = Catalog::new();
        let platform = direct_platform(&store);
        let load = FaasLoad::new(
            FaasLoadConfig {
                duration: Duration::from_secs(300),
                inputs_per_tenant: 4,
                seed,
            },
            vec![
                TenantSpec {
                    name: "t-blur".into(),
                    workload: single("wand_blur"),
                    profile,
                    arrival: Arrival::Exponential(Duration::from_secs(30)),
                },
                TenantSpec {
                    name: "t-wc".into(),
                    workload: Workload::WordCount {
                        fanout: 4,
                        input_bytes: 5 << 20,
                    },
                    profile,
                    arrival: Arrival::Exponential(Duration::from_secs(60)),
                },
            ],
        );
        let mut sim = Sim::new(seed);
        load.install(&mut sim, &platform, &store, &catalog);
        sim.run_until(SimTime::from_secs(1200));
        let completed = platform.counters().completed;
        let singles = platform
            .drain_records()
            .iter()
            .filter(|r| r.pipeline.is_none())
            .count();
        let pipelines = platform.drain_pipeline_records().len();
        ((singles + pipelines) as u64, completed)
    }

    #[test]
    fn injector_schedules_and_executes_load() {
        let (arrivals, completed) = run_small(TenantProfile::Normal, 1);
        assert!(arrivals >= 10, "too few arrivals: {arrivals}");
        // Pipelines multiply invocations, so completions exceed arrivals.
        assert!(completed >= arrivals, "completed {completed} < {arrivals}");
    }

    #[test]
    fn injector_is_deterministic() {
        assert_eq!(
            run_small(TenantProfile::Advanced, 7),
            run_small(TenantProfile::Advanced, 7)
        );
    }

    #[test]
    fn inputs_carry_feature_tags_in_store() {
        let store = Rc::new(RefCell::new(ObjectStore::swift()));
        let catalog = Catalog::new();
        let platform = direct_platform(&store);
        let load = FaasLoad::new(
            FaasLoadConfig {
                duration: Duration::from_secs(60),
                inputs_per_tenant: 3,
                seed: 2,
            },
            vec![tenant(
                "t-edge",
                single("wand_edge"),
                Arrival::Exponential(Duration::from_secs(10)),
            )],
        );
        let mut sim = Sim::new(0);
        let prepared = load.install(&mut sim, &platform, &store, &catalog);
        assert_eq!(prepared[0].inputs.len(), 3);
        // The store holds each input at the size the catalog, where its
        // features live, records for it.
        for input in &prepared[0].inputs {
            let head = store.borrow().head(&input.id).0.unwrap();
            let meta = catalog.get(&input.id).unwrap();
            assert_eq!((head.size, input.size), (meta.bytes, meta.bytes));
        }
        assert_eq!(prepared[0].booked_mem, 2 << 30, "naive books the max");
    }
}
