//! The `macro_mega` load generator (DESIGN.md §18): heavy traffic from
//! millions of users, modelled as thousands of tenants running hundreds
//! of thousands of functions.
//!
//! Like [`crate::faasload`], this generator **streams**: each tenant is a
//! seeded, self-rescheduling arrival process that synthesizes its next
//! invocation inside the previous one's callback. Live state is
//! O(tenants) — one RNG and a cursor per tenant — regardless of how many
//! invocations the window produces, and determinism needs nothing beyond
//! the master seed (each sim is single-threaded; the parallel bench
//! runner shards whole sims, never one sim's events).
//!
//! The traffic shape composes three laws:
//!
//! * **Zipf/Pareto rates** — tenant at popularity rank `r` has mean
//!   inter-arrival `base_mean · (r+1)^zipf_s` (capped), so a handful of
//!   head tenants dominate while a long tail trickles; within a tenant,
//!   function popularity is skewed the same way ([`FN_SKEW`]),
//! * **diurnal waves** — arrival intensity is modulated by a sinusoid
//!   with a per-tenant phase, giving the 24-hour swell of real traces,
//! * **COCOA-style bursts** — each arrival may open a burst episode: a
//!   back-to-back volley at [`BURST_GAP`] spacing, the bursty, cold-start
//!   hostile pattern of the COCOA traces (PAPERS.md).
//!
//! Object naming feeds the per-tenant quota plane: every tenant's inputs
//! and outputs live in a bucket named after the tenant, so
//! `ofc_rcstore::owner_of` attributes every cached byte to its tenant.
//! Outputs land in a bounded slot pool per tenant (`out00..outNN`),
//! keeping the interner's key population O(tenants · slots) where the
//! paper-mix naming (`outputs/fn-input-seed`) would grow without bound at
//! 10⁷⁺ events.

use crate::catalog::{Catalog, MediaKind};
use crate::multimedia::{profile, MultimediaModel, Profile, PROFILES};
use crate::stream::{self, Stream};
use ofc_faas::platform::PlatformHandle;
use ofc_faas::registry::FunctionSpec;
use ofc_faas::{FunctionId, FunctionModel, InvocationRequest, ObjectRef, TenantId};
use ofc_objstore::store::ObjectStore;
use ofc_objstore::{ObjectId, Payload};
use ofc_simtime::{Sim, SimTime};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

/// Within-tenant function popularity skew (u^skew concentration).
pub const FN_SKEW: f64 = 2.0;

/// Diurnal modulation amplitude, in (0, 1): intensity swings ±60 %.
pub const DIURNAL_AMPLITUDE: f64 = 0.6;

/// Intra-burst spacing.
pub const BURST_GAP: Duration = Duration::from_millis(50);

/// Mega-scenario configuration. The defaults are the full ≥100k-function
/// run; smoke windows shrink `tenants`/`duration` only.
#[derive(Debug, Clone)]
pub struct MegaConfig {
    /// Number of tenants (full run: ≥1000).
    pub tenants: usize,
    /// Functions registered per tenant; `tenants × fns_per_tenant` is the
    /// platform's function population (full run: ≥100k total).
    pub fns_per_tenant: usize,
    /// Input objects prepared per tenant *per media kind* (bounded;
    /// inputs live in the tenant's bucket).
    pub inputs_per_tenant: usize,
    /// Output slots per tenant: writes land on `out<slot>` keys, bounding
    /// key cardinality and exercising overwrite/invalidation.
    pub output_slots: u32,
    /// Observation window.
    pub duration: Duration,
    /// Master seed; every tenant stream derives its own RNG from it.
    pub seed: u64,
    /// Zipf exponent of the tenant rate skew (rank r slows by (r+1)^s).
    pub zipf_s: f64,
    /// Mean inter-arrival of the rank-0 (hottest) tenant.
    pub base_mean: Duration,
    /// Cap on any tenant's mean inter-arrival (tail tenants still fire).
    pub max_mean: Duration,
    /// Diurnal period (24 h in the full run; shorter in smoke windows so
    /// the wave still shows).
    pub diurnal_period: Duration,
    /// Probability an arrival opens a burst episode.
    pub burst_prob: f64,
    /// Invocations per burst episode (beyond the triggering arrival).
    pub burst_len: usize,
}

impl Default for MegaConfig {
    fn default() -> Self {
        MegaConfig {
            tenants: 1200,
            fns_per_tenant: 96,
            inputs_per_tenant: 6,
            output_slots: 64,
            duration: Duration::from_secs(16 * 3600),
            seed: 0,
            zipf_s: 1.0,
            base_mean: Duration::from_millis(300),
            max_mean: Duration::from_secs(2 * 3600),
            diurnal_period: Duration::from_secs(24 * 3600),
            burst_prob: 0.02,
            burst_len: 8,
        }
    }
}

impl MegaConfig {
    /// The bounded smoke window used by CI and the byte-compare golden:
    /// small enough to finish in seconds, big enough to exercise every
    /// law (bursts, waves, quota pressure, tail tenants).
    pub fn smoke() -> Self {
        MegaConfig {
            tenants: 60,
            fns_per_tenant: 24,
            inputs_per_tenant: 4,
            output_slots: 16,
            duration: Duration::from_secs(180),
            base_mean: Duration::from_millis(400),
            max_mean: Duration::from_secs(120),
            diurnal_period: Duration::from_secs(120),
            ..MegaConfig::default()
        }
    }

    /// The mid-scale "mega mix" of the policy bake-off: heavy-tailed
    /// enough that rival policies differentiate, bounded enough to run
    /// once per policy per pass.
    pub fn mix() -> Self {
        MegaConfig {
            tenants: 200,
            fns_per_tenant: 24,
            output_slots: 32,
            duration: Duration::from_secs(1800),
            max_mean: Duration::from_secs(300),
            diurnal_period: Duration::from_secs(1800),
            ..MegaConfig::default()
        }
    }

    /// Mean inter-arrival of the tenant at popularity rank `r`.
    pub fn mean_of_rank(&self, r: usize) -> Duration {
        let scaled = self.base_mean.mul_f64(((r + 1) as f64).powf(self.zipf_s));
        scaled.min(self.max_mean)
    }
}

/// Canonical tenant name at index `i` (also the tenant's object bucket).
pub fn tenant_name(i: usize) -> String {
    format!("m{i:04}")
}

/// Popularity decile (0 = hottest 10 %) of tenant `i` among `tenants`.
pub fn decile_of(i: usize, tenants: usize) -> usize {
    (i * 10 / tenants.max(1)).min(9)
}

/// Function name of per-tenant function index `k`: the profile name plus
/// a variant suffix (`wand_blur.17`). Names are shared across tenants
/// (the registry keys on `(tenant, function)`), so the interner holds
/// `fns_per_tenant` strings, not `tenants × fns_per_tenant`.
pub fn fn_name(k: usize) -> String {
    format!("{}.{k}", PROFILES[k % PROFILES.len()].name)
}

/// Profile behind a mega function name: strips the `.k` variant suffix.
pub fn profile_of_function(name: &str) -> Option<&'static Profile> {
    let base = name.split_once('.').map_or(name, |(b, _)| b);
    profile(base)
}

/// Input-pool index of a media kind (each tenant holds one pool per kind,
/// so every function reads inputs its profile's schema understands).
fn kind_idx(kind: MediaKind) -> usize {
    match kind {
        MediaKind::Image => 0,
        MediaKind::Audio => 1,
        MediaKind::Video => 2,
        MediaKind::Text => 3,
    }
}

/// Input key prefixes per pool, aligned with [`kind_idx`].
const KIND_PREFIX: [&str; 4] = ["im", "au", "vi", "tx"];

/// Install-time facts the bench reports on.
#[derive(Debug, Clone)]
pub struct MegaPrepared {
    /// Tenants installed.
    pub tenants: usize,
    /// Total functions registered (`tenants × fns_per_tenant`).
    pub functions: usize,
    /// Input objects prepared across all tenants.
    pub inputs: usize,
    /// Live arrival counter, incremented on every submitted invocation.
    pub arrivals: Rc<Cell<u64>>,
}

/// Immutable state shared by every tenant stream (one `Rc`).
struct MegaShared {
    cfg: MegaConfig,
    platform: PlatformHandle,
    fn_ids: Vec<FunctionId>,
    profiles: Vec<&'static Profile>,
    /// Per-tenant input pools, indexed by tenant index then media kind
    /// ([`kind_idx`]): functions read only inputs of their profile's kind.
    inputs: Vec<[Vec<ObjectRef>; 4]>,
    arrivals: Rc<Cell<u64>>,
    end: SimTime,
}

impl MegaShared {
    /// Diurnal intensity multiplier at virtual instant `t` for a tenant
    /// with phase `phase` (in [0,1) turns): ≥ `1 - DIURNAL_AMPLITUDE` > 0.
    fn wave(&self, t: SimTime, phase: f64) -> f64 {
        let period = self.cfg.diurnal_period.as_secs_f64().max(1.0);
        let x = t.as_duration().as_secs_f64() / period + phase;
        1.0 + DIURNAL_AMPLITUDE * (x * std::f64::consts::TAU).sin()
    }
}

/// One tenant's live stream state: O(1) per tenant.
struct TenantStream {
    shared: Rc<MegaShared>,
    tenant: TenantId,
    index: usize,
    rng: ChaCha8Rng,
    mean: Duration,
    phase: f64,
}

impl TenantStream {
    /// Builds one invocation request from the tenant's RNG.
    fn sample_request(&mut self) -> InvocationRequest {
        let n = self.shared.cfg.fns_per_tenant;
        let u: f64 = self.rng.gen();
        let k = ((u.powf(FN_SKEW) * n as f64) as usize).min(n - 1);
        let pool = &self.shared.inputs[self.index][kind_idx(self.shared.profiles[k].kind)];
        let input = pool[self.rng.gen_range(0..pool.len())];
        let args = self.shared.profiles[k].sample_args(&input, &mut self.rng);
        InvocationRequest {
            function: self.shared.fn_ids[k],
            tenant: self.tenant,
            args,
            seed: self.rng.gen(),
            pipeline: None,
        }
    }
}

impl Stream for TenantStream {
    /// Fires the due arrival (plus a possible burst volley), then returns
    /// the next arrival instant, or `None` past the window's end.
    fn fire(&mut self, sim: &mut Sim) -> Option<SimTime> {
        let req = self.sample_request();
        self.shared.arrivals.set(self.shared.arrivals.get() + 1);
        self.shared.platform.submit(sim, req);

        if self.rng.gen::<f64>() < self.shared.cfg.burst_prob {
            // COCOA-style episode: a back-to-back volley, synthesized now
            // (burst_len is a small constant — state stays O(1)).
            for j in 1..=self.shared.cfg.burst_len {
                let at = sim.now() + BURST_GAP * j as u32;
                if at > self.shared.end {
                    break;
                }
                let burst_req = self.sample_request();
                self.shared.arrivals.set(self.shared.arrivals.get() + 1);
                // ofc-lint: allow(hotloop) reason=each scheduled burst closure owns a platform handle; an Rc bump
                let platform = self.shared.platform.clone();
                sim.schedule_at(at, move |sim| {
                    platform.submit(sim, burst_req);
                });
            }
        }

        // Exponential gap, intensity-modulated by the diurnal wave.
        let w = self.shared.wave(sim.now(), self.phase);
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = self.mean.mul_f64(-u.ln() / w);
        let next = sim.now() + gap;
        (next <= self.shared.end).then_some(next)
    }
}

/// The mega injector.
pub struct MegaLoad {
    cfg: MegaConfig,
}

impl MegaLoad {
    /// Creates the injector.
    ///
    /// # Panics
    ///
    /// Panics if `base_mean` or `max_mean` is zero: a stream with a zero
    /// mean gap would fire forever at one instant.
    pub fn new(cfg: MegaConfig) -> Self {
        assert!(
            !cfg.base_mean.is_zero(),
            "MegaConfig::base_mean must be positive"
        );
        assert!(
            !cfg.max_mean.is_zero(),
            "MegaConfig::max_mean must be positive"
        );
        MegaLoad { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &MegaConfig {
        &self.cfg
    }

    /// Prepares every tenant's inputs, registers all
    /// `tenants × fns_per_tenant` functions, and schedules the first
    /// arrival of each tenant stream. Registration is O(functions) once;
    /// live stream state is O(tenants).
    pub fn install(
        &self,
        sim: &mut Sim,
        platform: &PlatformHandle,
        store: &Rc<RefCell<ObjectStore>>,
        catalog: &Catalog,
    ) -> MegaPrepared {
        let cfg = &self.cfg;
        let profiles: Vec<&'static Profile> = (0..cfg.fns_per_tenant)
            .map(|k| &PROFILES[k % PROFILES.len()])
            .collect();
        let fn_ids: Vec<FunctionId> = (0..cfg.fns_per_tenant)
            .map(|k| FunctionId::from(fn_name(k).as_str()))
            .collect();
        // One shared model per distinct profile (the output bucket comes
        // from the input, so models are tenant-agnostic).
        let models: Vec<Rc<MultimediaModel>> = (0..PROFILES.len().min(cfg.fns_per_tenant))
            .map(|p| {
                Rc::new(MultimediaModel::slotted(
                    &PROFILES[p],
                    catalog.clone(),
                    cfg.output_slots,
                ))
            })
            .collect();

        let mut inputs: Vec<[Vec<ObjectRef>; 4]> = Vec::with_capacity(cfg.tenants);
        let arrivals = Rc::new(Cell::new(0u64));
        let shared_seed = cfg.seed;

        for t in 0..cfg.tenants {
            let name = tenant_name(t);
            let tenant = TenantId::from(name.as_str());
            let mut rng = ChaCha8Rng::seed_from_u64(
                shared_seed.wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );

            // Inputs in the tenant's own bucket (quota attribution): one
            // pool per media kind, so every profile's feature schema sees
            // matching metadata.
            let pools: [Vec<ObjectRef>; 4] = std::array::from_fn(|kind| {
                (0..cfg.inputs_per_tenant)
                    .map(|i| {
                        let meta = match kind {
                            0 => {
                                let bytes = (1024.0 * 128f64.powf(rng.gen::<f64>())) as u64;
                                crate::catalog::gen_image_with_bytes(bytes, &mut rng)
                            }
                            1 => crate::catalog::gen_audio(&mut rng),
                            2 => crate::catalog::gen_video(&mut rng),
                            _ => crate::catalog::gen_text(None, &mut rng),
                        };
                        let id = ObjectId::from_fmt(
                            name.as_str(),
                            format_args!("{}{i:02}", KIND_PREFIX[kind]),
                        );
                        store.borrow_mut().put(
                            &id,
                            Payload::Synthetic(meta.bytes),
                            meta.tags(),
                            false,
                        );
                        let size = meta.bytes;
                        catalog.insert(id, meta);
                        ObjectRef { id, size }
                    })
                    // ofc-lint: allow(hotloop) reason=install builds each tenant's input pool once; the pool is the product
                    .collect()
            });

            // Register the tenant's functions. Booking is a fixed margin
            // over the profile's base footprint (the FaaSLoad ground-truth
            // sampling would cost O(functions × inputs) at install).
            for (k, p) in profiles.iter().enumerate() {
                platform.register(FunctionSpec {
                    id: fn_ids[k],
                    tenant,
                    booked_mem: (p.mem_base.saturating_mul(3)).clamp(64 << 20, 2 << 30),
                    model: Rc::<MultimediaModel>::clone(&models[k % models.len()])
                        as Rc<dyn FunctionModel>,
                });
            }
            inputs.push(pools);
        }

        let shared = Rc::new(MegaShared {
            cfg: cfg.clone(),
            platform: platform.clone(),
            fn_ids,
            profiles,
            inputs,
            arrivals: Rc::clone(&arrivals),
            end: SimTime::ZERO + cfg.duration,
        });

        // Start every stream: first arrival is one mean gap (modulated by
        // the per-tenant phase draw) into the window.
        for t in 0..cfg.tenants {
            let mut rng = ChaCha8Rng::seed_from_u64(
                shared_seed
                    .wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(1),
            );
            let phase: f64 = rng.gen();
            let mean = cfg.mean_of_rank(t);
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let first = SimTime::ZERO + mean.mul_f64(-u.ln());
            if first > shared.end {
                continue;
            }
            let st = TenantStream {
                shared: Rc::clone(&shared),
                tenant: TenantId::from(tenant_name(t).as_str()),
                index: t,
                rng,
                mean,
                phase,
            };
            stream::arm(sim, first, Box::new(st));
        }

        MegaPrepared {
            tenants: cfg.tenants,
            functions: cfg.tenants * cfg.fns_per_tenant,
            inputs: cfg.tenants * cfg.inputs_per_tenant * 4,
            arrivals,
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

    fn tiny() -> MegaConfig {
        MegaConfig {
            tenants: 12,
            fns_per_tenant: 8,
            inputs_per_tenant: 3,
            output_slots: 4,
            duration: Duration::from_secs(60),
            base_mean: Duration::from_millis(500),
            max_mean: Duration::from_secs(30),
            diurnal_period: Duration::from_secs(60),
            ..MegaConfig::default()
        }
    }

    fn run(cfg: MegaConfig, seed: u64) -> (u64, u64, u64) {
        let store = Rc::new(RefCell::new(ObjectStore::swift()));
        let catalog = Catalog::new();
        let platform = Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(DirectPlane::new(Rc::clone(&store))),
        );
        let mut sim = Sim::new(seed);
        let load = MegaLoad::new(MegaConfig { seed, ..cfg });
        let prepared = load.install(&mut sim, &platform, &store, &catalog);
        sim.run_until(SimTime::from_secs(600));
        (
            prepared.arrivals.get(),
            platform.counters().completed,
            sim.events_executed(),
        )
    }

    #[test]
    fn names_round_trip_to_profiles() {
        for k in 0..96 {
            let name = fn_name(k);
            let p = profile_of_function(&name).expect("suffix strips back to a profile");
            assert_eq!(p.name, PROFILES[k % PROFILES.len()].name);
        }
        assert!(profile_of_function("nope.3").is_none());
    }

    #[test]
    fn deciles_partition_tenants() {
        assert_eq!(decile_of(0, 1200), 0);
        assert_eq!(decile_of(119, 1200), 0);
        assert_eq!(decile_of(120, 1200), 1);
        assert_eq!(decile_of(1199, 1200), 9);
    }

    #[test]
    fn rates_are_zipf_ranked_and_capped() {
        let cfg = MegaConfig::default();
        assert!(cfg.mean_of_rank(0) < cfg.mean_of_rank(10));
        assert!(cfg.mean_of_rank(10) < cfg.mean_of_rank(1000));
        assert_eq!(cfg.mean_of_rank(100_000), cfg.max_mean);
    }

    #[test]
    fn streams_execute_and_complete_load() {
        let (arrivals, completed, events) = run(tiny(), 3);
        assert!(arrivals > 50, "too few arrivals: {arrivals}");
        assert_eq!(
            completed, arrivals,
            "single-stage: 1 completion per arrival"
        );
        assert!(events > arrivals, "each arrival costs several events");
    }

    #[test]
    #[should_panic(expected = "MegaConfig::base_mean must be positive")]
    fn zero_base_mean_is_rejected() {
        MegaLoad::new(MegaConfig {
            base_mean: Duration::ZERO,
            ..tiny()
        });
    }

    #[test]
    #[should_panic(expected = "MegaConfig::max_mean must be positive")]
    fn zero_max_mean_is_rejected() {
        MegaLoad::new(MegaConfig {
            max_mean: Duration::ZERO,
            ..tiny()
        });
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(run(tiny(), 9), run(tiny(), 9));
    }

    #[test]
    fn head_tenant_dominates_tail() {
        let store = Rc::new(RefCell::new(ObjectStore::swift()));
        let catalog = Catalog::new();
        let platform = Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(DirectPlane::new(Rc::clone(&store))),
        );
        let mut sim = Sim::new(5);
        let load = MegaLoad::new(MegaConfig { seed: 5, ..tiny() });
        load.install(&mut sim, &platform, &store, &catalog);
        sim.run_until(SimTime::from_secs(600));
        let records = platform.drain_records();
        let head = tenant_name(0);
        let tail = tenant_name(11);
        let head_n = records.iter().filter(|r| r.tenant.as_str() == head).count();
        let tail_n = records.iter().filter(|r| r.tenant.as_str() == tail).count();
        assert!(
            head_n >= 4 * tail_n.max(1),
            "rank 0 must dominate rank 11: {head_n} vs {tail_n}"
        );
    }

    #[test]
    fn outputs_stay_in_tenant_buckets_with_bounded_slots() {
        let catalog = Catalog::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let meta = crate::catalog::gen_image_with_bytes(32 << 10, &mut rng);
        let input = ObjectRef {
            id: ObjectId::new("m0007", "in00"),
            size: meta.bytes,
        };
        catalog.insert(input.id, meta);
        let model = MultimediaModel::slotted(&PROFILES[0], catalog, 16);
        for seed in 0..64u64 {
            let args = PROFILES[0].sample_args(&input, &mut rng);
            let b = model.behavior(&args, seed);
            assert_eq!(b.writes.len(), 1);
            let out = &b.writes[0].id;
            assert_eq!(out.bucket(), "m0007", "output in tenant bucket");
            let n: u32 = out
                .key()
                .to_string()
                .trim_start_matches("out")
                .parse()
                .unwrap();
            assert!(n < 16, "slot pool bounded");
        }
    }
}
