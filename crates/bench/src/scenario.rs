//! Testbed assembly: builds the §7 configurations — `OWK-Swift`,
//! `OWK-Redis`, and OFC — over the simulated six-machine cluster.

use ofc_core::ofc::{Ofc, OfcConfig};
use ofc_core::scheduler::{FeatureFn, PREDICTOR_OVERHEAD};
use ofc_faas::baselines::{DirectPlane, ImocPlane};
use ofc_faas::platform::{Platform, PlatformHandle};
use ofc_faas::registry::{FunctionSpec, Registry};
use ofc_faas::{
    Admission, Completion, FunctionId, PlatformConfig, RoutingContext, RoutingDecision, Scheduler,
    TenantId,
};
use ofc_objstore::imoc::Imoc;
use ofc_objstore::latency::LatencyModel;
use ofc_objstore::store::ObjectStore;
use ofc_simtime::Sim;
use ofc_workloads::catalog::Catalog;
use ofc_workloads::datasets::invocation_stream;
use ofc_workloads::multimedia::{MultimediaModel, Profile};
use ofc_workloads::pipelines::{stage_profile, StageModel, STAGE_PROFILES};
use std::cell::RefCell;
use std::rc::Rc;

/// The data-plane configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// `OWK-Swift`: all data in the RSDS (worst case).
    Swift,
    /// `OWK-Redis`: all data in a tenant-provisioned IMOC (best case).
    Redis,
    /// OFC: the opportunistic cache.
    Ofc,
}

/// An assembled testbed.
pub struct Testbed {
    /// The simulator.
    pub sim: Sim,
    /// The FaaS platform.
    pub platform: PlatformHandle,
    /// The RSDS.
    pub store: Rc<RefCell<ObjectStore>>,
    /// The workload catalog.
    pub catalog: Catalog,
    /// OFC handles (present for [`PlaneKind::Ofc`]).
    pub ofc: Option<Ofc>,
    /// The IMOC (present for [`PlaneKind::Redis`]).
    pub imoc: Option<Rc<RefCell<Imoc>>>,
}

/// The paper's testbed: 6 machines — 1 controller, 1 storage, 4 workers.
pub const WORKER_NODES: usize = 4;

/// Invoker memory per worker node. The paper's workers are 512 GB
/// machines; 64 GB of invoker capacity per node absorbs naive 2 GB
/// bookings without admission failures (the paper reports zero failed
/// invocations).
pub const NODE_MEM: u64 = 64 << 30;

/// What [`Testbed::build`] assembles.
pub struct TestbedSpec {
    /// The data-plane configuration under test.
    pub plane: PlaneKind,
    /// Worker nodes.
    pub nodes: usize,
    /// Invoker memory per worker node: [`NODE_MEM`] everywhere but Fig 8,
    /// whose 2 GB workers make the cache's scale-down visible.
    pub node_mem: u64,
    /// Simulator seed.
    pub seed: u64,
    /// OFC configuration (read for [`PlaneKind::Ofc`] only).
    pub ofc: OfcConfig,
}

impl TestbedSpec {
    /// The paper's cluster under `plane`: [`WORKER_NODES`] workers of
    /// [`NODE_MEM`] and the default OFC configuration.
    pub fn new(plane: PlaneKind, seed: u64) -> Self {
        TestbedSpec {
            plane,
            nodes: WORKER_NODES,
            node_mem: NODE_MEM,
            seed,
            ofc: OfcConfig::default(),
        }
    }
}

impl Testbed {
    /// Assembles the stack `spec` describes; an OFC stack comes back with
    /// its recurring activities already started.
    pub fn build(spec: TestbedSpec) -> Testbed {
        let catalog = Catalog::new();
        let store = Rc::new(RefCell::new(ObjectStore::new(LatencyModel::swift())));
        let cfg = PlatformConfig {
            nodes: spec.nodes,
            node_mem: spec.node_mem,
            ..PlatformConfig::default()
        };
        let mut sim = Sim::new(spec.seed);
        let (platform, ofc, imoc) = match spec.plane {
            PlaneKind::Swift => {
                let plane = DirectPlane::new(Rc::clone(&store));
                let platform = Platform::build(cfg, Registry::new(), Box::new(plane));
                (platform, None, None)
            }
            PlaneKind::Redis => {
                let imoc = Rc::new(RefCell::new(Imoc::redis(64 << 30)));
                let plane = ImocPlane::new(Rc::clone(&imoc), Rc::clone(&store));
                let platform = Platform::build(cfg, Registry::new(), Box::new(plane));
                (platform, None, Some(imoc))
            }
            PlaneKind::Ofc => {
                let plane = ofc_faas::baselines::NoopPlane;
                let platform = Platform::build(cfg, Registry::new(), Box::new(plane));
                let ofc = Ofc::builder(&platform)
                    .store(Rc::clone(&store))
                    .features(feature_fn(catalog.clone()))
                    .config(spec.ofc)
                    .build();
                ofc.start(&mut sim);
                (platform, Some(ofc), None)
            }
        };
        Testbed {
            sim,
            platform,
            store,
            catalog,
            ofc,
            imoc,
        }
    }
}

/// The feature extractor used by OFC's Predictor: resolves single-stage
/// profiles (a mega function's `.k` variant suffix stripped) and pipeline
/// stage profiles by function name, reading metadata through the catalog
/// (which mirrors the RSDS feature tags, §5.1.2).
pub fn feature_fn(catalog: Catalog) -> FeatureFn {
    Rc::new(move |_tenant, function, args| {
        let name: &str = function.as_ref();
        if let Some(p) = ofc_workloads::mega::profile_of_function(name) {
            let input = args.values().find_map(|v| match v {
                ofc_faas::ArgValue::Obj(r) => Some(r.id),
                _ => None,
            })?;
            let meta = catalog.get(&input)?;
            return Some(p.features(&meta, args));
        }
        stage_profile(name).map(|sp| sp.features(args, &catalog))
    })
}

/// Registers a single-stage function for `tenant`.
pub fn register_single(tb: &Testbed, tenant: &TenantId, profile: &'static Profile, booked: u64) {
    tb.platform.register(FunctionSpec {
        id: FunctionId::from(profile.name),
        tenant: *tenant,
        booked_mem: booked,
        model: Rc::new(MultimediaModel::new(profile, tb.catalog.clone())),
    });
    if let Some(ofc) = &tb.ofc {
        ofc.register_function(tenant.as_ref(), profile.name, profile.feature_schema());
    }
}

/// Registers every pipeline stage function for `tenant`.
pub fn register_stages(tb: &Testbed, tenant: &TenantId, booked: u64) {
    for sp in &STAGE_PROFILES {
        tb.platform.register(FunctionSpec {
            id: FunctionId::from(sp.name),
            tenant: *tenant,
            booked_mem: booked,
            model: Rc::new(StageModel::new(sp)),
        });
        if let Some(ofc) = &tb.ofc {
            ofc.register_function(tenant.as_ref(), sp.name, sp.feature_schema());
        }
    }
}

/// Pre-trains a single-stage function's models to maturity, simulating the
/// invocation history a production function accumulates (§7.1.3: most
/// functions mature within 100–450 invocations).
pub fn pretrain_single(tb: &Testbed, tenant: &TenantId, profile: &'static Profile, n: usize) {
    let Some(ofc) = &tb.ofc else {
        return;
    };
    let key = (*tenant, FunctionId::from(profile.name));
    let mut ml = ofc.ml.borrow_mut();
    for s in invocation_stream(profile, n, 0xC0FFEE) {
        ml.observe(
            &key,
            ofc_core::ml::Observation {
                features: s.features,
                actual_mem: s.mem_bytes,
                el_ratio: if s.cache_benefit { 0.9 } else { 0.1 },
            },
        );
    }
}

/// Whether an invocation that ended with `completion` on attempt `attempt`
/// counts as failed: dropped as unschedulable, or OOM-killed with no retry
/// left under `max_retries`.
pub fn is_failure(completion: Completion, attempt: u32, max_retries: u32) -> bool {
    match completion {
        Completion::Success => false,
        Completion::Unschedulable => true,
        Completion::OomKilled => attempt >= max_retries,
    }
}

/// A scheduler that spreads invocations over the cluster (warm-first, then
/// the roomiest node) with a fixed memory limit — used by the pipeline
/// micro-benchmarks, whose fan-outs exceed one node.
#[derive(Debug, Clone, Copy)]
pub struct SpreadScheduler {
    /// Memory limit applied.
    pub mem_limit: ofc_faas::Limit,
    /// Admission decision passed to the data plane.
    pub admission: Admission,
}

impl Scheduler for SpreadScheduler {
    fn route(&mut self, ctx: &RoutingContext) -> RoutingDecision {
        if let Some(sb) = ctx.warm.iter().max_by_key(|s| s.idle_since) {
            return RoutingDecision {
                node: sb.node,
                sandbox: Some(sb.sandbox),
                mem_limit: self.mem_limit,
                admission: self.admission,
                overhead: PREDICTOR_OVERHEAD,
            };
        }
        let free = &ctx.free_mem;
        let node = (0..free.len())
            .max_by_key(|&n| (free[n], usize::MAX - n))
            .unwrap_or(ctx.home);
        RoutingDecision {
            node,
            sandbox: None,
            mem_limit: self.mem_limit,
            admission: self.admission,
            overhead: PREDICTOR_OVERHEAD,
        }
    }
}

/// A micro-benchmark scheduler that pins every invocation to one node with
/// a fixed memory limit (used by the Figure 7 scenario isolation).
#[derive(Debug, Clone, Copy)]
pub struct PinnedScheduler {
    /// Target node.
    pub node: usize,
    /// Memory limit applied.
    pub mem_limit: ofc_faas::Limit,
    /// Admission decision passed to the data plane.
    pub admission: Admission,
}

impl Scheduler for PinnedScheduler {
    fn route(&mut self, ctx: &RoutingContext) -> RoutingDecision {
        let warm = ctx
            .warm
            .iter()
            .find(|s| s.node == self.node)
            .map(|s| s.sandbox);
        RoutingDecision {
            node: self.node,
            sandbox: warm,
            mem_limit: self.mem_limit,
            admission: self.admission,
            overhead: PREDICTOR_OVERHEAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofc_faas::{ArgValue, Args, InvocationRequest};
    use ofc_simtime::SimTime;
    use ofc_workloads::catalog::gen_image_with_bytes;
    use rand::SeedableRng;

    fn submit_one(tb: &mut Testbed, tenant: &TenantId, profile: &'static Profile) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let meta = gen_image_with_bytes(64 << 10, &mut rng);
        let id = ofc_objstore::ObjectId::new("in", "img");
        tb.store.borrow_mut().put(
            &id,
            ofc_objstore::Payload::Synthetic(meta.bytes),
            meta.tags(),
            false,
        );
        let input = ofc_faas::ObjectRef {
            id,
            size: meta.bytes,
        };
        tb.catalog.insert(id, meta);
        let mut args = Args::new();
        args.insert("input".into(), ArgValue::Obj(input));
        if let Some(spec) = profile.arg {
            args.insert(spec.name.into(), ArgValue::Num((spec.lo + spec.hi) / 2.0));
        }
        tb.platform.submit(
            &mut tb.sim,
            InvocationRequest {
                function: FunctionId::from(profile.name),
                tenant: *tenant,
                args,
                seed: 7,
                pipeline: None,
            },
        );
    }

    #[test]
    fn all_three_planes_execute_a_function() {
        let profile = ofc_workloads::multimedia::profile("wand_edge").unwrap();
        let tenant = TenantId::from("t");
        let mut totals = Vec::new();
        for kind in [PlaneKind::Swift, PlaneKind::Redis, PlaneKind::Ofc] {
            let mut tb = Testbed::build(TestbedSpec::new(kind, 0));
            register_single(&tb, &tenant, profile, 512 << 20);
            submit_one(&mut tb, &tenant, profile);
            tb.sim.run_until(SimTime::from_secs(30));
            let recs = tb.platform.drain_records();
            assert_eq!(recs.len(), 1, "{kind:?}");
            assert_eq!(recs[0].completion, ofc_faas::Completion::Success);
            totals.push((kind, recs[0].etl()));
        }
        // Swift is the slowest configuration for this E&L-dominated
        // function; Redis the fastest.
        let swift = totals[0].1;
        let redis = totals[1].1;
        let ofc = totals[2].1;
        assert!(swift > redis, "swift {swift:?} !> redis {redis:?}");
        // OFC's first access misses but still beats Swift (write-back L).
        assert!(ofc < swift, "ofc {ofc:?} !< swift {swift:?}");
    }

    #[test]
    fn failure_rule_counts_drops_and_final_oom_kills() {
        let max_retries = 1;
        assert!(!is_failure(Completion::Success, 0, max_retries));
        assert!(!is_failure(Completion::Success, max_retries, max_retries));
        assert!(is_failure(Completion::Unschedulable, 0, max_retries));
        // An OOM kill with a retry left is retried, not failed.
        assert!(!is_failure(Completion::OomKilled, 0, max_retries));
        assert!(is_failure(Completion::OomKilled, max_retries, max_retries));
    }

    #[test]
    fn pretraining_matures_models() {
        let profile = ofc_workloads::multimedia::profile("wand_resize").unwrap();
        let tenant = TenantId::from("t");
        let tb = Testbed::build(TestbedSpec::new(PlaneKind::Ofc, 0));
        register_single(&tb, &tenant, profile, 2 << 30);
        pretrain_single(&tb, &tenant, profile, 1500);
        let ofc = tb.ofc.as_ref().unwrap();
        let key = (tenant, FunctionId::from(profile.name));
        assert!(
            ofc.ml.borrow().is_mature(&key),
            "pretraining must mature the model"
        );
    }
}
