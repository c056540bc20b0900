//! The OFC scheduler (§4, §6.5): Predictor-driven sandbox sizing and
//! locality-aware request routing, replacing OWK's stock policy.

use crate::cache::rc_key;
use crate::ml::{FnKey, MlEngine};
use crate::policy::PolicyHandle;
use ofc_dtree::data::Value;
use ofc_faas::{
    ArgValue, Args, FunctionId, Limit, NodeId, RoutingContext, RoutingDecision, Scheduler, TenantId,
};
use ofc_rcstore::cluster::Cluster;
use ofc_telemetry::{Counter, Telemetry};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::rc::Rc;
use std::time::Duration;

/// Extracts the ML feature vector of a request; `None` when the function
/// is unknown to the extractor (prediction is skipped).
pub type FeatureFn = Rc<dyn Fn(&TenantId, &FunctionId, &Args) -> Option<Vec<Value>>>;

/// Routing counters (`sched.*`): how requests were placed and whether the
/// Predictor's sizing was used.
#[derive(Debug)]
struct SchedMetrics {
    warm_routes: Counter,
    cold_routes: Counter,
    predicted_sizes: Counter,
    booked_fallbacks: Counter,
}

impl SchedMetrics {
    fn new(t: &Telemetry) -> Self {
        SchedMetrics {
            warm_routes: t.counter("sched.warm_routes"),
            cold_routes: t.counter("sched.cold_routes"),
            predicted_sizes: t.counter("sched.predicted_sizes"),
            booked_fallbacks: t.counter("sched.booked_fallbacks"),
        }
    }
}

/// Predictor + Sizer critical-path overhead of every OFC routing
/// decision (§7.2.1).
pub const PREDICTOR_OVERHEAD: Duration = Duration::from_millis(6);

/// The OFC routing policy.
pub struct OfcScheduler {
    ml: Rc<RefCell<MlEngine>>,
    features: FeatureFn,
    metrics: SchedMetrics,
    /// The cache store, asked which node masters a request's input (§6.5).
    cluster: Rc<RefCell<Cluster>>,
    /// The installed cache policy: admission and placement decisions
    /// delegate here (DESIGN.md §15).
    policy: PolicyHandle,
    /// Whether the cache-benefit gate is consulted (§5.2); `false` caches
    /// everything (ablation).
    pub benefit_gate: bool,
    /// Whether routing prefers the node the policy placed (§6.5);
    /// `false` falls back to home-node hashing (ablation).
    pub locality_routing: bool,
}

impl OfcScheduler {
    /// Builds the scheduler over the shared ML engine, cache store and
    /// cache policy, recording into a shared telemetry plane.
    pub fn new(
        ml: Rc<RefCell<MlEngine>>,
        features: FeatureFn,
        cluster: Rc<RefCell<Cluster>>,
        policy: PolicyHandle,
        telemetry: &Telemetry,
    ) -> Self {
        OfcScheduler {
            ml,
            features,
            metrics: SchedMetrics::new(telemetry),
            cluster,
            policy,
            benefit_gate: true,
            locality_routing: true,
        }
    }

    /// The node mastering the cached copy of the request's input (§6.5):
    /// the first object argument, in argument order, that the cache store
    /// holds.
    fn input_master(&self, args: &Args) -> Option<NodeId> {
        let cluster = self.cluster.borrow();
        args.values().find_map(|v| match v {
            ArgValue::Obj(id) => cluster.master_of(&rc_key(id)),
            _ => None,
        })
    }

    /// Orders warm sandboxes by §6.5's criteria: (i) smallest distance
    /// between current and predicted memory, (ii) available node memory
    /// when the sandbox must grow, (iii) locality to `input_master`,
    /// (iv) recency; a full tie goes to the first in `ctx.warm`'s
    /// ascending `(node, sandbox id)` order.
    fn pick_warm(
        ctx: &RoutingContext<'_>,
        input_master: Option<NodeId>,
        mem_limit: Limit,
    ) -> Option<(NodeId, u64)> {
        ctx.warm
            .iter()
            .min_by_key(|sb| {
                let must_grow = mem_limit > sb.mem_limit;
                (
                    sb.mem_limit.bytes().abs_diff(mem_limit.bytes()),
                    must_grow.then(|| Reverse(ctx.free_mem[sb.node])),
                    input_master != Some(sb.node),
                    Reverse(sb.idle_since),
                )
            })
            .map(|sb| (sb.node, sb.sandbox))
    }
}

impl Scheduler for OfcScheduler {
    fn route(&mut self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        let key: FnKey = (ctx.tenant, ctx.function);
        let prediction = (self.features)(&ctx.tenant, &ctx.function, ctx.args)
            .map(|f| self.ml.borrow_mut().predict(&key, &f));
        // Sizing is the Predictor's (§5.3); admission is the policy's.
        // An unknown function or an immature model runs at its booking.
        let booked = Limit::of_booked(ctx.booked_mem);
        let mem_limit = prediction
            .as_ref()
            .and_then(|p| p.mem_bytes)
            .map_or(booked, Limit);
        if mem_limit == booked {
            self.metrics.booked_fallbacks.inc();
        } else {
            self.metrics.predicted_sizes.inc();
        }
        let mut admission = self.policy.borrow_mut().admit(prediction.as_ref());
        if !self.benefit_gate {
            // Ablation: cache everything regardless of the policy's gate.
            admission.cache = true;
        }
        let input_master = self.input_master(ctx.args);
        let placed = self
            .policy
            .borrow_mut()
            .place(&ctx.tenant, ctx.free_mem.len(), input_master);
        // Locality for routing is the policy's placement, not the raw
        // input master.
        let input_master = if self.locality_routing { placed } else { None };

        if let Some((node, sandbox)) = Self::pick_warm(ctx, input_master, mem_limit) {
            self.metrics.warm_routes.inc();
            return RoutingDecision {
                node,
                sandbox: Some(sandbox),
                mem_limit,
                admission,
                overhead: PREDICTOR_OVERHEAD,
            };
        }

        // Cold path: prefer the node mastering the input's cached copy
        // (§6.5), then the stock placement.
        self.metrics.cold_routes.inc();
        RoutingDecision {
            node: ctx.cold_node(input_master),
            sandbox: None,
            mem_limit,
            admission,
            overhead: PREDICTOR_OVERHEAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::MlConfig;
    use crate::policy::OfcPolicy;
    use ofc_dtree::data::{AttrKind, Attribute};
    use ofc_faas::{Booked, SandboxView};
    use ofc_objstore::ObjectId;
    use ofc_rcstore::ClusterConfig;
    use ofc_simtime::SimTime;

    const MB: u64 = 1 << 20;

    fn engine_with_mature_model() -> Rc<RefCell<MlEngine>> {
        let mut ml = MlEngine::new(MlConfig::default());
        let key = (TenantId::from("t"), FunctionId::from("f"));
        ml.register(
            key,
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
        );
        for i in 0..300u64 {
            let x = (i % 40) as f64;
            ml.observe(
                &key,
                crate::ml::Observation {
                    features: vec![Value::Num(x)],
                    actual_mem: (64 << 20) + (x as u64) * (16 << 20),
                    el_ratio: 0.9,
                },
            );
        }
        assert!(ml.is_mature(&key));
        Rc::new(RefCell::new(ml))
    }

    fn features() -> FeatureFn {
        Rc::new(|_, _, args| {
            args.get("x").and_then(|v| match v {
                ofc_faas::ArgValue::Num(x) => Some(vec![Value::Num(*x)]),
                _ => None,
            })
        })
    }

    fn args(x: f64) -> Args {
        Args::from([("x".into(), ofc_faas::ArgValue::Num(x))])
    }

    /// `args` plus object arguments named `name`, each cached with its
    /// master on `node` when one is given.
    fn with_inputs(
        mut args: Args,
        cluster: &Rc<RefCell<Cluster>>,
        inputs: &[(&str, Option<NodeId>)],
    ) -> Args {
        for &(name, node) in inputs {
            let id = ObjectId::new("in", name);
            if let Some(node) = node {
                let placed = cluster
                    .borrow_mut()
                    .write(
                        node,
                        &rc_key(&id),
                        ofc_rcstore::Value::synthetic(1024),
                        SimTime::ZERO,
                    )
                    .result;
                assert_eq!(placed, Ok(node));
            }
            args.insert(name.into(), ofc_faas::ArgValue::Obj(id));
        }
        args
    }

    fn ctx(args: &Args, warm: Vec<SandboxView>) -> RoutingContext<'_> {
        RoutingContext {
            function: FunctionId::from("f"),
            tenant: TenantId::from("t"),
            args,
            booked_mem: Booked(2 << 30),
            home: 0,
            warm,
            free_mem: vec![Booked(8 << 30); 4],
        }
    }

    fn cluster() -> Rc<RefCell<Cluster>> {
        Rc::new(RefCell::new(Cluster::new(ClusterConfig::default())))
    }

    fn scheduler(
        ml: Rc<RefCell<MlEngine>>,
        features: FeatureFn,
        cluster: &Rc<RefCell<Cluster>>,
    ) -> OfcScheduler {
        let policy = Rc::new(RefCell::new(OfcPolicy::new()));
        OfcScheduler::new(ml, features, Rc::clone(cluster), policy, &Telemetry::new())
    }

    fn sb(node: usize, id: u64, mem: u64, idle_s: u64) -> SandboxView {
        SandboxView {
            node,
            sandbox: id,
            mem_limit: Limit(mem),
            idle_since: SimTime::from_secs(idle_s),
        }
    }

    #[test]
    fn mature_model_right_sizes_instead_of_booked() {
        let ml = engine_with_mature_model();
        let mut s = scheduler(ml, features(), &cluster());
        let d = s.route(&ctx(&args(10.0), vec![]));
        // Needs ~224 MB; allocation must cover it with the next-greater
        // margin yet stay far below the 2 GB booking.
        assert!(d.mem_limit >= Limit(224 * MB));
        assert!(d.mem_limit <= Limit(512 * MB));
        assert_eq!(d.overhead, PREDICTOR_OVERHEAD);
    }

    #[test]
    fn warm_choice_minimizes_memory_distance() {
        let ml = engine_with_mature_model();
        let mut s = scheduler(ml, features(), &cluster());
        // Prediction for x=10 is ~256 MB: the 256 MB sandbox wins over the
        // 2 GB one even though the latter idled more recently.
        let warm = vec![sb(1, 1, 2 << 30, 100), sb(2, 2, 256 * MB, 5)];
        let d = s.route(&ctx(&args(10.0), warm));
        assert_eq!(d.node, 2);
        assert_eq!(d.sandbox, Some(2));
    }

    #[test]
    fn warm_tie_breaks_on_locality_then_recency() {
        let ml = engine_with_mature_model();
        let cluster = cluster();
        let mut s = scheduler(ml, features(), &cluster);
        let warm = vec![
            sb(1, 1, 256 * MB, 50),
            sb(3, 2, 256 * MB, 10),
            sb(2, 3, 256 * MB, 10),
        ];
        // Identical memory distance: the sandbox co-located with the cached
        // input (node 3) wins.
        let cached = with_inputs(args(10.0), &cluster, &[("input", Some(3))]);
        let d = s.route(&ctx(&cached, warm.clone()));
        assert_eq!(d.node, 3);
        // Without locality info, the most recently used wins.
        let d = s.route(&ctx(
            &args(10.0),
            vec![warm[0].clone(), sb(2, 3, 256 * MB, 99)],
        ));
        assert_eq!(d.node, 2);
    }

    #[test]
    fn full_warm_tie_is_broken_the_same_way_every_run() {
        // Two sandboxes of one function idle since the same instant with
        // the same limit. A fresh invoker per round: a table walked in
        // `RandomState` order would offer them in either order.
        let ml = engine_with_mature_model();
        let mut s = scheduler(ml, features(), &cluster());
        let (f, t) = (FunctionId::from("f"), TenantId::from("t"));
        for _ in 0..16 {
            let mut inv = ofc_faas::sandbox::Invoker::new(1, 8 << 30);
            for _ in 0..2 {
                let id = inv.create_sandbox(f, t, 256 * MB, 2 << 30);
                inv.release(id, SimTime::from_secs(5));
            }
            let d = s.route(&ctx(&args(10.0), inv.warm_for(&f, &t).collect()));
            // `min_by_key` keeps the first minimum of an ascending-id list.
            assert_eq!((d.node, d.sandbox), (1, Some(0)));
        }
    }

    #[test]
    fn cold_start_prefers_input_master_node() {
        let ml = engine_with_mature_model();
        let cluster = cluster();
        let mut s = scheduler(ml, features(), &cluster);
        let cached = with_inputs(args(10.0), &cluster, &[("input", Some(2))]);
        let d = s.route(&ctx(&cached, vec![]));
        assert_eq!(d.node, 2, "locality routing (§6.5)");
        assert_eq!(d.sandbox, None);
        // The input master is the first *cached* object argument: the
        // first one (in argument order) is not cached, the second is.
        let second = with_inputs(args(10.0), &cluster, &[("a", None), ("b", Some(2))]);
        assert_eq!(s.route(&ctx(&second, vec![])).node, 2);
    }

    #[test]
    fn cold_start_skips_an_input_master_that_cannot_admit_the_booking() {
        let ml = engine_with_mature_model();
        let cluster = cluster();
        let mut s = scheduler(ml, features(), &cluster);
        let cached = with_inputs(args(10.0), &cluster, &[("input", Some(2))]);
        let mut c = ctx(&cached, vec![]);
        // Node 2 has room for the predicted limit, not for the booking.
        c.free_mem[2] = Booked(1 << 30);
        let d = s.route(&c);
        assert!(d.mem_limit.bytes() < c.free_mem[2].bytes() && c.free_mem[2] < c.booked_mem);
        assert_ne!(d.node, 2, "admission would refuse node 2");
        assert_eq!(d.node, 0, "the home node admits");
    }

    #[test]
    fn cold_start_skips_a_home_that_cannot_admit_the_booking() {
        let ml = engine_with_mature_model();
        let mut s = scheduler(ml, features(), &cluster());
        let args = args(10.0);
        let mut c = ctx(&args, vec![]);
        // Home node 0 has room for the predicted limit, not for the booking.
        c.free_mem[0] = Booked(1 << 30);
        let d = s.route(&c);
        assert!(d.mem_limit.bytes() < c.free_mem[0].bytes() && c.free_mem[0] < c.booked_mem);
        assert_ne!(d.node, 0, "admission would refuse the home node");
        assert_eq!(d.node, 3, "the roomiest node that admits, last of equals");
    }

    #[test]
    fn unknown_function_falls_back_to_booked() {
        let ml = Rc::new(RefCell::new(MlEngine::new(MlConfig::default())));
        let mut s = scheduler(ml, Rc::new(|_, _, _| None), &cluster());
        let d = s.route(&ctx(&args(1.0), vec![]));
        assert_eq!(d.mem_limit, Limit(2 << 30));
        assert!(d.admission.cache, "conservative default");
    }
}
