//! The OFC scheduler (§4, §6.5): Predictor-driven sandbox sizing and
//! locality-aware request routing, replacing OWK's stock policy.

use crate::ml::{FnKey, MlEngine};
use crate::policy::{OfcPolicy, PolicyHandle, PredictionCtx, ShardView};
use ofc_dtree::data::Value;
use ofc_faas::{Args, FunctionId, RoutingContext, RoutingDecision, Scheduler, TenantId};
use ofc_telemetry::{Counter, Telemetry};
use std::cell::RefCell;
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

/// The OFC routing policy.
pub struct OfcScheduler {
    ml: Rc<RefCell<MlEngine>>,
    features: FeatureFn,
    metrics: SchedMetrics,
    /// Predictor + Sizer critical-path overhead (~6 ms, §7.2.1).
    overhead: Duration,
    /// The installed cache policy: admission and placement decisions
    /// delegate here (DESIGN.md §15). Defaults to [`OfcPolicy`].
    policy: PolicyHandle,
    /// Whether the cache-benefit gate is consulted (§5.2); `false` caches
    /// everything (ablation).
    pub benefit_gate: bool,
    /// Whether routing prefers the node the policy placed (§6.5);
    /// `false` falls back to home-node hashing (ablation).
    pub locality_routing: bool,
}

impl OfcScheduler {
    /// Builds the scheduler over the shared ML engine, with a standalone
    /// telemetry plane.
    pub fn new(ml: Rc<RefCell<MlEngine>>, features: FeatureFn) -> Self {
        Self::with_telemetry(ml, features, &Telemetry::standalone())
    }

    /// Builds the scheduler recording into a shared telemetry plane.
    pub fn with_telemetry(
        ml: Rc<RefCell<MlEngine>>,
        features: FeatureFn,
        telemetry: &Telemetry,
    ) -> Self {
        OfcScheduler {
            ml,
            features,
            metrics: SchedMetrics::new(telemetry),
            overhead: Duration::from_millis(6),
            policy: Rc::new(RefCell::new(OfcPolicy::new())),
            benefit_gate: true,
            locality_routing: true,
        }
    }

    /// Installs a cache policy (shared with the plane and the agent).
    pub fn set_policy(&mut self, policy: PolicyHandle) {
        self.policy = policy;
    }

    /// Orders warm sandboxes by §6.5's criteria: (i) smallest distance
    /// between current and predicted memory, (ii) available node memory
    /// when the sandbox must grow, (iii) locality to `input_master`,
    /// (iv) recency; a full tie goes to the first in `ctx.warm`'s
    /// ascending `(node, sandbox id)` order.
    fn pick_warm(
        ctx: &RoutingContext<'_>,
        input_master: Option<usize>,
        mem_limit: u64,
    ) -> Option<(usize, u64)> {
        ctx.warm
            .iter()
            .min_by_key(|sb| {
                let diff = sb.mem_limit.abs_diff(mem_limit);
                let must_grow = mem_limit > sb.mem_limit;
                let node_free = ctx
                    .nodes
                    .iter()
                    .find(|n| n.node == sb.node)
                    .map(|n| n.total_mem.saturating_sub(n.committed_mem))
                    .unwrap_or(0);
                let non_local = input_master != Some(sb.node);
                (
                    diff,
                    if must_grow { u64::MAX - node_free } else { 0 },
                    non_local,
                    u64::MAX - sb.idle_since.as_nanos(),
                )
            })
            .map(|sb| (sb.node, sb.sandbox))
    }
}

impl Scheduler for OfcScheduler {
    fn route(&mut self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        let key: FnKey = (ctx.tenant, ctx.function);
        let prediction = (self.features)(&ctx.tenant, &ctx.function, ctx.args)
            .map(|f| self.ml.borrow().predict(&key, &f));
        // Sizing is the Predictor's (§5.3); admission is the policy's.
        let mem_limit = match &prediction {
            Some(p) => p.mem_bytes.unwrap_or(ctx.booked_mem),
            // Unknown function: booked memory.
            None => ctx.booked_mem,
        };
        if mem_limit == ctx.booked_mem {
            self.metrics.booked_fallbacks.inc();
        } else {
            self.metrics.predicted_sizes.inc();
        }
        let mut admission = self.policy.borrow_mut().admit(&PredictionCtx {
            tenant: &ctx.tenant,
            function: &ctx.function,
            booked_mem: ctx.booked_mem,
            prediction: prediction.as_ref(),
        });
        if !self.benefit_gate {
            // Ablation: cache everything regardless of the policy's gate.
            admission.cache = true;
        }
        let placement = self.policy.borrow_mut().place(
            None,
            &ShardView {
                tenant: &ctx.tenant,
                function: &ctx.function,
                home: ctx.home,
                n_nodes: ctx.nodes.len(),
                input_master: ctx.input_master,
            },
        );
        // Locality for routing is the policy's placement, not the oracle's
        // raw `ctx.input_master`.
        let input_master = if self.locality_routing {
            placement.preferred
        } else {
            None
        };

        if let Some((node, sandbox)) = Self::pick_warm(ctx, input_master, mem_limit) {
            self.metrics.warm_routes.inc();
            return RoutingDecision {
                node,
                sandbox: Some(sandbox),
                mem_limit,
                admission,
                overhead: self.overhead,
            };
        }

        // Cold path: prefer the node mastering the input's cached copy
        // (§6.5), then the stock home, then the roomiest node.
        let free = |node: usize| {
            ctx.nodes
                .iter()
                .find(|n| n.node == node)
                .map(|n| n.total_mem.saturating_sub(n.committed_mem))
                .unwrap_or(0)
        };
        let node = input_master
            .filter(|&n| free(n) >= mem_limit)
            .or_else(|| (free(ctx.home) >= mem_limit).then_some(ctx.home))
            .or_else(|| {
                ctx.nodes
                    .iter()
                    .max_by_key(|n| n.total_mem.saturating_sub(n.committed_mem))
                    .map(|n| n.node)
            })
            .unwrap_or(ctx.home);
        self.metrics.cold_routes.inc();
        RoutingDecision {
            node,
            sandbox: None,
            mem_limit,
            admission,
            overhead: self.overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::MlConfig;
    use ofc_dtree::data::{AttrKind, Attribute};
    use ofc_faas::{NodeView, SandboxView};
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
            args.get("x").map(|v| match v {
                ofc_faas::ArgValue::Num(x) => vec![Value::Num(*x)],
                _ => vec![Value::Missing],
            })
        })
    }

    fn args(x: f64) -> Args {
        Args::from([("x".into(), ofc_faas::ArgValue::Num(x))])
    }

    fn ctx(args: &Args, warm: Vec<SandboxView>, input_master: Option<usize>) -> RoutingContext<'_> {
        RoutingContext {
            function: FunctionId::from("f"),
            tenant: TenantId::from("t"),
            args,
            booked_mem: 2 << 30,
            home: 0,
            warm,
            nodes: (0..4)
                .map(|node| NodeView {
                    node,
                    total_mem: 8 << 30,
                    committed_mem: 0,
                    busy: 0,
                })
                .collect(),
            input_master,
        }
    }

    fn sb(node: usize, id: u64, mem: u64, idle_s: u64) -> SandboxView {
        SandboxView {
            node,
            sandbox: id,
            mem_limit: mem,
            idle_since: SimTime::from_secs(idle_s),
        }
    }

    #[test]
    fn mature_model_right_sizes_instead_of_booked() {
        let ml = engine_with_mature_model();
        let mut s = OfcScheduler::new(ml, features());
        let d = s.route(&ctx(&args(10.0), vec![], None));
        // Needs ~224 MB; allocation must cover it with the next-greater
        // margin yet stay far below the 2 GB booking.
        assert!(d.mem_limit >= 224 * MB);
        assert!(d.mem_limit <= 512 * MB);
        assert_eq!(d.overhead, Duration::from_millis(6));
    }

    #[test]
    fn warm_choice_minimizes_memory_distance() {
        let ml = engine_with_mature_model();
        let mut s = OfcScheduler::new(ml, features());
        // Prediction for x=10 is ~256 MB: the 256 MB sandbox wins over the
        // 2 GB one even though the latter idled more recently.
        let warm = vec![sb(1, 1, 2 << 30, 100), sb(2, 2, 256 * MB, 5)];
        let d = s.route(&ctx(&args(10.0), warm, None));
        assert_eq!(d.node, 2);
        assert_eq!(d.sandbox, Some(2));
    }

    #[test]
    fn warm_tie_breaks_on_locality_then_recency() {
        let ml = engine_with_mature_model();
        let mut s = OfcScheduler::new(ml, features());
        let warm = vec![
            sb(1, 1, 256 * MB, 50),
            sb(3, 2, 256 * MB, 10),
            sb(2, 3, 256 * MB, 10),
        ];
        // Identical memory distance: the sandbox co-located with the cached
        // input (node 3) wins.
        let d = s.route(&ctx(&args(10.0), warm.clone(), Some(3)));
        assert_eq!(d.node, 3);
        // Without locality info, the most recently used wins.
        let d = s.route(&ctx(
            &args(10.0),
            vec![warm[0].clone(), sb(2, 3, 256 * MB, 99)],
            None,
        ));
        assert_eq!(d.node, 2);
    }

    #[test]
    fn full_warm_tie_is_broken_the_same_way_every_run() {
        // Two sandboxes of one function idle since the same instant with
        // the same limit. A fresh invoker per round: a table walked in
        // `RandomState` order would offer them in either order.
        let ml = engine_with_mature_model();
        let mut s = OfcScheduler::new(ml, features());
        let (f, t) = (FunctionId::from("f"), TenantId::from("t"));
        for _ in 0..16 {
            let mut inv = ofc_faas::sandbox::Invoker::new(1, 8 << 30);
            for _ in 0..2 {
                let id = inv.create_sandbox(f, t, 256 * MB, 2 << 30, SimTime::ZERO);
                inv.release(id, SimTime::from_secs(5));
            }
            let d = s.route(&ctx(&args(10.0), inv.warm_for(&f, &t).collect(), None));
            // `min_by_key` keeps the first minimum of an ascending-id list.
            assert_eq!((d.node, d.sandbox), (1, Some(0)));
        }
    }

    #[test]
    fn cold_start_prefers_input_master_node() {
        let ml = engine_with_mature_model();
        let mut s = OfcScheduler::new(ml, features());
        let d = s.route(&ctx(&args(10.0), vec![], Some(2)));
        assert_eq!(d.node, 2, "locality routing (§6.5)");
        assert_eq!(d.sandbox, None);
    }

    #[test]
    fn unknown_function_falls_back_to_booked() {
        let ml = Rc::new(RefCell::new(MlEngine::new(MlConfig::default())));
        let mut s = OfcScheduler::new(ml, Rc::new(|_, _, _| None));
        let d = s.route(&ctx(&args(1.0), vec![], None));
        assert_eq!(d.mem_limit, 2 << 30);
        assert!(d.admission.cache, "conservative default");
    }
}
