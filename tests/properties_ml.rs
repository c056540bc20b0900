//! Property-based tests of the ML stack and the memory-arbitration
//! invariants.

use ofc::core::agent::{AgentConfig, CacheAgent};
use ofc::core::ml::{
    interval_of, MlConfig, MlEngine, Observation, Prediction, EO_THRESHOLD, EVAL_WINDOW,
    EXTREME_OVER_K, RETRAIN_EVERY, UNDER_ONE_THRESHOLD, UNDER_WEIGHT,
};
use ofc::core::policy::OfcPolicy;
use ofc::dtree::c45::{C45Params, C45};
use ofc::dtree::data::{AttrKind, Attribute, Dataset, Value};
use ofc::dtree::hoeffding::HoeffdingTree;
use ofc::dtree::tree::DecisionTree;
use ofc::dtree::Classifier;
use ofc::faas::{FunctionId, MemoryBroker, TenantId};
use ofc::rcstore::cluster::Cluster;
use ofc::rcstore::ClusterConfig;
use ofc::simtime::Sim;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

const MB: u64 = 1 << 20;

/// The eager reference predictor for one function, written from §5.3's
/// rules: both models fitted at every retrain point, the benefit rows
/// pushed and truncated one at a time.
struct EagerMl {
    cfg: MlConfig,
    mem: Dataset,
    benefit: Dataset,
    mem_model: Option<DecisionTree>,
    benefit_model: Option<DecisionTree>,
    window: VecDeque<(u32, u32)>,
    observations: u64,
    new_since_retrain: usize,
    mature: bool,
    good: u64,
    bad: u64,
    retrains: u64,
}

impl EagerMl {
    fn new(cfg: MlConfig, schema: &[Attribute]) -> Self {
        let over = |classes: Vec<String>| Dataset::over(schema.to_vec().into(), classes.into());
        EagerMl {
            cfg,
            mem: over((0..128).map(|k| format!("I{k}")).collect()),
            benefit: over(vec!["not_beneficial".into(), "beneficial".into()]),
            mem_model: None,
            benefit_model: None,
            window: VecDeque::new(),
            observations: 0,
            new_since_retrain: 0,
            mature: false,
            good: 0,
            bad: 0,
            retrains: 0,
        }
    }

    fn predict(&self, features: &[Value]) -> (Option<u64>, Option<u32>, bool) {
        let raw = self.mem_model.as_ref().map(|m| m.predict(features));
        let mem = raw
            .filter(|_| self.mature)
            .map(|r| self.cfg.allocation_for(r));
        let cache = self
            .benefit_model
            .as_ref()
            .is_none_or(|m| m.predict(features) == 1);
        (mem, raw, cache)
    }

    fn observe(&mut self, obs: Observation) {
        self.observations += 1;
        let truth = interval_of(obs.actual_mem);
        let raw = self.mem_model.as_ref().map(|m| m.predict(&obs.features));
        if let Some(raw) = raw {
            self.window.push_back((raw, truth));
            if self.window.len() > EVAL_WINDOW {
                self.window.pop_front();
            }
            if self.cfg.allocation_for(raw) >= obs.actual_mem {
                self.good += 1;
            } else {
                self.bad += 1;
            }
        }
        let keep = match raw {
            Some(raw) if raw < truth => Some(UNDER_WEIGHT),
            _ if !self.mature => Some(1),
            Some(raw) if raw > truth + EXTREME_OVER_K => Some(1),
            None => Some(1),
            _ => None,
        };
        let max = self.cfg.max_training_set;
        if let Some(weight) = keep {
            self.mem.push_weighted(obs.features.clone(), truth, weight);
            self.mem.truncate_oldest(max);
            self.benefit
                .push(obs.features, u32::from(obs.el_ratio > 0.5));
            self.benefit.truncate_oldest(max);
            self.new_since_retrain += 1;
        }
        let due = self.mem_model.is_none() || self.new_since_retrain >= RETRAIN_EVERY;
        if due && self.mem.len() >= 10 {
            self.mem_model = Some(C45::train(&self.mem, &C45Params));
            if self.benefit.class_distribution().iter().all(|&w| w > 0.0) {
                self.benefit_model = Some(C45::train(&self.benefit, &C45Params));
            }
            self.new_since_retrain = 0;
            self.retrains += 1;
        }
        if !self.mature && self.observations >= self.cfg.min_invocations && !self.window.is_empty()
        {
            let n = self.window.len() as f64;
            let eo = self.window.iter().filter(|(p, t)| p >= t).count() as f64 / n;
            let unders = self.window.iter().filter(|(p, t)| p < t).count();
            let by_one = self.window.iter().filter(|(p, t)| p + 1 == *t).count();
            let under_one = if unders == 0 {
                1.0
            } else {
                by_one as f64 / unders as f64
            };
            if eo >= EO_THRESHOLD && under_one >= UNDER_ONE_THRESHOLD {
                self.mature = true;
            }
        }
    }
}

fn fields(p: Prediction) -> (Option<u64>, Option<u32>, bool) {
    (p.mem_bytes, p.raw_interval, p.should_cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A Hoeffding tree absorbs any stream without panicking, and its
    /// predictions always fall in the label range.
    #[test]
    fn hoeffding_stream_safety(
        stream in prop::collection::vec((0.0f64..100.0, -50.0f64..50.0, 0..3u32), 20..400),
    ) {
        let mut tree = HoeffdingTree::new(vec![AttrKind::Numeric, AttrKind::Numeric], 3);
        for (x, y, label) in &stream {
            tree.learn(&[Value::Num(*x), Value::Num(*y)], *label);
        }
        prop_assert_eq!(tree.instances_seen(), stream.len() as u64);
        let p = tree.predict(&[Value::Num(12.0), Value::Num(-3.0)]);
        prop_assert!(p < 3);
        let d = tree.distribution(&[Value::Num(0.0), Value::Num(0.0)]);
        prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// C4.5 never predicts worse than the majority class on its own
    /// training data (a weak but universal learning bound).
    #[test]
    fn c45_beats_or_ties_majority_on_training_data(
        rows in prop::collection::vec((0.0f64..10.0, 0..3u32), 12..150),
    ) {
        use ofc::dtree::c45::{C45Params, C45};
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b", "c"])
            .build();
        for (x, label) in &rows {
            ds.push(vec![Value::Num(*x)], *label);
        }
        let tree = C45::train(&ds, &C45Params);
        let correct = ds
            .rows()
            .iter()
            .filter(|r| tree.predict(&r.values) == r.label)
            .count();
        let majority = ds.majority_class();
        let baseline = ds.rows().iter().filter(|r| r.label == majority).count();
        prop_assert!(
            correct >= baseline,
            "tree {correct} < majority baseline {baseline}"
        );
    }

    /// The MlEngine never emits an allocation below the raw prediction's
    /// interval upper bound, never exceeds 2 GB, and only predicts once
    /// mature.
    #[test]
    fn engine_allocations_are_sound(
        observations in prop::collection::vec((0.0f64..50.0, 32u64..900), 1..250),
        probe in 0.0f64..50.0,
    ) {
        let mut ml = MlEngine::new(MlConfig::default());
        let key = (TenantId::from("t"), FunctionId::from("f"));
        ml.register(
            key,
            vec![ofc::dtree::data::Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
        );
        for (x, mem_mb) in &observations {
            ml.observe(
                &key,
                Observation {
                    features: vec![Value::Num(*x)],
                    actual_mem: mem_mb * MB,
                    el_ratio: 0.7,
                },
            );
        }
        let p = ml.predict(&key, &[Value::Num(probe)]);
        if let Some(alloc) = p.mem_bytes {
            prop_assert!(ml.is_mature(&key), "allocation from an immature model");
            let raw = p.raw_interval.expect("raw accompanies allocation");
            prop_assert!(alloc <= 2 << 30);
            prop_assert!(alloc >= (u64::from(raw) + 1) * (16 * MB));
        }
        if ml.is_mature(&key) {
            prop_assert!(observations.len() >= 100, "matured too early");
        }
    }

    /// Deferring benefit fits to the next `predict` changes no answer:
    /// random interleavings of `observe` and `predict`, with a training-set
    /// cap small enough that truncation reaches rows an owed fit was due
    /// on, and benefit labels that turn constant part-way (the set goes
    /// single-class and must keep the last two-class set's tree), give the
    /// eager reference's every prediction and counter.
    #[test]
    fn deferred_benefit_fits_answer_as_eager_fits(
        max_training_set in 12usize..=40,
        min_invocations in 20u64..150,
        // Often no prediction for long stretches, so that fits stay owed
        // across retrain points.
        predict_pct in prop_oneof![Just(0u32), 0u32..3, 0u32..40],
        constant_after in 0usize..300,
        constant_label in any::<bool>(),
        ops in prop::collection::vec((0u32..100, 0u32..8, 0u32..8, 0u32..4, 0u32..8), 1..400),
    ) {
        let cfg = MlConfig {
            min_invocations,
            max_training_set,
            ..MlConfig::default()
        };
        let schema: Vec<Attribute> = ["x", "y"]
            .map(|name| Attribute {
                name: name.into(),
                kind: AttrKind::Numeric,
            })
            .into();
        let mut ml = MlEngine::new(cfg);
        let key = (TenantId::from("t"), FunctionId::from("f"));
        ml.register(key, schema.clone());
        let mut eager = EagerMl::new(cfg, &schema);
        for (i, &(roll, x, y, noise, flip)) in ops.iter().enumerate() {
            let features = vec![Value::Num(f64::from(x)), Value::Num(f64::from(y))];
            if roll < predict_pct {
                let p = ml.predict(&key, &features);
                prop_assert_eq!(fields(p), eager.predict(&features), "op {}", i);
                continue;
            }
            // Benefit follows `x`, with one label in eight flipped.
            let beneficial = if i >= constant_after {
                constant_label
            } else {
                (x < 4) != (flip == 0)
            };
            let obs = Observation {
                features,
                // Mostly a function of `x`, sometimes a few intervals off.
                actual_mem: (64 + 16 * u64::from(x) + 16 * u64::from(noise / 3 * y)) * MB,
                el_ratio: if beneficial { 0.9 } else { 0.1 },
            };
            ml.observe(&key, obs.clone());
            eager.observe(obs);
        }
        for x in 0..8 {
            let features = [Value::Num(f64::from(x)), Value::Num(f64::from(7 - x))];
            prop_assert_eq!(fields(ml.predict(&key, &features)), eager.predict(&features));
        }
        let m = ml.telemetry().metrics();
        prop_assert_eq!(
            [
                m.counter("ml.retrains"),
                m.counter("ml.good_predictions"),
                m.counter("ml.bad_predictions"),
            ],
            [eager.retrains, eager.good, eager.bad]
        );
    }

    /// The fit memo changes no answer. Up to six functions under one
    /// engine replay one random history, each diverging from it at one
    /// row (or never) by a feature value, by the memory label (and so,
    /// when that row turns into an underprediction, by its weight) or by
    /// the benefit label; the training-set cap is small enough that
    /// truncation drops the divergent row again. Observes and predicts
    /// interleave across the functions at random. Each function gives
    /// its own eager reference's every prediction, and the engine's
    /// counters are the references' sums.
    #[test]
    fn memo_fits_answer_as_each_functions_own_fits(
        max_training_set in 12usize..=40,
        min_invocations in 20u64..150,
        predict_pct in prop_oneof![Just(0u32), 0u32..3, 0u32..40],
        history in prop::collection::vec((0u32..8, 0u32..8, 0u32..4, 0u32..8), 1..150),
        // Per function: where it diverges, in quarters of the history
        // (4: never), and how.
        divergences in prop::collection::vec((0usize..=4, 0u32..3), 2..7),
        ops in prop::collection::vec((0u32..100, 0usize..6, 0u32..8, 0u32..8), 1..700),
    ) {
        let cfg = MlConfig {
            min_invocations,
            max_training_set,
            ..MlConfig::default()
        };
        let schema: Vec<Attribute> = ["x", "y"]
            .map(|name| Attribute {
                name: name.into(),
                kind: AttrKind::Numeric,
            })
            .into();
        let mut ml = MlEngine::new(cfg);
        let tenant = TenantId::from("t");
        let keys: Vec<_> = (0..divergences.len())
            .map(|f| (tenant, FunctionId::from(format!("f{f}"))))
            .collect();
        let mut eager: Vec<EagerMl> = keys
            .iter()
            .map(|key| {
                ml.register(*key, schema.clone());
                EagerMl::new(cfg, &schema)
            })
            .collect();
        let mut next = vec![0usize; keys.len()];
        for (i, &(roll, f, px, py)) in ops.iter().enumerate() {
            let f = f % keys.len();
            if roll < predict_pct {
                let features = [Value::Num(f64::from(px)), Value::Num(f64::from(py))];
                let p = ml.predict(&keys[f], &features);
                prop_assert_eq!(fields(p), eager[f].predict(&features), "op {} fn {}", i, f);
                continue;
            }
            let Some(&(x, mut y, noise, flip)) = history.get(next[f]) else {
                continue;
            };
            let (quarter, how) = divergences[f];
            let divergent = next[f] == history.len() * quarter / 4 && quarter < 4;
            next[f] += 1;
            let mut extra_mb = 0;
            let mut beneficial = (x < 4) != (flip == 0);
            if divergent {
                match how {
                    0 => y = (y + 1) % 8,
                    1 => extra_mb = 16,
                    _ => beneficial = !beneficial,
                }
            }
            let obs = Observation {
                features: vec![Value::Num(f64::from(x)), Value::Num(f64::from(y))],
                actual_mem: (64 + 16 * u64::from(x) + 16 * u64::from(noise / 3 * y) + extra_mb) * MB,
                el_ratio: if beneficial { 0.9 } else { 0.1 },
            };
            ml.observe(&keys[f], obs.clone());
            eager[f].observe(obs);
        }
        for (f, key) in keys.iter().enumerate() {
            for x in 0..8 {
                let features = [Value::Num(f64::from(x)), Value::Num(f64::from(7 - x))];
                prop_assert_eq!(fields(ml.predict(key, &features)), eager[f].predict(&features));
            }
        }
        let m = ml.telemetry().metrics();
        let sum = |count: fn(&EagerMl) -> u64| eager.iter().map(count).sum::<u64>();
        prop_assert_eq!(
            [
                m.counter("ml.retrains"),
                m.counter("ml.good_predictions"),
                m.counter("ml.bad_predictions"),
            ],
            [sum(|e| e.retrains), sum(|e| e.good), sum(|e| e.bad)]
        );
    }

    /// Memory conservation at the broker: after any sequence of reserves
    /// and releases, `committed + cache pool <= node memory` on the touched
    /// node, and a granted reserve is never beyond capacity.
    #[test]
    fn agent_conserves_node_memory(
        ops in prop::collection::vec((any::<bool>(), 1u64..60), 1..60),
    ) {
        let total = 4u64 << 30;
        let cluster = Rc::new(RefCell::new(Cluster::new(ClusterConfig {
            nodes: 2,
            replication_factor: 1,
            node_pool_bytes: total - (100 * MB),
            max_object_bytes: 10 * MB,
            ..ClusterConfig::default()
        })));
        let agent = CacheAgent::new(
            AgentConfig::default(),
            Rc::clone(&cluster),
            Rc::new(RefCell::new(OfcPolicy::new())),
            &ofc::core::telemetry::Telemetry::new(),
        );
        let mut sim = Sim::new(0);
        let mut committed: u64 = 0;
        for (grow, chunk_64mb) in ops {
            let delta = chunk_64mb * 64 * MB;
            let mut broker = agent.clone();
            if grow {
                let after = committed + delta;
                if broker.reserve(&mut sim, 0, after, total).is_some() {
                    prop_assert!(after <= total, "granted beyond capacity");
                    committed = after;
                }
            } else {
                let after = committed.saturating_sub(delta);
                broker.release(&mut sim, 0, after, total);
                committed = after;
            }
            let pool = cluster.borrow().node(0).pool_bytes();
            prop_assert!(
                committed + pool <= total,
                "conservation violated: {committed} + {pool} > {total}"
            );
        }
    }
}
