//! The Predictor and ModelTrainer (§5): per-function J48 models for memory
//! intervals and cache benefit, the maturation rule, and the
//! retraining policy.
//!
//! One [`MlEngine`] serves the whole platform. For each function it keeps:
//!
//! * a **memory model** — a J48 classifier over `[0, 2 GB]` divided into
//!   16 MB intervals (§5.1.1). Until the model *matures*, its predictions
//!   are recorded but not used (the sandbox runs at the booked size);
//!   once mature, OFC allocates the **next greater interval** than the
//!   predicted one, converting half of the residual underpredictions into
//!   exact ones (§5.3.1),
//! * a **cache-benefit model** — a J48 binary classifier for
//!   `(Te + Tl) / Ttotal > 0.5` (§5.2),
//! * the retained **training set** — after maturation, only
//!   underpredictions and extreme overpredictions (`k − k* > 6`) are
//!   added, with underpredictions weighted higher (§5.3.3).

use ofc_dtree::c45::{C45Params, C45};
use ofc_dtree::data::{Attribute, Dataset, Value};
use ofc_dtree::tree::DecisionTree;
use ofc_dtree::Classifier;
use ofc_faas::{FunctionId, TenantId};
use ofc_intern::IdHashMap;
use ofc_telemetry::{Counter, Telemetry};
use std::collections::VecDeque;
use std::sync::Arc;

/// Key identifying a function's models.
pub type FnKey = (TenantId, FunctionId);

/// Classification interval size (§5.1.1: 16 MB). The Monitor raises caps
/// to the same granularity.
pub const INTERVAL_BYTES: u64 = 16 << 20;

/// Covered memory range: OWK's permitted allocations, up to 2 GB.
pub const RANGE_BYTES: u64 = ofc_faas::MAX_SANDBOX_MEM;

/// Number of classification intervals.
pub const N_INTERVALS: usize = (RANGE_BYTES / INTERVAL_BYTES) as usize;

/// Maturation (§5.3.1): required exact-or-over rate.
pub const EO_THRESHOLD: f64 = 0.90;

/// Maturation (§5.3.1): required fraction of underpredictions within one
/// interval.
pub const UNDER_ONE_THRESHOLD: f64 = 0.50;

/// Sliding evaluation window for the maturation rule.
pub const EVAL_WINDOW: usize = 100;

/// Retrain after this many new training samples.
pub const RETRAIN_EVERY: usize = 25;

/// Weight applied to underprediction samples on retraining.
pub const UNDER_WEIGHT: f64 = 5.0;

/// Overpredictions farther than this many intervals are retained for
/// retraining (§5.3.3's `k − k* > 6`).
pub const EXTREME_OVER_K: u32 = 6;

/// Interval index of a memory amount (clamped to the top class).
pub fn interval_of(mem_bytes: u64) -> u32 {
    ((mem_bytes / INTERVAL_BYTES) as u32).min(N_INTERVALS as u32 - 1)
}

/// Engine configuration (§5 defaults).
#[derive(Debug, Clone)]
pub struct MlConfig {
    /// Minimum observations before maturity is even checked (100).
    pub min_invocations: u64,
    /// Cap on the retained training set ("small but valuable").
    pub max_training_set: usize,
    /// Safety margin in intervals added above the raw prediction (§5.3.1's
    /// "next greater interval" = 1; 0 disables the margin — ablation).
    pub safety_margin_intervals: u64,
}

impl Default for MlConfig {
    fn default() -> Self {
        MlConfig {
            min_invocations: 100,
            max_training_set: 2000,
            safety_margin_intervals: 1,
        }
    }
}

impl MlConfig {
    /// Memory allocated for a *raw* predicted interval: the upper bound of
    /// the interval `safety_margin_intervals` above it (§5.3.1: the "next
    /// greater interval" by default).
    pub fn allocation_for(&self, raw_interval: u32) -> u64 {
        let next =
            (u64::from(raw_interval) + 1 + self.safety_margin_intervals).min(N_INTERVALS as u64);
        next * INTERVAL_BYTES
    }
}

/// Outcome of a per-invocation prediction.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Memory to allocate, when the model is mature (`Mp` of §4).
    pub mem_bytes: Option<u64>,
    /// The raw predicted interval (before the next-greater margin), if a
    /// model exists.
    pub raw_interval: Option<u32>,
    /// The `shouldBeCached` flag (§5.2); conservative `true` while the
    /// benefit model is still blank (errors are benign, §5.3.2).
    pub should_cache: bool,
}

/// One observation fed back by the Monitor after an invocation completes.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Feature vector in the registered schema order.
    pub features: Vec<Value>,
    /// Ground-truth peak memory.
    pub actual_mem: u64,
    /// Ground-truth E&L dominance ratio.
    pub el_ratio: f64,
}

/// Telemetry handles for model accuracy (feeds Table 2): predictions whose
/// allocated amount covered the actual need (`ml.good_predictions`), those
/// that fell short (`ml.bad_predictions`), and full retrainings performed
/// (`ml.retrains`), aggregated across all functions.
#[derive(Debug)]
struct MlMetrics {
    good: Counter,
    bad: Counter,
    retrains: Counter,
}

impl MlMetrics {
    fn new(t: &Telemetry) -> Self {
        MlMetrics {
            good: t.counter("ml.good_predictions"),
            bad: t.counter("ml.bad_predictions"),
            retrains: t.counter("ml.retrains"),
        }
    }
}

/// What the engine holds for a registered function: the schema alone
/// until the first observation, which builds the datasets. Most of a
/// large population is never observed inside a run's window.
struct Registered {
    schema: Arc<[Attribute]>,
    live: Option<Box<FunctionMl>>,
}

struct FunctionMl {
    mem_dataset: Dataset,
    benefit_dataset: Dataset,
    mem_model: Option<DecisionTree>,
    benefit_model: Option<DecisionTree>,
    /// `(raw_predicted, truth)` pairs for the maturation window.
    window: VecDeque<(u32, u32)>,
    observations: u64,
    new_since_retrain: usize,
    mature: bool,
    /// Observation index at which the model matured, if it has.
    matured_at: Option<u64>,
}

/// The ML engine: Predictor + ModelTrainer.
pub struct MlEngine {
    cfg: MlConfig,
    functions: IdHashMap<FnKey, Registered>,
    /// The `N_INTERVALS` memory-class names, shared by every function's
    /// memory dataset.
    interval_labels: Arc<[String]>,
    /// The two cache-benefit class names, shared likewise.
    benefit_labels: Arc<[String]>,
    telemetry: Telemetry,
    metrics: MlMetrics,
}

impl MlEngine {
    /// Creates an engine with a standalone (fully enabled) telemetry plane.
    pub fn new(cfg: MlConfig) -> Self {
        Self::with_telemetry(cfg, &Telemetry::standalone())
    }

    /// Creates an engine recording into a shared telemetry plane.
    pub fn with_telemetry(cfg: MlConfig, telemetry: &Telemetry) -> Self {
        MlEngine {
            cfg,
            functions: IdHashMap::default(),
            interval_labels: (0..N_INTERVALS).map(|k| format!("I{k}")).collect(),
            benefit_labels: ["not_beneficial", "beneficial"].map(String::from).into(),
            telemetry: telemetry.clone(),
            metrics: MlMetrics::new(telemetry),
        }
    }

    /// The telemetry plane this engine records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configuration.
    pub fn config(&self) -> &MlConfig {
        &self.cfg
    }

    /// Registers a function's feature schema. Models start blank (§5.1.1);
    /// registering a known key again changes nothing.
    pub fn register(&mut self, key: FnKey, schema: Vec<Attribute>) {
        self.functions.entry(key).or_insert_with(|| Registered {
            schema: schema.into(),
            live: None,
        });
    }

    /// The function's model state, once an observation has built it.
    fn live(&self, key: &FnKey) -> Option<&FunctionMl> {
        self.functions.get(key)?.live.as_deref()
    }

    /// Whether the function is registered.
    pub fn knows(&self, key: &FnKey) -> bool {
        self.functions.contains_key(key)
    }

    /// Whether the function's memory model has matured.
    pub fn is_mature(&self, key: &FnKey) -> bool {
        self.live(key).is_some_and(|f| f.mature)
    }

    /// The observation count at which the model matured (§7.1.3's
    /// maturation quickness), if it has.
    pub fn matured_at(&self, key: &FnKey) -> Option<u64> {
        self.live(key).and_then(|f| f.matured_at)
    }

    /// Predicts memory and cache benefit for an invocation (§4's Predictor
    /// step).
    pub fn predict(&self, key: &FnKey, features: &[Value]) -> Prediction {
        // Unregistered and never-observed functions answer alike: no model.
        let Some(f) = self.live(key) else {
            return Prediction {
                mem_bytes: None,
                raw_interval: None,
                should_cache: true,
            };
        };
        let raw_interval = f.mem_model.as_ref().map(|m| m.predict(features));
        let mem_bytes = match (f.mature, raw_interval) {
            (true, Some(raw)) => Some(self.cfg.allocation_for(raw)),
            _ => None,
        };
        let should_cache = f
            .benefit_model
            .as_ref()
            .map(|m| m.predict(features) == 1)
            .unwrap_or(true);
        Prediction {
            mem_bytes,
            raw_interval,
            should_cache,
        }
    }

    /// Feeds back one completed invocation (the ModelTrainer path, §5.3.3).
    pub fn observe(&mut self, key: &FnKey, obs: Observation) {
        let cfg = self.cfg.clone();
        let Some(Registered { schema, live }) = self.functions.get_mut(key) else {
            return;
        };
        let f = live.get_or_insert_with(|| {
            // Both datasets lend the registered schema and the engine's
            // label sets: building a function's state allocates this box.
            Box::new(FunctionMl {
                mem_dataset: Dataset::over(schema.clone(), self.interval_labels.clone()),
                benefit_dataset: Dataset::over(schema.clone(), self.benefit_labels.clone()),
                mem_model: None,
                benefit_model: None,
                window: VecDeque::new(),
                observations: 0,
                new_since_retrain: 0,
                mature: false,
                matured_at: None,
            })
        });
        f.observations += 1;
        let truth = interval_of(obs.actual_mem);

        // Evaluate the current model on this observation (whether or not
        // its prediction was used) for the maturation window and counters.
        let raw_pred = f.mem_model.as_ref().map(|m| m.predict(&obs.features));
        if let Some(raw) = raw_pred {
            f.window.push_back((raw, truth));
            if f.window.len() > EVAL_WINDOW {
                f.window.pop_front();
            }
            if cfg.allocation_for(raw) >= obs.actual_mem {
                self.metrics.good.inc();
            } else {
                self.metrics.bad.inc();
            }
        }

        // Retention policy (§5.3.3): everything before maturity; after it,
        // only underpredictions and extreme overpredictions. Underpredicted
        // samples always carry a higher weight "in order to better avoid
        // them".
        let keep = match raw_pred {
            Some(raw) if raw < truth => Some(UNDER_WEIGHT),
            _ if !f.mature => Some(1.0),
            Some(raw) if raw > truth + EXTREME_OVER_K => Some(1.0),
            None => Some(1.0),
            _ => None,
        };
        if let Some(weight) = keep {
            f.mem_dataset
                .push_weighted(obs.features.clone(), truth, weight);
            f.mem_dataset.truncate_oldest(cfg.max_training_set);
            f.benefit_dataset
                .push(obs.features, u32::from(obs.el_ratio > 0.5));
            f.benefit_dataset.truncate_oldest(cfg.max_training_set);
            f.new_since_retrain += 1;
        }

        // Periodic full retraining (J48 is not incremental, §5.3.3).
        let due = f.mem_model.is_none() || f.new_since_retrain >= RETRAIN_EVERY;
        if due && f.mem_dataset.len() >= 10 {
            f.mem_model = Some(C45::train(&f.mem_dataset, &C45Params::default()));
            if f.benefit_dataset
                .class_distribution()
                .iter()
                .all(|&w| w > 0.0)
            {
                f.benefit_model = Some(C45::train(&f.benefit_dataset, &C45Params::default()));
            }
            f.new_since_retrain = 0;
            self.metrics.retrains.inc();
        }

        // Maturation check (§5.3.1).
        if !f.mature && f.observations >= cfg.min_invocations && !f.window.is_empty() {
            let (eo, under_one) = window_rates(&f.window);
            if eo >= EO_THRESHOLD && under_one >= UNDER_ONE_THRESHOLD {
                f.mature = true;
                f.matured_at = Some(f.observations);
            }
        }
    }

    /// Functions whose datasets exist (observed at least once).
    #[cfg(test)]
    fn materialised(&self) -> usize {
        self.functions.values().filter(|r| r.live.is_some()).count()
    }

    /// Per-function training-set size (for tests and diagnostics).
    pub fn training_set_size(&self, key: &FnKey) -> usize {
        self.live(key).map_or(0, |f| f.mem_dataset.len())
    }

    /// Maturation-window statistics `(eo_rate, under_within_one)` of a
    /// function's memory model, if any predictions were windowed.
    pub fn window_stats(&self, key: &FnKey) -> Option<(f64, f64)> {
        let f = self.live(key)?;
        if f.window.is_empty() {
            return None;
        }
        Some(window_rates(&f.window))
    }
}

/// The maturation rule's two rates (§5.3.1) over a non-empty window of
/// `(predicted, true)` intervals: the share of exact-or-over predictions,
/// and the share of underpredictions that are one interval short (1 when
/// there are none).
fn window_rates(window: &VecDeque<(u32, u32)>) -> (f64, f64) {
    let (mut eo, mut unders, mut unders_by_one) = (0usize, 0usize, 0usize);
    for &(p, t) in window {
        if p >= t {
            eo += 1;
        } else {
            unders += 1;
            unders_by_one += usize::from(p + 1 == t);
        }
    }
    let under_one = if unders == 0 {
        1.0
    } else {
        unders_by_one as f64 / unders as f64
    };
    (eo as f64 / window.len() as f64, under_one)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofc_dtree::data::AttrKind;

    fn key() -> FnKey {
        (TenantId::from("t"), FunctionId::from("f"))
    }

    fn schema() -> Vec<Attribute> {
        vec![Attribute {
            name: "bytes".into(),
            kind: AttrKind::Numeric,
        }]
    }

    /// Memory is a clean linear function of the single feature, so J48
    /// should mature quickly.
    fn learnable_obs(i: u64) -> Observation {
        let x = (i % 50) as f64;
        Observation {
            features: vec![Value::Num(x)],
            // 64 MB .. ~860 MB in 16 MB steps.
            actual_mem: (64 << 20) + (x as u64) * (16 << 20),
            el_ratio: 0.8,
        }
    }

    #[test]
    fn interval_math_matches_paper() {
        let cfg = MlConfig::default();
        assert_eq!(N_INTERVALS, 128);
        assert_eq!(interval_of(0), 0);
        assert_eq!(interval_of(16 << 20), 1);
        // Next-greater interval: raw interval k allocates (k+2)*16 MB.
        assert_eq!(cfg.allocation_for(0), 32 << 20);
        assert_eq!(cfg.allocation_for(3), 80 << 20);
        // Clamped at the top of the range.
        assert_eq!(cfg.allocation_for(127), 2 << 30);
    }

    #[test]
    fn blank_model_predicts_nothing_but_caches() {
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        let p = ml.predict(&key(), &[Value::Num(1.0)]);
        assert_eq!(p.mem_bytes, None);
        assert!(p.should_cache, "benefit errors are benign; default to true");
    }

    #[test]
    fn registered_but_unobserved_function_answers_as_a_blank_model() {
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        assert!(ml.knows(&key()));
        assert!(!ml.is_mature(&key()));
        assert_eq!(ml.matured_at(&key()), None);
        assert_eq!(ml.training_set_size(&key()), 0);
        assert_eq!(ml.window_stats(&key()), None);
        let p = ml.predict(&key(), &[Value::Num(1.0)]);
        assert_eq!(
            (p.mem_bytes, p.raw_interval, p.should_cache),
            (None, None, true)
        );
        assert_eq!(ml.materialised(), 0, "predict must not build state");
        // The first observation builds it, and is kept.
        ml.observe(&key(), learnable_obs(0));
        assert_eq!(ml.materialised(), 1);
        assert_eq!(ml.training_set_size(&key()), 1);
    }

    #[test]
    fn registering_a_live_key_again_keeps_its_state() {
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        for i in 0..40 {
            ml.observe(&key(), learnable_obs(i));
        }
        let size = ml.training_set_size(&key());
        let raw = ml.predict(&key(), &[Value::Num(10.0)]).raw_interval;
        assert!(size > 0 && raw.is_some());
        ml.register(key(), schema());
        assert_eq!(ml.training_set_size(&key()), size);
        assert_eq!(ml.predict(&key(), &[Value::Num(10.0)]).raw_interval, raw);
    }

    #[test]
    fn a_large_unobserved_population_holds_no_dataset() {
        let mut ml = MlEngine::new(MlConfig::default());
        let tenant = TenantId::from("t");
        for i in 0..100_000 {
            ml.register((tenant, FunctionId::from(format!("f{i}"))), schema());
        }
        assert_eq!(ml.materialised(), 0);
        // Observing one function builds that one alone, over the engine's
        // one copy of the interval labels.
        let one = (tenant, FunctionId::from("f7"));
        ml.observe(&one, learnable_obs(0));
        assert_eq!(ml.materialised(), 1);
        assert_eq!(Arc::strong_count(&ml.interval_labels), 2);
    }

    #[test]
    fn unregistered_function_is_harmless() {
        let mut ml = MlEngine::new(MlConfig::default());
        let p = ml.predict(&key(), &[Value::Num(1.0)]);
        assert!(p.mem_bytes.is_none());
        ml.observe(&key(), learnable_obs(0)); // must not panic
    }

    #[test]
    fn model_matures_on_learnable_function() {
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        for i in 0..300 {
            ml.observe(&key(), learnable_obs(i));
            if ml.is_mature(&key()) {
                break;
            }
        }
        assert!(ml.is_mature(&key()), "model failed to mature");
        let matured_at = ml.matured_at(&key()).unwrap();
        assert!(matured_at >= 100, "maturity cannot precede 100 invocations");
        // Once mature, predictions are used and carry the safety margin.
        let p = ml.predict(&key(), &[Value::Num(10.0)]);
        let truth = learnable_obs(10).actual_mem;
        let allocated = p.mem_bytes.unwrap();
        assert!(allocated >= truth, "allocation {allocated} < need {truth}");
        // But far below the 2 GB a naive booking would use.
        assert!(allocated < 512 << 20);
    }

    #[test]
    fn maturation_requires_min_invocations() {
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        for i in 0..99 {
            ml.observe(&key(), learnable_obs(i));
        }
        assert!(!ml.is_mature(&key()));
    }

    #[test]
    fn noisy_function_matures_later_or_never() {
        // Memory independent of the feature: EO-rate hovers far below 90%.
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        for i in 0..400u64 {
            ml.observe(
                &key(),
                Observation {
                    features: vec![Value::Num((i % 7) as f64)],
                    actual_mem: (64 << 20) + (i.wrapping_mul(2654435761) % 40) * (16 << 20),
                    el_ratio: 0.8,
                },
            );
        }
        assert!(!ml.is_mature(&key()), "pure noise must not mature");
    }

    #[test]
    fn benefit_model_learns_both_classes() {
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        for i in 0..120u64 {
            let beneficial = i % 2 == 0;
            ml.observe(
                &key(),
                Observation {
                    features: vec![Value::Num(if beneficial { 1.0 } else { 100.0 })],
                    actual_mem: 64 << 20,
                    el_ratio: if beneficial { 0.9 } else { 0.1 },
                },
            );
        }
        assert!(ml.predict(&key(), &[Value::Num(1.0)]).should_cache);
        assert!(!ml.predict(&key(), &[Value::Num(100.0)]).should_cache);
    }

    #[test]
    fn training_set_stays_small_after_maturity() {
        let cfg = MlConfig::default();
        let mut ml = MlEngine::new(cfg);
        ml.register(key(), schema());
        for i in 0..1000 {
            ml.observe(&key(), learnable_obs(i));
        }
        assert!(ml.is_mature(&key()));
        // After maturity only mispredictions are retained, so the set grows
        // far slower than one-per-observation.
        assert!(
            ml.training_set_size(&key()) < 500,
            "training set ballooned: {}",
            ml.training_set_size(&key())
        );
    }

    #[test]
    fn counters_track_good_and_bad() {
        let mut ml = MlEngine::new(MlConfig::default());
        ml.register(key(), schema());
        for i in 0..200 {
            ml.observe(&key(), learnable_obs(i));
        }
        let m = ml.telemetry().metrics();
        let good = m.counter("ml.good_predictions");
        let bad = m.counter("ml.bad_predictions");
        assert!(good > 0);
        assert!(m.counter("ml.retrains") > 0);
        assert!(good + bad <= 200);
    }
}
