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
//!   `(Te + Tl) / Ttotal > 0.5` (§5.2). Only [`MlEngine::predict`] reads
//!   it, so a retrain point refits the memory model at once and leaves
//!   the benefit fit owed until the next prediction (pretraining makes
//!   none),
//! * the retained **training set** — after maturation, only
//!   underpredictions and extreme overpredictions (`k − k* > 6`) are
//!   added, with underpredictions weighted higher (§5.3.3).
//!
//! # One fit per distinct training set
//!
//! A C4.5 fit is a pure function of its training set, and a platform
//! repeats training sets: copies of a function pretrained from one seeded
//! stream, or the stages of a pipeline fed one stream, fit the same sets
//! in the same order. The engine's fit memo answers a repeated fit with
//! the model of the first. A set only ever changes by rows pushed at its
//! newest end and rows dropped at its oldest, so a fit's key is
//!
//! * the memo id of the set's last fit (for the benefit set, its last
//!   *paid* fit),
//! * how many of that fit's rows are still kept: its newest ones,
//! * the rows pushed since, value for value (`f64` bits, label, weight),
//!
//! beside the dataset's schema and class handles, compared by pointer.
//! Each fit that misses gets a new id, and ids are never reused, so an id
//! names one training set for the engine's life. Equal keys therefore
//! name equal training sets, even when the parent fit has left the memo.
//! The key's hash only picks the candidates; a hit compares whole keys.
//! The memo is the engine's own, so two engines pay their fits
//! separately. It keeps the last [`FIT_MEMO_ENTRIES`] fits, oldest out
//! first, each as a [`CompiledTree`] shared by every function it answers
//! (an `Arc`): only what prediction reads, a few dozen bytes a node.
//! `ml.retrains` counts retrain points, hits and misses alike.

use ofc_dtree::c45::{C45Params, C45};
use ofc_dtree::data::{Attribute, Dataset, Value};
use ofc_dtree::tree::CompiledTree;
use ofc_faas::{FunctionId, TenantId};
use ofc_intern::{IdHashMap, IdHasher};
use ofc_telemetry::{Counter, Telemetry};
use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};
use std::hash::Hasher;
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
pub const UNDER_WEIGHT: u32 = 5;

/// Overpredictions farther than this many intervals are retained for
/// retraining (§5.3.3's `k − k* > 6`).
pub const EXTREME_OVER_K: u32 = 6;

/// Fits the memo keeps, evicted oldest first (a calibration constant).
/// The memo must span the distinct fits between two fits of one training
/// set: the seed-1 benchmark measured 193 distinct fits per copy of the
/// §7.2.2 mix on `paper_macro`, 62 on `pipeline_etl` and 195 on the
/// `macro24` smoke anchor. At 128 entries `paper_macro`'s pretraining
/// paid 3 088 of its 4 080 fits instead of 193.
pub const FIT_MEMO_ENTRIES: usize = 256;

/// Interval index of a memory amount (clamped to the top class).
pub fn interval_of(mem_bytes: u64) -> u32 {
    ((mem_bytes / INTERVAL_BYTES) as u32).min(N_INTERVALS as u32 - 1)
}

/// Engine configuration (§5 defaults).
#[derive(Debug, Clone, Copy)]
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
/// large population is never observed inside a run's window, and the
/// schema is the engine's one copy of it (see [`MlEngine::register`]).
struct Registered {
    schema: Arc<[Attribute]>,
    live: Option<Box<FunctionMl>>,
}

struct FunctionMl {
    mem_dataset: Dataset,
    /// The benefit rows as of the last retrain point.
    benefit_dataset: Dataset,
    /// Benefit labels of the rows kept since the last retrain point, at
    /// most one retrain interval of them. Their features are the newest
    /// rows of `mem_dataset`, which keeps the same rows.
    benefit_backlog: Vec<u32>,
    mem_model: Option<Arc<CompiledTree>>,
    /// `mem_dataset` against its last fit.
    mem_lineage: Lineage,
    /// The last benefit tree fitted; stale while `benefit_owed`.
    benefit_model: Option<Arc<CompiledTree>>,
    /// `benefit_dataset` against its last paid fit.
    benefit_lineage: Lineage,
    /// Whether `benefit_model` is due a refit on `benefit_dataset`.
    benefit_owed: bool,
    /// `(raw_predicted, truth)` pairs for the maturation window.
    window: VecDeque<(u32, u32)>,
    observations: u64,
    new_since_retrain: usize,
    mature: bool,
    /// Observation index at which the model matured, if it has.
    matured_at: Option<u64>,
}

impl FunctionMl {
    /// A retrain point's benefit half: moves the backlog into
    /// `benefit_dataset`, keeping its newest `max` rows, and owes a fit on
    /// the result if it holds both classes. A set left single-class keeps
    /// the tree of the last two-class set, so a fit still owed on that set
    /// is paid before the rows change.
    fn flush_benefit_rows(&mut self, max: usize, memo: &mut FitMemo) {
        // Taken, not drained: a function that stops keeping rows holds no
        // backlog buffer.
        let labels = std::mem::take(&mut self.benefit_backlog);
        let old = self.benefit_dataset.rows();
        let dropped = (old.len() + labels.len()).saturating_sub(max);
        let new_dropped = dropped.saturating_sub(old.len());
        let mut seen = [false; 2];
        let old_kept = old.iter().skip(dropped).map(|r| r.label);
        for label in old_kept.chain(labels[new_dropped..].iter().copied()) {
            seen[label as usize] = true;
        }
        let both_classes = seen == [true; 2];
        if !both_classes {
            self.pay_benefit_fit(memo);
        }
        let rows = self.mem_dataset.rows();
        let new_rows = &rows[rows.len() - labels.len() + new_dropped..];
        for (row, &label) in new_rows.iter().zip(&labels[new_dropped..]) {
            // ofc-lint: allow(hotloop) reason=a kept row's features are copied into the benefit set once, at the first retrain point after it
            self.benefit_dataset.push(row.values.clone(), label);
        }
        self.benefit_lineage.pushed += new_rows.len();
        self.benefit_dataset.truncate_oldest(max);
        self.benefit_owed = both_classes;
    }

    /// Fits the benefit model on `benefit_dataset` if a retrain point
    /// owes that fit.
    fn pay_benefit_fit(&mut self, memo: &mut FitMemo) {
        if std::mem::take(&mut self.benefit_owed) {
            self.benefit_model = Some(memo.fit(&self.benefit_dataset, &mut self.benefit_lineage));
        }
    }
}

/// Where a dataset stands against its last fit.
#[derive(Default)]
struct Lineage {
    /// The memo id of that fit; `None` before the first.
    fit: Option<u64>,
    /// Rows pushed since that fit (or ever, before the first).
    pushed: usize,
}

/// The engine's fit memo (see the module docs).
#[derive(Default)]
struct FitMemo {
    /// Oldest first.
    entries: VecDeque<MemoEntry>,
    next_id: u64,
    /// Scratch space for the key being looked up.
    key: Vec<u64>,
}

struct MemoEntry {
    hash: u64,
    id: u64,
    attrs: Arc<[Attribute]>,
    classes: Arc<[String]>,
    /// The parent id (`u64::MAX` for none), the rows still kept from it,
    /// then each pushed row's values, label and weight, as bits.
    key: Box<[u64]>,
    model: Arc<CompiledTree>,
}

impl FitMemo {
    /// The model of `data`'s C4.5 fit, `lineage` telling how `data` came
    /// from its last fit; `lineage` then names this fit.
    fn fit(&mut self, data: &Dataset, lineage: &mut Lineage) -> Arc<CompiledTree> {
        let rows = data.rows();
        let pushed = &rows[rows.len() - lineage.pushed.min(rows.len())..];
        self.key.clear();
        self.key.push(lineage.fit.unwrap_or(u64::MAX));
        self.key.push((rows.len() - pushed.len()) as u64);
        for row in pushed {
            self.key.extend(row.values.iter().map(|v| match *v {
                Value::Num(x) => x.to_bits(),
                Value::Nom(i) => u64::from(i),
            }));
            self.key.push(u64::from(row.label));
            self.key.push(row.weight.to_bits());
        }
        let mut hasher = IdHasher::default();
        for &word in &self.key {
            hasher.write_u64(word);
        }
        let hash = hasher.finish();
        let (attrs, classes) = data.shared_schema();
        let hit = self.entries.iter().find(|e| {
            e.hash == hash
                && *e.key == *self.key
                && Arc::ptr_eq(&e.attrs, attrs)
                && Arc::ptr_eq(&e.classes, classes)
        });
        let (id, model) = match hit {
            Some(e) => (e.id, Arc::clone(&e.model)),
            None => {
                let model = Arc::new(C45::train(data, &C45Params).compile());
                let id = self.next_id;
                self.next_id += 1;
                if self.entries.len() == FIT_MEMO_ENTRIES {
                    self.entries.pop_front();
                }
                self.entries.push_back(MemoEntry {
                    hash,
                    id,
                    attrs: Arc::clone(attrs),
                    classes: Arc::clone(classes),
                    key: self.key.as_slice().into(),
                    model: Arc::clone(&model),
                });
                (id, model)
            }
        };
        *lineage = Lineage {
            fit: Some(id),
            pushed: 0,
        };
        model
    }
}

/// The ML engine: Predictor + ModelTrainer.
pub struct MlEngine {
    cfg: MlConfig,
    functions: IdHashMap<FnKey, Registered>,
    /// One copy of each distinct feature schema registered, shared by
    /// every function that registered an equal one.
    schemas: HashSet<Arc<[Attribute]>>,
    /// The `N_INTERVALS` memory-class names, shared by every function's
    /// memory dataset.
    interval_labels: Arc<[String]>,
    /// The two cache-benefit class names, shared likewise.
    benefit_labels: Arc<[String]>,
    memo: FitMemo,
    telemetry: Telemetry,
    metrics: MlMetrics,
}

impl MlEngine {
    /// Creates an engine with a standalone (fully enabled) telemetry plane.
    pub fn new(cfg: MlConfig) -> Self {
        Self::with_telemetry(cfg, &Telemetry::new())
    }

    /// Creates an engine recording into a shared telemetry plane.
    pub fn with_telemetry(cfg: MlConfig, telemetry: &Telemetry) -> Self {
        MlEngine {
            cfg,
            functions: IdHashMap::default(),
            schemas: HashSet::new(),
            interval_labels: (0..N_INTERVALS).map(|k| format!("I{k}")).collect(),
            benefit_labels: ["not_beneficial", "beneficial"].map(String::from).into(),
            memo: FitMemo::default(),
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
    ///
    /// A schema equal to one already registered is not kept: the function
    /// shares the engine's copy, found by hashing the schema, so a
    /// population holds as many schemas as it has distinct ones.
    pub fn register(&mut self, key: FnKey, schema: Vec<Attribute>) {
        let Entry::Vacant(slot) = self.functions.entry(key) else {
            return;
        };
        let schema = match self.schemas.get(schema.as_slice()) {
            Some(shared) => Arc::clone(shared),
            None => {
                let schema: Arc<[Attribute]> = schema.into();
                self.schemas.insert(Arc::clone(&schema));
                schema
            }
        };
        slot.insert(Registered { schema, live: None });
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
    /// step), fitting the benefit model first if a retrain point left that
    /// fit owed.
    pub fn predict(&mut self, key: &FnKey, features: &[Value]) -> Prediction {
        // Unregistered and never-observed functions answer alike: no model.
        let Some(f) = self
            .functions
            .get_mut(key)
            .and_then(|r| r.live.as_deref_mut())
        else {
            return Prediction {
                mem_bytes: None,
                raw_interval: None,
                should_cache: true,
            };
        };
        f.pay_benefit_fit(&mut self.memo);
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
        let cfg = self.cfg;
        let Some(Registered { schema, live }) = self.functions.get_mut(key) else {
            return;
        };
        let f = live.get_or_insert_with(|| {
            // Both datasets lend the registered schema and the engine's
            // label sets: building a function's state allocates this box.
            Box::new(FunctionMl {
                mem_dataset: Dataset::over(schema.clone(), self.interval_labels.clone()),
                benefit_dataset: Dataset::over(schema.clone(), self.benefit_labels.clone()),
                benefit_backlog: Vec::new(),
                mem_model: None,
                mem_lineage: Lineage::default(),
                benefit_model: None,
                benefit_lineage: Lineage::default(),
                benefit_owed: false,
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
            _ if !f.mature => Some(1),
            Some(raw) if raw > truth + EXTREME_OVER_K => Some(1),
            None => Some(1),
            _ => None,
        };
        if let Some(weight) = keep {
            f.mem_dataset.push_weighted(obs.features, truth, weight);
            f.mem_lineage.pushed += 1;
            f.mem_dataset.truncate_oldest(cfg.max_training_set);
            f.benefit_backlog.push(u32::from(obs.el_ratio > 0.5));
            if f.benefit_backlog.len() > cfg.max_training_set {
                // Older rows would not survive the next flush, and
                // `mem_dataset` no longer holds their features.
                f.benefit_backlog.remove(0);
            }
            f.new_since_retrain += 1;
        }

        // Periodic full retraining (J48 is not incremental, §5.3.3).
        let due = f.mem_model.is_none() || f.new_since_retrain >= RETRAIN_EVERY;
        if due && f.mem_dataset.len() >= 10 {
            f.mem_model = Some(self.memo.fit(&f.mem_dataset, &mut f.mem_lineage));
            f.flush_benefit_rows(cfg.max_training_set, &mut self.memo);
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

    /// The maturation rule's two rates `(eo_rate, under_one)` over a
    /// function's window, if any predictions were windowed.
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
    fn window_rates_count_under_margins() {
        // (predicted, true): one exact, one over, one under by one, one
        // under by three.
        let window = VecDeque::from([(3, 3), (4, 2), (2, 3), (0, 3)]);
        assert_eq!(window_rates(&window), (0.5, 0.5));
        // No underprediction: the under-one rate is 1.
        assert_eq!(window_rates(&VecDeque::from([(1, 1), (2, 1)])), (1.0, 1.0));
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
    fn equal_schemas_share_one_copy() {
        let mut ml = MlEngine::new(MlConfig::default());
        let nominal = || {
            vec![Attribute {
                name: "format".into(),
                kind: AttrKind::Nominal(vec!["png".into(), "jpg".into()]),
            }]
        };
        let tenant = TenantId::from("t");
        let keys = |group: &str| -> Vec<FnKey> {
            (0..50)
                .map(|i| (tenant, FunctionId::from(format!("{group}{i}"))))
                .collect()
        };
        let (numeric, named) = (keys("n"), keys("m"));
        for (n, m) in numeric.iter().zip(&named) {
            ml.register(*n, schema());
            ml.register(*m, nominal());
        }
        let schema_of = |key: &FnKey| Arc::clone(&ml.functions[key].schema);
        for group in [&numeric, &named] {
            let first = schema_of(&group[0]);
            assert!(group.iter().all(|k| Arc::ptr_eq(&schema_of(k), &first)));
        }
        assert!(!Arc::ptr_eq(&schema_of(&numeric[0]), &schema_of(&named[0])));
        assert_eq!(*schema_of(&named[0]), *nominal());
        assert_eq!(ml.schemas.len(), 2);
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
    fn a_set_gone_single_class_keeps_the_tree_still_owed() {
        let mut ml = MlEngine::new(MlConfig {
            max_training_set: 30,
            ..MlConfig::default()
        });
        ml.register(key(), schema());
        let obs = |x: f64, beneficial: bool| Observation {
            features: vec![Value::Num(x)],
            actual_mem: 64 << 20,
            el_ratio: if beneficial { 0.9 } else { 0.1 },
        };
        // Both classes at the first retrain points: a benefit fit is owed.
        for i in 0..20 {
            let beneficial = i % 2 == 0;
            ml.observe(
                &key(),
                obs(if beneficial { 1.0 } else { 100.0 }, beneficial),
            );
        }
        // No prediction until truncation has left only beneficial rows.
        for _ in 0..60 {
            ml.observe(&key(), obs(50.0, true));
        }
        assert!(!ml.predict(&key(), &[Value::Num(100.0)]).should_cache);
        assert!(ml.predict(&key(), &[Value::Num(1.0)]).should_cache);
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

    fn models(ml: &MlEngine, key: &FnKey) -> [Option<Arc<CompiledTree>>; 2] {
        let f = ml.live(key).expect("observed");
        [f.mem_model.clone(), f.benefit_model.clone()]
    }

    fn same_models(a: &[Option<Arc<CompiledTree>>; 2], b: &[Option<Arc<CompiledTree>>; 2]) -> bool {
        a.iter().zip(b).all(|pair| match pair {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        })
    }

    /// `learnable_obs` with a benefit label that alternates every other
    /// observation, so that both models get fitted.
    fn two_class_obs(i: u64) -> Observation {
        Observation {
            el_ratio: if i % 4 < 2 { 0.9 } else { 0.1 },
            ..learnable_obs(i)
        }
    }

    #[test]
    fn identical_histories_share_one_fit() {
        let cfg = MlConfig {
            max_training_set: 60,
            ..MlConfig::default()
        };
        let tenant = TenantId::from("t");
        let (a, b) = (
            (tenant, FunctionId::from("a")),
            (tenant, FunctionId::from("b")),
        );
        let run = |keys: &[FnKey]| {
            let mut ml = MlEngine::new(cfg);
            for key in keys {
                ml.register(*key, schema());
            }
            for i in 0..300 {
                for key in keys {
                    ml.observe(key, two_class_obs(i));
                    if i % 40 == 39 {
                        ml.predict(key, &[Value::Num(3.0)]);
                    }
                }
                let first = models(&ml, &keys[0]);
                for key in keys {
                    assert!(same_models(&models(&ml, key), &first), "op {i}");
                }
            }
            ml
        };
        let (alone, pair) = (run(&[a]), run(&[a, b]));
        // `b` pays no fit of its own, yet each of its retrain points counts.
        assert!(alone.memo.next_id > 0);
        assert_eq!(pair.memo.next_id, alone.memo.next_id);
        let retrains = |ml: &MlEngine| ml.telemetry().metrics().counter("ml.retrains");
        assert_eq!(retrains(&pair), 2 * retrains(&alone));
    }

    #[test]
    fn one_differing_bit_forces_a_new_fit() {
        let mut ml = MlEngine::new(MlConfig::default());
        let tenant = TenantId::from("t");
        let (a, b) = (
            (tenant, FunctionId::from("a")),
            (tenant, FunctionId::from("b")),
        );
        ml.register(a, schema());
        ml.register(b, schema());
        for i in 0..60 {
            ml.observe(&a, two_class_obs(i));
            let mut obs = two_class_obs(i);
            if i == 37 {
                let Value::Num(x) = obs.features[0] else {
                    unreachable!()
                };
                obs.features[0] = Value::Num(f64::from_bits(x.to_bits() ^ 1));
            }
            ml.observe(&b, obs);
        }
        for key in [&a, &b] {
            ml.predict(key, &[Value::Num(3.0)]);
        }
        let [(mem_a, ben_a), (mem_b, ben_b)] = [&a, &b].map(|key| {
            let [mem, benefit] = models(&ml, key);
            (mem.expect("fitted"), benefit.expect("fitted"))
        });
        // Rows 0–36 are common: the fits at 10, 35 and 36 rows are shared.
        // Row 37 differs, so every later fit is `b`'s own.
        assert!(!Arc::ptr_eq(&mem_a, &mem_b));
        assert!(!Arc::ptr_eq(&ben_a, &ben_b));
        let retrains = ml.telemetry().metrics().counter("ml.retrains");
        assert_eq!(retrains, 2 * 3);
        // Mem fits at 10 and 35 rows shared, at 60 rows each; the benefit
        // fits are paid once each at the prediction, on different sets.
        assert_eq!(ml.memo.entries.len(), 2 + 2 + 2);
    }

    #[test]
    fn the_memo_key_holds_the_kept_count_and_each_weight() {
        let mut memo = FitMemo::default();
        let classes: Arc<[String]> = ["a", "b"].map(String::from).into();
        let base = Dataset::over(schema().into(), classes);
        let fill = |ds: &mut Dataset, weights: &[u32]| {
            for (i, &w) in weights.iter().enumerate() {
                ds.push_weighted(vec![Value::Num(i as f64)], (i % 2) as u32, w);
            }
        };
        let mut parent = base.empty_like();
        fill(&mut parent, &[1; 12]);
        let mut lineage = Lineage::default();
        memo.fit(&parent, &mut lineage);
        let from_parent = lineage.fit;
        // Three rows pushed since the parent fit, over 12 or 10 kept rows,
        // or with one weight changed: three distinct sets, three fits.
        let mut ids = Vec::new();
        for (kept, weights) in [(12, [1, 1, 1]), (10, [1, 1, 1]), (12, [1, 5, 1])] {
            let mut ds = parent.clone();
            fill(&mut ds, &weights);
            ds.truncate_oldest(kept + 3);
            let mut lineage = Lineage {
                fit: from_parent,
                pushed: 3,
            };
            let model = memo.fit(&ds, &mut lineage);
            ids.push(lineage.fit);
            // The same set again is a hit, on the same model.
            let mut again = Lineage {
                fit: from_parent,
                pushed: 3,
            };
            assert!(Arc::ptr_eq(&memo.fit(&ds, &mut again), &model));
            assert_eq!(again.fit, lineage.fit);
        }
        assert_eq!(ids, [Some(1), Some(2), Some(3)]);
        assert_eq!(memo.entries.len(), 4);
    }

    #[test]
    fn the_memo_holds_its_bound() {
        let mut ml = MlEngine::new(MlConfig::default());
        let tenant = TenantId::from("t");
        let fits = FIT_MEMO_ENTRIES + 50;
        for f in 0..fits {
            let key = (tenant, FunctionId::from(format!("f{f}")));
            ml.register(key, schema());
            // Ten rows make the first retrain point, over a set no other
            // function has.
            for i in 0..10 {
                let mut obs = learnable_obs(i);
                obs.features[0] = Value::Num(f as f64 + i as f64 / 10.0);
                ml.observe(&key, obs);
            }
        }
        assert_eq!(ml.memo.next_id, fits as u64);
        assert_eq!(ml.memo.entries.len(), FIT_MEMO_ENTRIES);
        // Oldest out first.
        assert_eq!(ml.memo.entries.front().map(|e| e.id), Some(50));
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
