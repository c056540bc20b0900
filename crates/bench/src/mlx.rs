//! ML experiments (§7.1): Table 1, Figures 5–6, the cache-benefit
//! classifier metrics, and maturation quickness.
//!
//! Unlike the cache experiments these are **real measurements** of the
//! from-scratch classifier implementations — real training, real
//! cross-validated accuracy, real wall-clock prediction latency.

use ofc_dtree::c45::C45;
use ofc_dtree::data::{Dataset, Value};
use ofc_dtree::eval::{cross_validate, Evaluation};
use ofc_dtree::forest::{ForestParams, RandomForest};
use ofc_dtree::hoeffding::HoeffdingLearner;
use ofc_dtree::random_tree::RandomTree;
use ofc_dtree::Classifier;
use ofc_simtime::stats::Summary;
use ofc_workloads::datasets::{cache_benefit_dataset, memory_dataset};
use ofc_workloads::multimedia::PROFILES;
use serde::Serialize;
use std::time::Instant;

/// The four Table 1 algorithms.
pub const ALGORITHMS: [&str; 4] = ["HoeffdingTree", "J48", "RandomForest", "RandomTree"];

/// The three Table 1 interval sizes, in bytes.
pub const INTERVAL_SIZES: [u64; 3] = [32 << 20, 16 << 20, 8 << 20];

/// Experiment knobs (defaults keep every binary under ~1 min).
#[derive(Debug, Clone)]
pub struct MlxParams {
    /// Invocation samples generated per function.
    pub samples_per_fn: usize,
    /// Cross-validation folds.
    pub folds: usize,
    /// RandomForest ensemble size.
    pub forest_trees: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for MlxParams {
    fn default() -> Self {
        MlxParams {
            samples_per_fn: 400,
            folds: 5,
            forest_trees: 25,
            seed: 7,
        }
    }
}

/// Cross-validates `algorithm` on `ds`.
pub fn evaluate_algorithm(algorithm: &str, ds: &Dataset, params: &MlxParams) -> Evaluation {
    match algorithm {
        "J48" => cross_validate(&C45::default(), ds, params.folds, params.seed),
        "RandomTree" => cross_validate(&RandomTree::default(), ds, params.folds, params.seed),
        "RandomForest" => cross_validate(
            &RandomForest::new(ForestParams {
                n_trees: params.forest_trees,
                seed: params.seed,
                ..ForestParams::default()
            }),
            ds,
            params.folds,
            params.seed,
        ),
        "HoeffdingTree" => {
            cross_validate(&HoeffdingLearner::default(), ds, params.folds, params.seed)
        }
        other => panic!("unknown algorithm {other}"),
    }
}

/// One Table 1 row: `(interval, algorithm)` averaged over all functions.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Interval size in MB.
    pub interval_mb: u64,
    /// Algorithm name.
    pub algorithm: String,
    /// Mean exact-prediction rate (%).
    pub exact_pct: f64,
    /// Mean exact-or-over rate (%).
    pub eo_pct: f64,
}

/// Runs Table 1: accuracy of four algorithms at three interval sizes.
pub fn table1(params: &MlxParams) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for &interval in &INTERVAL_SIZES {
        for algo in ALGORITHMS {
            let mut exact = 0.0;
            let mut eo = 0.0;
            for (i, p) in PROFILES.iter().enumerate() {
                let ds = memory_dataset(
                    p,
                    params.samples_per_fn,
                    interval,
                    params.seed.wrapping_add(i as u64),
                );
                let eval = evaluate_algorithm(algo, &ds, params);
                exact += eval.accuracy();
                eo += eval.eo_rate();
            }
            let n = PROFILES.len() as f64;
            rows.push(Table1Row {
                interval_mb: interval >> 20,
                algorithm: algo.to_string(),
                exact_pct: 100.0 * exact / n,
                eo_pct: 100.0 * eo / n,
            });
        }
    }
    rows
}

/// Figure 5 output: the distribution of raw J48 prediction errors.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Result {
    /// Bucket low edges (MB difference to truth): one 16 MB interval per
    /// bucket over [−160, 160) MB.
    pub bucket_edges_mb: Vec<f64>,
    /// Per-bucket counts; errors outside the buckets are not counted.
    pub counts: Vec<u64>,
    /// Fraction of overpredictions within 3 intervals of the truth (%).
    pub over_within_3_pct: f64,
    /// Mean memory waste of overpredictions (MB).
    pub mean_over_waste_mb: f64,
    /// Exact / over / under split (%).
    pub exact_pct: f64,
    /// Overprediction share (%).
    pub over_pct: f64,
    /// Underprediction share (%).
    pub under_pct: f64,
}

/// Runs Figure 5: error distribution of J48 with 16 MB intervals, all
/// functions combined, on held-out halves.
pub fn fig5(params: &MlxParams) -> Fig5Result {
    let interval = ofc_core::ml::INTERVAL_BYTES;
    // Every error is a whole number of 16 MB intervals, so the buckets
    // count interval differences −10..10 directly.
    let mut counts = vec![0u64; 20];
    let (mut exact, mut over, mut under) = (0u64, 0u64, 0u64);
    let mut over_within3 = 0u64;
    let mut over_waste_mb = Summary::new();
    for (i, p) in PROFILES.iter().enumerate() {
        let train = memory_dataset(p, params.samples_per_fn, interval, params.seed + i as u64);
        let test = memory_dataset(
            p,
            params.samples_per_fn / 2,
            interval,
            params.seed ^ 0xDEAD ^ i as u64,
        );
        let model = C45::train(&train, &Default::default());
        for row in test.rows() {
            let pred = model.predict(&row.values);
            let truth = row.label;
            let diff = i64::from(pred) - i64::from(truth);
            if (-10..10).contains(&diff) {
                counts[(diff + 10) as usize] += 1;
            }
            match pred.cmp(&truth) {
                std::cmp::Ordering::Equal => exact += 1,
                std::cmp::Ordering::Greater => {
                    over += 1;
                    if pred - truth <= 3 {
                        over_within3 += 1;
                    }
                    over_waste_mb.record((diff * 16) as f64);
                }
                std::cmp::Ordering::Less => under += 1,
            }
        }
    }
    let total = (exact + over + under) as f64;
    Fig5Result {
        bucket_edges_mb: (0..20).map(|i| -160.0 + 16.0 * f64::from(i)).collect(),
        counts,
        over_within_3_pct: if over == 0 {
            100.0
        } else {
            100.0 * over_within3 as f64 / over as f64
        },
        mean_over_waste_mb: over_waste_mb.mean().unwrap_or(0.0),
        exact_pct: 100.0 * exact as f64 / total,
        over_pct: 100.0 * over as f64 / total,
        under_pct: 100.0 * under as f64 / total,
    }
}

/// Figure 6 output: real prediction-time distribution per interval size.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Interval size (MB).
    pub interval_mb: u64,
    /// Median prediction time (µs).
    pub median_us: f64,
    /// 99th-percentile prediction time (µs).
    pub p99_us: f64,
    /// Mean prediction time (µs).
    pub mean_us: f64,
}

/// Runs Figure 6: wall-clock J48 classification latency, measured on this
/// machine over all function models.
pub fn fig6(params: &MlxParams) -> Vec<Fig6Row> {
    INTERVAL_SIZES
        .iter()
        .map(|&interval| {
            let mut times = Summary::new();
            for (i, p) in PROFILES.iter().enumerate() {
                let ds = memory_dataset(p, params.samples_per_fn, interval, params.seed + i as u64);
                let model = C45::train(&ds, &Default::default());
                let instances: Vec<&Vec<Value>> =
                    ds.rows().iter().map(|r| &r.values).take(200).collect();
                // Warm up, then measure each prediction individually.
                for inst in &instances {
                    std::hint::black_box(model.predict(inst));
                }
                for inst in &instances {
                    let t0 = Instant::now();
                    std::hint::black_box(model.predict(inst));
                    times.record(t0.elapsed().as_nanos() as f64 / 1e3);
                }
            }
            Fig6Row {
                interval_mb: interval >> 20,
                median_us: times.median().unwrap_or(0.0),
                p99_us: times.quantile(0.99).unwrap_or(0.0),
                mean_us: times.mean().unwrap_or(0.0),
            }
        })
        .collect()
}

/// RandomForest prediction latency at 16 MB intervals (§7.1.2's contrast:
/// ~106 µs median vs J48's ~3 µs).
pub fn fig6_forest(params: &MlxParams) -> Fig6Row {
    let interval = ofc_core::ml::INTERVAL_BYTES;
    let mut times = Summary::new();
    for (i, p) in PROFILES.iter().enumerate().take(6) {
        let ds = memory_dataset(p, params.samples_per_fn, interval, params.seed + i as u64);
        let forest = ofc_dtree::forest::Forest::train(
            &ds,
            &ForestParams {
                n_trees: 50,
                seed: params.seed,
                ..ForestParams::default()
            },
        );
        for row in ds.rows().iter().take(100) {
            let t0 = Instant::now();
            std::hint::black_box(forest.predict(&row.values));
            times.record(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    Fig6Row {
        interval_mb: interval >> 20,
        median_us: times.median().unwrap_or(0.0),
        p99_us: times.quantile(0.99).unwrap_or(0.0),
        mean_us: times.mean().unwrap_or(0.0),
    }
}

/// Cache-benefit classifier metrics (§7.1.1).
#[derive(Debug, Clone, Serialize)]
pub struct BenefitRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Precision on the "beneficial" class (%).
    pub precision_pct: f64,
    /// Recall on the "beneficial" class (%).
    pub recall_pct: f64,
    /// F-measure (%).
    pub f_measure_pct: f64,
}

/// Runs the §7.1.1 cache-benefit comparison across the four algorithms.
pub fn cache_benefit(params: &MlxParams) -> Vec<BenefitRow> {
    ALGORITHMS
        .iter()
        .map(|algo| {
            let mut merged = Evaluation::new(2);
            for (i, p) in PROFILES.iter().enumerate() {
                let ds = cache_benefit_dataset(
                    p,
                    params.samples_per_fn,
                    params.seed.wrapping_add(i as u64),
                );
                // Functions whose benefit never varies are trivially
                // predicted; they still count, as in the paper's average.
                merged.merge(&evaluate_algorithm(algo, &ds, params));
            }
            BenefitRow {
                algorithm: algo.to_string(),
                precision_pct: 100.0 * merged.precision(1),
                recall_pct: 100.0 * merged.recall(1),
                f_measure_pct: 100.0 * merged.f_measure(1),
            }
        })
        .collect()
}

/// Maturation quickness (§7.1.3) across the 19 functions.
#[derive(Debug, Clone, Serialize)]
pub struct MaturationResult {
    /// Per-function invocations-to-maturity (`None` → did not mature
    /// within the cap).
    pub per_function: Vec<(String, Option<u64>)>,
    /// Median over matured functions.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Functions that matured within the minimum 100 invocations.
    pub matured_at_floor: usize,
}

/// Runs the maturation experiment: online learning per function until the
/// §5.3 maturation rule holds.
pub fn maturation(cap: usize, seed: u64) -> MaturationResult {
    use ofc_core::ml::{MlConfig, MlEngine, Observation};
    use ofc_faas::{FunctionId, TenantId};
    let mut per_function = Vec::new();
    let mut points = Summary::new();
    let mut at_floor = 0usize;
    for (i, p) in PROFILES.iter().enumerate() {
        let mut ml = MlEngine::new(MlConfig::default());
        let key = (TenantId::from("t"), FunctionId::from(p.name));
        ml.register(key, p.feature_schema());
        let stream = ofc_workloads::datasets::invocation_stream(p, cap, seed + i as u64);
        for s in stream {
            ml.observe(
                &key,
                Observation {
                    features: s.features,
                    actual_mem: s.mem_bytes,
                    el_ratio: if s.cache_benefit { 0.9 } else { 0.1 },
                },
            );
            if ml.is_mature(&key) {
                break;
            }
        }
        let matured = ml.matured_at(&key);
        if let Some(n) = matured {
            points.record(n as f64);
            if n <= 100 {
                at_floor += 1;
            }
        }
        per_function.push((p.name.to_string(), matured));
    }
    MaturationResult {
        per_function,
        median: points.median().unwrap_or(f64::NAN),
        p75: points.quantile(0.75).unwrap_or(f64::NAN),
        p95: points.quantile(0.95).unwrap_or(f64::NAN),
        matured_at_floor: at_floor,
    }
}

/// Figure 2 data: memory vs byte size and vs sigma for `wand_blur`.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Point {
    /// Input byte size (MB).
    pub input_mb: f64,
    /// Blur sigma.
    pub sigma: f64,
    /// Memory used (MB).
    pub mem_mb: f64,
}

/// Samples the Figure 2 scatter.
pub fn fig2(n: usize, seed: u64) -> Vec<Fig2Point> {
    use ofc_workloads::datasets::sample_media;
    use rand::Rng;
    use rand::SeedableRng;
    let p = ofc_workloads::multimedia::profile("wand_blur").expect("known profile");
    let spec = p.arg.expect("wand_blur has sigma");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let meta = sample_media(p, &mut rng);
            let sigma = rng.gen_range(spec.lo..spec.hi);
            let mem = p.memory(&meta, Some(sigma), seed + i as u64);
            Fig2Point {
                input_mb: meta.bytes as f64 / (1 << 20) as f64,
                sigma,
                mem_mb: mem as f64 / (1 << 20) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> MlxParams {
        MlxParams {
            samples_per_fn: 120,
            folds: 3,
            forest_trees: 5,
            seed: 1,
        }
    }

    #[test]
    fn table1_preserves_paper_ordering() {
        // Shape checks at reduced scale: J48 & RandomForest lead, accuracy
        // drops as intervals narrow, EO >= exact.
        let params = quick();
        let rows = table1(&params);
        assert_eq!(rows.len(), 12);
        let get = |mb: u64, algo: &str| {
            rows.iter()
                .find(|r| r.interval_mb == mb && r.algorithm == algo)
                .unwrap()
        };
        for row in &rows {
            assert!(row.eo_pct >= row.exact_pct - 1e-9, "{row:?}");
        }
        // Coarser intervals are easier.
        assert!(get(32, "J48").exact_pct > get(8, "J48").exact_pct);
        // J48 beats HoeffdingTree at every size (the paper's ranking).
        for mb in [32, 16, 8] {
            assert!(
                get(mb, "J48").exact_pct > get(mb, "HoeffdingTree").exact_pct,
                "J48 must beat HoeffdingTree at {mb} MB"
            );
        }
    }

    #[test]
    fn fig5_overpredictions_cluster_near_truth() {
        let r = fig5(&quick());
        assert!(r.exact_pct > 50.0, "exact {:.1}%", r.exact_pct);
        assert!(
            r.over_within_3_pct > 60.0,
            "within3 {:.1}%",
            r.over_within_3_pct
        );
        assert_eq!(r.counts.len(), r.bucket_edges_mb.len());
        assert!((r.exact_pct + r.over_pct + r.under_pct - 100.0).abs() < 1e-6);
    }

    #[test]
    fn fig6_predictions_are_microseconds() {
        let params = MlxParams {
            samples_per_fn: 80,
            ..quick()
        };
        let rows = fig6(&params);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.median_us < 1000.0,
                "median {} µs is not µs-scale",
                r.median_us
            );
            assert!(r.median_us > 0.0);
        }
    }

    #[test]
    fn cache_benefit_j48_scores_high() {
        let rows = cache_benefit(&quick());
        let j48 = rows.iter().find(|r| r.algorithm == "J48").unwrap();
        assert!(
            j48.precision_pct > 85.0,
            "precision {:.1}",
            j48.precision_pct
        );
        assert!(j48.recall_pct > 85.0, "recall {:.1}", j48.recall_pct);
    }

    #[test]
    fn fig2_scatter_has_paper_properties() {
        let pts = fig2(200, 3);
        assert_eq!(pts.len(), 200);
        let max_mem = pts.iter().map(|p| p.mem_mb).fold(0.0, f64::max);
        let min_mem = pts.iter().map(|p| p.mem_mb).fold(f64::MAX, f64::min);
        // Wide memory spread (tens of MB to hundreds), as in Figure 2.
        assert!(max_mem > 300.0, "max {max_mem:.0} MB");
        assert!(min_mem < 100.0, "min {min_mem:.0} MB");
    }
}
