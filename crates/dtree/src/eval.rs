//! Classifier evaluation: confusion matrices, stratified k-fold
//! cross-validation, and the ordered-class metrics the paper reports.
//!
//! Table 1 reports *exact* and *exact-or-over* (EO) prediction rates — the
//! latter only makes sense for ordinal classes (memory intervals ordered by
//! size), so [`Evaluation`] exposes both the usual nominal metrics
//! (precision / recall / F-measure, §7.1.1) and the ordinal ones
//! (EO rate, underprediction margins, §5.3 maturation rule).

use crate::data::Dataset;
use crate::{Classifier, Learner};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated predicted-vs-true outcomes.
#[derive(Debug, Clone)]
pub struct Evaluation {
    n_classes: usize,
    /// `matrix[truth][predicted]` counts.
    matrix: Vec<Vec<u64>>,
}

impl Evaluation {
    /// Creates an empty evaluation over `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        Evaluation {
            n_classes,
            matrix: vec![vec![0; n_classes]; n_classes],
        }
    }

    /// Records one prediction.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: u32, predicted: u32) {
        self.matrix[truth as usize][predicted as usize] += 1;
    }

    /// Total predictions recorded.
    pub fn total(&self) -> u64 {
        self.matrix.iter().flatten().sum()
    }

    /// The raw `matrix[truth][predicted]` counts.
    pub fn matrix(&self) -> &[Vec<u64>] {
        &self.matrix
    }

    /// Fraction of exact predictions.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n_classes).map(|i| self.matrix[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Fraction of *exact-or-over* predictions (`predicted >= truth`),
    /// meaningful for ordinal classes such as memory intervals.
    pub fn eo_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let eo: u64 = self
            .matrix
            .iter()
            .enumerate()
            .map(|(t, row)| row[t..].iter().sum::<u64>())
            .sum();
        eo as f64 / total as f64
    }

    /// Fraction of underpredictions (`predicted < truth`).
    pub fn under_rate(&self) -> f64 {
        1.0 - self.eo_rate()
    }

    /// Among underpredictions, the fraction within one interval of the truth
    /// (`predicted == truth - 1`). Returns 1.0 when there are none.
    pub fn under_within_one(&self) -> f64 {
        let mut under = 0u64;
        let mut within = 0u64;
        for (t, row) in self.matrix.iter().enumerate() {
            for (p, &c) in row.iter().enumerate() {
                if p < t {
                    under += c;
                    if p + 1 == t {
                        within += c;
                    }
                }
            }
        }
        if under == 0 {
            1.0
        } else {
            within as f64 / under as f64
        }
    }

    /// Fraction of overpredictions within `k` intervals
    /// (`truth < predicted <= truth + k`), out of all overpredictions.
    /// Returns 1.0 when there are none.
    pub fn over_within(&self, k: usize) -> f64 {
        let mut over = 0u64;
        let mut within = 0u64;
        for (t, row) in self.matrix.iter().enumerate() {
            for (p, &c) in row.iter().enumerate() {
                if p > t {
                    over += c;
                    if p - t <= k {
                        within += c;
                    }
                }
            }
        }
        if over == 0 {
            1.0
        } else {
            within as f64 / over as f64
        }
    }

    /// Precision of class `c`: `tp / (tp + fp)`, or 0 when never predicted.
    pub fn precision(&self, c: u32) -> f64 {
        let c = c as usize;
        let tp = self.matrix[c][c];
        let predicted: u64 = (0..self.n_classes).map(|t| self.matrix[t][c]).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall of class `c`: `tp / (tp + fn)`, or 0 when the class is absent.
    pub fn recall(&self, c: u32) -> f64 {
        let c = c as usize;
        let tp = self.matrix[c][c];
        let actual: u64 = self.matrix[c].iter().sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F-measure (harmonic mean of precision and recall) of class `c`.
    pub fn f_measure(&self, c: u32) -> f64 {
        let p = self.precision(c);
        let r = self.recall(c);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another evaluation (e.g., across CV folds).
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    pub fn merge(&mut self, other: &Evaluation) {
        assert_eq!(self.n_classes, other.n_classes, "class count mismatch");
        for (a, b) in self.matrix.iter_mut().zip(&other.matrix) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

/// Evaluates `model` on every row of `data`.
pub fn evaluate_on<C: Classifier>(model: &C, data: &Dataset) -> Evaluation {
    let mut eval = Evaluation::new(data.n_classes());
    for row in data.rows() {
        eval.record(row.label, model.predict(&row.values));
    }
    eval
}

/// Stratified `k`-fold cross-validation of `learner` on `data`.
///
/// Instances are shuffled deterministically by `seed`, stratified by class so
/// each fold sees the full label distribution (matching Weka's CV used in
/// §7.1), then each fold is held out once.
///
/// # Panics
///
/// Panics if `k < 2` or `data` has fewer rows than folds.
pub fn cross_validate<L: Learner>(learner: &L, data: &Dataset, k: usize, seed: u64) -> Evaluation {
    assert!(k >= 2, "need at least 2 folds");
    assert!(data.len() >= k, "fewer instances than folds");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Stratify: shuffle within each class, then deal round-robin into folds.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); data.n_classes()];
    for (i, row) in data.rows().iter().enumerate() {
        by_class[row.label as usize].push(i);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut next = 0usize;
    for class_rows in &mut by_class {
        class_rows.shuffle(&mut rng);
        for &i in class_rows.iter() {
            folds[next % k].push(i);
            next += 1;
        }
    }

    let mut total = Evaluation::new(data.n_classes());
    for held_out in 0..k {
        let test_idx = &folds[held_out];
        if test_idx.is_empty() {
            continue;
        }
        let train_idx: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|&(f, _)| f != held_out)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let model = learner.fit(&data.subset(&train_idx));
        let test = data.subset(test_idx);
        total.merge(&evaluate_on(&model, &test));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c45::C45;
    use crate::data::Value;
    use rand::Rng;

    #[test]
    fn accuracy_and_eo_from_matrix() {
        let mut e = Evaluation::new(3);
        // truth 0: 2 exact, 1 over(→2); truth 2: 1 under(→1), 1 exact.
        e.record(0, 0);
        e.record(0, 0);
        e.record(0, 2);
        e.record(2, 1);
        e.record(2, 2);
        assert_eq!(e.total(), 5);
        assert!((e.accuracy() - 0.6).abs() < 1e-12);
        assert!((e.eo_rate() - 0.8).abs() < 1e-12);
        assert!((e.under_rate() - 0.2).abs() < 1e-12);
        assert!((e.under_within_one() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn under_within_one_counts_margins() {
        let mut e = Evaluation::new(4);
        e.record(3, 2); // within one
        e.record(3, 0); // three off
        assert!((e.under_within_one() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn over_within_counts_margins() {
        let mut e = Evaluation::new(8);
        e.record(0, 1); // +1
        e.record(0, 3); // +3
        e.record(0, 7); // +7
        assert!((e.over_within(3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.over_within(7), 1.0);
    }

    #[test]
    fn precision_recall_f_measure() {
        let mut e = Evaluation::new(2);
        // Class 1: tp=3, fp=1, fn=2.
        for _ in 0..3 {
            e.record(1, 1);
        }
        e.record(0, 1);
        e.record(1, 0);
        e.record(1, 0);
        e.record(0, 0);
        assert!((e.precision(1) - 0.75).abs() < 1e-12);
        assert!((e.recall(1) - 0.6).abs() < 1e-12);
        let f = 2.0 * 0.75 * 0.6 / (0.75 + 0.6);
        assert!((e.f_measure(1) - f).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluation_is_zero() {
        let e = Evaluation::new(2);
        assert_eq!(e.accuracy(), 0.0);
        assert_eq!(e.precision(0), 0.0);
        assert_eq!(e.recall(0), 0.0);
        assert_eq!(e.f_measure(0), 0.0);
        assert_eq!(e.under_within_one(), 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Evaluation::new(2);
        a.record(0, 0);
        let mut b = Evaluation::new(2);
        b.record(1, 0);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert!((a.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_validation_learns_separable_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["lo", "hi"])
            .build();
        for _ in 0..300 {
            let x: f64 = rng.gen_range(0.0..100.0);
            ds.push(vec![Value::Num(x)], u32::from(x > 50.0));
        }
        let eval = cross_validate(&C45::default(), &ds, 10, 1);
        assert_eq!(eval.total(), 300);
        assert!(eval.accuracy() > 0.95, "CV accuracy {}", eval.accuracy());
    }

    #[test]
    fn cross_validation_deterministic_per_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b"])
            .build();
        for _ in 0..100 {
            let x: f64 = rng.gen_range(0.0..1.0);
            ds.push(vec![Value::Num(x)], u32::from(rng.gen::<bool>()));
        }
        let a = cross_validate(&C45::default(), &ds, 5, 7).accuracy();
        let b = cross_validate(&C45::default(), &ds, 5, 7).accuracy();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn cv_rejects_single_fold() {
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b"])
            .build();
        ds.push(vec![Value::Num(0.0)], 0);
        ds.push(vec![Value::Num(1.0)], 1);
        let _ = cross_validate(&C45::default(), &ds, 1, 0);
    }
}
