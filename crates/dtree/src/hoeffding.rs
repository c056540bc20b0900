//! Hoeffding tree (VFDT) — the incremental streaming learner of the Table 1
//! comparison.
//!
//! A Hoeffding tree learns one instance at a time: leaves accumulate
//! sufficient statistics (class counts, per-class Gaussian estimators for
//! numeric attributes, value×class counts for nominal ones) and convert to
//! splits once the Hoeffding bound
//! `ε = sqrt(R² ln(1/δ) / 2n)` guarantees the observed best attribute is the
//! true best with probability `1 − δ`. Because splits are frozen on partial
//! evidence, its batch accuracy trails C4.5 — the paper observes the same
//! ranking (Table 1, HoeffdingTree lowest).

use crate::data::{AttrKind, Dataset, Value};
use crate::{Classifier, Learner};

/// Instances a leaf absorbs between split attempts. Weka's default is 200.
pub const GRACE_PERIOD: usize = 50;

/// Split confidence δ, the probability the chosen attribute is wrong.
/// Weka's default is 1e-7.
pub const DELTA: f64 = 1e-4;

/// Tie-break threshold τ: split anyway when ε drops below it (Weka's
/// default).
pub const TAU: f64 = 0.05;

/// Candidate thresholds evaluated per numeric attribute.
pub const N_CANDIDATES: usize = 10;

/// Welford-style Gaussian estimator for one (attribute, class) pair.
#[derive(Debug, Clone, Default)]
struct Gaussian {
    weight: f64,
    mean: f64,
    m2: f64,
}

impl Gaussian {
    fn update(&mut self, v: f64, w: f64) {
        self.weight += w;
        let delta = v - self.mean;
        self.mean += w * delta / self.weight;
        self.m2 += w * delta * (v - self.mean);
    }

    fn std_dev(&self) -> f64 {
        if self.weight <= 1.0 {
            0.0
        } else {
            (self.m2 / self.weight).max(0.0).sqrt()
        }
    }

    /// Weight expected at or below `x` under the fitted normal.
    fn weight_below(&self, x: f64) -> f64 {
        if self.weight == 0.0 {
            return 0.0;
        }
        let sd = self.std_dev();
        if sd <= f64::EPSILON {
            return if x >= self.mean { self.weight } else { 0.0 };
        }
        self.weight * normal_cdf((x - self.mean) / sd)
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, |error| <= 1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Per-attribute sufficient statistics at a leaf.
#[derive(Debug, Clone)]
enum AttrStats {
    Numeric {
        per_class: Vec<Gaussian>,
        min: f64,
        max: f64,
    },
    Nominal {
        /// `counts[value][class]` weights.
        counts: Vec<Vec<f64>>,
    },
}

#[derive(Debug, Clone)]
struct LeafStats {
    class_counts: Vec<f64>,
    attrs: Vec<AttrStats>,
    seen_since_check: usize,
    total_seen: f64,
}

impl LeafStats {
    fn new(attr_kinds: &[AttrKind], n_classes: usize) -> Self {
        LeafStats {
            class_counts: vec![0.0; n_classes],
            attrs: attr_kinds
                .iter()
                .map(|k| match k {
                    AttrKind::Numeric => AttrStats::Numeric {
                        per_class: vec![Gaussian::default(); n_classes],
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                    },
                    AttrKind::Nominal(vals) => AttrStats::Nominal {
                        counts: vec![vec![0.0; n_classes]; vals.len()],
                    },
                })
                .collect(),
            seen_since_check: 0,
            total_seen: 0.0,
        }
    }

    fn learn(&mut self, values: &[Value], label: u32, weight: f64) {
        self.class_counts[label as usize] += weight;
        self.total_seen += weight;
        self.seen_since_check += 1;
        for (stat, v) in self.attrs.iter_mut().zip(values) {
            match (stat, *v) {
                (
                    AttrStats::Numeric {
                        per_class,
                        min,
                        max,
                    },
                    Value::Num(x),
                ) => {
                    per_class[label as usize].update(x, weight);
                    *min = min.min(x);
                    *max = max.max(x);
                }
                (AttrStats::Nominal { counts }, Value::Nom(i)) => {
                    counts[i as usize][label as usize] += weight;
                }
                _ => panic!("value kind mismatch"),
            }
        }
    }

    /// Best achievable info gain for `attr`, with the numeric threshold.
    fn attr_gain(&self, attr: usize) -> Option<(f64, Option<f64>)> {
        let base = crate::c45::entropy(&self.class_counts);
        let total: f64 = self.class_counts.iter().sum();
        if total <= 0.0 {
            return None;
        }
        match &self.attrs[attr] {
            AttrStats::Nominal { counts } => {
                let mut cond = 0.0;
                let mut covered = 0.0;
                for value_dist in counts {
                    let w: f64 = value_dist.iter().sum();
                    if w > 0.0 {
                        cond += (w / total) * crate::c45::entropy(value_dist);
                        covered += w;
                    }
                }
                if covered <= 0.0 {
                    return None;
                }
                Some((base - cond, None))
            }
            AttrStats::Numeric {
                per_class,
                min,
                max,
            } => {
                if !min.is_finite() || *max <= *min {
                    return None;
                }
                let mut best: Option<(f64, f64)> = None;
                for c in 1..=N_CANDIDATES {
                    let x = min + (max - min) * c as f64 / (N_CANDIDATES + 1) as f64;
                    let mut left = vec![0.0; self.class_counts.len()];
                    for (cls, g) in per_class.iter().enumerate() {
                        left[cls] = g.weight_below(x);
                    }
                    let right: Vec<f64> = self
                        .class_counts
                        .iter()
                        .zip(&left)
                        .map(|(t, l)| (t - l).max(0.0))
                        .collect();
                    let lw: f64 = left.iter().sum();
                    let rw: f64 = right.iter().sum();
                    if lw <= 0.0 || rw <= 0.0 {
                        continue;
                    }
                    let cond = (lw / total) * crate::c45::entropy(&left)
                        + (rw / total) * crate::c45::entropy(&right);
                    let gain = base - cond;
                    if best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, x));
                    }
                }
                best.map(|(g, x)| (g, Some(x)))
            }
        }
    }
}

#[derive(Debug, Clone)]
enum HNode {
    Leaf(LeafStats),
    SplitNum {
        attr: usize,
        threshold: f64,
        dist: Vec<f64>,
        le: Box<HNode>,
        gt: Box<HNode>,
    },
    SplitNom {
        attr: usize,
        dist: Vec<f64>,
        children: Vec<HNode>,
    },
}

impl HNode {
    fn dist(&self) -> &[f64] {
        match self {
            HNode::Leaf(stats) => &stats.class_counts,
            HNode::SplitNum { dist, .. } => dist,
            HNode::SplitNom { dist, .. } => dist,
        }
    }

    fn n_leaves(&self) -> usize {
        match self {
            HNode::Leaf(_) => 1,
            HNode::SplitNum { le, gt, .. } => le.n_leaves() + gt.n_leaves(),
            HNode::SplitNom { children, .. } => children.iter().map(HNode::n_leaves).sum(),
        }
    }
}

/// An incrementally trained Hoeffding tree.
#[derive(Debug, Clone)]
pub struct HoeffdingTree {
    root: HNode,
    attr_kinds: Vec<AttrKind>,
    n_classes: usize,
    instances_seen: u64,
}

impl HoeffdingTree {
    /// Creates an empty tree for the given schema.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes < 2` or the schema is empty.
    pub fn new(attr_kinds: Vec<AttrKind>, n_classes: usize) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        assert!(!attr_kinds.is_empty(), "need at least one attribute");
        HoeffdingTree {
            root: HNode::Leaf(LeafStats::new(&attr_kinds, n_classes)),
            attr_kinds,
            n_classes,
            instances_seen: 0,
        }
    }

    /// Creates an empty tree matching a dataset's schema.
    pub fn for_dataset(data: &Dataset) -> Self {
        HoeffdingTree::new(
            data.attrs().iter().map(|a| a.kind.clone()).collect(),
            data.n_classes(),
        )
    }

    /// Number of instances absorbed so far.
    pub fn instances_seen(&self) -> u64 {
        self.instances_seen
    }

    /// Number of leaves in the current tree.
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }

    /// Absorbs one labelled instance.
    pub fn learn(&mut self, values: &[Value], label: u32) {
        self.learn_weighted(values, label, 1.0);
    }

    /// Absorbs one weighted labelled instance.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or a value is not of its
    /// attribute's kind.
    pub fn learn_weighted(&mut self, values: &[Value], label: u32, weight: f64) {
        assert!((label as usize) < self.n_classes, "label out of range");
        self.instances_seen += 1;
        Self::descend(
            &mut self.root,
            values,
            label,
            weight,
            &self.attr_kinds,
            self.n_classes,
        );
    }

    fn descend(
        node: &mut HNode,
        values: &[Value],
        label: u32,
        weight: f64,
        attr_kinds: &[AttrKind],
        n_classes: usize,
    ) {
        match node {
            HNode::Leaf(stats) => {
                stats.learn(values, label, weight);
                if stats.seen_since_check >= GRACE_PERIOD {
                    stats.seen_since_check = 0;
                    if let Some(split) = Self::try_split(stats, attr_kinds, n_classes) {
                        *node = split;
                    }
                }
            }
            HNode::SplitNum {
                attr,
                threshold,
                dist,
                le,
                gt,
            } => {
                dist[label as usize] += weight;
                let branch = match values[*attr] {
                    Value::Num(v) if v <= *threshold => le,
                    Value::Num(_) => gt,
                    Value::Nom(_) => panic!("value kind mismatch for attribute {attr}"),
                };
                Self::descend(branch, values, label, weight, attr_kinds, n_classes);
            }
            HNode::SplitNom {
                attr,
                dist,
                children,
            } => {
                dist[label as usize] += weight;
                let Value::Nom(v) = values[*attr] else {
                    panic!("value kind mismatch for attribute {attr}")
                };
                Self::descend(
                    &mut children[v as usize],
                    values,
                    label,
                    weight,
                    attr_kinds,
                    n_classes,
                );
            }
        }
    }

    fn try_split(stats: &LeafStats, attr_kinds: &[AttrKind], n_classes: usize) -> Option<HNode> {
        // Pure leaves never split.
        if stats.class_counts.iter().filter(|&&w| w > 0.0).count() <= 1 {
            return None;
        }
        let mut gains: Vec<(f64, usize, Option<f64>)> = (0..attr_kinds.len())
            .filter_map(|a| stats.attr_gain(a).map(|(g, thr)| (g, a, thr)))
            .collect();
        gains.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite gains"));
        let (best_gain, attr, threshold) = *gains.first()?;
        let second_gain = gains.get(1).map_or(0.0, |g| g.0);

        let range = (n_classes as f64).log2();
        let n = stats.total_seen;
        let epsilon = (range * range * (1.0 / DELTA).ln() / (2.0 * n)).sqrt();
        if best_gain <= 0.0 || (best_gain - second_gain <= epsilon && epsilon >= TAU) {
            return None;
        }

        let dist = stats.class_counts.clone();
        Some(match (&attr_kinds[attr], threshold) {
            (AttrKind::Numeric, Some(thr)) => {
                // Seed each branch's class priors from the Gaussian estimate
                // so predictions in fresh leaves are sensible immediately.
                let mut le_prior = vec![0.0; n_classes];
                let mut gt_prior = vec![0.0; n_classes];
                if let AttrStats::Numeric { per_class, .. } = &stats.attrs[attr] {
                    for (cls, g) in per_class.iter().enumerate() {
                        let below = g.weight_below(thr);
                        le_prior[cls] = below;
                        gt_prior[cls] = (g.weight - below).max(0.0);
                    }
                }
                let mut le = LeafStats::new(attr_kinds, n_classes);
                le.class_counts = le_prior;
                let mut gt = LeafStats::new(attr_kinds, n_classes);
                gt.class_counts = gt_prior;
                HNode::SplitNum {
                    attr,
                    threshold: thr,
                    dist,
                    le: Box::new(HNode::Leaf(le)),
                    gt: Box::new(HNode::Leaf(gt)),
                }
            }
            (AttrKind::Nominal(vals), _) => {
                let children = (0..vals.len())
                    .map(|v| {
                        let mut leaf = LeafStats::new(attr_kinds, n_classes);
                        if let AttrStats::Nominal { counts } = &stats.attrs[attr] {
                            leaf.class_counts = counts[v].clone();
                        }
                        HNode::Leaf(leaf)
                    })
                    .collect();
                HNode::SplitNom {
                    attr,
                    dist,
                    children,
                }
            }
            (AttrKind::Numeric, None) => return None,
        })
    }

    fn classify<'a>(&'a self, node: &'a HNode, values: &[Value]) -> &'a [f64] {
        match node {
            HNode::Leaf(stats) => &stats.class_counts,
            HNode::SplitNum {
                attr,
                threshold,
                le,
                gt,
                ..
            } => {
                let child = match values[*attr] {
                    Value::Num(v) if v <= *threshold => le,
                    Value::Num(_) => gt,
                    Value::Nom(_) => panic!("value kind mismatch for attribute {attr}"),
                };
                let d = self.classify(child, values);
                if d.iter().sum::<f64>() > 0.0 {
                    d
                } else {
                    node.dist()
                }
            }
            HNode::SplitNom { attr, children, .. } => {
                let Value::Nom(v) = values[*attr] else {
                    panic!("value kind mismatch for attribute {attr}")
                };
                let d = self.classify(&children[v as usize], values);
                if d.iter().sum::<f64>() > 0.0 {
                    d
                } else {
                    node.dist()
                }
            }
        }
    }
}

impl Classifier for HoeffdingTree {
    fn predict(&self, instance: &[Value]) -> u32 {
        crate::data::majority(self.classify(&self.root, instance))
    }

    fn distribution(&self, instance: &[Value]) -> Vec<f64> {
        let d = self.classify(&self.root, instance);
        let total: f64 = d.iter().sum();
        if total <= 0.0 {
            vec![1.0 / self.n_classes as f64; self.n_classes]
        } else {
            d.iter().map(|w| w / total).collect()
        }
    }
}

/// Batch adapter: streams the dataset once through a fresh Hoeffding tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoeffdingLearner;

impl Learner for HoeffdingLearner {
    type Model = HoeffdingTree;

    fn fit(&self, data: &Dataset) -> HoeffdingTree {
        let mut tree = HoeffdingTree::for_dataset(data);
        for row in data.rows() {
            tree.learn_weighted(&row.values, row.label, row.weight);
        }
        tree
    }

    fn name(&self) -> &'static str {
        "HoeffdingTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn erf_and_cdf_sane() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-5);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn gaussian_estimator_tracks_moments() {
        let mut g = Gaussian::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            g.update(v, 1.0);
        }
        assert!((g.mean - 5.0).abs() < 1e-9);
        assert!((g.std_dev() - 2.0).abs() < 1e-9);
        assert!((g.weight_below(5.0) - 4.0).abs() < 0.5);
    }

    #[test]
    fn learns_numeric_threshold_from_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut tree = HoeffdingTree::new(vec![AttrKind::Numeric], 2);
        for _ in 0..2000 {
            let x: f64 = rng.gen_range(0.0..100.0);
            tree.learn(&[Value::Num(x)], u32::from(x > 50.0));
        }
        assert!(tree.n_leaves() > 1, "never split");
        let mut correct = 0;
        for i in 0..100 {
            let x = i as f64 + 0.5;
            if tree.predict(&[Value::Num(x)]) == u32::from(x > 50.0) {
                correct += 1;
            }
        }
        assert!(correct >= 90, "stream accuracy too low: {correct}/100");
    }

    #[test]
    fn learns_nominal_split_from_stream() {
        let kinds = vec![AttrKind::Nominal(vec!["a".into(), "b".into(), "c".into()])];
        let mut tree = HoeffdingTree::new(kinds, 2);
        for _ in 0..300 {
            tree.learn(&[Value::Nom(0)], 0);
            tree.learn(&[Value::Nom(1)], 1);
            tree.learn(&[Value::Nom(2)], 1);
        }
        assert_eq!(tree.predict(&[Value::Nom(0)]), 0);
        assert_eq!(tree.predict(&[Value::Nom(1)]), 1);
    }

    #[test]
    fn pure_stream_never_splits() {
        let mut tree = HoeffdingTree::new(vec![AttrKind::Numeric], 2);
        for i in 0..1000 {
            tree.learn(&[Value::Num(i as f64)], 0);
        }
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[Value::Num(5.0)]), 0);
    }

    #[test]
    fn batch_learner_matches_streaming() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["lo", "hi"])
            .build();
        for _ in 0..1500 {
            let x: f64 = rng.gen_range(0.0..10.0);
            ds.push(vec![Value::Num(x)], u32::from(x > 5.0));
        }
        let model = HoeffdingLearner.fit(&ds);
        assert_eq!(model.predict(&[Value::Num(1.0)]), 0);
        assert_eq!(model.predict(&[Value::Num(9.0)]), 1);
        assert_eq!(model.instances_seen(), 1500);
    }

    #[test]
    fn distribution_normalized() {
        let mut tree = HoeffdingTree::new(vec![AttrKind::Numeric], 2);
        tree.learn(&[Value::Num(1.0)], 0);
        tree.learn(&[Value::Num(2.0)], 1);
        let d = tree.distribution(&[Value::Num(1.5)]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
