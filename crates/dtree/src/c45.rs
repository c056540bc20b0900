//! C4.5 decision-tree induction — the algorithm behind Weka's J48, which OFC
//! selects for both of its predictors (§5.1.1).
//!
//! The implementation follows Quinlan's C4.5:
//!
//! * split selection by **gain ratio**, restricted to attributes whose
//!   information gain is at least the average positive gain,
//! * binary threshold splits on numeric attributes with the MDL penalty
//!   `log2(candidates) / N` on the gain,
//! * multiway splits on nominal attributes,
//! * instance weights throughout (OFC overweights underprediction samples
//!   during retraining, §5.3.3),
//! * **pessimistic error pruning** (subtree replacement) using the upper
//!   confidence bound of the binomial at the classic 0.25 confidence level.
//!
//! Missing values are routed to the heavier branch during both partitioning
//! and classification (a simplification of C4.5's fractional instances that
//! is exact for the OFC workloads, whose feature extractors rarely miss).

use crate::data::{AttrKind, Dataset};
use crate::tree::{DecisionTree, Node};
use crate::Learner;

/// Tunables of the C4.5 learner.
#[derive(Debug, Clone)]
pub struct C45Params {
    /// Minimum total instance weight per leaf (J48 default: 2).
    pub min_leaf: f64,
    /// Confidence level for pessimistic-error pruning (J48 default: 0.25).
    pub confidence: f64,
    /// Whether to run the pruning pass.
    pub prune: bool,
    /// Optional hard depth cap (none by default).
    pub max_depth: Option<usize>,
}

impl Default for C45Params {
    fn default() -> Self {
        C45Params {
            min_leaf: 2.0,
            confidence: 0.25,
            prune: true,
            max_depth: None,
        }
    }
}

/// The C4.5 learner (J48). See the module docs for the algorithm outline.
#[derive(Debug, Clone, Default)]
pub struct C45 {
    params: C45Params,
}

impl C45 {
    /// Creates a learner with the given parameters.
    pub fn new(params: C45Params) -> Self {
        C45 { params }
    }

    /// Trains a tree on `data` with `params`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(data: &Dataset, params: &C45Params) -> DecisionTree {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        // A training set with no missing value is gathered into columns
        // and grown in place ([`Grower`]): the same candidates, operands
        // and operation order as [`grow`], so the tree is bit-identical.
        // Missing values reorder partitions (they append to the heavier
        // branch), so any of them sends the fit down the general path.
        let mut root = match Columns::gather(data) {
            Some(cols) => grow_columnar(&cols, params),
            None => {
                let idx: Vec<usize> = (0..data.len()).collect();
                grow(data, &idx, params, 0)
            }
        };
        if params.prune {
            prune(&mut root, zscore_upper(params.confidence));
        }
        DecisionTree::new(root, data.n_classes())
    }
}

impl Learner for C45 {
    type Model = DecisionTree;

    fn fit(&self, data: &Dataset) -> DecisionTree {
        C45::train(data, &self.params)
    }

    fn name(&self) -> &'static str {
        "J48"
    }
}

/// Largest integer weight total the memoized log tables will grow to
/// (beyond this the threshold scan falls back to per-candidate
/// [`entropy`] calls). 2^21 entries × two tables × 8 B caps the
/// thread-local arena at 32 MiB, far above any training set here.
const LOG_TABLE_CAP: usize = 1 << 21;

/// Memoized `log2(k)` and `k·log2(k)` over integer weights.
///
/// When every sample weight is a small non-negative integer (the common
/// case: the cache's ML plane weights samples 1.0 or 5.0), every class
/// mass, branch mass, and node total in the threshold scan is an exact
/// integer too, so `H(dist) = log2(T) − Σ w·log2(w) / T` can be evaluated
/// with two table lookups instead of one `log2` call per non-zero class
/// per candidate. The tables are universal (independent of the node
/// total), so they persist thread-locally across trainings and only ever
/// grow.
struct LogTables {
    /// `log2k[k] = log2(k)`, with `log2k[0] = 0.0` (unused: masses of
    /// zero contribute nothing).
    log2k: Vec<f64>,
    /// `wlog[k] = k·log2(k)`, with the `0·log2(0) = 0` limit at 0.
    wlog: Vec<f64>,
}

impl LogTables {
    fn ensure(&mut self, max: usize) {
        for k in self.log2k.len()..=max {
            let l = if k == 0 { 0.0 } else { (k as f64).log2() };
            self.log2k.push(l);
            self.wlog.push(k as f64 * l);
        }
    }
}

thread_local! {
    static LOG_TABLES: std::cell::RefCell<LogTables> = const {
        std::cell::RefCell::new(LogTables { log2k: Vec::new(), wlog: Vec::new() })
    };
}

/// Weighted Shannon entropy of a class distribution.
pub(crate) fn entropy(dist: &[f64]) -> f64 {
    let total: f64 = dist.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    dist.iter()
        .filter(|&&w| w > 0.0)
        .map(|&w| {
            let p = w / total;
            -p * p.log2()
        })
        .sum()
}

/// Class distribution of the rows selected by `idx`.
fn distribution(data: &Dataset, idx: &[usize]) -> Vec<f64> {
    let mut dist = vec![0.0; data.n_classes()];
    for &i in idx {
        let r = &data.rows()[i];
        dist[r.label as usize] += r.weight;
    }
    dist
}

/// A candidate split found by the search.
#[derive(Clone, Copy)]
pub(crate) enum Split {
    /// Numeric binary split.
    Num {
        /// Attribute index.
        attr: usize,
        /// Threshold (`<=` goes left).
        threshold: f64,
        /// Gain ratio achieved.
        gain_ratio: f64,
        /// Raw information gain (pre split-info).
        gain: f64,
    },
    /// Nominal multiway split.
    Nom {
        /// Attribute index.
        attr: usize,
        /// Gain ratio achieved.
        gain_ratio: f64,
        /// Raw information gain.
        gain: f64,
    },
}

impl Split {
    pub(crate) fn gain(&self) -> f64 {
        match self {
            Split::Num { gain, .. } | Split::Nom { gain, .. } => *gain,
        }
    }

    pub(crate) fn gain_ratio(&self) -> f64 {
        match self {
            Split::Num { gain_ratio, .. } | Split::Nom { gain_ratio, .. } => *gain_ratio,
        }
    }
}

/// Evaluates the best split of `attr` over the rows in `idx`.
pub(crate) fn evaluate_attr(
    data: &Dataset,
    idx: &[usize],
    attr: usize,
    base_entropy: f64,
    min_leaf: f64,
) -> Option<Split> {
    match &data.attrs()[attr].kind {
        AttrKind::Numeric => evaluate_numeric(data, idx, attr, base_entropy, min_leaf),
        AttrKind::Nominal(values) => {
            evaluate_nominal(data, idx, attr, values.len(), base_entropy, min_leaf)
        }
    }
}

fn evaluate_numeric(
    data: &Dataset,
    idx: &[usize],
    attr: usize,
    base_entropy: f64,
    min_leaf: f64,
) -> Option<Split> {
    let n_classes = data.n_classes();
    // Gather non-missing (value, label, weight) triples sorted by value.
    let mut points: Vec<(f64, u32, f64)> = idx
        .iter()
        .filter_map(|&i| {
            let r = &data.rows()[i];
            r.values[attr].as_num().map(|v| (v, r.label, r.weight))
        })
        .collect();
    if points.len() < 2 {
        return None;
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
    scan_points(&points, n_classes, attr, base_entropy, min_leaf)
}

/// What a threshold scan keeps of its best candidate: enough to rebuild
/// the threshold and the split information of the winner alone.
#[derive(Clone, Copy)]
struct Cut {
    /// Information gain, before the MDL correction.
    gain: f64,
    /// The distinct values the threshold falls between.
    below: f64,
    above: f64,
    /// Mass at or below the threshold.
    left_w: f64,
}

impl Cut {
    /// Keeps the first candidate of the largest gain, as the scans always
    /// have.
    fn offer(best: &mut Option<Cut>, cut: Cut) {
        if best.is_none_or(|b| cut.gain > b.gain) {
            *best = Some(cut);
        }
    }

    /// The split this cut makes of a node of mass `total_w` that offered
    /// `candidates` thresholds, after C4.5's MDL correction for choosing
    /// among them.
    fn into_split(
        self,
        attr: usize,
        candidates: u32,
        total_w: f64,
        split_info: f64,
    ) -> Option<Split> {
        let gain = self.gain - (candidates.max(1) as f64).log2() / total_w;
        if gain <= 0.0 || split_info <= 0.0 {
            return None;
        }
        Some(Split::Num {
            attr,
            threshold: (self.below + self.above) / 2.0,
            gain_ratio: gain / split_info,
            gain,
        })
    }
}

/// `H([left_w, total_w − left_w])` over exact-integer masses, from the
/// memoized logs.
fn split_info_integral(t: &LogTables, left_w: f64, total_w: f64) -> f64 {
    let right_w = total_w - left_w;
    if left_w > 0.0 && right_w > 0.0 {
        t.log2k[total_w as usize] - (t.wlog[left_w as usize] + t.wlog[right_w as usize]) / total_w
    } else {
        0.0
    }
}

/// Scans the sorted `(value, label, weight)` triples for the best binary
/// threshold, applying C4.5's MDL correction over the candidate count.
///
/// When every weight is a small non-negative integer (so every partial
/// mass is an exact integer), the per-candidate entropies are computed as
/// `log2(T) − Σ w·log2(w) / T` with the sums maintained incrementally and
/// the logs served from [`LOG_TABLES`] — O(1) per candidate rather than
/// one `log2` per non-zero class. Otherwise it falls back to the direct
/// per-candidate [`entropy`] scan. The two variants agree mathematically
/// but not bit-for-bit; the fast variant is the deterministic one the
/// committed goldens are blessed against.
///
/// Value-identical to scanning every point and computing every
/// candidate's split information: points that all share one value offer
/// no candidate, and only the winner's split information is ever read.
fn scan_points(
    points: &[(f64, u32, f64)],
    n_classes: usize,
    attr: usize,
    base_entropy: f64,
    min_leaf: f64,
) -> Option<Split> {
    if points.first()?.0 == points.last()?.0 {
        return None;
    }
    let total_w: f64 = points.iter().map(|p| p.2).sum();
    let integral =
        total_w < LOG_TABLE_CAP as f64 && points.iter().all(|p| p.2 >= 0.0 && p.2.fract() == 0.0);
    if integral {
        LOG_TABLES.with(|t| {
            let mut t = t.borrow_mut();
            t.ensure(total_w as usize);
            let (best, candidates) =
                scan_integral(points, n_classes, total_w, base_entropy, min_leaf, &t);
            let best = best?;
            let split_info = split_info_integral(&t, best.left_w, total_w);
            best.into_split(attr, candidates, total_w, split_info)
        })
    } else {
        let (best, candidates) = scan_general(points, n_classes, total_w, base_entropy, min_leaf);
        let best = best?;
        let split_info = entropy(&[best.left_w, total_w - best.left_w]);
        best.into_split(attr, candidates, total_w, split_info)
    }
}

/// Threshold scan with per-candidate [`entropy`] recomputation; handles
/// arbitrary (fractional) sample weights. Returns the best cut and the
/// number of candidates offered.
fn scan_general(
    points: &[(f64, u32, f64)],
    n_classes: usize,
    total_w: f64,
    base_entropy: f64,
    min_leaf: f64,
) -> (Option<Cut>, u32) {
    let mut right = vec![0.0; n_classes];
    for p in points {
        right[p.1 as usize] += p.2;
    }
    let mut left = vec![0.0; n_classes];
    let mut left_w = 0.0;

    let mut best = None;
    let mut candidates = 0u32;
    let mut i = 0;
    while i < points.len() {
        // Advance over ties in value so thresholds fall between distinct values.
        let v = points[i].0;
        while i < points.len() && points[i].0 == v {
            let (_, label, w) = points[i];
            left[label as usize] += w;
            right[label as usize] -= w;
            left_w += w;
            i += 1;
        }
        if i == points.len() {
            break;
        }
        let right_w = total_w - left_w;
        if left_w < min_leaf || right_w < min_leaf {
            continue;
        }
        candidates += 1;
        let cond = (left_w / total_w) * entropy(&left) + (right_w / total_w) * entropy(&right);
        let cut = Cut {
            gain: base_entropy - cond,
            below: v,
            above: points[i].0,
            left_w,
        };
        Cut::offer(&mut best, cut);
    }
    (best, candidates)
}

/// Threshold scan over exact-integer weights: entropies via the
/// `log2(T) − Σ w·log2(w) / T` identity with incrementally-maintained
/// sums and memoized logs. Returns as [`scan_general`] does.
fn scan_integral(
    points: &[(f64, u32, f64)],
    n_classes: usize,
    total_w: f64,
    base_entropy: f64,
    min_leaf: f64,
    t: &LogTables,
) -> (Option<Cut>, u32) {
    let mut right = vec![0.0; n_classes];
    for p in points {
        right[p.1 as usize] += p.2;
    }
    // s_left / s_right track Σ_c wlog[mass_c] for their side; every mass is
    // an exact integer, so the table index is exact.
    let mut s_right: f64 = right.iter().map(|&w| t.wlog[w as usize]).sum();
    let mut s_left = 0.0;
    let mut left = vec![0.0; n_classes];
    let mut left_w = 0.0;

    let mut best = None;
    let mut candidates = 0u32;
    let mut i = 0;
    while i < points.len() {
        let v = points[i].0;
        while i < points.len() && points[i].0 == v {
            let (_, label, w) = points[i];
            let c = label as usize;
            s_left += t.wlog[(left[c] + w) as usize] - t.wlog[left[c] as usize];
            s_right += t.wlog[(right[c] - w) as usize] - t.wlog[right[c] as usize];
            left[c] += w;
            right[c] -= w;
            left_w += w;
            i += 1;
        }
        if i == points.len() {
            break;
        }
        let right_w = total_w - left_w;
        if left_w < min_leaf || right_w < min_leaf {
            continue;
        }
        candidates += 1;
        let h_left = if left_w > 0.0 {
            t.log2k[left_w as usize] - s_left / left_w
        } else {
            0.0
        };
        let h_right = if right_w > 0.0 {
            t.log2k[right_w as usize] - s_right / right_w
        } else {
            0.0
        };
        let cond = (left_w / total_w) * h_left + (right_w / total_w) * h_right;
        let cut = Cut {
            gain: base_entropy - cond,
            below: v,
            above: points[i].0,
            left_w,
        };
        Cut::offer(&mut best, cut);
    }
    (best, candidates)
}

fn evaluate_nominal(
    data: &Dataset,
    idx: &[usize],
    attr: usize,
    cardinality: usize,
    base_entropy: f64,
    min_leaf: f64,
) -> Option<Split> {
    let n_classes = data.n_classes();
    let mut per_value = vec![0.0; cardinality * n_classes];
    let mut total_w = 0.0;
    for &i in idx {
        let r = &data.rows()[i];
        if let Some(v) = r.values[attr].as_nom() {
            per_value[v as usize * n_classes + r.label as usize] += r.weight;
            total_w += r.weight;
        }
    }
    let mut branch_weights = vec![0.0; cardinality];
    nominal_split(
        attr,
        &per_value,
        &mut branch_weights,
        total_w,
        base_entropy,
        min_leaf,
    )
}

/// The multiway split of `attr` described by `per_value` — one class
/// distribution per nominal value, back to back — over `total_w` of mass.
/// `branch_weights` (one slot per value) is filled here.
fn nominal_split(
    attr: usize,
    per_value: &[f64],
    branch_weights: &mut [f64],
    total_w: f64,
    base_entropy: f64,
    min_leaf: f64,
) -> Option<Split> {
    if total_w <= 0.0 {
        return None;
    }
    let width = per_value.len() / branch_weights.len();
    for (w, d) in branch_weights.iter_mut().zip(per_value.chunks_exact(width)) {
        *w = d.iter().sum();
    }
    let non_empty = branch_weights.iter().filter(|&&w| w > 0.0).count();
    if non_empty < 2 {
        return None;
    }
    // J48 requires at least two branches holding min_leaf weight.
    let viable = branch_weights.iter().filter(|&&w| w >= min_leaf).count();
    if viable < 2 {
        return None;
    }
    let cond: f64 = per_value
        .chunks_exact(width)
        .zip(branch_weights.iter())
        .map(|(d, &w)| (w / total_w) * entropy(d))
        .sum();
    let gain = base_entropy - cond;
    if gain <= 0.0 {
        return None;
    }
    let split_info = entropy(branch_weights);
    if split_info <= 0.0 {
        return None;
    }
    Some(Split::Nom {
        attr,
        gain_ratio: gain / split_info,
        gain,
    })
}

/// Selects the best split following the C4.5 rule: maximize gain ratio among
/// attributes whose gain is at least the average positive gain.
fn select_split(data: &Dataset, idx: &[usize], base_entropy: f64, min_leaf: f64) -> Option<Split> {
    let splits: Vec<Split> = (0..data.n_attrs())
        .filter_map(|a| evaluate_attr(data, idx, a, base_entropy, min_leaf))
        .collect();
    pick_split(&splits)
}

/// The C4.5 choice among the attributes' best splits, in attribute order.
fn pick_split(splits: &[Split]) -> Option<Split> {
    if splits.is_empty() {
        return None;
    }
    let mean_gain: f64 = splits.iter().map(Split::gain).sum::<f64>() / splits.len() as f64;
    splits
        .iter()
        .copied()
        .filter(|s| s.gain() >= mean_gain - 1e-12)
        .max_by(|a, b| {
            a.gain_ratio()
                .partial_cmp(&b.gain_ratio())
                .expect("finite gain ratios")
        })
}

/// Partitions `idx` according to `split`; missing values go to the heavier
/// branch.
fn partition(data: &Dataset, idx: &[usize], split: &Split) -> Vec<Vec<usize>> {
    match *split {
        Split::Num {
            attr, threshold, ..
        } => {
            let mut le = Vec::new();
            let mut gt = Vec::new();
            let mut missing = Vec::new();
            for &i in idx {
                match data.rows()[i].values[attr].as_num() {
                    Some(v) if v <= threshold => le.push(i),
                    Some(_) => gt.push(i),
                    None => missing.push(i),
                }
            }
            let le_w: f64 = le.iter().map(|&i| data.rows()[i].weight).sum();
            let gt_w: f64 = gt.iter().map(|&i| data.rows()[i].weight).sum();
            if le_w >= gt_w {
                le.extend(missing);
            } else {
                gt.extend(missing);
            }
            vec![le, gt]
        }
        Split::Nom { attr, .. } => {
            let cardinality = data.attrs()[attr]
                .kind
                .cardinality()
                .expect("nominal split on nominal attribute");
            let mut parts = vec![Vec::new(); cardinality];
            let mut missing = Vec::new();
            for &i in idx {
                match data.rows()[i].values[attr].as_nom() {
                    Some(v) => parts[v as usize].push(i),
                    None => missing.push(i),
                }
            }
            if !missing.is_empty() {
                let heaviest = (0..parts.len())
                    .max_by(|&a, &b| {
                        let wa: f64 = parts[a].iter().map(|&i| data.rows()[i].weight).sum();
                        let wb: f64 = parts[b].iter().map(|&i| data.rows()[i].weight).sum();
                        wa.partial_cmp(&wb).expect("finite weights")
                    })
                    .expect("cardinality >= 1");
                parts[heaviest].extend(missing);
            }
            parts
        }
    }
}

fn grow(data: &Dataset, idx: &[usize], params: &C45Params, depth: usize) -> Node {
    let dist = distribution(data, idx);
    let total_w: f64 = dist.iter().sum();
    let pure = dist.iter().filter(|&&w| w > 0.0).count() <= 1;
    let depth_capped = params.max_depth.is_some_and(|d| depth >= d);
    if pure || total_w < 2.0 * params.min_leaf || depth_capped {
        return Node::Leaf { dist };
    }
    let base = entropy(&dist);
    let Some(split) = select_split(data, idx, base, params.min_leaf) else {
        return Node::Leaf { dist };
    };
    let parts = partition(data, idx, &split);
    // Degenerate partitions (all rows in one branch) terminate as a leaf.
    if parts.iter().filter(|p| !p.is_empty()).count() < 2 {
        return Node::Leaf { dist };
    }
    match split {
        Split::Num {
            attr, threshold, ..
        } => Node::SplitNum {
            attr,
            threshold,
            dist,
            le: Box::new(grow(data, &parts[0], params, depth + 1)),
            gt: Box::new(grow(data, &parts[1], params, depth + 1)),
        },
        Split::Nom { attr, .. } => {
            let children = parts
                .iter()
                .map(|p| {
                    if p.is_empty() {
                        // Empty branches inherit the parent distribution as a
                        // leaf so routing still works.
                        Node::Leaf { dist: dist.clone() }
                    } else {
                        grow(data, p, params, depth + 1)
                    }
                })
                .collect();
            Node::SplitNom {
                attr,
                dist,
                children,
            }
        }
    }
}

/// One attribute of a training set, gathered into a contiguous column.
enum Column {
    Numeric(Vec<f64>),
    Nominal {
        values: Vec<u32>,
        cardinality: usize,
    },
}

/// A training set without missing values, laid out for the trainer: one
/// column per attribute, and labels renumbered densely over the classes
/// that occur (OFC declares 128 memory intervals and a function's samples
/// fall in a handful), so every per-class buffer below is as wide as the
/// data, not as the schema.
struct Columns {
    attrs: Vec<Column>,
    /// Dense class id per row.
    labels: Vec<u32>,
    /// Declared class index of each dense id, ascending. Dropping the
    /// absent classes drops only `+ 0.0` terms from the sums over a
    /// distribution, which run in the same order.
    classes: Vec<usize>,
    /// Number of declared classes.
    n_classes: usize,
    weights: Vec<f64>,
    /// `weights` saturated to `u32`: the exact image of every
    /// non-negative integer weight below 2^32, which is every weight a
    /// node of integer mass below [`LOG_TABLE_CAP`] can hold.
    int_weights: Vec<u32>,
}

impl Columns {
    /// Gathers `data`, or returns `None` at the first missing value.
    fn gather(data: &Dataset) -> Option<Columns> {
        let n = data.len();
        assert!(u32::try_from(n).is_ok(), "row ids are u32");
        let mut attrs: Vec<Column> = data
            .attrs()
            .iter()
            .map(|a| match a.kind.cardinality() {
                None => Column::Numeric(Vec::with_capacity(n)),
                Some(cardinality) => Column::Nominal {
                    values: Vec::with_capacity(n),
                    cardinality,
                },
            })
            .collect();
        let mut dense_of = vec![u32::MAX; data.n_classes()];
        for r in data.rows() {
            for (col, v) in attrs.iter_mut().zip(&r.values) {
                match col {
                    Column::Numeric(values) => values.push(v.as_num()?),
                    Column::Nominal { values, .. } => values.push(v.as_nom()?),
                }
            }
            dense_of[r.label as usize] = 0;
        }
        let mut classes = Vec::new();
        for (class, dense) in dense_of.iter_mut().enumerate() {
            if *dense == 0 {
                *dense = classes.len() as u32;
                classes.push(class);
            }
        }
        Some(Columns {
            attrs,
            labels: data
                .rows()
                .iter()
                .map(|r| dense_of[r.label as usize])
                .collect(),
            classes,
            n_classes: data.n_classes(),
            weights: data.rows().iter().map(|r| r.weight).collect(),
            int_weights: data.rows().iter().map(|r| r.weight as u32).collect(),
        })
    }

    fn len(&self) -> usize {
        self.labels.len()
    }
}

/// Grows the unpruned tree of a gathered training set.
fn grow_columnar(cols: &Columns, params: &C45Params) -> Node {
    LOG_TABLES.with(|t| Grower::new(cols, params, &mut t.borrow_mut()).grow(0, cols.len(), 0))
}

/// [`grow`] over [`Columns`]: a node is a segment `[lo, hi)` of `rows` and
/// of every numeric attribute's `sorted` list, and a split partitions each
/// of those segments stably in place, so that a child is a sub-segment.
///
/// The trees are bit-identical to [`grow`]'s — it is the reference the
/// tests hold this to. `rows` keeps the parent's order through a stable
/// partition, so a node's distribution and masses are summed in the order
/// [`distribution`] sums them; a sorted segment is the stable sort
/// [`evaluate_numeric`] would redo, so the scans meet the same candidates
/// in the same order; integer masses index the log tables at the `f64`
/// masses' own images; and every expression below is the reference's,
/// operand for operand.
///
/// All buffers are sized once per fit. Growing a node allocates its
/// `Node`'s `dist` (and a nominal split's `children`) and nothing else.
struct Grower<'a> {
    cols: &'a Columns,
    params: &'a C45Params,
    tables: &'a mut LogTables,
    /// Row ids, segmented by node, in training-set order within a node.
    rows: Vec<u32>,
    /// Per numeric attribute, row ids stably sorted by value within a
    /// node's segment; empty for a nominal attribute.
    sorted: Vec<Vec<u32>>,
    /// Spill buffer of the partitions, one training set long.
    spill: Vec<u32>,
    /// The current node's class distribution, over the dense classes.
    dist: Vec<f64>,
    /// Class masses either side of the threshold being scanned: integers
    /// under integer weights, floats otherwise.
    left_int: Vec<u32>,
    right_int: Vec<u32>,
    left: Vec<f64>,
    right: Vec<f64>,
    /// `cardinality × classes` matrix of a nominal attribute and its row
    /// sums, sized for the widest attribute.
    per_value: Vec<f64>,
    branch_weights: Vec<f64>,
    /// How many of the node's rows hold each nominal value, and where each
    /// value's rows go next during a counting partition.
    counts: Vec<usize>,
    starts: Vec<usize>,
    /// The attributes' best splits at the current node.
    splits: Vec<Split>,
}

impl<'a> Grower<'a> {
    fn new(cols: &'a Columns, params: &'a C45Params, tables: &'a mut LogTables) -> Self {
        let n = cols.len();
        let k = cols.classes.len();
        let sorted = cols
            .attrs
            .iter()
            .map(|col| match col {
                Column::Numeric(values) => {
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    order.sort_by(|&a, &b| {
                        values[a as usize]
                            .partial_cmp(&values[b as usize])
                            .expect("finite values")
                    });
                    order
                }
                Column::Nominal { .. } => Vec::new(),
            })
            .collect();
        let max_cardinality = cols
            .attrs
            .iter()
            .map(|col| match col {
                Column::Numeric(_) => 0,
                Column::Nominal { cardinality, .. } => *cardinality,
            })
            .max()
            .unwrap_or(0);
        Grower {
            cols,
            params,
            tables,
            rows: (0..n as u32).collect(),
            sorted,
            spill: vec![0; n],
            dist: vec![0.0; k],
            left_int: vec![0; k],
            right_int: vec![0; k],
            left: vec![0.0; k],
            right: vec![0.0; k],
            per_value: vec![0.0; max_cardinality * k],
            branch_weights: vec![0.0; max_cardinality],
            counts: vec![0; max_cardinality],
            starts: vec![0; max_cardinality],
            splits: Vec::with_capacity(cols.attrs.len()),
        }
    }

    /// The current node's distribution over the declared classes.
    fn node_dist(&self) -> Vec<f64> {
        let mut dist = vec![0.0; self.cols.n_classes];
        for (&class, &w) in self.cols.classes.iter().zip(&self.dist) {
            dist[class] = w;
        }
        dist
    }

    /// Sums the class distribution of the node `[lo, hi)` into `self.dist`,
    /// in row order as [`distribution`] does. Returns the node's mass as an
    /// integer under the condition `scan_points` takes its integral scan
    /// on: every weight a non-negative integer, below [`LOG_TABLE_CAP`] in
    /// total.
    fn load_node(&mut self, lo: usize, hi: usize) -> Option<u32> {
        let cols = self.cols;
        self.dist.fill(0.0);
        let mut int_mass = 0u64;
        let mut int_weights = true;
        for &r in &self.rows[lo..hi] {
            let r = r as usize;
            self.dist[cols.labels[r] as usize] += cols.weights[r];
            int_mass += u64::from(cols.int_weights[r]);
            int_weights &= f64::from(cols.int_weights[r]) == cols.weights[r];
        }
        (int_weights && int_mass < LOG_TABLE_CAP as u64).then_some(int_mass as u32)
    }

    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let cols = self.cols;
        let int_total = self.load_node(lo, hi);
        let total_w: f64 = self.dist.iter().sum();
        let pure = self.dist.iter().filter(|&&w| w > 0.0).count() <= 1;
        let depth_capped = self.params.max_depth.is_some_and(|d| depth >= d);
        if pure || total_w < 2.0 * self.params.min_leaf || depth_capped {
            return Node::Leaf {
                dist: self.node_dist(),
            };
        }
        let base = entropy(&self.dist);
        let split = self.select_split(lo, hi, base, int_total);
        // Built before the recursion reuses `self.dist`.
        let dist = self.node_dist();
        match split {
            None => Node::Leaf { dist },
            Some(Split::Num {
                attr, threshold, ..
            }) => {
                let mid = self.partition_numeric(lo, hi, attr, threshold);
                // Degenerate partitions (all rows in one branch) terminate
                // as a leaf.
                if mid == lo || mid == hi {
                    return Node::Leaf { dist };
                }
                Node::SplitNum {
                    attr,
                    threshold,
                    le: Box::new(self.grow(lo, mid, depth + 1)),
                    gt: Box::new(self.grow(mid, hi, depth + 1)),
                    dist,
                }
            }
            Some(Split::Nom { attr, .. }) => {
                let Column::Nominal {
                    values,
                    cardinality,
                } = &cols.attrs[attr]
                else {
                    unreachable!("nominal split on nominal attribute")
                };
                if self.partition_nominal(lo, hi, values, *cardinality) < 2 {
                    return Node::Leaf { dist };
                }
                // The rows of a value are now one run of the segment, and
                // growing a child permutes its own run only.
                let mut start = lo;
                let children = (0..*cardinality as u32)
                    .map(|v| {
                        let mut end = start;
                        while end < hi && values[self.rows[end] as usize] == v {
                            end += 1;
                        }
                        let child = if start == end {
                            // Empty branches inherit the parent distribution
                            // as a leaf so routing still works.
                            Node::Leaf { dist: dist.clone() }
                        } else {
                            self.grow(start, end, depth + 1)
                        };
                        start = end;
                        child
                    })
                    .collect();
                Node::SplitNom {
                    attr,
                    dist,
                    children,
                }
            }
        }
    }

    /// [`select_split`] over the segments of the node [`Grower::load_node`]
    /// has loaded; `int_total` is what that returned.
    fn select_split(
        &mut self,
        lo: usize,
        hi: usize,
        base_entropy: f64,
        int_total: Option<u32>,
    ) -> Option<Split> {
        let cols = self.cols;
        if let Some(total) = int_total {
            self.tables.ensure(total as usize);
        }
        self.splits.clear();
        for (attr, col) in cols.attrs.iter().enumerate() {
            let split = match col {
                Column::Numeric(values) => match int_total {
                    Some(total) => self.scan_integral(attr, values, lo, hi, total, base_entropy),
                    None => self.scan_general(attr, values, lo, hi, base_entropy),
                },
                Column::Nominal {
                    values,
                    cardinality,
                } => self.evaluate_nominal(attr, values, *cardinality, lo, hi, base_entropy),
            };
            self.splits.extend(split);
        }
        pick_split(&self.splits)
    }

    /// [`scan_integral`] straight off the column, on integer masses.
    fn scan_integral(
        &mut self,
        attr: usize,
        values: &[f64],
        lo: usize,
        hi: usize,
        total: u32,
        base_entropy: f64,
    ) -> Option<Split> {
        let seg = &self.sorted[attr][lo..hi];
        if values[seg[0] as usize] == values[seg[seg.len() - 1] as usize] {
            return None;
        }
        let (labels, weights) = (&self.cols.labels[..], &self.cols.int_weights[..]);
        let (log2k, wlog) = (&self.tables.log2k[..], &self.tables.wlog[..]);
        let min_leaf = self.params.min_leaf;
        let total_w = f64::from(total);
        let (left, right) = (&mut self.left_int[..], &mut self.right_int[..]);
        left.fill(0);
        for (r, &w) in right.iter_mut().zip(&self.dist) {
            *r = w as u32;
        }
        let mut s_right: f64 = right.iter().map(|&w| wlog[w as usize]).sum();
        let mut s_left = 0.0;
        let mut left_mass = 0u32;

        let mut best = None;
        let mut candidates = 0u32;
        let mut i = 0;
        while i < seg.len() {
            let v = values[seg[i] as usize];
            while i < seg.len() && values[seg[i] as usize] == v {
                let r = seg[i] as usize;
                let (c, w) = (labels[r] as usize, weights[r]);
                s_left += wlog[(left[c] + w) as usize] - wlog[left[c] as usize];
                s_right += wlog[(right[c] - w) as usize] - wlog[right[c] as usize];
                left[c] += w;
                right[c] -= w;
                left_mass += w;
                i += 1;
            }
            if i == seg.len() {
                break;
            }
            let right_mass = total - left_mass;
            let (left_w, right_w) = (f64::from(left_mass), f64::from(right_mass));
            if left_w < min_leaf || right_w < min_leaf {
                continue;
            }
            candidates += 1;
            let h_left = if left_mass > 0 {
                log2k[left_mass as usize] - s_left / left_w
            } else {
                0.0
            };
            let h_right = if right_mass > 0 {
                log2k[right_mass as usize] - s_right / right_w
            } else {
                0.0
            };
            let cond = (left_w / total_w) * h_left + (right_w / total_w) * h_right;
            let cut = Cut {
                gain: base_entropy - cond,
                below: v,
                above: values[seg[i] as usize],
                left_w,
            };
            Cut::offer(&mut best, cut);
        }
        let best = best?;
        let split_info = split_info_integral(self.tables, best.left_w, total_w);
        best.into_split(attr, candidates, total_w, split_info)
    }

    /// [`scan_general`] straight off the column. The masses are summed in
    /// the segment's sorted order, as the reference sums its points.
    fn scan_general(
        &mut self,
        attr: usize,
        values: &[f64],
        lo: usize,
        hi: usize,
        base_entropy: f64,
    ) -> Option<Split> {
        let seg = &self.sorted[attr][lo..hi];
        if values[seg[0] as usize] == values[seg[seg.len() - 1] as usize] {
            return None;
        }
        let (labels, weights) = (&self.cols.labels[..], &self.cols.weights[..]);
        let min_leaf = self.params.min_leaf;
        let total_w: f64 = seg.iter().map(|&r| weights[r as usize]).sum();
        let (left, right) = (&mut self.left[..], &mut self.right[..]);
        left.fill(0.0);
        right.fill(0.0);
        for &r in seg {
            right[labels[r as usize] as usize] += weights[r as usize];
        }
        let mut left_w = 0.0;

        let mut best = None;
        let mut candidates = 0u32;
        let mut i = 0;
        while i < seg.len() {
            let v = values[seg[i] as usize];
            while i < seg.len() && values[seg[i] as usize] == v {
                let r = seg[i] as usize;
                let (c, w) = (labels[r] as usize, weights[r]);
                left[c] += w;
                right[c] -= w;
                left_w += w;
                i += 1;
            }
            if i == seg.len() {
                break;
            }
            let right_w = total_w - left_w;
            if left_w < min_leaf || right_w < min_leaf {
                continue;
            }
            candidates += 1;
            let cond = (left_w / total_w) * entropy(left) + (right_w / total_w) * entropy(right);
            let cut = Cut {
                gain: base_entropy - cond,
                below: v,
                above: values[seg[i] as usize],
                left_w,
            };
            Cut::offer(&mut best, cut);
        }
        let best = best?;
        let split_info = entropy(&[best.left_w, total_w - best.left_w]);
        best.into_split(attr, candidates, total_w, split_info)
    }

    /// [`evaluate_nominal`] into the fit's flat `cardinality × classes`
    /// matrix.
    fn evaluate_nominal(
        &mut self,
        attr: usize,
        values: &[u32],
        cardinality: usize,
        lo: usize,
        hi: usize,
        base_entropy: f64,
    ) -> Option<Split> {
        let cols = self.cols;
        let k = cols.classes.len();
        let per_value = &mut self.per_value[..cardinality * k];
        per_value.fill(0.0);
        let mut total_w = 0.0;
        for &r in &self.rows[lo..hi] {
            let r = r as usize;
            per_value[values[r] as usize * k + cols.labels[r] as usize] += cols.weights[r];
            total_w += cols.weights[r];
        }
        nominal_split(
            attr,
            per_value,
            &mut self.branch_weights[..cardinality],
            total_w,
            base_entropy,
            self.params.min_leaf,
        )
    }

    /// Moves the rows at or below `threshold` of `attr` to the front of
    /// every segment `[lo, hi)`, keeping each side's order; returns where
    /// the other side starts. With no missing value a row's branch is
    /// decided by its value alone, so this is [`partition`].
    fn partition_numeric(&mut self, lo: usize, hi: usize, attr: usize, threshold: f64) -> usize {
        let Column::Numeric(values) = &self.cols.attrs[attr] else {
            unreachable!("numeric split on numeric attribute")
        };
        let goes_left = |r: u32| values[r as usize] <= threshold;
        let n_left = stable_partition(&mut self.rows[lo..hi], &mut self.spill, goes_left);
        for (a, list) in self.sorted.iter_mut().enumerate() {
            // The split attribute's own list is partitioned as it stands.
            if a != attr && !list.is_empty() {
                stable_partition(&mut list[lo..hi], &mut self.spill, goes_left);
            }
        }
        lo + n_left
    }

    /// Groups every segment `[lo, hi)` by nominal value, ascending, keeping
    /// each group's order; returns the number of non-empty groups.
    fn partition_nominal(
        &mut self,
        lo: usize,
        hi: usize,
        values: &[u32],
        cardinality: usize,
    ) -> usize {
        let (counts, starts) = (
            &mut self.counts[..cardinality],
            &mut self.starts[..cardinality],
        );
        counts.fill(0);
        for &r in &self.rows[lo..hi] {
            counts[values[r as usize] as usize] += 1;
        }
        let lists = self.sorted.iter_mut().filter(|list| !list.is_empty());
        for list in std::iter::once(&mut self.rows).chain(lists) {
            let mut at = 0;
            for (start, &n) in starts.iter_mut().zip(counts.iter()) {
                *start = at;
                at += n;
            }
            counting_partition(&mut list[lo..hi], &mut self.spill, starts, |r| {
                values[r as usize] as usize
            });
        }
        counts.iter().filter(|&&n| n > 0).count()
    }
}

/// Moves the rows of `seg` that `goes_left` to its front, keeping the
/// order of both sides; returns how many went left. `spill` holds the
/// other side meanwhile.
fn stable_partition(seg: &mut [u32], spill: &mut [u32], goes_left: impl Fn(u32) -> bool) -> usize {
    let (mut n_left, mut n_right) = (0, 0);
    for i in 0..seg.len() {
        let r = seg[i];
        if goes_left(r) {
            seg[n_left] = r;
            n_left += 1;
        } else {
            spill[n_right] = r;
            n_right += 1;
        }
    }
    seg[n_left..].copy_from_slice(&spill[..n_right]);
    n_left
}

/// Groups the rows of `seg` by `value_of`, ascending, keeping each group's
/// order. `starts[v]` is where the group of value `v` starts within `seg`;
/// on return it is where that group ends.
fn counting_partition(
    seg: &mut [u32],
    spill: &mut [u32],
    starts: &mut [usize],
    value_of: impl Fn(u32) -> usize,
) {
    for &r in seg.iter() {
        let at = &mut starts[value_of(r)];
        spill[*at] = r;
        *at += 1;
    }
    seg.copy_from_slice(&spill[..seg.len()]);
}

/// Upper-tail z-score for confidence `c` (C4.5 uses the one-sided bound).
///
/// Uses the Beasley–Springer–Moro rational approximation of the inverse
/// normal CDF, accurate to ~1e-9 over the range pruning uses.
pub(crate) fn zscore_upper(confidence: f64) -> f64 {
    assert!(
        (0.0..0.5).contains(&confidence) && confidence > 0.0,
        "pruning confidence must be in (0, 0.5), got {confidence}"
    );
    inverse_normal_cdf(1.0 - confidence)
}

fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p));
    // Beasley-Springer-Moro coefficients.
    const A: [f64; 4] = [
        2.50662823884,
        -18.61500062529,
        41.39119773534,
        -25.44106049637,
    ];
    const B: [f64; 4] = [
        -8.47351093090,
        23.08336743743,
        -21.06224101826,
        3.13082909833,
    ];
    const C: [f64; 9] = [
        0.3374754822726147,
        0.9761690190917186,
        0.1607979714918209,
        0.0276438810333863,
        0.0038405729373609,
        0.0003951896511919,
        0.0000321767881768,
        0.0000002888167364,
        0.0000003960315187,
    ];
    let y = p - 0.5;
    if y.abs() < 0.42 {
        let r = y * y;
        y * (((A[3] * r + A[2]) * r + A[1]) * r + A[0])
            / ((((B[3] * r + B[2]) * r + B[1]) * r + B[0]) * r + 1.0)
    } else {
        let r = if y > 0.0 { 1.0 - p } else { p };
        let s = (-r.ln()).ln();
        let mut x = C[0];
        let mut sp = 1.0;
        for &c in &C[1..] {
            sp *= s;
            x += c * sp;
        }
        if y < 0.0 {
            -x
        } else {
            x
        }
    }
}

/// C4.5's pessimistic error estimate: upper confidence bound on the error
/// rate of a node holding `n` weight with `e` erroneous weight, times `n`.
fn estimated_errors(n: f64, e: f64, z: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let f = e / n;
    let z2 = z * z;
    let ub = (f + z2 / (2.0 * n) + z * (f / n - f * f / n + z2 / (4.0 * n * n)).max(0.0).sqrt())
        / (1.0 + z2 / n);
    n * ub.min(1.0)
}

fn leaf_errors(dist: &[f64]) -> (f64, f64) {
    let n: f64 = dist.iter().sum();
    let correct = dist.iter().copied().fold(0.0, f64::max);
    (n, n - correct)
}

/// Bottom-up subtree-replacement pruning; returns the subtree's estimated
/// errors after pruning.
fn prune(node: &mut Node, z: f64) -> f64 {
    let (n, e) = leaf_errors(node.dist());
    let as_leaf = estimated_errors(n, e, z);
    let subtree = match node {
        Node::Leaf { .. } => return as_leaf,
        Node::SplitNum { le, gt, .. } => prune(le, z) + prune(gt, z),
        Node::SplitNom { children, .. } => children.iter_mut().map(|c| prune(c, z)).sum(),
    };
    // Replace the subtree by a leaf when that does not raise the estimate
    // (the +0.1 slack is J48's).
    if as_leaf <= subtree + 0.1 {
        *node = Node::Leaf {
            dist: node.dist().to_vec(),
        };
        as_leaf
    } else {
        subtree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, Value};
    use crate::Classifier;
    use rand::Rng;
    use rand::SeedableRng;

    fn quadrant_dataset(n: usize, seed: u64) -> Dataset {
        // label = (x > 0.5) AND (y > 0.5): requires a depth-2 tree (no single
        // threshold separates it) while the first split still has positive
        // gain — unlike XOR, which greedy univariate trees cannot start on.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .numeric_attr("y")
            .classes(["f", "t"])
            .build();
        for _ in 0..n {
            let x: f64 = rng.gen();
            let y: f64 = rng.gen();
            let label = u32::from(x > 0.5 && y > 0.5);
            ds.push(vec![Value::Num(x), Value::Num(y)], label);
        }
        ds
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
        assert!((entropy(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[1.0, 1.0, 1.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn learns_nested_quadrant() {
        let ds = quadrant_dataset(400, 1);
        let tree = C45::train(&ds, &C45Params::default());
        let mut correct = 0;
        for (x, y) in [(0.1, 0.1), (0.9, 0.9), (0.1, 0.9), (0.9, 0.1)] {
            let want = u32::from(x > 0.5 && y > 0.5);
            if tree.predict(&[Value::Num(x), Value::Num(y)]) == want {
                correct += 1;
            }
        }
        assert_eq!(correct, 4, "tree failed to learn the quadrant:\n{tree}");
        assert!(tree.depth() >= 3, "expected a depth-2+ tree:\n{tree}");
    }

    #[test]
    fn learns_nominal_split() {
        let mut ds = Dataset::builder()
            .nominal_attr("fmt", ["png", "jpg", "gif"])
            .classes(["lo", "hi"])
            .build();
        for _ in 0..10 {
            ds.push(vec![Value::Nom(0)], 0);
            ds.push(vec![Value::Nom(1)], 1);
            ds.push(vec![Value::Nom(2)], 1);
        }
        let tree = C45::train(&ds, &C45Params::default());
        assert_eq!(tree.predict(&[Value::Nom(0)]), 0);
        assert_eq!(tree.predict(&[Value::Nom(1)]), 1);
        assert_eq!(tree.predict(&[Value::Nom(2)]), 1);
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b"])
            .build();
        for i in 0..10 {
            ds.push(vec![Value::Num(i as f64)], 0);
        }
        let tree = C45::train(&ds, &C45Params::default());
        assert_eq!(tree.size(), 1);
        assert_eq!(tree.predict(&[Value::Num(100.0)]), 0);
    }

    #[test]
    fn weights_shift_majority() {
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b"])
            .build();
        // Identical feature values: no split possible; weights decide.
        for _ in 0..3 {
            ds.push(vec![Value::Num(1.0)], 0);
        }
        ds.push_weighted(vec![Value::Num(1.0)], 1, 10.0);
        let tree = C45::train(&ds, &C45Params::default());
        assert_eq!(tree.predict(&[Value::Num(1.0)]), 1);
    }

    #[test]
    fn pruning_collapses_spurious_split() {
        // Both children predict the same class with similar error rates: the
        // pessimistic estimate of the collapsed leaf cannot exceed the
        // subtree's, so pruning must replace the split.
        let mut node = Node::SplitNum {
            attr: 0,
            threshold: 1.0,
            dist: vec![100.0, 6.0],
            le: Box::new(Node::Leaf {
                dist: vec![50.0, 3.0],
            }),
            gt: Box::new(Node::Leaf {
                dist: vec![50.0, 3.0],
            }),
        };
        prune(&mut node, zscore_upper(0.25));
        assert!(matches!(node, Node::Leaf { .. }), "spurious split survived");
    }

    #[test]
    fn pruning_keeps_informative_split() {
        // A perfectly separating split has far lower pessimistic error than
        // the collapsed leaf; pruning must keep it.
        let mut node = Node::SplitNum {
            attr: 0,
            threshold: 1.0,
            dist: vec![50.0, 50.0],
            le: Box::new(Node::Leaf {
                dist: vec![50.0, 0.0],
            }),
            gt: Box::new(Node::Leaf {
                dist: vec![0.0, 50.0],
            }),
        };
        prune(&mut node, zscore_upper(0.25));
        assert!(
            matches!(node, Node::SplitNum { .. }),
            "informative split was pruned"
        );
    }

    #[test]
    fn max_depth_caps_tree() {
        let ds = quadrant_dataset(400, 5);
        let tree = C45::train(
            &ds,
            &C45Params {
                max_depth: Some(1),
                prune: false,
                ..C45Params::default()
            },
        );
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn missing_values_do_not_crash_training() {
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .numeric_attr("y")
            .classes(["a", "b"])
            .build();
        for i in 0..50 {
            let v = if i % 7 == 0 {
                Value::Missing
            } else {
                Value::Num(i as f64)
            };
            ds.push(vec![v, Value::Num((i % 3) as f64)], u32::from(i >= 25));
        }
        let tree = C45::train(&ds, &C45Params::default());
        let _ = tree.predict(&[Value::Missing, Value::Missing]);
    }

    #[test]
    fn zscore_matches_known_quantiles() {
        // z for one-sided 25% confidence: Phi^-1(0.75) ~= 0.6744898.
        assert!((zscore_upper(0.25) - 0.6744898).abs() < 1e-4);
        // Phi^-1(0.95) ~= 1.6448536.
        assert!((zscore_upper(0.05) - 1.6448536).abs() < 1e-4);
    }

    #[test]
    fn estimated_errors_monotone_in_errors() {
        let z = zscore_upper(0.25);
        let e1 = estimated_errors(10.0, 0.0, z);
        let e2 = estimated_errors(10.0, 2.0, z);
        let e3 = estimated_errors(10.0, 5.0, z);
        assert!(e1 < e2 && e2 < e3);
        // Even a perfect leaf has nonzero pessimistic error.
        assert!(e1 > 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let ds = quadrant_dataset(300, 9);
        let a = C45::train(&ds, &C45Params::default());
        let b = C45::train(&ds, &C45Params::default());
        assert_eq!(a.to_string(), b.to_string());
    }

    /// The tree the general path ([`grow`], the reference) trains.
    fn reference_tree(ds: &Dataset, params: &C45Params) -> String {
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut root = grow(ds, &idx, params, 0);
        if params.prune {
            prune(&mut root, zscore_upper(params.confidence));
        }
        format!("{:?}", DecisionTree::new(root, ds.n_classes()))
    }

    /// A dataset of `n` rows over `x` (numeric, in tie runs of two) whose
    /// labels run through `labels` in blocks, out of 128 declared classes.
    fn sparse_dataset(n: usize, labels: &[u32]) -> Dataset {
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes((0..128).map(|c| format!("c{c}")))
            .build();
        for i in 0..n {
            ds.push(
                vec![Value::Num((i / 2) as f64)],
                labels[i * labels.len() / n],
            );
        }
        ds
    }

    fn walk(node: &Node, visit: &mut impl FnMut(&Node)) {
        visit(node);
        match node {
            Node::Leaf { .. } => {}
            Node::SplitNum { le, gt, .. } => {
                walk(le, visit);
                walk(gt, visit);
            }
            Node::SplitNom { children, .. } => children.iter().for_each(|c| walk(c, visit)),
        }
    }

    #[test]
    fn sparse_labels_keep_full_width_distributions() {
        let ds = sparse_dataset(90, &[3, 64, 127]);
        let params = C45Params::default();
        let tree = C45::train(&ds, &params);
        assert_eq!(format!("{tree:?}"), reference_tree(&ds, &params));
        let mut nodes = 0;
        walk(tree.root(), &mut |node| {
            nodes += 1;
            let dist = node.dist();
            assert_eq!(dist.len(), 128);
            for (c, &w) in dist.iter().enumerate() {
                assert!(w == 0.0 || [3, 64, 127].contains(&c), "mass at class {c}");
            }
        });
        assert!(nodes > 1, "expected a split:\n{tree}");
    }

    #[test]
    fn degenerate_datasets_train_the_reference_tree() {
        let single_class = sparse_dataset(40, &[17]);
        let two_rows = sparse_dataset(2, &[0, 1]);
        // One value throughout: no threshold to offer.
        let mut all_ties = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b"])
            .build();
        for i in 0..30 {
            all_ties.push(vec![Value::Num(7.0)], u32::from(i % 3 == 0));
        }
        for ds in [&single_class, &two_rows, &all_ties] {
            for min_leaf in [1.0, 2.0] {
                let params = C45Params {
                    min_leaf,
                    ..C45Params::default()
                };
                let tree = C45::train(ds, &params);
                assert_eq!(format!("{tree:?}"), reference_tree(ds, &params));
                assert_eq!(tree.size(), 1);
            }
        }
    }

    #[test]
    fn one_missing_value_takes_the_general_path() {
        let mut ds = sparse_dataset(60, &[1, 2, 3]);
        assert!(Columns::gather(&ds).is_some());
        ds.push(vec![Value::Missing], 2);
        assert!(Columns::gather(&ds).is_none());
        let params = C45Params::default();
        assert_eq!(
            format!("{:?}", C45::train(&ds, &params)),
            reference_tree(&ds, &params)
        );
    }

    #[test]
    fn mass_beyond_the_log_tables_scans_by_entropy() {
        // One integer weight of the tables' cap: the root's mass is out of
        // their reach (the entropy scan, as `scan_points` decides), the
        // subtree without that row is back within it.
        let mut ds = sparse_dataset(60, &[1, 2, 3]);
        ds.push_weighted(vec![Value::Num(100.0)], 3, LOG_TABLE_CAP as f64);
        let params = C45Params {
            prune: false,
            ..C45Params::default()
        };
        let tree = C45::train(&ds, &params);
        assert_eq!(format!("{tree:?}"), reference_tree(&ds, &params));
        assert!(tree.size() > 3, "expected splits on both scans:\n{tree}");
        let tables = LOG_TABLES.with(|t| t.borrow().log2k.len());
        assert!(tables < LOG_TABLE_CAP, "tables grew to the capped mass");
    }

    /// A training set and parameters drawn from `seed`: 1–6 attributes
    /// (continuous, quantised into long tie runs, or nominal), a few of
    /// 2–128 declared classes in use, weights 1 and 5 or partly fractional.
    fn random_case(seed: u64) -> (Dataset, C45Params) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // Per attribute: the quantisation levels of a numeric one (0 for
        // continuous), or the cardinality of a nominal one.
        enum Kind {
            Numeric(u32),
            Nominal(u32),
        }
        let kinds: Vec<Kind> = (0..rng.gen_range(1..=6))
            .map(|_| match rng.gen_range(0..3) {
                0 => Kind::Numeric(0),
                1 => Kind::Numeric(rng.gen_range(2..=8)),
                _ => Kind::Nominal(rng.gen_range(2..=6)),
            })
            .collect();
        let mut builder = Dataset::builder();
        for (a, kind) in kinds.iter().enumerate() {
            builder = match kind {
                Kind::Numeric(_) => builder.numeric_attr(format!("a{a}")),
                Kind::Nominal(card) => {
                    builder.nominal_attr(format!("a{a}"), (0..*card).map(|v| format!("v{v}")))
                }
            };
        }
        let n_classes: u32 = rng.gen_range(2..=128);
        let mut ds = builder
            .classes((0..n_classes).map(|c| format!("c{c}")))
            .build();
        let used: Vec<u32> = (0..rng.gen_range(1..=n_classes.min(10)))
            .map(|_| rng.gen_range(0..n_classes))
            .collect();
        let fractional = rng.gen_bool(0.25);
        let noise = rng.gen_range(0.0..0.5);
        let rows = if rng.gen_bool(0.5) {
            rng.gen_range(2..=60)
        } else {
            rng.gen_range(2..=600)
        };
        for _ in 0..rows {
            // Each attribute's position in [0, 1) votes for a label.
            let mut signal = 0.0;
            let values: Vec<Value> = kinds
                .iter()
                .map(|kind| {
                    let u: f64 = rng.gen();
                    signal += u;
                    match *kind {
                        Kind::Numeric(0) => Value::Num(u * 100.0),
                        Kind::Numeric(levels) => Value::Num((u * f64::from(levels)).floor()),
                        Kind::Nominal(card) => Value::Nom((u * f64::from(card)) as u32),
                    }
                })
                .collect();
            let label = if rng.gen_bool(noise) {
                used[rng.gen_range(0..used.len())]
            } else {
                used[(signal / kinds.len() as f64 * used.len() as f64) as usize]
            };
            let weight = if fractional && rng.gen_bool(0.5) {
                rng.gen_range(0.05..6.0)
            } else if rng.gen_bool(0.2) {
                5.0
            } else {
                1.0
            };
            ds.push_weighted(values, label, weight);
        }
        let params = C45Params {
            min_leaf: [1.0, 2.0, 5.0][rng.gen_range(0..3)],
            max_depth: [None, Some(1), Some(4)][rng.gen_range(0..3)],
            prune: rng.gen(),
            ..C45Params::default()
        };
        (ds, params)
    }

    /// Everything a [`Split`] holds, floats by bit pattern.
    fn split_bits(split: Option<Split>) -> Option<(usize, Option<u64>, u64, u64)> {
        split.map(|s| {
            let (attr, threshold) = match s {
                Split::Num {
                    attr, threshold, ..
                } => (attr, Some(threshold.to_bits())),
                Split::Nom { attr, .. } => (attr, None),
            };
            (
                attr,
                threshold,
                s.gain().to_bits(),
                s.gain_ratio().to_bits(),
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The columnar trainer grows, bit for bit, the tree the general
        /// path grows. No shrinking: a failure prints its `seed`.
        #[test]
        fn columnar_tree_is_the_reference_tree(seed in proptest::any::<u64>()) {
            let (ds, params) = random_case(seed);
            let cols = Columns::gather(&ds).expect("no missing value");
            // A node is a subset of the rows in training-set order, so the
            // root of a random dataset stands for any node: there, the
            // chosen split agrees to the last bit of gain and gain ratio,
            // which a tree does not show.
            let idx: Vec<usize> = (0..ds.len()).collect();
            let base = entropy(&distribution(&ds, &idx));
            let reference = select_split(&ds, &idx, base, params.min_leaf);
            let columnar = LOG_TABLES.with(|t| {
                let mut t = t.borrow_mut();
                let mut grower = Grower::new(&cols, &params, &mut t);
                let int_total = grower.load_node(0, ds.len());
                grower.select_split(0, ds.len(), base, int_total)
            });
            proptest::prop_assert_eq!(split_bits(columnar), split_bits(reference));
            let mut root = grow_columnar(&cols, &params);
            if params.prune {
                prune(&mut root, zscore_upper(params.confidence));
            }
            let columnar = format!("{:?}", DecisionTree::new(root, ds.n_classes()));
            proptest::prop_assert_eq!(columnar, reference_tree(&ds, &params));
        }
    }
}
