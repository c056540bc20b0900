//! RandomTree: a decision tree that examines a random subset of attributes
//! at each node (the base learner of RandomForest, and one of the Table 1
//! comparison algorithms).
//!
//! It grows through C4.5's grower ([`crate::c45`]) with RandomTree's
//! split selection: a node keeps the best raw information gain among a
//! random sample of attributes, not the best gain ratio among all of them.
//! Split search and the leaf rules are C4.5's, and the tree is not pruned —
//! variance is controlled by the ensemble instead.

use crate::c45::{grow_tree, Selection};
use crate::data::Dataset;
use crate::tree::DecisionTree;
use crate::Learner;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Minimum total instance weight per leaf: Weka RandomTree's `-M 1`.
pub const MIN_LEAF: f64 = 1.0;

/// The RandomTree learner. As a [`Learner`] it draws from seed 0;
/// [`Forest`](crate::forest::Forest) calls [`RandomTree::train`] with one
/// seed per tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomTree;

impl RandomTree {
    /// Trains a tree on `data`, drawing the attribute orders from `seed`.
    /// Each node examines `⌈log₂ d⌉ + 1` of the `d` attributes (at most
    /// `d`); DESIGN.md §2 compares this with Weka's rule.
    ///
    /// # Panics
    ///
    /// Panics as [`C45::train`](crate::c45::C45::train) does.
    pub fn train(data: &Dataset, seed: u64) -> DecisionTree {
        let k = ((data.n_attrs() as f64).log2().ceil() as usize + 1).clamp(1, data.n_attrs());
        let mut selection = Selection::Random {
            k,
            rng: ChaCha8Rng::seed_from_u64(seed),
        };
        DecisionTree::new(grow_tree(data, MIN_LEAF, &mut selection), data.n_classes())
    }
}

impl Learner for RandomTree {
    type Model = DecisionTree;

    fn fit(&self, data: &Dataset) -> DecisionTree {
        RandomTree::train(data, 0)
    }

    fn name(&self) -> &'static str {
        "RandomTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Value;
    use crate::Classifier;
    use rand::Rng;

    /// Two classes of `n` rows over `dims` numeric attributes, each of
    /// which separates them: class 0 lies in [0, 1), class 1 in [10, 11).
    fn blobs(n: usize, dims: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut builder = Dataset::builder();
        for d in 0..dims {
            builder = builder.numeric_attr(format!("a{d}"));
        }
        let mut ds = builder.classes(["a", "b"]).build();
        for _ in 0..n {
            let label = rng.gen_range(0..2u32);
            let center = if label == 0 { 0.0 } else { 10.0 };
            ds.push(
                (0..dims)
                    .map(|_| Value::Num(center + rng.gen::<f64>()))
                    .collect(),
                label,
            );
        }
        ds
    }

    #[test]
    fn separable_blobs_classified() {
        let ds = blobs(200, 2, 11);
        let tree = RandomTree::train(&ds, 0);
        assert_eq!(tree.predict(&[Value::Num(0.5), Value::Num(0.5)]), 0);
        assert_eq!(tree.predict(&[Value::Num(10.5), Value::Num(10.5)]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blobs(200, 2, 12);
        let a = RandomTree::train(&ds, 99);
        let b = RandomTree::train(&ds, 99);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn different_seeds_vary_structure() {
        // Four informative attributes: a node examines ⌈log₂ 4⌉ + 1 = 3 of
        // them, so seeds must produce different trees.
        let ds = blobs(300, 4, 13);
        let mk = |seed| RandomTree::train(&ds, seed).to_string();
        let distinct = (0..8).map(mk).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "all seeds produced identical trees");
    }
}
