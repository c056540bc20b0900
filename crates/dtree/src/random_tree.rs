//! RandomTree: a decision tree that examines a random subset of attributes
//! at each node (the base learner of RandomForest, and one of the Table 1
//! comparison algorithms).
//!
//! It grows through C4.5's growers ([`crate::c45`]) with RandomTree's
//! split selection: a node keeps the best raw information gain among a
//! random sample of attributes, not the best gain ratio among all of them.
//! Split search, missing-value routing and the leaf rules are C4.5's, and
//! the tree is not pruned — variance is controlled by the ensemble
//! instead.

use crate::c45::{grow_tree, C45Params, Selection};
use crate::data::Dataset;
use crate::tree::DecisionTree;
use crate::Learner;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tunables of the RandomTree learner.
#[derive(Debug, Clone)]
pub struct RandomTreeParams {
    /// Attributes examined per node; `None` means `ceil(log2(d)) + 1`.
    pub k_attrs: Option<usize>,
    /// Minimum total instance weight per leaf.
    pub min_leaf: f64,
    /// Optional depth cap.
    pub max_depth: Option<usize>,
    /// RNG seed (the tree is deterministic given the seed).
    pub seed: u64,
}

impl Default for RandomTreeParams {
    fn default() -> Self {
        RandomTreeParams {
            k_attrs: None,
            min_leaf: 1.0,
            max_depth: None,
            seed: 0,
        }
    }
}

/// The RandomTree learner.
#[derive(Debug, Clone, Default)]
pub struct RandomTree {
    params: RandomTreeParams,
}

impl RandomTree {
    /// Creates a learner with the given parameters.
    pub fn new(params: RandomTreeParams) -> Self {
        RandomTree { params }
    }

    /// Trains a tree on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(data: &Dataset, params: &RandomTreeParams) -> DecisionTree {
        let k = params
            .k_attrs
            .unwrap_or_else(|| (data.n_attrs() as f64).log2().ceil() as usize + 1)
            .clamp(1, data.n_attrs());
        let c45 = C45Params {
            min_leaf: params.min_leaf,
            max_depth: params.max_depth,
            ..C45Params::default()
        };
        let mut selection = Selection::Random {
            k,
            rng: ChaCha8Rng::seed_from_u64(params.seed),
        };
        DecisionTree::new(grow_tree(data, &c45, &mut selection), data.n_classes())
    }
}

impl Learner for RandomTree {
    type Model = DecisionTree;

    fn fit(&self, data: &Dataset) -> DecisionTree {
        RandomTree::train(data, &self.params)
    }

    fn name(&self) -> &'static str {
        "RandomTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Value;
    use crate::tree::Node;
    use crate::Classifier;
    use rand::Rng;

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .numeric_attr("y")
            .classes(["a", "b"])
            .build();
        for _ in 0..n {
            let label = rng.gen_range(0..2u32);
            let center = if label == 0 { 0.0 } else { 10.0 };
            ds.push(
                vec![
                    Value::Num(center + rng.gen::<f64>()),
                    Value::Num(center + rng.gen::<f64>()),
                ],
                label,
            );
        }
        ds
    }

    #[test]
    fn separable_blobs_classified() {
        let ds = blobs(200, 11);
        let tree = RandomTree::train(&ds, &RandomTreeParams::default());
        assert_eq!(tree.predict(&[Value::Num(0.5), Value::Num(0.5)]), 0);
        assert_eq!(tree.predict(&[Value::Num(10.5), Value::Num(10.5)]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blobs(200, 12);
        let p = RandomTreeParams {
            seed: 99,
            ..RandomTreeParams::default()
        };
        let a = RandomTree::train(&ds, &p);
        let b = RandomTree::train(&ds, &p);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn different_seeds_vary_structure() {
        // With k restricted to 1 attribute per node, seeds must produce
        // different trees on a dataset where both attributes are informative.
        let ds = blobs(300, 13);
        let mk = |seed| {
            RandomTree::train(
                &ds,
                &RandomTreeParams {
                    seed,
                    k_attrs: Some(1),
                    ..RandomTreeParams::default()
                },
            )
            .to_string()
        };
        let distinct = (0..8).map(mk).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "all seeds produced identical trees");
    }

    #[test]
    fn depth_cap_respected() {
        let ds = blobs(300, 14);
        let tree = RandomTree::train(
            &ds,
            &RandomTreeParams {
                max_depth: Some(2),
                ..RandomTreeParams::default()
            },
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn missing_nominal_rows_reach_a_child() {
        let mut ds = Dataset::builder()
            .nominal_attr("c", ["x", "y"])
            .classes(["a", "b"])
            .build();
        for _ in 0..20 {
            ds.push(vec![Value::Nom(0)], 0);
            ds.push(vec![Value::Nom(1)], 1);
        }
        for _ in 0..10 {
            ds.push(vec![Value::Missing], 0);
        }
        let tree = RandomTree::train(&ds, &RandomTreeParams::default());
        let Node::SplitNom { dist, children, .. } = tree.root() else {
            panic!("expected a nominal split at the root:\n{tree}");
        };
        let mut reached = vec![0.0; dist.len()];
        for child in children {
            for (r, w) in reached.iter_mut().zip(child.dist()) {
                *r += w;
            }
        }
        assert_eq!(&reached, dist);
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
        let tree = RandomTree::train(&ds, &RandomTreeParams::default());
        let _ = tree.predict(&[Value::Missing, Value::Missing]);
    }
}
