//! RandomForest: bagged ensemble of [`RandomTree`]s with majority voting
//! (one of the Table 1 comparison algorithms).
//!
//! The paper finds RandomForest matches J48's accuracy but classifies ~30×
//! slower (106 µs vs 3 µs median, §7.1.2) — which is exactly what an
//! ensemble of `n_trees` traversals costs, so the reproduction recovers the
//! same trade-off mechanically.

use crate::data::{Dataset, Value};
use crate::random_tree::RandomTree;
use crate::tree::DecisionTree;
use crate::{Classifier, Learner};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tunables of the RandomForest learner.
#[derive(Debug, Clone)]
pub struct ForestParams {
    /// Number of trees. Weka's default is 100; Table 1 runs 25 and the
    /// Fig 6 latency row runs 50.
    pub n_trees: usize,
    /// Master seed; tree seeds and bootstrap samples derive from it.
    pub seed: u64,
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct Forest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl Forest {
    /// Trains a forest on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `params.n_trees` is zero.
    pub fn train(data: &Dataset, params: &ForestParams) -> Forest {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(params.n_trees > 0, "forest needs at least one tree");
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let trees = (0..params.n_trees)
            .map(|t| {
                // Bootstrap sample with replacement, same size as the input.
                let idx: Vec<usize> = (0..data.len())
                    .map(|_| rng.gen_range(0..data.len()))
                    .collect();
                let sample = data.subset(&idx);
                let seed = params.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                RandomTree::train(&sample, seed)
            })
            .collect();
        Forest {
            trees,
            n_classes: data.n_classes(),
        }
    }

    /// The ensemble members.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

impl Classifier for Forest {
    fn predict(&self, instance: &[Value]) -> u32 {
        crate::data::majority(&self.distribution(instance))
    }

    fn distribution(&self, instance: &[Value]) -> Vec<f64> {
        let mut votes = vec![0.0; self.n_classes];
        for t in &self.trees {
            // Soft voting over normalized leaf distributions (Weka style).
            for (v, p) in votes.iter_mut().zip(t.distribution(instance)) {
                *v += p;
            }
        }
        for v in &mut votes {
            *v /= self.trees.len() as f64;
        }
        votes
    }
}

/// The RandomForest learner.
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: ForestParams,
}

impl RandomForest {
    /// Creates a learner with the given parameters.
    pub fn new(params: ForestParams) -> Self {
        RandomForest { params }
    }
}

impl Learner for RandomForest {
    type Model = Forest;

    fn fit(&self, data: &Dataset) -> Forest {
        Forest::train(data, &self.params)
    }

    fn name(&self) -> &'static str {
        "RandomForest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_threshold(n: usize, seed: u64) -> Dataset {
        // label = x > 50, with 10% label noise: single trees overfit the
        // noise; the ensemble should still find the boundary.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["lo", "hi"])
            .build();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..100.0);
            let mut label = u32::from(x > 50.0);
            if rng.gen::<f64>() < 0.10 {
                label ^= 1;
            }
            ds.push(vec![Value::Num(x)], label);
        }
        ds
    }

    #[test]
    fn ensemble_beats_noise() {
        let ds = noisy_threshold(500, 21);
        let forest = Forest::train(
            &ds,
            &ForestParams {
                n_trees: 25,
                seed: 0,
            },
        );
        let mut correct = 0;
        for i in 0..100 {
            let x = i as f64;
            if forest.predict(&[Value::Num(x)]) == u32::from(x > 50.0) {
                correct += 1;
            }
        }
        assert!(correct >= 95, "forest accuracy too low: {correct}/100");
    }

    #[test]
    fn distribution_sums_to_one() {
        let ds = noisy_threshold(200, 22);
        let forest = Forest::train(
            &ds,
            &ForestParams {
                n_trees: 50,
                seed: 0,
            },
        );
        let d = forest.distribution(&[Value::Num(75.0)]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(
            crate::data::majority(&d),
            forest.predict(&[Value::Num(75.0)])
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = noisy_threshold(200, 23);
        let p = ForestParams {
            n_trees: 10,
            seed: 7,
        };
        let a = Forest::train(&ds, &p);
        let b = Forest::train(&ds, &p);
        for x in [10.0, 30.0, 50.0, 70.0, 90.0] {
            assert_eq!(
                a.distribution(&[Value::Num(x)]),
                b.distribution(&[Value::Num(x)])
            );
        }
    }

    #[test]
    fn trees_are_diverse() {
        let ds = noisy_threshold(300, 24);
        let forest = Forest::train(
            &ds,
            &ForestParams {
                n_trees: 10,
                seed: 0,
            },
        );
        let shapes: std::collections::HashSet<String> =
            forest.trees().iter().map(|t| t.to_string()).collect();
        assert!(shapes.len() > 1, "bagging produced identical trees");
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let ds = noisy_threshold(10, 25);
        let _ = Forest::train(
            &ds,
            &ForestParams {
                n_trees: 0,
                seed: 0,
            },
        );
    }
}
