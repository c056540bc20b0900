//! Shared decision-tree structure used by the batch learners (C4.5 and
//! RandomTree).
//!
//! A tree is a recursive [`Node`]; every node carries the weighted class
//! distribution of the training instances that reached it, which answers
//! [`Classifier::distribution`] at a leaf and is what the pruning pass
//! replaces a subtree by. [`DecisionTree::compile`] drops the
//! distributions for a caller that only predicts: a [`CompiledTree`].

use crate::data::{majority, Value};
use crate::Classifier;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A decision-tree node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Node {
    /// Terminal node predicting from its class distribution.
    Leaf {
        /// Weighted class distribution at this leaf.
        dist: Vec<f64>,
    },
    /// Binary test on a numeric attribute: `value <= threshold` goes left.
    SplitNum {
        /// Attribute index tested.
        attr: usize,
        /// Split threshold.
        threshold: f64,
        /// Class distribution at this node (for pruning).
        dist: Vec<f64>,
        /// Branch for `value <= threshold`.
        le: Box<Node>,
        /// Branch for `value > threshold`.
        gt: Box<Node>,
    },
    /// Multiway test on a nominal attribute: one child per nominal value.
    SplitNom {
        /// Attribute index tested.
        attr: usize,
        /// Class distribution at this node (for pruning).
        dist: Vec<f64>,
        /// One child per nominal value of the attribute.
        children: Vec<Node>,
    },
}

impl Node {
    /// The class distribution recorded at this node.
    pub fn dist(&self) -> &[f64] {
        match self {
            Node::Leaf { dist } => dist,
            Node::SplitNum { dist, .. } => dist,
            Node::SplitNom { dist, .. } => dist,
        }
    }

    /// Routes `instance` to the leaf distribution it falls into.
    ///
    /// # Panics
    ///
    /// Panics if `instance` does not fit the training schema: too short,
    /// a value of the wrong kind, or a nominal index outside the ensemble.
    pub fn classify<'a>(&'a self, instance: &[Value]) -> &'a [f64] {
        match self {
            Node::Leaf { dist } => dist,
            Node::SplitNum {
                attr,
                threshold,
                le,
                gt,
                ..
            } => match instance[*attr] {
                Value::Num(v) if v <= *threshold => le.classify(instance),
                Value::Num(_) => gt.classify(instance),
                Value::Nom(_) => panic!("value kind mismatch for attribute {attr}"),
            },
            Node::SplitNom { attr, children, .. } => match instance[*attr] {
                Value::Nom(v) => children[v as usize].classify(instance),
                Value::Num(_) => panic!("value kind mismatch for attribute {attr}"),
            },
        }
    }

    /// Number of nodes in this subtree.
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::SplitNum { le, gt, .. } => 1 + le.size() + gt.size(),
            Node::SplitNom { children, .. } => 1 + children.iter().map(Node::size).sum::<usize>(),
        }
    }

    /// Number of leaves in this subtree.
    pub fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::SplitNum { le, gt, .. } => le.leaves() + gt.leaves(),
            Node::SplitNom { children, .. } => children.iter().map(Node::leaves).sum(),
        }
    }

    /// Depth of this subtree (a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::SplitNum { le, gt, .. } => 1 + le.depth().max(gt.depth()),
            Node::SplitNom { children, .. } => {
                1 + children.iter().map(Node::depth).max().unwrap_or(0)
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            Node::Leaf { dist } => {
                writeln!(f, "{pad}leaf -> class {} {dist:?}", majority(dist))
            }
            Node::SplitNum {
                attr,
                threshold,
                le,
                gt,
                ..
            } => {
                writeln!(f, "{pad}attr[{attr}] <= {threshold:.4}?")?;
                le.fmt_indented(f, depth + 1)?;
                gt.fmt_indented(f, depth + 1)
            }
            Node::SplitNom { attr, children, .. } => {
                writeln!(f, "{pad}attr[{attr}] in {{0..{}}}", children.len())?;
                for c in children {
                    c.fmt_indented(f, depth + 1)?;
                }
                Ok(())
            }
        }
    }
}

/// A trained decision tree (output of C4.5 or RandomTree).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
}

impl DecisionTree {
    /// Wraps a root node.
    pub fn new(root: Node, n_classes: usize) -> Self {
        DecisionTree { root, n_classes }
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Number of classes of the training dataset.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Leaf count.
    pub fn leaves(&self) -> usize {
        self.root.leaves()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// The prediction-only copy of this tree: see [`CompiledTree`].
    pub fn compile(&self) -> CompiledTree {
        let mut nodes = vec![Compiled::Leaf(0)];
        compile_into(&self.root, 0, &mut nodes);
        CompiledTree { nodes }
    }
}

/// A [`DecisionTree`] reduced to what [`Classifier::predict`] reads: one
/// flat array of tests and leaf classes, about 24 bytes a node where the
/// tree's nodes carry a class distribution each (1 KB over 128 classes).
/// Each leaf holds the majority class of its distribution, taken once, so
/// [`CompiledTree::predict`] answers as the tree does by construction.
#[derive(Debug, Clone)]
pub struct CompiledTree {
    /// The root at index 0; a split's children sit side by side.
    nodes: Vec<Compiled>,
}

#[derive(Debug, Clone, Copy)]
enum Compiled {
    /// The predicted class.
    Leaf(u32),
    /// `value <= threshold` goes to `children`, the rest to `children + 1`.
    Num {
        attr: u32,
        threshold: f64,
        children: u32,
    },
    /// Nominal index `v` goes to `children + v`, for `v < arity`.
    Nom {
        attr: u32,
        children: u32,
        arity: u32,
    },
}

/// Writes `node` at `at`, appending its subtree's nodes to `nodes`.
fn compile_into(node: &Node, at: usize, nodes: &mut Vec<Compiled>) {
    let first = nodes.len();
    let index = |n: usize| u32::try_from(n).expect("tree fits u32 indices");
    nodes[at] = match node {
        Node::Leaf { dist } => Compiled::Leaf(majority(dist)),
        Node::SplitNum {
            attr, threshold, ..
        } => Compiled::Num {
            attr: index(*attr),
            threshold: *threshold,
            children: index(first),
        },
        Node::SplitNom { attr, children, .. } => Compiled::Nom {
            attr: index(*attr),
            children: index(first),
            arity: index(children.len()),
        },
    };
    match node {
        Node::Leaf { .. } => {}
        Node::SplitNum { le, gt, .. } => {
            nodes.resize(first + 2, Compiled::Leaf(0));
            compile_into(le, first, nodes);
            compile_into(gt, first + 1, nodes);
        }
        Node::SplitNom { children, .. } => {
            nodes.resize(first + children.len(), Compiled::Leaf(0));
            for (i, child) in children.iter().enumerate() {
                compile_into(child, first + i, nodes);
            }
        }
    }
}

impl CompiledTree {
    /// The class [`DecisionTree::predict`] gives `instance`.
    ///
    /// # Panics
    ///
    /// As [`Node::classify`]: if `instance` does not fit the training
    /// schema — too short, a value of the wrong kind, or a nominal index
    /// outside the ensemble.
    pub fn predict(&self, instance: &[Value]) -> u32 {
        let mut at = 0;
        loop {
            at = match self.nodes[at] {
                Compiled::Leaf(class) => return class,
                Compiled::Num {
                    attr,
                    threshold,
                    children,
                } => match instance[attr as usize] {
                    Value::Num(v) if v <= threshold => children as usize,
                    Value::Num(_) => children as usize + 1,
                    Value::Nom(_) => panic!("value kind mismatch for attribute {attr}"),
                },
                Compiled::Nom {
                    attr,
                    children,
                    arity,
                } => match instance[attr as usize] {
                    Value::Nom(v) if v < arity => (children + v) as usize,
                    Value::Nom(v) => panic!("nominal index {v} out of range for attribute {attr}"),
                    Value::Num(_) => panic!("value kind mismatch for attribute {attr}"),
                },
            };
        }
    }

    /// Node count: the tree's [`DecisionTree::size`].
    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        self.nodes.len()
    }
}

impl Classifier for DecisionTree {
    fn predict(&self, instance: &[Value]) -> u32 {
        majority(self.root.classify(instance))
    }

    fn distribution(&self, instance: &[Value]) -> Vec<f64> {
        let dist = self.root.classify(instance);
        let total: f64 = dist.iter().sum();
        if total <= 0.0 {
            vec![1.0 / self.n_classes as f64; self.n_classes]
        } else {
            dist.iter().map(|w| w / total).collect()
        }
    }
}

impl fmt::Display for DecisionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> DecisionTree {
        // attr0 <= 5 ? (attr1 nominal in {0,1}) : leaf class1
        let root = Node::SplitNum {
            attr: 0,
            threshold: 5.0,
            dist: vec![6.0, 4.0],
            le: Box::new(Node::SplitNom {
                attr: 1,
                dist: vec![5.0, 1.0],
                children: vec![
                    Node::Leaf {
                        dist: vec![5.0, 0.0],
                    },
                    Node::Leaf {
                        dist: vec![0.0, 1.0],
                    },
                ],
            }),
            gt: Box::new(Node::Leaf {
                dist: vec![1.0, 3.0],
            }),
        };
        DecisionTree::new(root, 2)
    }

    #[test]
    fn classify_routes_through_splits() {
        let t = sample_tree();
        assert_eq!(t.predict(&[Value::Num(2.0), Value::Nom(0)]), 0);
        assert_eq!(t.predict(&[Value::Num(2.0), Value::Nom(1)]), 1);
        assert_eq!(t.predict(&[Value::Num(9.0), Value::Nom(0)]), 1);
    }

    #[test]
    fn boundary_goes_left() {
        let t = sample_tree();
        assert_eq!(t.predict(&[Value::Num(5.0), Value::Nom(0)]), 0);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn classify_kind_mismatch_panics() {
        sample_tree().predict(&[Value::Nom(0), Value::Nom(0)]);
    }

    #[test]
    fn compiled_tree_predicts_as_the_tree() {
        let (t, c) = (sample_tree(), sample_tree().compile());
        assert_eq!(c.size(), t.size());
        assert_eq!(std::mem::size_of::<Compiled>(), 24);
        for x in [2.0, 5.0, 9.0, f64::NAN] {
            for v in 0..2 {
                let instance = [Value::Num(x), Value::Nom(v)];
                assert_eq!(c.predict(&instance), t.predict(&instance));
            }
        }
    }

    #[test]
    #[should_panic(expected = "kind mismatch for attribute 0")]
    fn compiled_numeric_test_kind_mismatch_panics() {
        sample_tree()
            .compile()
            .predict(&[Value::Nom(0), Value::Nom(0)]);
    }

    #[test]
    #[should_panic(expected = "kind mismatch for attribute 1")]
    fn compiled_nominal_test_kind_mismatch_panics() {
        sample_tree()
            .compile()
            .predict(&[Value::Num(2.0), Value::Num(0.0)]);
    }

    #[test]
    #[should_panic(expected = "nominal index 2 out of range for attribute 1")]
    fn compiled_out_of_range_nominal_panics() {
        sample_tree()
            .compile()
            .predict(&[Value::Num(2.0), Value::Nom(2)]);
    }

    #[test]
    fn distribution_normalizes() {
        let t = sample_tree();
        let d = t.distribution(&[Value::Num(9.0), Value::Nom(0)]);
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn size_leaves_depth() {
        let t = sample_tree();
        assert_eq!(t.size(), 5);
        assert_eq!(t.leaves(), 3);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn display_renders_structure() {
        let text = sample_tree().to_string();
        assert!(text.contains("attr[0] <= 5.0000?"));
        assert!(text.contains("leaf"));
    }

    #[test]
    fn serde_round_trip() {
        let t = sample_tree();
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back.size(), t.size());
        assert_eq!(back.predict(&[Value::Num(9.0), Value::Nom(0)]), 1);
    }
}
