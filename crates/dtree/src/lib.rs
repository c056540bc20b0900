//! Decision-tree machine learning for the OFC reproduction.
//!
//! OFC (EuroSys '21, §5) predicts per-invocation sandbox memory with a J48
//! decision tree (the Weka implementation of C4.5) and compares it against
//! RandomForest, RandomTree and HoeffdingTree (Table 1). This crate
//! reimplements all four from scratch, plus the evaluation machinery
//! (stratified k-fold cross-validation, confusion matrices,
//! precision/recall/F-measure) used in §7.1.
//!
//! The classifiers share the [`Classifier`] trait; all operate on the
//! [`data::Dataset`] representation of complete rows over numeric and
//! nominal attributes, with whole-number instance weights (OFC weights
//! underprediction samples higher during retraining, §5.3.3).
//!
//! # Examples
//!
//! Train J48 on a tiny dataset and classify an unseen instance:
//!
//! ```
//! use ofc_dtree::data::{Dataset, Value};
//! use ofc_dtree::c45::{C45Params, C45};
//! use ofc_dtree::Classifier;
//!
//! let mut ds = Dataset::builder()
//!     .numeric_attr("input_kb")
//!     .classes(["small", "large"])
//!     .build();
//! for kb in [1.0, 2.0, 3.0, 4.0] {
//!     ds.push(vec![Value::Num(kb)], 0);
//! }
//! for kb in [100.0, 120.0, 140.0, 160.0] {
//!     ds.push(vec![Value::Num(kb)], 1);
//! }
//! let tree = C45::train(&ds, &C45Params);
//! assert_eq!(tree.predict(&[Value::Num(130.0)]), 1);
//! ```

pub mod c45;
pub mod data;
pub mod eval;
pub mod forest;
pub mod hoeffding;
pub mod random_tree;
pub mod tree;

use data::{Dataset, Value};

/// A trained classifier: maps an instance (one [`Value`] per attribute) to a
/// class index of the training dataset.
pub trait Classifier {
    /// Predicts the class index for `instance`.
    ///
    /// `instance` must supply one value per attribute of the training
    /// dataset, in schema order.
    fn predict(&self, instance: &[Value]) -> u32;

    /// Per-class scores (votes or probabilities); the argmax must agree with
    /// [`Classifier::predict`].
    fn distribution(&self, instance: &[Value]) -> Vec<f64>;
}

/// A learning algorithm that produces a [`Classifier`] from a dataset.
///
/// This indirection lets the Table 1 harness sweep algorithms uniformly.
pub trait Learner {
    /// The classifier type this learner produces.
    type Model: Classifier;

    /// Trains a model on `data`.
    fn fit(&self, data: &Dataset) -> Self::Model;

    /// Human-readable algorithm name (used in experiment output).
    fn name(&self) -> &'static str;
}
