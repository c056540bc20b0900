//! Dataset representation: schema (numeric / nominal attributes), weighted
//! instances and class labels.
//!
//! OFC's feature vectors mix numeric features (input byte size, pixel
//! dimensions, media duration, blur radius, …) with nominal ones (image or
//! codec format); function-specific arguments arrive as opaque values whose
//! nominal ensembles are learned from the retained training set (§5.1.2).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single attribute value of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A numeric (continuous) value.
    Num(f64),
    /// An index into the nominal ensemble of the attribute.
    Nom(u32),
    /// Missing/unknown value.
    Missing,
}

impl Value {
    /// Whether this value is [`Value::Missing`].
    pub fn is_missing(self) -> bool {
        matches!(self, Value::Missing)
    }

    /// The numeric payload, or `None` for nominal/missing values.
    pub fn as_num(self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The nominal index, or `None` for numeric/missing values.
    pub fn as_nom(self) -> Option<u32> {
        match self {
            Value::Nom(v) => Some(v),
            _ => None,
        }
    }
}

/// Kind of an attribute: continuous or categorical with a fixed ensemble.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrKind {
    /// Real-valued attribute; splits are binary threshold tests.
    Numeric,
    /// Categorical attribute with named values; splits are multiway.
    Nominal(Vec<String>),
}

impl AttrKind {
    /// Number of nominal values, or `None` for numeric attributes.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            AttrKind::Numeric => None,
            AttrKind::Nominal(v) => Some(v.len()),
        }
    }
}

/// A named, typed attribute of the dataset schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name (for display and model dumps).
    pub name: String,
    /// Attribute kind.
    pub kind: AttrKind,
}

/// One training instance: attribute values, class label, instance weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// One value per schema attribute.
    pub values: Vec<Value>,
    /// Class index (into [`Dataset::classes`]).
    pub label: u32,
    /// Training weight (OFC boosts underprediction samples, §5.3.3).
    pub weight: f64,
}

/// A weighted, labelled dataset with a fixed attribute schema.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// The schema is shared, not owned: datasets over one schema
    /// ([`Dataset::over`], [`Dataset::empty_like`]) hold one copy of the
    /// attributes and of the class names between them.
    attrs: Arc<[Attribute]>,
    classes: Arc<[String]>,
    rows: Vec<Instance>,
}

impl Dataset {
    /// Starts building a dataset schema.
    pub fn builder() -> DatasetBuilder {
        DatasetBuilder::default()
    }

    /// An empty dataset over a schema that is held elsewhere too: a caller
    /// with many datasets over the same attributes or classes (one per
    /// function, over the 128 memory intervals) pays for them once, and
    /// this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if no attribute or fewer than two classes were declared.
    pub fn over(attrs: Arc<[Attribute]>, classes: Arc<[String]>) -> Dataset {
        assert!(!attrs.is_empty(), "dataset needs at least one attribute");
        assert!(classes.len() >= 2, "dataset needs at least two classes");
        Dataset {
            attrs,
            classes,
            rows: Vec::new(),
        }
    }

    /// The attribute schema.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The class names.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// The instances.
    pub fn rows(&self) -> &[Instance] {
        &self.rows
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset holds no instances.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends an instance with weight 1.
    ///
    /// # Panics
    ///
    /// Panics if the value arity, value kinds, or label are inconsistent
    /// with the schema.
    pub fn push(&mut self, values: Vec<Value>, label: u32) {
        self.push_weighted(values, label, 1.0);
    }

    /// Appends an instance with an explicit weight.
    ///
    /// # Panics
    ///
    /// Panics on schema violations or non-positive/non-finite weights.
    pub fn push_weighted(&mut self, values: Vec<Value>, label: u32, weight: f64) {
        assert_eq!(
            values.len(),
            self.attrs.len(),
            "instance arity {} does not match schema arity {}",
            values.len(),
            self.attrs.len()
        );
        assert!(
            (label as usize) < self.classes.len(),
            "label {label} out of range for {} classes",
            self.classes.len()
        );
        assert!(
            weight.is_finite() && weight > 0.0,
            "instance weight must be positive, got {weight}"
        );
        for (v, a) in values.iter().zip(self.attrs.iter()) {
            match (v, &a.kind) {
                (Value::Missing, _) => {}
                (Value::Num(x), AttrKind::Numeric) => {
                    assert!(x.is_finite(), "non-finite value for attribute {}", a.name);
                }
                (Value::Nom(i), AttrKind::Nominal(vals)) => {
                    assert!(
                        (*i as usize) < vals.len(),
                        "nominal index {i} out of range for attribute {}",
                        a.name
                    );
                }
                _ => panic!("value kind mismatch for attribute {}", a.name),
            }
        }
        self.rows.push(Instance {
            values,
            label,
            weight,
        });
    }

    /// Removes all instances, keeping the schema.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Drops the oldest instances until at most `max` remain.
    ///
    /// OFC keeps a *small but valuable* training set (§5.3.3); this is the
    /// bound enforcement.
    pub fn truncate_oldest(&mut self, max: usize) {
        if self.rows.len() > max {
            self.rows.drain(..self.rows.len() - max);
        }
    }

    /// A dataset with the same schema and no instances.
    pub fn empty_like(&self) -> Dataset {
        Dataset {
            attrs: self.attrs.clone(),
            classes: self.classes.clone(),
            rows: Vec::new(),
        }
    }

    /// A dataset with the same schema holding the rows selected by `idx`.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let mut out = self.empty_like();
        out.rows = idx.iter().map(|&i| self.rows[i].clone()).collect();
        out
    }

    /// Total instance weight.
    pub fn total_weight(&self) -> f64 {
        self.rows.iter().map(|r| r.weight).sum()
    }

    /// Weighted class distribution (one entry per class).
    pub fn class_distribution(&self) -> Vec<f64> {
        let mut dist = vec![0.0; self.classes.len()];
        for r in &self.rows {
            dist[r.label as usize] += r.weight;
        }
        dist
    }

    /// Index of the majority (highest-weight) class; ties break to the
    /// lowest index. Returns 0 for an empty dataset.
    pub fn majority_class(&self) -> u32 {
        majority(&self.class_distribution())
    }
}

/// Argmax over a distribution, ties broken to the lowest index.
pub(crate) fn majority(dist: &[f64]) -> u32 {
    let mut best = 0usize;
    for (i, &w) in dist.iter().enumerate() {
        if w > dist[best] {
            best = i;
        }
    }
    best as u32
}

/// Builder for a [`Dataset`] schema.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    attrs: Vec<Attribute>,
    classes: Arc<[String]>,
}

impl DatasetBuilder {
    /// Adds a numeric attribute.
    pub fn numeric_attr(mut self, name: impl Into<String>) -> Self {
        self.attrs.push(Attribute {
            name: name.into(),
            kind: AttrKind::Numeric,
        });
        self
    }

    /// Adds a nominal attribute with the given value ensemble.
    pub fn nominal_attr<I, S>(mut self, name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.attrs.push(Attribute {
            name: name.into(),
            kind: AttrKind::Nominal(values.into_iter().map(Into::into).collect()),
        });
        self
    }

    /// Sets the class names.
    pub fn classes<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.classes = names.into_iter().map(Into::into).collect();
        self
    }

    /// Finishes the schema.
    ///
    /// # Panics
    ///
    /// Panics if no attribute or fewer than two classes were declared.
    pub fn build(self) -> Dataset {
        Dataset::over(self.attrs.into(), self.classes)
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({} attrs, {} classes, {} rows)",
            self.attrs.len(),
            self.classes.len(),
            self.rows.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Dataset {
        Dataset::builder()
            .numeric_attr("size")
            .nominal_attr("fmt", ["png", "jpg"])
            .classes(["lo", "hi"])
            .build()
    }

    #[test]
    fn builder_produces_expected_schema() {
        let ds = schema();
        assert_eq!(ds.n_attrs(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.attrs()[0].kind, AttrKind::Numeric);
        assert_eq!(ds.attrs()[1].kind.cardinality(), Some(2));
    }

    #[test]
    fn push_and_distribution() {
        let mut ds = schema();
        ds.push(vec![Value::Num(1.0), Value::Nom(0)], 0);
        ds.push_weighted(vec![Value::Num(2.0), Value::Nom(1)], 1, 3.0);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.total_weight(), 4.0);
        assert_eq!(ds.class_distribution(), vec![1.0, 3.0]);
        assert_eq!(ds.majority_class(), 1);
    }

    #[test]
    fn majority_ties_break_low() {
        assert_eq!(majority(&[2.0, 2.0, 1.0]), 0);
        assert_eq!(majority(&[]), 0);
    }

    #[test]
    fn missing_values_accepted() {
        let mut ds = schema();
        ds.push(vec![Value::Missing, Value::Missing], 0);
        assert!(ds.rows()[0].values[0].is_missing());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_wrong_arity_panics() {
        schema().push(vec![Value::Num(1.0)], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_bad_label_panics() {
        schema().push(vec![Value::Num(1.0), Value::Nom(0)], 9);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn push_kind_mismatch_panics() {
        schema().push(vec![Value::Nom(0), Value::Nom(0)], 0);
    }

    #[test]
    #[should_panic(expected = "nominal index")]
    fn push_bad_nominal_panics() {
        schema().push(vec![Value::Num(0.0), Value::Nom(5)], 0);
    }

    #[test]
    fn subset_selects_rows() {
        let mut ds = schema();
        for i in 0..5 {
            ds.push(vec![Value::Num(i as f64), Value::Nom(0)], (i % 2) as u32);
        }
        let sub = ds.subset(&[0, 4]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.rows()[1].values[0], Value::Num(4.0));
    }

    #[test]
    fn truncate_oldest_keeps_recent() {
        let mut ds = schema();
        for i in 0..10 {
            ds.push(vec![Value::Num(i as f64), Value::Nom(0)], 0);
        }
        ds.truncate_oldest(3);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.rows()[0].values[0], Value::Num(7.0));
    }

    #[test]
    fn serde_round_trip() {
        let mut ds = schema();
        ds.push(vec![Value::Num(1.5), Value::Nom(1)], 1);
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.rows()[0].label, 1);
    }
}
