//! Object metadata tags: the key/value pairs the RSDS stores beside an
//! object, where OFC keeps an input's extracted ML features (§5.1.2).

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::rc::Rc;

/// An object's metadata tags: all of its `key`/`value` pairs in one
/// immutable, `Rc`-shared heap block.
///
/// Cloning copies a pointer, never the pairs: a read of an object shares
/// the store's block, and a write that changes the tags builds a new block
/// and leaves earlier readers' copies as they were. The empty value holds
/// no block, so every untagged object shares it at no cost.
///
/// Read a value with [`Tags::get`]; [`Tags::iter`] walks the pairs in the
/// order they were written. Build a block with [`TagsBuilder`], or convert
/// a `HashMap<String, String>` (its pairs are written in key order).
/// Keys and values cannot contain NUL, which separates them in the block;
/// Swift's metadata headers cannot carry one either.
#[derive(Clone, Default)]
pub struct Tags(Option<Rc<str>>);

impl Tags {
    /// The value tagged `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The `(key, value)` pairs, in the order they were written.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let mut parts = self.0.as_deref().unwrap_or("").split_terminator('\0');
        std::iter::from_fn(move || Some((parts.next()?, parts.next()?)))
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Whether `a` and `b` are the same block (any two empty values are).
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Tags, b: &Tags) -> bool {
        match (&a.0, &b.0) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// `self` updated with `newer`: a key of both takes `newer`'s value.
    pub(crate) fn merged(&self, newer: Tags) -> Tags {
        let (Some(old), Some(new)) = (&self.0, &newer.0) else {
            return if newer.is_empty() {
                self.clone()
            } else {
                newer
            };
        };
        let mut block = TagsBuilder::with_capacity(old.len() + new.len());
        for (k, v) in self.iter().filter(|(k, _)| newer.get(k).is_none()) {
            block.push(k, v);
        }
        for (k, v) in newer.iter() {
            block.push(k, v);
        }
        block.finish()
    }
}

impl fmt::Debug for Tags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl From<HashMap<String, String>> for Tags {
    fn from(map: HashMap<String, String>) -> Tags {
        if map.is_empty() {
            return Tags::default();
        }
        // Key order, not the map's: the block is the same for equal maps.
        let mut pairs: Vec<(&String, &String)> = map.iter().collect();
        pairs.sort_unstable();
        let bytes = pairs.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
        let mut block = TagsBuilder::with_capacity(bytes);
        for (k, v) in pairs {
            block.push(k, v);
        }
        block.finish()
    }
}

/// Writes a [`Tags`] block pair by pair, formatting each value in place.
///
/// [`TagsBuilder::finish`] copies what was written into the block: a
/// builder sized for what it will hold costs two allocations in all.
#[derive(Debug, Default)]
pub struct TagsBuilder {
    block: String,
}

impl TagsBuilder {
    /// A builder with room for a `bytes`-byte block before it grows: a
    /// pair takes its key's and its value's length plus two.
    pub fn with_capacity(bytes: usize) -> Self {
        TagsBuilder {
            block: String::with_capacity(bytes),
        }
    }

    /// Appends the pair `key`/`value`. Keys are expected to be distinct;
    /// [`Tags::get`] reads the first pair written for a key.
    ///
    /// # Panics
    ///
    /// If `key` or the formatted `value` contains NUL.
    pub fn push(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        assert!(!key.contains('\0'), "tag key {key:?} contains NUL");
        self.block.push_str(key);
        self.block.push('\0');
        let start = self.block.len();
        write!(self.block, "{value}").expect("formatting into a String cannot fail");
        assert!(
            !self.block[start..].contains('\0'),
            "value of tag {key:?} contains NUL"
        );
        self.block.push('\0');
        self
    }

    /// The tags written so far.
    pub fn finish(&self) -> Tags {
        if self.block.is_empty() {
            Tags::default()
        } else {
            Tags(Some(Rc::from(self.block.as_str())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, &str)]) -> Tags {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        map.into()
    }

    #[test]
    fn pairs_read_back_by_key_and_in_order() {
        let mut b = TagsBuilder::default();
        b.push("width", 640).push("empty", "").push("", "anon");
        let t = b.finish();
        assert_eq!(t.get("width"), Some("640"));
        assert_eq!(t.get("empty"), Some(""));
        assert_eq!(t.get(""), Some("anon"));
        assert_eq!(t.get("height"), None);
        assert_eq!(t.len(), 3);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, [("width", "640"), ("empty", ""), ("", "anon")]);
        assert_eq!(
            format!("{t:?}"),
            r#"{"width": "640", "empty": "", "": "anon"}"#
        );
    }

    #[test]
    fn maps_convert_in_key_order_and_empty_means_no_block() {
        let t = map(&[("b", "2"), ("a", "1")]);
        assert_eq!(t.iter().collect::<Vec<_>>(), [("a", "1"), ("b", "2")]);
        let empty = Tags::from(HashMap::new());
        assert!(empty.is_empty());
        assert_eq!((empty.len(), empty.iter().next()), (0, None));
        assert!(TagsBuilder::default().finish().is_empty());
        assert!(Tags::ptr_eq(&empty, &Tags::default()));
        assert!(!Tags::ptr_eq(&t, &empty));
    }

    #[test]
    fn merging_replaces_shared_keys_and_keeps_the_rest() {
        let old = map(&[("width", "640"), ("format", "png")]);
        let merged = old.merged(map(&[("width", "320"), ("height", "240")]));
        assert_eq!(merged.get("width"), Some("320"));
        assert_eq!(merged.get("height"), Some("240"));
        assert_eq!(merged.get("format"), Some("png"));
        assert_eq!(merged.len(), 3);
        assert_eq!(old.get("width"), Some("640"), "the old block is untouched");
        assert!(Tags::ptr_eq(&old.merged(Tags::default()), &old));
        let new = map(&[("x", "1")]);
        assert!(Tags::ptr_eq(&Tags::default().merged(new.clone()), &new));
    }

    #[test]
    #[should_panic(expected = "contains NUL")]
    fn a_nul_in_a_value_is_refused() {
        TagsBuilder::default().push("k", "a\0b");
    }
}
