//! Small statistics the harness reports with: nearest-rank percentiles,
//! the min/quartile fold over passes, and the FNV-1a digest that pins a
//! pass's simulated outcome.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentile of an ascending slice (`p` in (0, 100]).
///
/// # Panics
///
/// Panics on an empty slice: every workload must produce samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile a sample of `n` supports: the largest of
/// 50 / 90 / 99 / 99.9 / 99.99 that still has at least ten samples beyond
/// it, or `None` below 20 samples.
pub fn top_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000): integers, so that
    // exactly ten samples beyond counts as ten.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (90.0, 1_000),
        (50.0, 5_000),
    ]
    .into_iter()
    .find(|&(_, beyond)| n * beyond >= 10 * 10_000)
    .map(|(p, _)| p)
}

/// Minimum, quartiles and maximum of one metric over the passes of an
/// invocation (or over the invocations of a set).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fold {
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

/// Folds values with the quartile rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so spreads
/// computed here agree with the ones the driver computes.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fold(values: &[f64]) -> Fold {
    assert!(!values.is_empty(), "fold of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Fold {
        min: v[0],
        q1: quartile(1),
        median: quartile(2),
        q3: quartile(3),
        max: v[n - 1],
    }
}

impl Fold {
    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// FNV-1a (64-bit) over integers and strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(99), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(999), Some(90.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(100_000), Some(99.99));
    }

    #[test]
    fn fold_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let f = fold(&v);
        assert_eq!(
            (f.min, f.q1, f.median, f.q3, f.max),
            (1.0, 2.75, 5.5, 8.25, 10.0)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let f = fold(&[3.0, 1.0, 2.0]);
        assert_eq!((f.q1, f.median, f.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]
        let f = fold(&[4.0, 8.0]);
        assert_eq!((f.q1, f.median, f.q3), (3.0, 6.0, 9.0));
        assert_eq!(f.spread(), 1.0);
        let f = fold(&[5.0]);
        assert_eq!(
            (f.min, f.q1, f.median, f.q3, f.max),
            (5.0, 5.0, 5.0, 5.0, 5.0)
        );
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let run = |vals: &[u64], s: &str| {
            let mut d = Digest::default();
            for &v in vals {
                d.u64(v);
            }
            d.str(s);
            d.finish()
        };
        assert_eq!(run(&[1, 2, 3], "x"), run(&[1, 2, 3], "x"));
        assert_ne!(run(&[1, 2, 3], "x"), run(&[3, 2, 1], "x"));
        assert_ne!(run(&[1, 2, 3], "x"), run(&[1, 2, 3], "y"));
        // The published FNV-1a test vector for "a".
        let mut d = Digest::default();
        d.0 = (d.0 ^ u64::from(b'a')).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
