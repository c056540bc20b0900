//! Sample containers for the figures, and who reads each.
//!
//! * [`TimeSeries`] records `(instant, value)` pairs: it is the series
//!   behind every `ofc-telemetry` gauge (Figure 10's cache size).
//! * [`Summary`] keeps every sample and answers exact percentiles and
//!   means: Figure 6's prediction times, plus Figure 5's over-provisioning
//!   waste and the maturation curve, in `bench::mlx`.

use crate::SimTime;

/// An accumulating collection of `f64` samples with percentile queries.
///
/// Samples are kept (the evaluation datasets are small — thousands of
/// invocations), so percentiles are exact rather than approximated.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN (a NaN sample would poison every percentile).
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN sample");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum() / self.samples.len() as f64)
        }
    }

    /// Exact `q`-quantile by linear interpolation (`q` in `[0, 1]`), or
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected at record time"));
            self.sorted = true;
        }
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (the 0.5 quantile), or `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// A time series of `(instant, value)` pairs, e.g. cache size over time
/// (Figure 10).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point; instants should be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "time series must be appended in order"
        );
        self.points.push((at, value));
    }

    /// All recorded points in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Downsamples to at most `n` evenly spaced points (for plotting).
    pub fn downsample(&self, n: usize) -> Vec<(SimTime, f64)> {
        if n == 0 || self.points.is_empty() {
            return Vec::new();
        }
        if self.points.len() <= n {
            return self.points.clone();
        }
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        (0..n)
            .map(|i| self.points[(i as f64 * step).round() as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(samples: &[f64]) -> Summary {
        let mut s = Summary::new();
        for &v in samples {
            s.record(v);
        }
        s
    }

    #[test]
    fn summary_count_and_mean() {
        let s = summary(&[4.0, 1.0, 7.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(4.0));
    }

    #[test]
    fn summary_empty_returns_none() {
        let mut s = Summary::new();
        assert!(s.mean().is_none());
        assert!(s.median().is_none());
        assert!(s.quantile(0.99).is_none());
    }

    #[test]
    fn summary_quantiles_interpolate() {
        let mut s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.25), Some(2.0));
        // Interpolated between ranks.
        assert_eq!(s.quantile(0.875), Some(4.5));
    }

    #[test]
    fn summary_quantile_then_record_stays_correct() {
        let mut s = summary(&[5.0, 1.0]);
        assert_eq!(s.median(), Some(3.0));
        s.record(0.0);
        assert_eq!(s.median(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn time_series_downsample_keeps_endpoints() {
        let mut ts = TimeSeries::new();
        for i in 0..100u64 {
            ts.push(SimTime::from_secs(i), i as f64);
        }
        let d = ts.downsample(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].1, 0.0);
        assert_eq!(d[4].1, 99.0);
    }
}
