//! Sample containers for the figures, and who reads each.
//!
//! * [`TimeSeries`] records `(instant, value)` pairs: it is the series
//!   behind every `ofc-telemetry` gauge (Figure 10's cache size).
//! * [`Summary`] keeps every sample and answers exact percentiles and
//!   means: Figure 6's prediction times, plus Figure 5's over-provisioning
//!   waste and the maturation curve, in `bench::mlx`.
//! * [`Histogram`] counts samples in fixed-width bins: Figure 5's signed
//!   prediction-error bars over [−160, 160) MB, also in `bench::mlx`. It
//!   is not the telemetry plane's log histogram because its bins are
//!   linear and span negative values.

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

    /// Minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
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

    /// Population standard deviation, or `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .samples
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// Borrow of the raw samples (unsorted order is unspecified).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
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

    /// The value in effect at `at` (last point at or before `at`).
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
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

/// A fixed-width histogram over `f64` samples, e.g. the prediction-error
/// distribution of Figure 5.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram spanning `[lo, hi)` with `buckets` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(hi > lo, "empty histogram range");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            width: (hi - lo) / buckets as f64,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((v - self.lo) / self.width) as usize;
        if idx >= self.buckets.len() {
            self.overflow += 1;
        } else {
            self.buckets[idx] += 1;
        }
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// `(bucket_low_edge, count)` pairs.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as f64 * self.width, c))
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_min_max() {
        let s: Summary = [4.0, 1.0, 7.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(7.0));
    }

    #[test]
    fn summary_empty_returns_none() {
        let mut s = Summary::new();
        assert!(s.mean().is_none());
        assert!(s.median().is_none());
        assert!(s.std_dev().is_none());
        assert!(s.quantile(0.99).is_none());
    }

    #[test]
    fn summary_quantiles_interpolate() {
        let mut s: Summary = (1..=5).map(f64::from).collect();
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.25), Some(2.0));
        // Interpolated between ranks.
        assert_eq!(s.quantile(0.875), Some(4.5));
    }

    #[test]
    fn summary_quantile_then_record_stays_correct() {
        let mut s: Summary = [5.0, 1.0].into_iter().collect();
        assert_eq!(s.median(), Some(3.0));
        s.record(0.0);
        assert_eq!(s.median(), Some(1.0));
    }

    #[test]
    fn summary_std_dev() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn time_series_value_at() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(5), 20.0);
        assert_eq!(ts.value_at(SimTime::ZERO), None);
        assert_eq!(ts.value_at(SimTime::from_secs(1)), Some(10.0));
        assert_eq!(ts.value_at(SimTime::from_secs(3)), Some(10.0));
        assert_eq!(ts.value_at(SimTime::from_secs(9)), Some(20.0));
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

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 9.99, 10.0, -0.1, 55.0] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_bins_expose_edges() {
        let h = Histogram::new(0.0, 4.0, 4);
        let edges: Vec<f64> = h.bins().map(|(e, _)| e).collect();
        assert_eq!(edges, vec![0.0, 1.0, 2.0, 3.0]);
    }
}
