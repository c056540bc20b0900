//! Point-in-time metric snapshots.
//!
//! [`MetricsSnapshot`] is the cold-path read side of the registry: the
//! benchmark harness takes one before and one after a run and works with
//! deltas, so the hot path never serializes anything.

use crate::metrics::BUCKETS;
use ofc_simtime::stats::TimeSeries;

/// One counter's value at snapshot time.
#[derive(Clone)]
pub struct CounterSnapshot {
    /// Metric name (e.g. `"rcstore.local_hits"`).
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// One gauge's value and full time series at snapshot time.
#[derive(Clone)]
pub struct GaugeSnapshot {
    /// Metric name (e.g. `"agent.cache_size_bytes"`).
    pub name: String,
    /// Last recorded value.
    pub value: f64,
    /// Every recorded `(instant, value)` sample.
    pub series: TimeSeries,
}

/// One histogram's distribution at snapshot time.
#[derive(Clone)]
pub struct HistogramSnapshot {
    /// Metric name (e.g. `"agent.scale_down_nanos"`).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (zero if empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Quarter-octave buckets: bucket `4·e + s` holds the values whose
    /// top set bit is `e` and whose next two bits are `s`.
    pub buckets: [u64; BUCKETS],
}

/// Everything the registry knew at snapshot time, returned by
/// [`crate::Telemetry::metrics`].
#[derive(Clone, Default)]
pub struct MetricsSnapshot {
    /// All registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges with at least one recorded sample.
    pub gauges: Vec<GaugeSnapshot>,
    /// All registered histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name` (zero if unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Last value of gauge `name`, if it ever recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Full time series of gauge `name`, if it ever recorded.
    pub fn gauge_series(&self, name: &str) -> Option<&TimeSeries> {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| &g.series)
    }

    /// Histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}
