//! Point-in-time metric snapshots and their JSON export.
//!
//! [`MetricsSnapshot`] is the cold-path read side of the registry: the
//! benchmark harness takes one before and one after a run and works with
//! deltas, so the hot path never serializes anything.

use crate::json::JsonWriter;
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

    /// Serializes every metric to a single JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.begin_array_field("counters");
        for c in &self.counters {
            let mut cw = JsonWriter::object();
            cw.field_str("name", &c.name);
            cw.field_u64("value", c.value);
            w.array_raw(&cw.finish());
        }
        w.end_array();
        w.begin_array_field("gauges");
        for g in &self.gauges {
            let mut gw = JsonWriter::object();
            gw.field_str("name", &g.name);
            gw.field_f64("value", g.value);
            gw.begin_array_field("series");
            for &(at, v) in g.series.points() {
                gw.array_raw(&format!("[{},{}]", at.as_secs_f64(), finite(v)));
            }
            gw.end_array();
            w.array_raw(&gw.finish());
        }
        w.end_array();
        w.begin_array_field("histograms");
        for h in &self.histograms {
            let mut hw = JsonWriter::object();
            hw.field_str("name", &h.name);
            hw.field_u64("count", h.count);
            hw.field_u64("sum", h.sum);
            hw.field_u64("min", h.min);
            hw.field_u64("max", h.max);
            hw.begin_array_field("buckets");
            // Sparse export: (index, count) pairs for non-empty buckets.
            for (i, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    hw.array_raw(&format!("[{i},{n}]"));
                }
            }
            hw.end_array();
            w.array_raw(&hw.finish());
        }
        w.end_array();
        w.finish()
    }
}

fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
