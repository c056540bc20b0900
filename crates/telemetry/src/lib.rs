//! The unified observability plane: one metrics registry.
//!
//! Every OFC subsystem (scheduler, monitor, cache agent, data plane, cache
//! store, platform) records into a shared [`Telemetry`] handle instead of
//! keeping private counter structs. The handle owns a registry of typed
//! [`Counter`]s, [`Gauge`]s (with a time series for plots such as Figure
//! 10), and quarter-octave log [`Histogram`]s, keyed by the `&'static str`
//! names declared in [`names`].
//!
//! Recording is allocation-free on the hot path: instrumentation sites
//! pre-register handles once (cold path) and then bump shared cells; the
//! repo benchmark times it as its `telemetry.drv_*` metrics
//! (`benchmark/README.md`).
//!
//! [`MetricsSnapshot`]s are assembled on the cold path by walking the
//! registry, and export to JSON without external dependencies.
//!
//! ```
//! use ofc_telemetry::Telemetry;
//! use std::time::Duration;
//!
//! let t = Telemetry::new();
//! t.counter("plane.local_hits").inc();
//! t.histogram("agent.scale_up_nanos")
//!     .record_duration(Duration::from_millis(3));
//!
//! let m = t.metrics();
//! assert_eq!(m.counter("plane.local_hits"), 1);
//! let scale_up = m.histogram("agent.scale_up_nanos").expect("registered");
//! assert_eq!((scale_up.count, scale_up.sum), (1, 3_000_000));
//! let _json = m.to_json();
//! ```

mod json;
mod metrics;
pub mod names;
mod snapshot;

pub use metrics::{Counter, Gauge, Histogram};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};

use metrics::Registry;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle to the observability plane.
///
/// Cloning is cheap (reference-counted); all clones record into the same
/// registry. The simulation is single-threaded, so the cells need no
/// atomics.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Rc<RefCell<Registry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Creates an empty plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-uses) a counter named `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.registry.borrow_mut().counter(name)
    }

    /// Registers (or re-uses) a gauge named `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.registry.borrow_mut().gauge(name)
    }

    /// Registers (or re-uses) a quarter-octave log histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.registry.borrow_mut().histogram(name)
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.borrow().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofc_simtime::SimTime;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = Telemetry::new();
        let a = t.counter("x.a");
        let b = t.counter("x.b");
        a.inc();
        a.add(4);
        b.inc();
        // Re-registration returns the same underlying cell.
        let a2 = t.counter("x.a");
        a2.inc();
        let m = t.metrics();
        assert_eq!(m.counter("x.a"), 6);
        assert_eq!(m.counter("x.b"), 1);
        assert_eq!(m.counter("x.missing"), 0);
    }

    #[test]
    fn gauge_records_series_for_fig10() {
        let t = Telemetry::new();
        let g = t.gauge("cache.size");
        g.set(SimTime::from_secs(1), 10.0);
        g.set(SimTime::from_secs(2), 20.0);
        let m = t.metrics();
        assert_eq!(m.gauge("cache.size"), Some(20.0));
        let series = m.gauge_series("cache.size").expect("series");
        assert_eq!(series.len(), 2);
        assert_eq!(series.points()[1], (SimTime::from_secs(2), 20.0));
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let t = Telemetry::new();
        t.counter("a\"b").inc(); // exercise escaping
        t.gauge("g").set(SimTime::from_secs(1), 0.5);
        t.histogram("h").record(1000);
        let mj = t.metrics().to_json();
        assert!(mj.starts_with('{') && mj.ends_with('}'));
        assert!(mj.contains("\"counters\""));
        assert!(mj.contains("a\\\"b"));
        assert!(mj.contains("\"buckets\":[[39,1]]"));
    }
}
