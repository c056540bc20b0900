//! The unified observability plane: one registry, one event stream.
//!
//! Every OFC subsystem (scheduler, monitor, cache agent, data plane, cache
//! store, platform) records into a shared [`Telemetry`] handle instead of
//! keeping private counter structs. The handle owns
//!
//! * a **metrics registry** of typed [`Counter`]s, [`Gauge`]s (with a
//!   time series for plots such as Figure 10), and log-scale
//!   [`Histogram`]s, keyed by `&'static str` names plus optional label
//!   sets,
//! * a **span tracer** recording nested per-invocation phases (cold/warm
//!   start, predict, resize, Extract, Transform, Load, persist, migrate,
//!   evict, …) against the `ofc-simtime` virtual clock, into a bounded
//!   ring buffer of enter/exit events plus per-phase duration histograms.
//!
//! Recording is allocation-free on the hot path: instrumentation sites
//! pre-register handles once (cold path) and then bump shared cells. With
//! [`TelemetryConfig::Off`] every record call reduces to a single branch
//! on a pre-computed `bool` — near-zero cost, timed by the repo
//! benchmark's `telemetry.drv_*` metrics (`benchmark/README.md`).
//!
//! Snapshots ([`MetricsSnapshot`], [`TraceHandle`]) are assembled on the
//! cold path by walking the registry, and export to JSON without external
//! dependencies.
//!
//! ```
//! use ofc_telemetry::{Phase, Telemetry, TelemetryConfig};
//! use ofc_simtime::SimTime;
//! use std::time::Duration;
//!
//! let t = Telemetry::new(TelemetryConfig::Full);
//! let hits = t.counter("cache.hits");
//! hits.inc();
//! t.span_at(7, Phase::Extract, SimTime::ZERO, Duration::from_millis(3));
//!
//! let m = t.metrics();
//! assert_eq!(m.counter("cache.hits"), 1);
//! let trace = t.trace();
//! assert_eq!(trace.phase_count(Phase::Extract), 1);
//! let _json = m.to_json();
//! ```

mod json;
mod metrics;
pub mod names;
mod snapshot;
mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
pub use trace::{Phase, SpanEvent, SpanKind, TraceHandle, DEFAULT_RING_CAPACITY};

use metrics::Registry;
use ofc_simtime::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// How much the telemetry plane records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryConfig {
    /// Record nothing; every instrumentation call is a single branch.
    Off,
    /// Counters, gauges, and histograms (span durations included), but no
    /// per-event ring buffer.
    Counters,
    /// Everything, including ring-buffered span enter/exit events.
    #[default]
    Full,
}

struct Inner {
    level: TelemetryConfig,
    registry: RefCell<Registry>,
    tracer: trace::Tracer,
}

/// Shared handle to the observability plane.
///
/// Cloning is cheap (reference-counted); all clones record into the same
/// registry and event stream. The simulation is single-threaded, so the
/// cells need no atomics.
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.inner.level)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Creates a plane at the given recording level.
    pub fn new(level: TelemetryConfig) -> Self {
        Telemetry {
            inner: Rc::new(Inner {
                level,
                registry: RefCell::new(Registry::default()),
                tracer: trace::Tracer::new(),
            }),
        }
    }

    /// A disabled plane: all recording is a no-op.
    pub fn off() -> Self {
        Telemetry::new(TelemetryConfig::Off)
    }

    /// A fully enabled standalone plane — the default for components
    /// constructed outside an [`crate`]-level assembly (unit tests,
    /// standalone cluster use).
    pub fn standalone() -> Self {
        Telemetry::new(TelemetryConfig::Full)
    }

    /// The recording level.
    pub fn level(&self) -> TelemetryConfig {
        self.inner.level
    }

    /// Whether metric recording is enabled at all.
    fn metrics_on(&self) -> bool {
        self.inner.level > TelemetryConfig::Off
    }

    /// Registers (or re-uses) a counter named `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// Registers (or re-uses) a counter with a label set.
    ///
    /// With [`TelemetryConfig::Off`] the handle is detached: it is not
    /// registered (snapshots stay empty) and recording is a no-op.
    pub fn counter_labeled(&self, name: &'static str, labels: &[(&str, &str)]) -> Counter {
        if !self.metrics_on() {
            return Counter::detached();
        }
        let cell = self.inner.registry.borrow_mut().counter(name, labels);
        Counter::new(cell, true)
    }

    /// Registers (or re-uses) a gauge named `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        if !self.metrics_on() {
            return Gauge::detached();
        }
        let cell = self.inner.registry.borrow_mut().gauge(name, &[]);
        Gauge::new(cell, true)
    }

    /// Registers (or re-uses) a log-scale (power-of-two bucket) histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        if !self.metrics_on() {
            return Histogram::detached();
        }
        let cell = self.inner.registry.borrow_mut().histogram(name, &[]);
        Histogram::new(cell, true)
    }

    /// Records a complete span of `phase` for entity `id` (an invocation,
    /// node, or operation id) that started at `start` and took `dur`.
    ///
    /// Most instrumentation sites learn the duration after the fact (the
    /// simulator returns latencies), so this is the common form; use
    /// [`Telemetry::span_enter`]/[`Telemetry::span_exit`] when the phase
    /// brackets other recorded work.
    pub fn span_at(&self, id: u64, phase: Phase, start: SimTime, dur: Duration) {
        match self.inner.level {
            TelemetryConfig::Off => {}
            level => {
                self.inner
                    .tracer
                    .span_at(id, phase, start, dur, level == TelemetryConfig::Full)
            }
        }
    }

    /// Opens a nested span of `phase` for entity `id` at `now`.
    pub fn span_enter(&self, id: u64, phase: Phase, now: SimTime) {
        match self.inner.level {
            TelemetryConfig::Off => {}
            level => self
                .inner
                .tracer
                .enter(id, phase, now, level == TelemetryConfig::Full),
        }
    }

    /// Closes the innermost open span of `phase` for entity `id`.
    ///
    /// Exits that do not match an open span are counted as mismatches and
    /// emit no event, so the event stream stays balanced.
    pub fn span_exit(&self, id: u64, phase: Phase, now: SimTime) {
        match self.inner.level {
            TelemetryConfig::Off => {}
            level => self
                .inner
                .tracer
                .exit(id, phase, now, level == TelemetryConfig::Full),
        }
    }

    /// Caps the span ring buffer (default [`DEFAULT_RING_CAPACITY`]);
    /// the oldest events are dropped (and counted) once full.
    pub fn set_ring_capacity(&self, capacity: usize) {
        self.inner.tracer.set_capacity(capacity);
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.registry.borrow().snapshot()
    }

    /// A point-in-time snapshot of the span stream and per-phase duration
    /// statistics.
    pub fn trace(&self) -> TraceHandle {
        self.inner.tracer.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = Telemetry::standalone();
        let a = t.counter("x.a");
        let b = t.counter("x.b");
        a.inc();
        a.add(4);
        b.inc();
        // Re-registration returns the same underlying cell.
        let a2 = t.counter("x.a");
        a2.inc();
        assert_eq!(a.get(), 6);
        let m = t.metrics();
        assert_eq!(m.counter("x.a"), 6);
        assert_eq!(m.counter("x.b"), 1);
        assert_eq!(m.counter("x.missing"), 0);
    }

    #[test]
    fn labeled_counters_are_distinct_and_sum() {
        let t = Telemetry::standalone();
        t.counter_labeled("hits", &[("node", "0")]).add(2);
        t.counter_labeled("hits", &[("node", "1")]).add(3);
        let m = t.metrics();
        assert_eq!(m.counter("hits"), 5);
        assert_eq!(m.counter_labeled("hits", &[("node", "1")]), 3);
        assert_eq!(m.counter_labeled("hits", &[("node", "9")]), 0);
    }

    #[test]
    fn gauge_records_series_for_fig10() {
        let t = Telemetry::standalone();
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
    fn off_mode_records_nothing() {
        let t = Telemetry::off();
        let c = t.counter("x");
        c.inc();
        c.add(100);
        t.gauge("g").set(SimTime::ZERO, 1.0);
        t.histogram("h").record(5);
        t.span_at(0, Phase::Extract, SimTime::ZERO, Duration::from_secs(1));
        t.span_enter(0, Phase::Load, SimTime::ZERO);
        t.span_exit(0, Phase::Load, SimTime::ZERO);
        let m = t.metrics();
        assert_eq!(m.counter("x"), 0);
        assert!(m.gauge("g").is_none());
        assert!(m.histogram("h").is_none());
        let trace = t.trace();
        assert!(trace.events().is_empty());
        assert_eq!(trace.phase_count(Phase::Extract), 0);
    }

    #[test]
    fn counters_level_skips_ring_but_keeps_durations() {
        let t = Telemetry::new(TelemetryConfig::Counters);
        t.span_at(1, Phase::Migrate, SimTime::ZERO, Duration::from_micros(180));
        let trace = t.trace();
        assert!(trace.events().is_empty(), "no ring buffer at Counters");
        assert_eq!(trace.phase_count(Phase::Migrate), 1);
        assert_eq!(
            trace.phase_total(Phase::Migrate),
            Duration::from_micros(180)
        );
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let t = Telemetry::standalone();
        t.counter("a\"b").inc(); // exercise escaping
        t.gauge("g").set(SimTime::from_secs(1), 0.5);
        t.histogram("h").record(1000);
        t.span_at(3, Phase::Transform, SimTime::ZERO, Duration::from_millis(2));
        let mj = t.metrics().to_json();
        assert!(mj.starts_with('{') && mj.ends_with('}'));
        assert!(mj.contains("\"counters\""));
        assert!(mj.contains("a\\\"b"));
        let tj = t.trace().to_json();
        assert!(tj.contains("\"events\""));
        assert!(tj.contains("\"transform\""));
    }
}
