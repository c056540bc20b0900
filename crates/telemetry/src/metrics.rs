//! The metrics registry and its typed recording handles.
//!
//! Handles are obtained once on the cold path ([`crate::Telemetry::counter`]
//! and friends) and record by bumping a shared cell — no lookups, no
//! allocation.

use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
use ofc_simtime::stats::TimeSeries;
use ofc_simtime::SimTime;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

/// Number of quarter-octave histogram buckets: four per power of two, so
/// bucket `4·e + s` holds the values whose top set bit is `e` and whose
/// next two bits are `s`. Bucket 255 (`e = 63`, `s = 3`) is the last one
/// a `u64` can reach.
pub(crate) const BUCKETS: usize = 256;

/// Bucket index of `v`. Values below 4 join bucket 8 (`[4, 5)`), so
/// buckets 0–7 stay empty. Integer-only, so a percentile read off the
/// buckets is the same on every platform and thread count. The clamp
/// never binds (255 is the largest index); it lets the compiler drop the
/// bounds check on the record path.
pub(crate) fn bucket_index(v: u64) -> usize {
    let v = v.max(4);
    let exp = 63 - u64::from(v.leading_zeros());
    let sub = (v >> (exp - 2)) & 0b11;
    ((exp * 4 + sub) as usize).min(BUCKETS - 1)
}

/// Exclusive upper bound of bucket `b`. The top bucket's bound, 2⁶⁴, does
/// not fit a `u64` and saturates at `u64::MAX` (nanosecond durations can
/// get there; microsecond latencies never do).
pub(crate) fn bucket_upper(b: usize) -> u64 {
    let (exp, sub) = ((b / 4) as u64, (b % 4) as u64);
    ((1u64 << exp) / 4).saturating_mul(sub + 5)
}

/// A monotonically increasing event count.
#[derive(Clone)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get().wrapping_add(n));
    }

    /// The count so far.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .finish()
    }
}

#[derive(Default)]
pub(crate) struct GaugeCell {
    pub(crate) value: Cell<f64>,
    pub(crate) series: RefCell<TimeSeries>,
}

/// A sampled instantaneous value with a full time series behind it, so
/// plots like the Figure 10 cache-size timeline fall out of a snapshot.
#[derive(Clone)]
pub struct Gauge {
    cell: Rc<GaugeCell>,
}

impl Gauge {
    /// Records the gauge value `v` observed at virtual instant `now`.
    #[inline]
    pub fn set(&self, now: SimTime, v: f64) {
        self.cell.value.set(v);
        self.cell.series.borrow_mut().push(now, v);
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.cell.value.get())
            .finish()
    }
}

pub(crate) struct HistCell {
    pub(crate) buckets: [Cell<u64>; BUCKETS],
    pub(crate) count: Cell<u64>,
    pub(crate) sum: Cell<u64>,
    pub(crate) min: Cell<u64>,
    pub(crate) max: Cell<u64>,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }
    }
}

impl HistCell {
    fn record(&self, v: u64) {
        let bucket = &self.buckets[bucket_index(v)];
        bucket.set(bucket.get() + 1);
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get().saturating_add(v));
        if v < self.min.get() {
            self.min.set(v);
        }
        if v > self.max.get() {
            self.max.set(v);
        }
    }
}

/// A distribution over `u64` samples in quarter-octave log buckets.
///
/// Durations are recorded as nanoseconds, so a histogram's `sum` is the
/// exact total time spent in the measured phase (Table 2's time columns).
/// A `Histogram::default()` belongs to no registry: `macro_mega` keeps
/// one per tenant decile for its p99 column.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Rc<HistCell>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cell.record(v);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Upper bound of the bucket holding the `p`-th percentile: the first
    /// bucket whose cumulative count reaches rank ⌈count·p/100⌉, computed
    /// in integers. Zero while empty.
    pub fn percentile(&self, p: u64) -> u64 {
        let count = self.cell.count.get();
        if count == 0 {
            return 0;
        }
        let rank = (count * p).div_ceil(100);
        let mut cum = 0u64;
        for (b, n) in self.cell.buckets.iter().enumerate() {
            cum += n.get();
            if cum >= rank {
                return bucket_upper(b);
            }
        }
        0
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.cell.count.get())
            .finish()
    }
}

/// The cold-path store behind [`crate::Telemetry`]: registration dedupes by
/// name so clones of a handle share one cell; snapshots walk these vectors.
///
/// Linear scans are fine here — registration happens once per site, and the
/// workspace registers a few dozen metrics, not thousands.
#[derive(Default)]
pub(crate) struct Registry {
    counters: Vec<(&'static str, Rc<Cell<u64>>)>,
    gauges: Vec<(&'static str, Rc<GaugeCell>)>,
    histograms: Vec<(&'static str, Rc<HistCell>)>,
}

/// The cell registered under `name`, created on first use.
fn cell<T: Default>(cells: &mut Vec<(&'static str, Rc<T>)>, name: &'static str) -> Rc<T> {
    if let Some((_, cell)) = cells.iter().find(|(n, _)| *n == name) {
        return Rc::clone(cell);
    }
    let cell = Rc::new(T::default());
    cells.push((name, Rc::clone(&cell)));
    cell
}

impl Registry {
    pub(crate) fn counter(&mut self, name: &'static str) -> Counter {
        Counter {
            cell: cell(&mut self.counters, name),
        }
    }

    pub(crate) fn gauge(&mut self, name: &'static str) -> Gauge {
        Gauge {
            cell: cell(&mut self.gauges, name),
        }
    }

    pub(crate) fn histogram(&mut self, name: &'static str) -> Histogram {
        Histogram {
            cell: cell(&mut self.histograms, name),
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, c)| CounterSnapshot {
                    name: name.to_string(),
                    value: c.get(),
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(_, c)| !c.series.borrow().is_empty())
                .map(|(name, c)| GaugeSnapshot {
                    name: name.to_string(),
                    value: c.value.get(),
                    series: c.series.borrow().clone(),
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, c)| HistogramSnapshot {
                    name: name.to_string(),
                    count: c.count.get(),
                    sum: c.sum.get(),
                    min: if c.count.get() == 0 { 0 } else { c.min.get() },
                    max: c.max.get(),
                    buckets: std::array::from_fn(|b| c.buckets[b].get()),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `macro_mega` latency histogram's formulas as they stood before
    /// the merge, kept as the reference for every bucket below 255.
    fn lat_hist_index(us: u64) -> usize {
        let us = us.max(4);
        let exp = 63 - us.leading_zeros() as u64;
        let sub = (us >> (exp - 2)) & 0b11;
        ((exp * 4 + sub) as usize).min(256 - 1)
    }

    fn lat_hist_upper_us(b: usize) -> u64 {
        let (exp, sub) = ((b / 4) as u64, (b % 4) as u64);
        (1u64 << exp) / 4 * (sub + 5)
    }

    #[test]
    fn bucket_index_follows_significant_bits() {
        // Bucket 4·e + s: `e` is the top set bit, `s` the two bits below.
        for e in 2..64u32 {
            for s in 0..4u64 {
                let lo = (1u64 << e) | (s << (e - 2));
                let hi = lo | ((1u64 << (e - 2)) - 1);
                for v in [lo, hi] {
                    assert_eq!(bucket_index(v), (4 * e) as usize + s as usize, "{v}");
                    assert_eq!(bucket_index(v), lat_hist_index(v), "{v}");
                }
            }
        }
    }

    #[test]
    fn bucket_table_is_pinned() {
        let table: [(u64, usize, u64); 7] = [
            (0, 8, 5),
            (3, 8, 5),
            (4, 8, 5),
            (5, 9, 6),
            (100, 26, 112),
            (1_000_000, 79, 1 << 20),
            (u64::MAX, 255, u64::MAX),
        ];
        for (v, b, upper) in table {
            assert_eq!(bucket_index(v), b, "index of {v}");
            assert_eq!(bucket_upper(b), upper, "upper bound of bucket {b}");
            if b < 255 {
                assert_eq!(lat_hist_index(v), b, "reference index of {v}");
                assert_eq!(lat_hist_upper_us(b), upper, "reference bound of {b}");
            }
        }
    }

    #[test]
    fn bucket_boundaries_are_quarter_octaves() {
        // Buckets 8..=255 tile [0, 2^64): each one's exclusive upper bound
        // is the next one's first value, a quarter octave on.
        for b in 8..255usize {
            let upper = bucket_upper(b);
            assert_eq!(bucket_index(upper - 1), b);
            assert_eq!(bucket_index(upper), b + 1);
            assert_eq!(upper, lat_hist_upper_us(b));
            assert_eq!(lat_hist_index(upper - 1), b);
        }
        assert_eq!(bucket_index(bucket_upper(254)), 255);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let h = HistCell::default();
        for v in [5u64, 1, 9, 0, 1000] {
            h.record(v);
        }
        assert_eq!(h.count.get(), 5);
        assert_eq!(h.sum.get(), 1015);
        assert_eq!(h.min.get(), 0);
        assert_eq!(h.max.get(), 1000);
        let buckets = h.buckets.each_ref().map(Cell::get);
        assert_eq!(buckets.iter().sum::<u64>(), 5);
        assert_eq!(buckets[8], 2); // 0 and 1
        assert_eq!(buckets[9], 1); // 5
        assert_eq!(buckets[12], 1); // 9
        assert_eq!(buckets[39], 1); // 1000
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.percentile(50), 0);
    }

    #[test]
    fn p99_lands_in_the_right_bucket() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 26, [96, 112)
        }
        h.record(500_000);
        // p99 rank = 99th of 100 → still the 100 µs bucket's bound.
        assert_eq!(h.percentile(99), 112);
        h.record(500_000);
        h.record(500_000);
        // 3 of 102 above: p99 moves into the 500 ms bucket.
        assert_eq!(h.percentile(99), bucket_upper(bucket_index(500_000)));
        assert!(h.percentile(99) > 500_000);
    }

    #[test]
    fn p99_follows_the_integer_rank_rule() {
        // (count, ⌈count · 99 / 100⌉) worked by hand.
        for (count, rank) in [(1u64, 1u64), (100, 99), (101, 100), (199, 198)] {
            for high in 0..=2.min(count) {
                let h = Histogram::default();
                for _ in 0..count - high {
                    h.record(100);
                }
                for _ in 0..high {
                    h.record(1_000_000);
                }
                let want = if count - high >= rank { 112 } else { 1 << 20 };
                assert_eq!(h.percentile(99), want, "count {count}, {high} high");
            }
        }
    }

    #[test]
    fn registry_dedupes_by_name() {
        let mut r = Registry::default();
        let a = r.counter("c");
        let b = r.counter("c");
        assert!(Rc::ptr_eq(&a.cell, &b.cell));
        let d = r.counter("d");
        assert!(!Rc::ptr_eq(&a.cell, &d.cell));
        assert_eq!(r.counters.len(), 2);
    }
}
