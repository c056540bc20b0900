//! Metric names, units and formulas, and the record one invocation
//! leaves behind (`benchmark/out/results.json`).
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two
//! in step.

use crate::pass::{Pass, Slice};
use crate::stats::{fold, Fold};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Whether a metric is host time/memory (noisy, compared within its
/// bound) or a simulated statistic (exact: a change meant only to speed up
/// the simulator must leave it bit-identical for a given seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured on the host.
    Host,
    /// Produced by the simulation.
    Sim,
}

/// End-to-end metrics: `(name, unit, kind)`, the same on every workload.
pub const END_TO_END: [(&str, &str, Kind); 9] = [
    ("setup_s", "s", Kind::Host),
    ("run_wall_s", "s", Kind::Host),
    ("inv_per_s", "1/s", Kind::Host),
    ("peak_rss_mb", "MB", Kind::Host),
    ("hit_ratio_pct", "%", Kind::Sim),
    ("sim_lat_p50_ms", "ms", Kind::Sim),
    ("sim_lat_p99_ms", "ms", Kind::Sim),
    ("exec_gain_pct", "%", Kind::Sim),
    ("success_pct", "%", Kind::Sim),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 93] = [
    ("simtime.events", "count"),
    ("simtime.events_per_s", "1/s"),
    ("simtime.us_per_event", "us"),
    ("simtime.run_cpu_s", "s"),
    ("simtime.slice_us_per_event_p50", "us"),
    ("simtime.slice_us_per_event_p95", "us"),
    ("simtime.slice_drift_ratio", "ratio"),
    ("simtime.pending_peak", "count"),
    ("simtime.drv_ns_per_event", "ns"),
    ("workloads.install_s", "s"),
    ("workloads.arrivals", "count"),
    ("faas.build_s", "s"),
    ("faas.submitted", "count"),
    ("faas.completed", "count"),
    ("faas.cold_starts", "count"),
    ("faas.warm_starts", "count"),
    ("faas.cold_start_pct", "%"),
    ("faas.oom_kills", "count"),
    ("faas.retries", "count"),
    ("faas.resizes", "count"),
    ("faas.sim_e_ms_mean", "ms"),
    ("faas.sim_t_ms_mean", "ms"),
    ("faas.sim_l_ms_mean", "ms"),
    ("faas.twin_run_s", "s"),
    ("faas.twin_us_per_inv", "us"),
    ("objstore.gets", "count"),
    ("objstore.puts", "count"),
    ("objstore.shadow_puts", "count"),
    ("objstore.drv_put_ns", "ns"),
    ("objstore.drv_get_ns", "ns"),
    ("core.extra_run_s", "s"),
    ("core.extra_us_per_inv", "us"),
    ("core.ml.register_s", "s"),
    ("core.ml.register_us_per_fn", "us"),
    ("core.ml.pretrain_s", "s"),
    ("core.ml.retrains", "count"),
    ("core.ml.good_predictions", "count"),
    ("core.ml.bad_predictions", "count"),
    ("core.ml.good_pct", "%"),
    ("core.ml.drv_observe_ns", "ns"),
    ("core.ml.drv_retrain_us", "us"),
    ("core.ml.drv_predict_ns", "ns"),
    ("dtree.drv_c45_fit_us", "us"),
    ("core.sched.warm_routes", "count"),
    ("core.sched.cold_routes", "count"),
    ("core.sched.predicted_sizes", "count"),
    ("core.sched.booked_fallbacks", "count"),
    ("core.cache.local_hits", "count"),
    ("core.cache.remote_hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.bypasses", "count"),
    ("core.cache.fills", "count"),
    ("core.cache.persists", "count"),
    ("core.cache.quota_bypasses", "count"),
    ("core.cache.quota_evictions", "count"),
    ("core.cache.ephemeral_mb", "MB"),
    ("core.cache.persist_retries", "count"),
    ("core.cache.persist_pending_end", "count"),
    ("core.cache.dead_letters", "count"),
    ("core.agent.scale_ups", "count"),
    ("core.agent.scale_downs_plain", "count"),
    ("core.agent.scale_downs_migration", "count"),
    ("core.agent.scale_downs_eviction", "count"),
    ("core.agent.periodic_evictions", "count"),
    ("core.agent.evict_scan_visited", "count"),
    ("core.agent.visited_per_eviction", "ratio"),
    ("core.agent.writebacks", "count"),
    ("core.agent.cache_gb_mean", "GB"),
    ("core.agent.cache_gb_peak", "GB"),
    ("rcstore.writes", "count"),
    ("rcstore.local_hits", "count"),
    ("rcstore.remote_hits", "count"),
    ("rcstore.misses", "count"),
    ("rcstore.evictions", "count"),
    ("rcstore.promotions", "count"),
    ("rcstore.batch_flushes", "count"),
    ("rcstore.keys_end", "count"),
    ("rcstore.used_mb_end", "MB"),
    ("rcstore.drv_write_ns", "ns"),
    ("rcstore.drv_read_hit_ns", "ns"),
    ("rcstore.drv_read_miss_ns", "ns"),
    ("rcstore.drv_evict_ns", "ns"),
    ("rcstore.drv_candidates_us", "us"),
    ("telemetry.drv_counter_ns", "ns"),
    ("telemetry.drv_hist_ns", "ns"),
    ("telemetry.drv_gauge_set_ns", "ns"),
    ("intern.drv_hit_ns", "ns"),
    ("host.alloc_count_per_event", "count"),
    ("host.alloc_bytes_per_event", "B"),
    ("host.alloc_peak_live_mb", "MB"),
    ("host.calib_ms", "ms"),
    ("host.pass_spread_pct", "%"),
    ("host.trace_overhead_pct", "%"),
];

/// What one invocation of one workload measured; appended to set files by
/// `--set` and read back by `--compare`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Invocation {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    /// The checks that did not.
    pub violations: Vec<String>,
    /// Invocations submitted.
    pub attempted: u64,
    /// Invocations that failed for good.
    pub failed: u64,
    /// Timed passes made.
    pub passes: u64,
    /// Hash of the simulated outcome.
    pub sim_digest: u64,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: BTreeMap<String, f64>,
    /// Host times of every timed pass, with the calibration samples taken
    /// just before and just after it.
    pub pass_times: Vec<PassTimes>,
    /// Min / quartiles / max over passes of the per-pass host times.
    pub pass_folds: BTreeMap<String, Fold>,
    /// Every telemetry counter of the OFC run, plus event and record
    /// counts — all exact.
    pub counts: BTreeMap<String, u64>,
    /// Calibration-loop times around the passes (ms).
    pub calib_ms: Vec<f64>,
    /// Logical cores of the box.
    pub cores: u64,
    /// CPU model of the box.
    pub cpu: String,
}

/// Host times of one pass.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PassTimes {
    /// Set-up wall seconds.
    pub setup_s: f64,
    /// Wall seconds inside `Sim::run_until`.
    pub run_wall_s: f64,
    /// CPU seconds inside `Sim::run_until`.
    pub run_cpu_s: f64,
    /// Calibration loop just before the pass (ms).
    pub calib_before_ms: f64,
    /// Calibration loop just after the pass (ms).
    pub calib_after_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host seconds of the run with every slice at its fastest pass.
///
/// Each pass executes the same events in the same slices, so a slice that
/// a neighbour disturbed in one pass has an undisturbed copy in another:
/// the minimum slice by slice removes bursts shorter than a pass, which
/// the fastest whole pass still contains. Every term is an interval that
/// was timed; nothing is scaled.
pub fn slice_min_run_wall_s(passes: &[Pass]) -> f64 {
    (0..passes[0].slices.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.slices[i].wall_s)
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The nine end-to-end metrics from the timed passes, the twin and the
/// process's peak memory.
///
/// Host times are deterministic single-threaded work under one-sided
/// neighbour noise, so `run_wall_s` is a minimum over the passes (slice by
/// slice, see [`slice_min_run_wall_s`]). `setup_s` is the median of the
/// per-pass set-ups, as the driver's contract asks of it.
pub fn end_to_end(passes: &[Pass], twin: &Pass, peak_rss_mb: f64) -> BTreeMap<String, f64> {
    let first = &passes[0];
    let setups: Vec<f64> = passes.iter().map(|p| p.setup.setup_s).collect();
    let run_wall_s = slice_min_run_wall_s(passes);
    let values = [
        fold(&setups).median,
        run_wall_s,
        first.completed as f64 / run_wall_s,
        peak_rss_mb,
        first.hit_ratio_pct(),
        first.lat_ms(50.0),
        first.lat_ms(99.0),
        100.0 * (1.0 - first.fig9_total_s / twin.fig9_total_s),
        100.0 * ratio(first.completed as f64, first.arrivals as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, _, _), v)| (name.to_string(), v))
        .collect()
}

/// Per-pass host times folded over the passes.
pub fn pass_folds(passes: &[Pass]) -> BTreeMap<String, Fold> {
    let of = |f: fn(&Pass) -> f64| fold(&passes.iter().map(f).collect::<Vec<_>>());
    BTreeMap::from([
        ("setup_s".to_string(), of(|p| p.setup.setup_s)),
        ("run_wall_s".to_string(), of(Pass::run_wall_s)),
        ("run_cpu_s".to_string(), of(Pass::run_cpu_s)),
        (
            "run_wall_slice_min_s".to_string(),
            fold(&[slice_min_run_wall_s(passes)]),
        ),
    ])
}

/// Every exact count of a pass, for the set-to-set equality check.
pub fn counts(pass: &Pass) -> BTreeMap<String, u64> {
    let mut out = pass.counters.clone();
    for (name, v) in [
        ("sim.events", pass.events),
        ("sim.pending_peak", pass.pending_peak),
        ("records.arrivals", pass.arrivals),
        ("records.completed", pass.completed),
        ("records.failed", pass.failed),
        ("cache.keys_end", pass.cache_end.0),
        ("cache.bytes_end", pass.cache_end.1),
    ] {
        out.insert(name.to_string(), v);
    }
    out
}

fn us_per_event(slices: &[&Slice]) -> f64 {
    let wall: f64 = slices.iter().map(|s| s.wall_s).sum();
    let events: u64 = slices.iter().map(|s| s.events).sum();
    ratio(wall * 1e6, events as f64)
}

/// Nearest-rank percentile of unsorted floats.
fn pct(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What the traced invocation gathered beyond its passes.
pub struct TracedExtras<'a> {
    /// Host times of the untraced passes of the same binary (counting
    /// off), one before and one after the traced pass: the baseline of
    /// `host.trace_overhead_pct` and `host.pass_spread_pct`.
    pub plain: &'a [PassTimes],
    /// Host times of the traced pass.
    pub traced: &'a PassTimes,
    /// The `DirectPlane` twin.
    pub twin: &'a Pass,
    /// Layer-driver results.
    pub drivers: &'a [(&'static str, f64)],
    /// Functions registered.
    pub functions: usize,
    /// Calibration-loop times (ms).
    pub calib_ms: &'a [f64],
    /// Peak live heap of the traced pass (bytes).
    pub alloc_peak_live: u64,
}

/// The per-layer metrics of the traced pass `t`.
pub fn per_layer(t: &Pass, x: &TracedExtras) -> BTreeMap<String, f64> {
    let c = |name: &str| t.counter(name) as f64;
    let mb = |bytes: f64| bytes / (1u64 << 20) as f64;
    let gb = |bytes: f64| bytes / (1u64 << 30) as f64;
    let run = t.run_wall_s();
    let events = t.events as f64;
    let done = t.completed as f64;
    let twin_run = x.twin.run_wall_s();

    let busy: Vec<&Slice> = t
        .slices
        .iter()
        .filter(|s| s.in_window && s.events > 0)
        .collect();
    let per_slice: Vec<f64> = busy.iter().map(|s| us_per_event(&[s])).collect();
    let quarter = (busy.len() / 4).max(1);
    let drift = ratio(
        us_per_event(&busy[busy.len().saturating_sub(quarter)..]),
        us_per_event(&busy[..quarter.min(busy.len())]),
    );

    let [good0, bad0, retrains0] = t.ml_setup.map(|v| v as f64);
    let good = c("ml.good_predictions") - good0;
    let bad = c("ml.bad_predictions") - bad0;
    let allocs: u64 = t.slices.iter().map(|s| s.allocs).sum();
    let alloc_bytes: u64 = t.slices.iter().map(|s| s.alloc_bytes).sum();
    let plain_runs: Vec<f64> = x.plain.iter().map(|p| p.run_wall_s).collect();
    let plain = fold(&plain_runs);
    let traced_run = x.traced.run_wall_s;
    let mean_plain = plain_runs.iter().sum::<f64>() / plain_runs.len() as f64;
    let starts = c("faas.cold_starts") + c("faas.warm_starts");

    let mut m: BTreeMap<&str, f64> = BTreeMap::from([
        ("simtime.events", events),
        ("simtime.events_per_s", ratio(events, run)),
        ("simtime.us_per_event", ratio(run * 1e6, events)),
        ("simtime.run_cpu_s", t.run_cpu_s()),
        ("simtime.slice_us_per_event_p50", pct(&per_slice, 50.0)),
        ("simtime.slice_us_per_event_p95", pct(&per_slice, 95.0)),
        ("simtime.slice_drift_ratio", drift),
        ("simtime.pending_peak", t.pending_peak as f64),
        ("workloads.install_s", t.setup.install_s),
        ("workloads.arrivals", t.arrivals as f64),
        ("faas.build_s", t.setup.build_s),
        ("faas.submitted", c("faas.submitted")),
        ("faas.completed", c("faas.completed")),
        ("faas.cold_starts", c("faas.cold_starts")),
        ("faas.warm_starts", c("faas.warm_starts")),
        (
            "faas.cold_start_pct",
            100.0 * ratio(c("faas.cold_starts"), starts),
        ),
        ("faas.oom_kills", c("faas.oom_kills")),
        ("faas.retries", c("faas.retries")),
        ("faas.resizes", c("faas.resizes")),
        ("faas.sim_e_ms_mean", ratio(t.etl_ns[0] as f64 / 1e6, done)),
        ("faas.sim_t_ms_mean", ratio(t.etl_ns[1] as f64 / 1e6, done)),
        ("faas.sim_l_ms_mean", ratio(t.etl_ns[2] as f64 / 1e6, done)),
        ("faas.twin_run_s", twin_run),
        (
            "faas.twin_us_per_inv",
            ratio(twin_run * 1e6, x.twin.completed as f64),
        ),
        ("objstore.gets", t.store_ops[0] as f64),
        ("objstore.puts", t.store_ops[1] as f64),
        ("objstore.shadow_puts", t.store_ops[2] as f64),
        ("core.extra_run_s", run - twin_run),
        ("core.extra_us_per_inv", ratio((run - twin_run) * 1e6, done)),
        ("core.ml.register_s", t.setup.register_s),
        (
            "core.ml.register_us_per_fn",
            ratio(t.setup.register_s * 1e6, x.functions as f64),
        ),
        ("core.ml.pretrain_s", t.setup.pretrain_s),
        ("core.ml.retrains", c("ml.retrains") - retrains0),
        ("core.ml.good_predictions", good),
        ("core.ml.bad_predictions", bad),
        ("core.ml.good_pct", 100.0 * ratio(good, good + bad)),
        ("core.sched.warm_routes", c("sched.warm_routes")),
        ("core.sched.cold_routes", c("sched.cold_routes")),
        ("core.sched.predicted_sizes", c("sched.predicted_sizes")),
        ("core.sched.booked_fallbacks", c("sched.booked_fallbacks")),
        ("core.cache.local_hits", c("plane.local_hits")),
        ("core.cache.remote_hits", c("plane.remote_hits")),
        ("core.cache.misses", c("plane.misses")),
        ("core.cache.bypasses", c("plane.bypasses")),
        ("core.cache.fills", c("plane.fills")),
        ("core.cache.persists", c("plane.persists")),
        ("core.cache.quota_bypasses", c("plane.quota_bypasses")),
        ("core.cache.quota_evictions", c("plane.quota_evictions")),
        ("core.cache.ephemeral_mb", mb(c("plane.ephemeral_bytes"))),
        ("core.cache.persist_retries", c("persist.retries")),
        ("core.cache.persist_pending_end", t.persist_end.0 as f64),
        ("core.cache.dead_letters", t.persist_end.1 as f64),
        ("core.agent.scale_ups", c("agent.scale_ups")),
        ("core.agent.scale_downs_plain", c("agent.scale_downs_plain")),
        (
            "core.agent.scale_downs_migration",
            c("agent.scale_downs_migration"),
        ),
        (
            "core.agent.scale_downs_eviction",
            c("agent.scale_downs_eviction"),
        ),
        (
            "core.agent.periodic_evictions",
            c("agent.periodic_evictions"),
        ),
        (
            "core.agent.evict_scan_visited",
            c("agent.evict_scan_visited"),
        ),
        (
            "core.agent.visited_per_eviction",
            ratio(c("agent.evict_scan_visited"), c("agent.periodic_evictions")),
        ),
        ("core.agent.writebacks", c("agent.writebacks")),
        ("core.agent.cache_gb_mean", gb(t.cache_bytes.0)),
        ("core.agent.cache_gb_peak", gb(t.cache_bytes.1)),
        ("rcstore.writes", c("rcstore.writes")),
        ("rcstore.local_hits", c("rcstore.local_hits")),
        ("rcstore.remote_hits", c("rcstore.remote_hits")),
        ("rcstore.misses", c("rcstore.misses")),
        ("rcstore.evictions", c("rcstore.evictions")),
        ("rcstore.promotions", c("rcstore.promotions")),
        ("rcstore.batch_flushes", c("rcstore.batch_flushes")),
        ("rcstore.keys_end", t.cache_end.0 as f64),
        ("rcstore.used_mb_end", mb(t.cache_end.1 as f64)),
        ("host.alloc_count_per_event", ratio(allocs as f64, events)),
        (
            "host.alloc_bytes_per_event",
            ratio(alloc_bytes as f64, events),
        ),
        ("host.alloc_peak_live_mb", mb(x.alloc_peak_live as f64)),
        ("host.calib_ms", fold(x.calib_ms).median),
        (
            "host.pass_spread_pct",
            100.0 * ratio(plain.median - plain.min, plain.min),
        ),
        (
            "host.trace_overhead_pct",
            100.0 * ratio(traced_run - mean_plain, mean_plain),
        ),
    ]);
    m.extend(x.drivers.iter().copied());
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = *m
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"));
            (name.to_string(), v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[derive(Deserialize)]
    struct E2e {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct Layer {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Deserialize)]
    struct Named {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct Bench {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<E2e>,
        per_layer: Vec<Layer>,
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench: Bench = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(bench.command, ["bash", "benchmark/run.sh"]);
        assert_eq!(bench.paths, ["benchmark"]);
        assert!((1..=60).contains(&bench.run_seconds));

        let listed: Vec<(&str, &str)> = bench
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        assert_eq!(listed, crate::workloads::WORKLOADS);
        assert!(bench.workloads.iter().all(|w| w.why.len() <= 200));

        let e2e: Vec<(&str, &str)> = bench
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let ours: Vec<(&str, &str)> = END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(e2e, ours);
        for m in &bench.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }

        let layers: Vec<(&str, &str)> = bench
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
        assert!(bench
            .per_layer
            .iter()
            .all(|m| m.better == "lower" || m.better == "higher"));

        let mut names = BTreeSet::new();
        for n in e2e
            .iter()
            .chain(&layers)
            .map(|(n, _)| *n)
            .chain(listed.iter().map(|(n, _)| *n))
        {
            assert!(names.insert(n), "{n} is used twice");
            assert!(n.len() <= 64);
        }
    }
}
