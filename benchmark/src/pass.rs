//! One pass: assemble a fresh stack, run the simulation in fixed simulated
//! slices, fold the invocation records between slices, and collect every
//! count the layers expose.
//!
//! Only `Sim::run_until` sits inside a timed slice. Record draining,
//! latency folding and digesting happen between slices, outside every
//! timed interval.

use crate::host;
use crate::stats::{percentile, Digest};
use crate::trace::Tracer;
use crate::workloads::{assemble, Plane, SetupTimes, Spec, Stack};
use ofc::faas::platform::PipelineRecord;
use ofc::faas::{Completion, InvocationRecord, TenantId};
use ofc::simtime::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// One timed `run_until` slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Events executed.
    pub events: u64,
    /// Host seconds.
    pub wall_s: f64,
    /// CPU seconds of the process over the slice.
    pub cpu_s: f64,
    /// Whether the slice lies inside the arrival window (not the drain).
    pub in_window: bool,
    /// Allocations made (traced binary only).
    pub allocs: u64,
    /// Bytes allocated (traced binary only).
    pub alloc_bytes: u64,
}

/// Figure 9's accounting of end-to-end time: single-stage tenants sum
/// their successful invocations' latencies, pipeline tenants sum pipeline
/// wall times. Per-tenant sums accumulate in completion order and are
/// added in tenant-name order, exactly as the shipped `macro24` bin does,
/// so the golden anchor reproduces its figures to the bit.
#[derive(Default)]
pub struct Fig9 {
    per_tenant: BTreeMap<TenantId, f64>,
    pipe_tenant: HashMap<u64, TenantId>,
}

impl Fig9 {
    fn fold(&mut self, records: &[InvocationRecord], pipes: &[PipelineRecord]) {
        for r in records {
            if let Some(pid) = r.pipeline {
                self.pipe_tenant.entry(pid).or_insert(r.tenant);
            } else if r.completion == Completion::Success {
                *self.per_tenant.entry(r.tenant).or_default() += r.total().as_secs_f64();
            }
        }
        for p in pipes {
            if let Some(tenant) = self.pipe_tenant.remove(&p.id) {
                *self.per_tenant.entry(tenant).or_default() +=
                    p.end.saturating_since(p.start).as_secs_f64();
            }
        }
    }

    /// Σ over tenants (seconds).
    pub fn total_s(&self) -> f64 {
        self.per_tenant.values().sum()
    }
}

/// Everything one pass produced.
pub struct Pass {
    /// Host seconds of the set-up steps.
    pub setup: SetupTimes,
    /// The timed slices.
    pub slices: Vec<Slice>,
    /// Simulator events executed.
    pub events: u64,
    /// Largest pending-event count seen at a slice boundary.
    pub pending_peak: u64,
    /// Invocations submitted (retries not counted).
    pub arrivals: u64,
    /// Invocations that completed successfully.
    pub completed: u64,
    /// Invocations that failed for good (exhausted OOM retries,
    /// unschedulable).
    pub failed: u64,
    /// End-to-end latency of every successful request (ns), ascending. A
    /// request is what a user waits for: one single-stage invocation
    /// (arrival to end) or one whole pipeline (start to end) — Figure 9's
    /// unit of account.
    pub lat_ns: Vec<u64>,
    /// Σ Extract / Transform / Load time of successful invocations (ns).
    pub etl_ns: [u128; 3],
    /// Figure 9 end-to-end total (s).
    pub fig9_total_s: f64,
    /// Every counter of the telemetry plane (label sets summed), plus the
    /// platform counters under `faas.*` on the twin.
    pub counters: BTreeMap<String, u64>,
    /// Mean and peak of the `agent.cache_size_bytes` series (bytes).
    pub cache_bytes: (f64, f64),
    /// RSDS operation counters: gets, puts, shadow puts.
    pub store_ops: [u64; 3],
    /// Cache keys and bytes resident at the end.
    pub cache_end: (u64, u64),
    /// Cache keys and bytes at the slice boundary with the most keys.
    pub cache_peak: (u64, u64),
    /// Write-backs pending / dead-lettered at the end.
    pub persist_end: (u64, u64),
    /// `ml.good_predictions`, `ml.bad_predictions`, `ml.retrains` when the
    /// set-up ended: pretraining's share, subtracted to report the run's.
    pub ml_setup: [u64; 3],
    /// Hash of the simulated outcome; identical on every pass of a seed.
    pub sim_digest: u64,
    /// Output checks that failed (empty = the pass is correct).
    pub violations: Vec<String>,
}

impl Pass {
    /// Host seconds inside `Sim::run_until`.
    pub fn run_wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// CPU seconds inside `Sim::run_until`.
    pub fn run_cpu_s(&self) -> f64 {
        self.slices.iter().map(|s| s.cpu_s).sum()
    }

    /// A counter by its telemetry name (zero when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Cache hit ratio (%) — `plane_hit_ratio` over the snapshot.
    pub fn hit_ratio_pct(&self) -> f64 {
        let hits = self.counter("plane.local_hits") + self.counter("plane.remote_hits");
        let total = hits + self.counter("plane.misses");
        if total == 0 {
            0.0
        } else {
            100.0 * (hits as f64 / total as f64)
        }
    }

    /// A latency percentile in milliseconds.
    pub fn lat_ms(&self, p: f64) -> f64 {
        percentile(&self.lat_ns, p) as f64 / 1e6
    }
}

/// Slice length: ten simulated minutes, shortened on short horizons so
/// every run has at least 24 slices to take percentiles over.
pub fn slice_len(spec: &Spec) -> Duration {
    let horizon = spec.horizon().as_secs();
    Duration::from_secs((horizon / 24).clamp(1, 600))
}

/// Runs one pass of `spec` on `plane`. Returns the pass and the finished
/// stack (the layer drivers replay against its population).
pub fn run_pass(spec: &Spec, plane: Plane, tr: &mut Tracer) -> (Pass, Stack) {
    let open_pass = tr.open(if plane == Plane::Ofc { "pass" } else { "twin" });
    let (mut stack, setup) = assemble(spec, plane, tr);

    let ml_setup = stack.ofc.as_ref().map_or([0; 3], |ofc| {
        let m = ofc.metrics();
        [
            m.counter("ml.good_predictions"),
            m.counter("ml.bad_predictions"),
            m.counter("ml.retrains"),
        ]
    });
    let max_retries = stack.platform.config().max_retries;
    let mut fig9 = Fig9::default();
    let mut lat_ns: Vec<u64> = Vec::new();
    let mut etl_ns = [0u128; 3];
    let (mut completed, mut failed) = (0u64, 0u64);
    let mut digest = Digest::default();
    let mut slices = Vec::new();
    let mut pending_peak = stack.sim.events_pending() as u64;
    let mut cache_peak = (0u64, 0u64);

    let step = slice_len(spec);
    let end = SimTime::ZERO + spec.horizon();
    let window_end = SimTime::ZERO + spec.window;
    let mut next = SimTime::ZERO;
    let open_run = tr.open("run");
    while next < end {
        next = (next + step).min(end);
        // Reading the CPU clock allocates, so it brackets the allocation
        // snapshot rather than the other way round.
        let cpu0 = host::cpu_time_s();
        let alloc0 = host::alloc_stats();
        let open = tr.open("simtime.slice");
        let events = stack.sim.run_until(next);
        let wall_s = tr.close(open).as_secs_f64();
        let alloc1 = host::alloc_stats();
        let cpu_s = host::cpu_time_s() - cpu0;
        slices.push(Slice {
            events,
            wall_s,
            cpu_s,
            in_window: next <= window_end,
            allocs: alloc1.count - alloc0.count,
            alloc_bytes: alloc1.bytes - alloc0.bytes,
        });
        pending_peak = pending_peak.max(stack.sim.events_pending() as u64);
        if let Some(ofc) = &stack.ofc {
            let cluster = ofc.cluster.borrow();
            if cluster.len() as u64 > cache_peak.0 {
                cache_peak = (cluster.len() as u64, cluster.used_bytes());
            }
        }

        let open = tr.open("harness.fold");
        let records = stack.platform.drain_records();
        let pipes = stack.platform.drain_pipeline_records();
        fig9.fold(&records, &pipes);
        for r in &records {
            match r.completion {
                Completion::Success => {
                    completed += 1;
                    if r.pipeline.is_none() {
                        lat_ns.push(r.total().as_nanos() as u64);
                    }
                    digest.u64(r.total().as_nanos() as u64);
                    etl_ns[0] += r.e_time.as_nanos();
                    etl_ns[1] += r.t_time.as_nanos();
                    etl_ns[2] += r.l_time.as_nanos();
                }
                Completion::Unschedulable => failed += 1,
                Completion::OomKilled if r.attempt >= max_retries => failed += 1,
                Completion::OomKilled => {}
            }
        }
        lat_ns.extend(
            pipes
                .iter()
                .filter(|p| !p.failed)
                .map(|p| p.end.saturating_since(p.start).as_nanos() as u64),
        );
        tr.close(open);
    }
    tr.close(open_run);

    let open = tr.open("harness.collect");
    let pc = stack.platform.counters();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut cache_bytes = (0.0, 0.0);
    let mut cache_end = (0, 0);
    let mut persist_end = (0, 0);
    let mut violations = Vec::new();
    match &stack.ofc {
        Some(ofc) => {
            let m = ofc.metrics();
            for c in &m.counters {
                *counters.entry(c.name.clone()).or_default() += c.value;
            }
            if let Some(series) = m.gauge_series("agent.cache_size_bytes") {
                let pts = series.points();
                if !pts.is_empty() {
                    let sum: f64 = pts.iter().map(|&(_, v)| v).sum();
                    let peak = pts.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
                    cache_bytes = (sum / pts.len() as f64, peak);
                }
            }
            let cluster = ofc.cluster.borrow();
            cache_end = (cluster.len() as u64, cluster.used_bytes());
            let ledgers: u64 = cluster.owner_usage().values().sum();
            if ledgers != cluster.used_bytes() {
                violations.push(format!(
                    "owner ledgers sum to {ledgers} B but the cluster uses {} B",
                    cluster.used_bytes()
                ));
            }
            let persistence = ofc.persistence.borrow();
            persist_end = (
                persistence.pending_count() as u64,
                persistence.dead_letter_count() as u64,
            );
            if persist_end != (0, 0) {
                violations.push(format!(
                    "fault-free run ended with {} write-backs pending, {} dead-lettered",
                    persist_end.0, persist_end.1
                ));
            }
        }
        None => {
            for (name, v) in [
                ("faas.submitted", pc.submitted),
                ("faas.completed", pc.completed),
                ("faas.oom_kills", pc.oom_kills),
                ("faas.retries", pc.retries),
                ("faas.unschedulable", pc.unschedulable),
                ("faas.cold_starts", pc.cold_starts),
                ("faas.warm_starts", pc.warm_starts),
                ("faas.resizes", pc.resizes),
            ] {
                counters.insert(name.to_string(), v);
            }
        }
    }
    let arrivals = pc.submitted;
    if completed + failed != arrivals {
        violations.push(format!(
            "{completed} completed + {failed} failed != {arrivals} arrivals (drain too short?)"
        ));
    }
    if completed != pc.completed {
        violations.push(format!(
            "records show {completed} successes, the platform counted {}",
            pc.completed
        ));
    }
    let sc = stack.store.borrow().counters();
    let events = stack.sim.events_executed();

    digest.u64(events);
    digest.u64(arrivals);
    digest.u64(completed);
    digest.u64(failed);
    for (name, v) in &counters {
        digest.str(name);
        digest.u64(*v);
    }
    lat_ns.sort_unstable();
    tr.close(open);
    tr.close(open_pass);

    (
        Pass {
            setup,
            slices,
            events,
            pending_peak,
            arrivals,
            completed,
            failed,
            lat_ns,
            etl_ns,
            fig9_total_s: fig9.total_s(),
            counters,
            cache_bytes,
            store_ops: [sc.gets, sc.puts, sc.shadow_puts],
            cache_end,
            cache_peak,
            persist_end,
            ml_setup,
            sim_digest: digest.finish(),
            violations,
        },
        stack,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn smoke(name: &str, seed: u64) -> Spec {
        Spec::of(name, seed, true).expect("known workload")
    }

    fn with_window(name: &str, window: Duration) -> Spec {
        let mut spec = smoke(name, 1);
        spec.window = window;
        if let crate::workloads::Load::Mega(cfg) = &mut spec.load {
            cfg.duration = window;
        }
        spec
    }

    #[test]
    fn halving_the_window_halves_the_events() {
        // The timed interval is the simulation, not harness overhead: half
        // the arrival window must mean about half the events. (Four smoke
        // windows against two: enough arrivals for the ratio to be steady.)
        for (name, _) in WORKLOADS {
            let mut tr = Tracer::new(false);
            let window = smoke(name, 1).window;
            let (a, _) = run_pass(&with_window(name, window * 4), Plane::Ofc, &mut tr);
            let (b, _) = run_pass(&with_window(name, window * 2), Plane::Ofc, &mut tr);
            let share = b.events as f64 / a.events as f64;
            assert!(
                (0.4..=0.6).contains(&share),
                "{name}: {} of {} events ({share:.2}) at half the window",
                b.events,
                a.events
            );
        }
    }

    #[test]
    fn a_seed_pins_the_simulated_outcome() {
        let mut tr = Tracer::new(true);
        let (a, _) = run_pass(&smoke("cache_pressure", 3), Plane::Ofc, &mut tr);
        let (b, _) = run_pass(&smoke("cache_pressure", 3), Plane::Ofc, &mut tr);
        let (c, _) = run_pass(&smoke("cache_pressure", 4), Plane::Ofc, &mut tr);
        assert_eq!(a.sim_digest, b.sim_digest);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.lat_ns, b.lat_ns);
        assert_ne!(a.sim_digest, c.sim_digest);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.completed + a.failed, a.arrivals);
        // Slices tile the run: their events add up to the simulator's.
        assert_eq!(a.slices.iter().map(|s| s.events).sum::<u64>(), a.events);
        // Tracing records the run and every slice under it.
        let slices = tr
            .spans()
            .iter()
            .filter(|s| s.name == "simtime.slice")
            .count();
        assert_eq!(slices, a.slices.len() * 3);
    }

    #[test]
    fn the_twin_sees_the_same_arrivals() {
        let mut tr = Tracer::new(false);
        for (name, _) in WORKLOADS {
            let spec = smoke(name, 2);
            let (ofc, _) = run_pass(&spec, Plane::Ofc, &mut tr);
            let (twin, _) = run_pass(&spec, Plane::Twin, &mut tr);
            assert_eq!(ofc.arrivals, twin.arrivals, "{name}");
            assert_eq!(twin.failed, 0, "{name}");
            assert!(twin.fig9_total_s > 0.0 && ofc.fig9_total_s > 0.0, "{name}");
        }
    }
}
