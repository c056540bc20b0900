//! The `macro_mega` scenario runner (DESIGN.md §18):
//! drives [`ofc_workloads::mega`] against a full OFC testbed and folds
//! the stream of invocation records into per-tenant-decile figures
//! without ever holding the whole trace.
//!
//! Records are drained from the platform on a periodic in-sim tick and
//! folded into integer histograms, so live memory stays O(deciles), not
//! O(invocations) — the same streaming discipline as the generator. All
//! report fields are integers or ratios of integers: the JSON is
//! byte-identical across thread counts and is safe for the golden
//! serial-vs-parallel compare.

use crate::scenario::{is_failure, PlaneKind, Testbed, TestbedSpec, WORKER_NODES};
use ofc_core::ofc::OfcConfig;
use ofc_faas::{Completion, Served};
use ofc_simtime::SimTime;
use ofc_telemetry::Histogram;
use ofc_workloads::mega::{self, MegaConfig, MegaLoad};
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Streaming per-decile accumulator, folded on every drain tick.
#[derive(Default)]
struct Agg {
    invocations: [u64; 10],
    hits: [u64; 10],
    misses: [u64; 10],
    /// End-to-end latency of successful invocations, in microseconds.
    lat: [Histogram; 10],
    completed: u64,
    failed: u64,
}

impl Agg {
    fn fold(&mut self, records: Vec<ofc_faas::InvocationRecord>, tenants: usize, max_retries: u32) {
        for r in records {
            let name = r.tenant.as_str();
            let idx: usize = name[1..].parse().unwrap_or(0);
            let d = mega::decile_of(idx, tenants);
            self.invocations[d] += 1;
            if r.completion == Completion::Success {
                self.completed += 1;
                self.lat[d].record(r.total().as_micros() as u64);
            } else if is_failure(r.completion, r.attempt, max_retries) {
                self.failed += 1;
            }
            for s in &r.reads_served {
                match s {
                    Served::LocalHit | Served::RemoteHit => self.hits[d] += 1,
                    Served::Miss => self.misses[d] += 1,
                    Served::Direct => {}
                }
            }
        }
    }
}

/// One tenant decile of the mega figure (0 = hottest 10 % of tenants).
#[derive(Debug, Clone, Serialize)]
pub struct DecileRow {
    /// Decile index by popularity rank.
    pub decile: usize,
    /// Invocations attributed to the decile.
    pub invocations: u64,
    /// Cache hits (local + remote) on its reads.
    pub hits: u64,
    /// Cache misses on its reads.
    pub misses: u64,
    /// Hit ratio (%).
    pub hit_ratio_pct: f64,
    /// 99th-percentile end-to-end latency (ms, log-bucket upper bound).
    pub p99_ms: f64,
}

/// The full mega-run report (one variant).
#[derive(Debug, Clone, Serialize)]
pub struct MegaReport {
    /// Variant label.
    pub label: String,
    /// Tenants installed.
    pub tenants: usize,
    /// Functions registered.
    pub functions: usize,
    /// Invocations submitted by the streams.
    pub arrivals: u64,
    /// Invocations completing successfully.
    pub completed: u64,
    /// Invocations permanently failed.
    pub failed: u64,
    /// Simulator events executed (the events/sec numerator; wall time
    /// stays out of the JSON so goldens stay byte-stable).
    pub events: u64,
    /// Overall cache hit ratio (%).
    pub hit_ratio_pct: f64,
    /// Per-tenant-decile figures (hit ratio + p99) — the mega figure.
    pub deciles: Vec<DecileRow>,
    /// ML retrains over the window (the `retrain_every` cost driver).
    pub ml_retrains: u64,
    /// Over-quota admissions that won slack memory.
    pub quota_overshoots: u64,
    /// Own-tenant evictions forced by quota contention.
    pub quota_evictions: u64,
    /// Admissions denied to the RSDS by the quota gate.
    pub quota_bypasses: u64,
    /// Last sampled Jain fairness index of the over-quota slack split
    /// (bps; 10000 when quotas are off or nobody overshoots).
    pub quota_fairness_bps: u64,
    /// Jain fairness index over raw per-tenant cached bytes at the end of
    /// the window (bps) — who actually holds the pool. Comparable across
    /// quota-on and quota-off runs.
    pub usage_fairness_bps: u64,
    /// Raft commits (replicated-coordinator variants; 0 otherwise).
    pub raft_commits: u64,
    /// Raft elections observed.
    pub raft_elections: u64,
    /// Reads/writes that bypassed to the RSDS on open breakers.
    pub degraded_bypasses: u64,
    /// Write-backs still pending at the end (durability check).
    pub persist_pending: u64,
    /// Write-backs dead-lettered (durability check).
    pub persist_dead_letters: u64,
}

/// Options of one mega run.
pub struct MegaOpts {
    /// Variant label in the report.
    pub label: String,
    /// Generator configuration.
    pub mega: MegaConfig,
    /// OFC configuration (quota plane, policy, coordinator replicas…).
    pub ofc: OfcConfig,
    /// Worker nodes.
    pub nodes: usize,
    /// Crash worker 1 mid-window and restart it 60 s later (the failover
    /// drill at mega scale).
    pub crash_drill: bool,
}

impl MegaOpts {
    /// Baseline options over a generator config.
    pub fn new(label: impl Into<String>, mega: MegaConfig) -> Self {
        MegaOpts {
            label: label.into(),
            mega,
            ofc: OfcConfig::default(),
            nodes: WORKER_NODES,
            crash_drill: false,
        }
    }
}

/// Hit ratio (%) of the tail deciles (5..9) — the victims of a noisy
/// head tenant, and the protection target of the quota plane.
pub fn tail_hit_pct(r: &MegaReport) -> f64 {
    let (h, m) = r.deciles[5..]
        .iter()
        .fold((0u64, 0u64), |(h, m), d| (h + d.hits, m + d.misses));
    if h + m == 0 {
        0.0
    } else {
        100.0 * h as f64 / (h + m) as f64
    }
}

/// Runs one mega variant end to end and reports the figures.
pub fn run_mega(opts: MegaOpts) -> MegaReport {
    let MegaOpts {
        label,
        mega: mega_cfg,
        ofc: ofc_cfg,
        nodes,
        crash_drill,
    } = opts;
    let Testbed {
        mut sim,
        platform,
        store,
        catalog,
        ofc,
        ..
    } = Testbed::build(TestbedSpec {
        nodes,
        ofc: ofc_cfg,
        ..TestbedSpec::new(PlaneKind::Ofc, mega_cfg.seed)
    });
    let ofc = ofc.expect("an OFC testbed carries its handles");

    let load = MegaLoad::new(mega_cfg.clone());
    let prepared = load.install(&mut sim, &platform, &store, &catalog);

    // Register every (tenant, function) schema; models start blank and
    // mature (or not) from live traffic — the heavy tail is the story, so
    // there is no pretraining.
    {
        let schemas: Vec<_> = (0..mega_cfg.fns_per_tenant)
            .map(|k| {
                let p = mega::profile_of_function(&mega::fn_name(k)).expect("mega profile");
                (mega::fn_name(k), p.feature_schema())
            })
            .collect();
        for t in 0..mega_cfg.tenants {
            let tenant = mega::tenant_name(t);
            for (name, schema) in &schemas {
                ofc.register_function(&tenant, name, schema.clone());
            }
        }
    }

    let max_retries = platform.config().max_retries;
    let agg = Rc::new(RefCell::new(Agg::default()));
    {
        // Recurring record drain: folds completed invocations into the
        // decile accumulator every minute, keeping live record memory
        // bounded.
        let (platform, agg, tenants) = (platform.clone(), Rc::clone(&agg), mega_cfg.tenants);
        sim.every(Duration::from_secs(60), move |_| {
            agg.borrow_mut()
                .fold(platform.drain_records(), tenants, max_retries);
        });
    }

    if crash_drill {
        // Failover drill: lose a worker mid-window, recover a minute
        // later. Recovery promotes backups; the control-plane counters
        // record what the drill cost.
        let mid = mega_cfg.duration / 2;
        let cluster = Rc::clone(&ofc.cluster);
        sim.schedule_at(SimTime::ZERO + mid, move |sim| {
            let now = sim.now();
            let mut c = cluster.borrow_mut();
            if c.live_nodes() > 1 {
                let _ = c.crash_node(1, now);
            }
        });
        let cluster = Rc::clone(&ofc.cluster);
        sim.schedule_at(SimTime::ZERO + mid + Duration::from_secs(60), move |sim| {
            cluster.borrow_mut().restart_node(1, sim.now());
        });
    }

    sim.run_until(SimTime::ZERO + mega_cfg.duration + Duration::from_secs(600));
    agg.borrow_mut()
        .fold(platform.drain_records(), mega_cfg.tenants, max_retries);

    let m = ofc.metrics();
    let usage_fairness_bps = {
        let usage = ofc.cluster.borrow().owner_usage();
        let shares: Vec<u64> = usage.values().copied().collect();
        ofc_core::fairness::jain_index_bps(&shares)
    };
    let persist_pending = ofc.persistence.borrow().pending_count() as u64;
    let persist_dead_letters = ofc.persistence.borrow().dead_letter_count() as u64;
    let agg = agg.borrow();
    let deciles: Vec<DecileRow> = (0..10)
        .map(|d| {
            let (h, mi) = (agg.hits[d], agg.misses[d]);
            DecileRow {
                decile: d,
                invocations: agg.invocations[d],
                hits: h,
                misses: mi,
                hit_ratio_pct: if h + mi == 0 {
                    0.0
                } else {
                    100.0 * h as f64 / (h + mi) as f64
                },
                p99_ms: agg.lat[d].percentile(99) as f64 / 1000.0,
            }
        })
        .collect();

    MegaReport {
        label,
        tenants: prepared.tenants,
        functions: prepared.functions,
        arrivals: prepared.arrivals.get(),
        completed: agg.completed,
        failed: agg.failed,
        events: sim.events_executed(),
        hit_ratio_pct: 100.0 * ofc_core::cache::plane_hit_ratio(&m),
        deciles,
        ml_retrains: m.counter("ml.retrains"),
        quota_overshoots: m.counter("plane.quota_overshoots"),
        quota_evictions: m.counter("plane.quota_evictions"),
        quota_bypasses: m.counter("plane.quota_bypasses"),
        quota_fairness_bps: m.gauge("plane.quota_fairness_bps").unwrap_or(10_000.0) as u64,
        usage_fairness_bps,
        raft_commits: m.counter("raft.commits"),
        raft_elections: m.counter("raft.elections"),
        degraded_bypasses: m.counter("plane.degraded_bypasses"),
        persist_pending,
        persist_dead_letters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_decile_figures() {
        let mut cfg = MegaConfig::smoke();
        cfg.tenants = 20;
        cfg.fns_per_tenant = 12;
        cfg.duration = Duration::from_secs(120);
        let report = run_mega(MegaOpts::new("test", cfg));
        assert_eq!(report.tenants, 20);
        assert_eq!(report.functions, 240);
        assert!(report.arrivals > 50, "arrivals {}", report.arrivals);
        assert!(report.completed > 0);
        assert_eq!(report.deciles.len(), 10);
        assert!(report.events > report.arrivals);
        // Head decile sees more traffic than the tail decile.
        assert!(report.deciles[0].invocations > report.deciles[9].invocations);
    }

    #[test]
    fn smoke_run_is_deterministic() {
        let cfg = MegaConfig {
            tenants: 16,
            fns_per_tenant: 10,
            duration: Duration::from_secs(90),
            ..MegaConfig::smoke()
        };
        let a = run_mega(MegaOpts::new("det", cfg.clone()));
        let b = run_mega(MegaOpts::new("det", cfg));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
