//! Chaos experiment: the Figure 9 macro workload under a deterministic
//! fault schedule — node crash/restart, slow nodes, transient store
//! errors, persistor failures — comparing hit ratio and latency against a
//! fault-free baseline and asserting durability (zero data loss, all
//! accepted write-backs eventually landed in the RSDS).
//!
//! The fault schedule is drawn from [`SEED`]; the observation window is
//! 10 minutes. Output is deterministic: running twice with the same
//! environment produces byte-identical `results/chaos.json`.
//! `OFC_MACRO_SMOKE=1` pins a 5-minute window and saves
//! `chaos_smoke.json` / `failover_smoke.json` instead, for the golden
//! byte-diff suite.
//!
//! `OFC_CHAOS_FAILOVER=1` switches to the control-plane drill (DESIGN.md
//! §16): the cache store runs a 3-replica Raft-style coordinator with
//! gossip membership, and the schedule adds coordinator crashes, leader
//! isolations, and network partitions. The report (then saved as
//! `results/failover.json`) carries the `raft.*`/`gossip.*` counters, and
//! the fault-free baseline keeps the default single coordinator — the
//! hit/latency deltas thus bound the replication overhead end to end.
//!
//! The fault-free baseline and the chaos run are independent sims and fan
//! out through [`ofc_bench::par`]; the chaos job builds its testbed,
//! installs the schedule, and extracts every durability metric inside the
//! worker, so only plain data crosses the thread boundary.

use ofc_bench::cachex::{run_macro, MacroResult, MacroSpec};
use ofc_bench::par;
use ofc_bench::report;
use ofc_bench::scenario::{PlaneKind, Testbed, WORKER_NODES};
use ofc_chaos::{ChaosSchedule, FaultKind, FaultTemplate, Recurring};
use ofc_core::cache::Persistence;
use ofc_core::ofc::OfcConfig;
use ofc_rcstore::cluster::Cluster;
use ofc_simtime::SimTime;
use ofc_telemetry::Telemetry;
use ofc_workloads::faasload::TenantProfile;
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// The seed of the fault schedule and of both runs' workload.
const SEED: u64 = 42;

/// Handles stashed by the pre-run hook for post-run durability checks.
/// They never leave the worker thread that built the testbed.
struct Handles {
    cluster: Rc<RefCell<Cluster>>,
    persistence: Rc<RefCell<Persistence>>,
    telemetry: Telemetry,
}

/// One of the two fanned-out runs (boxed: the variants are large).
enum RunOut {
    Baseline(Box<MacroResult>),
    Chaos(Box<ChaosReport>),
}

/// The chaos run: assemble the testbed, install the fault schedule, run
/// the macro workload, and read every metric while the testbed is alive.
/// Fills the report's chaos-side fields; `main` adds the baseline and the
/// deltas.
fn chaos_run(
    seed: u64,
    dur: Duration,
    events: Vec<ofc_chaos::FaultEvent>,
    cfg: OfcConfig,
) -> ChaosReport {
    let handles: Rc<RefCell<Option<Handles>>> = Rc::new(RefCell::new(None));
    let stash = Rc::clone(&handles);
    let (chaos, _) = run_macro(MacroSpec {
        ofc: cfg,
        hook: Box::new(move |tb: &mut Testbed| {
            let ofc = tb.ofc.as_ref().expect("ofc testbed");
            let cluster = Rc::clone(&ofc.cluster);
            let persistence = Rc::clone(&ofc.persistence);
            let telemetry = ofc.telemetry().clone();
            *stash.borrow_mut() = Some(Handles {
                cluster: Rc::clone(&cluster),
                persistence: Rc::clone(&persistence),
                telemetry: telemetry.clone(),
            });
            let sink: ofc_chaos::FaultSink = Rc::new(move |sim, kind| {
                let now = sim.now();
                let mut c = cluster.borrow_mut();
                match kind {
                    FaultKind::NodeCrash(n) => {
                        // Never take the last node down: the macro load
                        // keeps running and a zero-node cluster is not a
                        // scenario OFC claims to survive.
                        if c.live_nodes() > 1 {
                            c.crash_node(*n, now);
                        }
                    }
                    FaultKind::NodeRestart(n) => c.restart_node(*n, now),
                    FaultKind::SlowNode { node, factor } => c.set_node_slowdown(*node, *factor),
                    FaultKind::RestoreNodeSpeed { node } => c.clear_node_slowdown(*node),
                    FaultKind::TransientStoreErrors { ops } => c.inject_transient_errors(*ops),
                    FaultKind::PersistorFailure { count } => {
                        persistence.borrow_mut().inject_persist_failures(*count)
                    }
                    FaultKind::CoordinatorCrash(r) => c.crash_coordinator(*r, now),
                    FaultKind::CoordinatorRestart(r) => c.restart_coordinator(*r, now),
                    FaultKind::LeaderIsolate => {
                        c.isolate_leader(now);
                    }
                    FaultKind::Partition { groups } => c.partition_network(groups, now),
                    FaultKind::HealPartition => c.heal_partition(now),
                }
            });
            ofc_chaos::install(&mut tb.sim, events, &telemetry, sink);
        }),
        ..MacroSpec::new(PlaneKind::Ofc, TenantProfile::Normal, dur, seed)
    });

    let handles = handles.borrow_mut().take().expect("hook ran");
    let m = handles.telemetry.metrics();
    let pending_after = handles.persistence.borrow().pending_count();
    let dead_after = handles.persistence.borrow().dead_letter_count();
    // Any leftover injected-fault budget would make the counts below
    // depend on post-run accounting; clear it for hygiene.
    handles.cluster.borrow_mut().clear_faults();
    ChaosReport {
        seed,
        faults_injected: m.counter("chaos.faults_injected"),
        node_crashes: m.counter("chaos.node_crashes"),
        node_restarts: m.counter("chaos.node_restarts"),
        slowdowns: m.counter("chaos.slowdowns"),
        transient_bursts: m.counter("chaos.transient_bursts"),
        persistor_failures: m.counter("chaos.persistor_failures"),
        coordinator_crashes: m.counter("chaos.coordinator_crashes"),
        leader_isolations: m.counter("chaos.leader_isolations"),
        partitions: m.counter("chaos.partitions"),
        raft_elections: m.counter("raft.elections"),
        raft_commits: m.counter("raft.commits"),
        raft_no_quorum_rejects: m.counter("raft.no_quorum_rejects"),
        gossip_rounds: m.counter("gossip.rounds"),
        gossip_confirms: m.counter("gossip.confirms"),
        degraded_bypasses: m.counter("plane.degraded_bypasses"),
        persist_retries: m.counter("persist.retries"),
        persist_dead_letters: m.counter("persist.dead_letters"),
        rcstore_transient_errors: m.counter("rcstore.transient_errors"),
        chaos_hit_pct: chaos.table2.hit_ratio_pct,
        chaos_total_s: total_s(&chaos),
        objects_lost: m.counter("rcstore.objects_lost"),
        pending_after,
        dead_after,
        ..ChaosReport::default()
    }
}

#[derive(Debug, Default, Serialize)]
struct ChaosReport {
    seed: u64,
    minutes: u64,
    // Fault schedule actually injected.
    faults_injected: u64,
    node_crashes: u64,
    node_restarts: u64,
    slowdowns: u64,
    transient_bursts: u64,
    persistor_failures: u64,
    // Control-plane drill (zero outside OFC_CHAOS_FAILOVER=1).
    coordinator_crashes: u64,
    leader_isolations: u64,
    partitions: u64,
    raft_elections: u64,
    raft_commits: u64,
    raft_no_quorum_rejects: u64,
    gossip_rounds: u64,
    gossip_confirms: u64,
    // Degradation machinery.
    degraded_bypasses: u64,
    persist_retries: u64,
    persist_dead_letters: u64,
    rcstore_transient_errors: u64,
    // Hit-ratio / latency deltas vs the fault-free baseline.
    baseline_hit_pct: f64,
    chaos_hit_pct: f64,
    hit_delta_pct: f64,
    baseline_total_s: f64,
    chaos_total_s: f64,
    latency_inflation_pct: f64,
    // Durability.
    objects_lost: u64,
    pending_after: usize,
    dead_after: usize,
}

fn total_s(m: &MacroResult) -> f64 {
    m.per_function_total_s.values().sum()
}

fn main() {
    let mut window = ofc_bench::window(10);
    if window.smoke {
        // The shared 2-minute smoke window ends before the node restart at
        // 240 s; 5 minutes fits the crash/restart one-shots and at least
        // one recurring fault.
        window.mins = 5;
    }
    let minutes = window.mins;
    let failover = std::env::var("OFC_CHAOS_FAILOVER").is_ok_and(|v| v == "1");
    let dur = window.duration();

    // Fault window: [60 s, dur - 60 s] so every fault ceases well before
    // the 600 s settle phase — durability is judged on a quiet system.
    let window_end = SimTime::ZERO + dur.saturating_sub(Duration::from_secs(60));
    let mut schedule = ChaosSchedule::new(WORKER_NODES)
        .one_shot(SimTime::from_secs(90), FaultKind::NodeCrash(1))
        .one_shot(SimTime::from_secs(240), FaultKind::NodeRestart(1))
        .recurring(Recurring {
            template: FaultTemplate::Transient { ops: 8 },
            mean_interval: Duration::from_secs(120),
            from: SimTime::from_secs(60),
            until: window_end,
        })
        .recurring(Recurring {
            template: FaultTemplate::Slow {
                factor: 6.0,
                duration: Duration::from_secs(45),
            },
            mean_interval: Duration::from_secs(180),
            from: SimTime::from_secs(60),
            until: window_end,
        })
        .recurring(Recurring {
            template: FaultTemplate::PersistorFail { count: 3 },
            mean_interval: Duration::from_secs(150),
            from: SimTime::from_secs(60),
            until: window_end,
        });
    if failover {
        // Control-plane drill: coordinator crashes, leader isolations,
        // and network partitions ride along, each with a paired heal so
        // the final settle phase always runs on a whole cluster.
        schedule = schedule
            .coordinators(3)
            .recurring(Recurring {
                template: FaultTemplate::CoordinatorCrash {
                    heal_after: Duration::from_secs(30),
                },
                mean_interval: Duration::from_secs(150),
                from: SimTime::from_secs(60),
                until: window_end,
            })
            .recurring(Recurring {
                template: FaultTemplate::LeaderIsolate {
                    heal_after: Duration::from_secs(25),
                },
                mean_interval: Duration::from_secs(200),
                from: SimTime::from_secs(60),
                until: window_end,
            })
            .recurring(Recurring {
                template: FaultTemplate::Partition {
                    heal_after: Duration::from_secs(30),
                },
                mean_interval: Duration::from_secs(200),
                from: SimTime::from_secs(60),
                until: window_end,
            });
    }
    let events = schedule.generate(SEED);
    eprintln!(
        "[chaos{}: {} fault events over {} min]",
        if failover { " (failover drill)" } else { "" },
        events.len(),
        minutes
    );

    let chaos_cfg = if failover {
        OfcConfig {
            replicated_control_plane: true,
            ..OfcConfig::default()
        }
    } else {
        OfcConfig::default()
    };
    let jobs: Vec<Box<dyn FnOnce() -> RunOut + Send>> = vec![
        Box::new(move || {
            let spec = MacroSpec::new(PlaneKind::Ofc, TenantProfile::Normal, dur, SEED);
            RunOut::Baseline(Box::new(run_macro(spec).0))
        }),
        Box::new(move || RunOut::Chaos(Box::new(chaos_run(SEED, dur, events, chaos_cfg)))),
    ];
    let mut runs = par::run_jobs(jobs).into_iter();
    let (Some(RunOut::Baseline(baseline)), Some(RunOut::Chaos(chaos))) = (runs.next(), runs.next())
    else {
        unreachable!("results arrive in submission order");
    };

    let baseline_total = total_s(&baseline);
    let report = ChaosReport {
        minutes,
        baseline_hit_pct: baseline.table2.hit_ratio_pct,
        hit_delta_pct: baseline.table2.hit_ratio_pct - chaos.chaos_hit_pct,
        baseline_total_s: baseline_total,
        latency_inflation_pct: if baseline_total > 0.0 {
            100.0 * (chaos.chaos_total_s / baseline_total - 1.0)
        } else {
            0.0
        },
        ..*chaos
    };

    if failover {
        println!(
            "Chaos failover drill — Fig 9 macro workload, 3-replica coordinator + gossip (seed {SEED})\n"
        );
    } else {
        println!("Chaos — Fig 9 macro workload under a fault schedule (seed {SEED})\n");
    }
    println!(
        "{}",
        report::table(
            &["metric", "baseline", "chaos"],
            &[
                vec![
                    "hit ratio".into(),
                    format!("{:.1}%", report.baseline_hit_pct),
                    format!("{:.1}%", report.chaos_hit_pct),
                ],
                vec![
                    "total exec time".into(),
                    report::fmt_secs(report.baseline_total_s),
                    report::fmt_secs(report.chaos_total_s),
                ],
                vec![
                    "faults injected".into(),
                    "0".into(),
                    report.faults_injected.to_string(),
                ],
                vec![
                    "degraded bypasses".into(),
                    "0".into(),
                    report.degraded_bypasses.to_string(),
                ],
                vec![
                    "persist retries".into(),
                    "0".into(),
                    report.persist_retries.to_string(),
                ],
                vec![
                    "dead letters".into(),
                    "0".into(),
                    report.persist_dead_letters.to_string(),
                ],
            ],
        )
    );
    if failover {
        println!(
            "\ncontrol plane: {} elections, {} commits, {} no-quorum rejects, {} gossip confirms",
            report.raft_elections,
            report.raft_commits,
            report.raft_no_quorum_rejects,
            report.gossip_confirms
        );
    }
    let out_name = window.file(if failover { "failover" } else { "chaos" });
    report::save_json(&out_name, &report);

    let mut failures = Vec::new();
    if report.objects_lost != 0 {
        failures.push(format!(
            "{} objects lost (replication should cover every crash)",
            report.objects_lost
        ));
    }
    if report.pending_after != 0 || report.dead_after != 0 {
        failures.push(format!(
            "{} pending / {} dead-lettered write-backs never reached the RSDS",
            report.pending_after, report.dead_after
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("DURABILITY FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("\nDurability: zero data loss; every accepted write-back landed in the RSDS.");
}
