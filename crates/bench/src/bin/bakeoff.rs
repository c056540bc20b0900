//! Policy bake-off (DESIGN.md §15): the same Fig 9 macro mix driven by
//! three cache-policy brains — OFC (the paper's ML-gated default), Faa$T
//! (per-application anchored caches with frequency prefetch), and
//! InfiniCache (erasure-coded cold parking in rented sandboxes) — and
//! compared head-to-head on hit ratio, E+L latency, memory footprint,
//! and cold-tier cost.
//!
//! * The observation window is 30 minutes; `OFC_MACRO_SMOKE=1` runs a
//!   fixed 2-minute window and saves `bakeoff_smoke.json` instead — the
//!   golden suite's regression probe.
//! * `OFC_BAKEOFF_CHECK=1` runs every policy twice and exits non-zero if
//!   the passes disagree (determinism violation).
//!
//! The full (non-smoke) run additionally re-fights the bake-off on the
//! mega mix (DESIGN.md §18): 200 heavy-tailed tenants per policy, scored
//! on overall and tail-decile hit ratio. `results/bakeoff.json` then
//! carries both sections (`macro_mix` + `mega_mix`); the smoke JSON
//! keeps the original flat shape so the golden stays byte-stable.
//!
//! The run also exits non-zero if any policy strands write-backs (pending
//! or dead-lettered) at the end of the window: rival policies may trade
//! hit ratio for memory or rent, but never durability.

use ofc_bench::cachex::{run_macro, MacroExtras, MacroResult, MacroSpec};
use ofc_bench::megarun::{run_mega, tail_hit_pct, MegaOpts, MegaReport};
use ofc_bench::par;
use ofc_bench::report;
use ofc_bench::scenario::PlaneKind;
use ofc_core::ofc::OfcConfig;
use ofc_core::policy::PolicyKind;
use ofc_workloads::faasload::TenantProfile;
use ofc_workloads::mega::MegaConfig;
use serde::Serialize;

const POLICIES: [(PolicyKind, &str); 3] = [
    (PolicyKind::Ofc, "ofc"),
    (PolicyKind::Faast, "faast"),
    (PolicyKind::InfiniCache, "infinicache"),
];

/// One comparison row of `results/bakeoff.json`: simulated quantities
/// only, so the JSON is golden-stable.
#[derive(Debug, Clone, Serialize, PartialEq)]
struct Row {
    policy: String,
    hit_ratio_pct: f64,
    total_latency_s: f64,
    el_seconds: f64,
    peak_cache_gb: f64,
    mean_cache_gb: f64,
    rental_cost_nanodollars: u64,
    cold_hits: u64,
    prefetches: u64,
    failed_invocations: u64,
}

/// One mega-mix comparison row (full mode only).
#[derive(Debug, Clone, Serialize, PartialEq)]
struct MegaRow {
    policy: String,
    hit_ratio_pct: f64,
    /// Tail-decile (5..9) hit ratio — where rival policies actually
    /// diverge under a heavy-tailed tenant mix.
    tail_hit_pct: f64,
    usage_fairness_bps: u64,
    failed: u64,
    events: u64,
}

/// The full-mode `results/bakeoff.json` payload: the Fig 9 macro rows
/// plus the mega-mix rows.
#[derive(Serialize)]
struct FullReport {
    macro_mix: Vec<Row>,
    mega_mix: Vec<MegaRow>,
}

fn mega_row(name: &str, r: &MegaReport) -> MegaRow {
    MegaRow {
        policy: name.into(),
        hit_ratio_pct: r.hit_ratio_pct,
        tail_hit_pct: tail_hit_pct(r),
        usage_fairness_bps: r.usage_fairness_bps,
        failed: r.failed,
        events: r.events,
    }
}

fn row(name: &str, result: &MacroResult, extras: &MacroExtras) -> Row {
    Row {
        policy: name.into(),
        hit_ratio_pct: result.table2.hit_ratio_pct,
        total_latency_s: result.per_function_total_s.values().sum(),
        el_seconds: extras.el_seconds,
        peak_cache_gb: extras.peak_cache_gb,
        mean_cache_gb: extras.mean_cache_gb,
        rental_cost_nanodollars: extras.rental_cost_nanodollars,
        cold_hits: extras.cold_hits,
        prefetches: extras.prefetches,
        failed_invocations: result.table2.failed_invocations,
    }
}

fn main() {
    let window = ofc_bench::window(30);
    let (mins, dur) = (window.mins, window.duration());
    let check = std::env::var("OFC_BAKEOFF_CHECK").is_ok_and(|v| v == "1");
    let passes = if check { 2 } else { 1 };

    // Each (pass, policy) pair is an independent sim.
    type Job = Box<dyn FnOnce() -> (MacroResult, MacroExtras) + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for _pass in 0..passes {
        for (kind, _) in POLICIES {
            jobs.push(Box::new(move || {
                // Every policy drives the OFC plane through the same
                // assembly; only the brain differs.
                run_macro(MacroSpec {
                    ofc: OfcConfig {
                        policy: kind,
                        ..OfcConfig::default()
                    },
                    ..MacroSpec::new(PlaneKind::Ofc, TenantProfile::Normal, dur, 17)
                })
            }));
        }
    }
    let results = par::run_jobs(jobs);

    let mut failures: Vec<String> = Vec::new();
    let mut pass_rows: Vec<Vec<Row>> = Vec::new();
    for chunk in results.chunks_exact(POLICIES.len()) {
        let mut rows = Vec::new();
        for ((_, name), (result, extras)) in POLICIES.iter().zip(chunk) {
            if extras.persist_pending != 0 || extras.persist_dead_letters != 0 {
                failures.push(format!(
                    "{name}: durability violation — {} pending, {} dead-lettered write-backs",
                    extras.persist_pending, extras.persist_dead_letters
                ));
            }
            rows.push(row(name, result, extras));
        }
        pass_rows.push(rows);
    }
    if check {
        let a = serde_json::to_string(&pass_rows[0]).expect("serializable rows");
        let b = serde_json::to_string(&pass_rows[1]).expect("serializable rows");
        if a != b {
            eprintln!("bakeoff: determinism violation — the two passes disagree");
            std::process::exit(3);
        }
        eprintln!("bakeoff: determinism check passed (two identical passes)");
    }
    let rows = &pass_rows[0];

    println!("Policy bake-off — Fig 9 macro mix, Normal profile ({mins} min window)\n");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.1}%", r.hit_ratio_pct),
                report::fmt_secs(r.total_latency_s),
                report::fmt_secs(r.el_seconds),
                format!("{:.2}", r.peak_cache_gb),
                format!("{:.2}", r.mean_cache_gb),
                r.rental_cost_nanodollars.to_string(),
                r.cold_hits.to_string(),
                r.prefetches.to_string(),
                r.failed_invocations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(
            &[
                "policy",
                "hit ratio",
                "total latency",
                "E+L",
                "peak GB",
                "mean GB",
                "rent (nd)",
                "cold hits",
                "prefetches",
                "failed",
            ],
            &cells,
        )
    );
    println!(
        "OFC's ML gate trades a slightly lower hit ratio for a smaller footprint;\n\
         Faa$T admits everything (higher footprint), InfiniCache pays rent for its\n\
         cold tier instead of RAM."
    );

    if window.smoke {
        report::save_json("bakeoff_smoke", rows);
    } else {
        // The mega-mix re-fight: one heavy-tailed 200-tenant window per
        // policy, fanned out like the macro rows.
        type MegaJob = Box<dyn FnOnce() -> MegaReport + Send>;
        let mega_jobs: Vec<MegaJob> = POLICIES
            .iter()
            .map(|&(kind, name)| {
                Box::new(move || {
                    let mut opts = MegaOpts::new(format!("mix-{name}"), MegaConfig::mix());
                    opts.ofc.policy = kind;
                    run_mega(opts)
                }) as MegaJob
            })
            .collect();
        let mega_results = par::run_jobs(mega_jobs);
        let mut mega_rows = Vec::new();
        for ((_, name), r) in POLICIES.iter().zip(&mega_results) {
            if r.persist_pending != 0 || r.persist_dead_letters != 0 {
                failures.push(format!(
                    "{name} (mega): durability violation — {} pending, {} dead-lettered write-backs",
                    r.persist_pending, r.persist_dead_letters
                ));
            }
            mega_rows.push(mega_row(name, r));
        }
        println!("\nPolicy bake-off — mega mix, 200 heavy-tailed tenants (30 min window)\n");
        let mega_cells: Vec<Vec<String>> = mega_rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    format!("{:.1}%", r.hit_ratio_pct),
                    format!("{:.1}%", r.tail_hit_pct),
                    r.usage_fairness_bps.to_string(),
                    r.failed.to_string(),
                    r.events.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            report::table(
                &[
                    "policy",
                    "hit ratio",
                    "tail hit",
                    "fair-bps",
                    "failed",
                    "events"
                ],
                &mega_cells,
            )
        );
        report::save_json(
            "bakeoff",
            &FullReport {
                macro_mix: rows.clone(),
                mega_mix: mega_rows,
            },
        );
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bakeoff: {f}");
        }
        std::process::exit(2);
    }
}
