//! `macro_mega`: the million-user heavy-tailed multi-tenant scenario
//! (DESIGN.md §18).
//!
//! Six independent simulations fan out through [`ofc_bench::par`]:
//!
//! - **headline** — the full ≥100k-function, ≥1k-tenant window with the
//!   per-tenant quota plane on; the per-decile hit-ratio/p99 figure.
//! - **noisy neighbor** (quota off / on) — a steep-skew mix on a tiny
//!   cache pool: the head tenant starves the tail unless quotas bound it.
//! - **occupancy attack** (quota off / on) — an adversarial head tenant
//!   churns a wide key range in bursts to squat the whole pool.
//! - **failover** — the replicated control plane (3 coordinators +
//!   gossip) with a worker crash mid-window.
//!
//! `OFC_MACRO_SMOKE=1` shrinks every variant to a CI-sized window and
//! saves `macro_mega_smoke.json` — the golden suite's serial-vs-parallel
//! byte-compare probe.

use ofc_bench::megarun::{run_mega, tail_hit_pct, MegaOpts};
use ofc_bench::par;
use ofc_bench::report;
use ofc_core::ofc::OfcConfig;
use ofc_workloads::mega::MegaConfig;
use std::time::Duration;

/// Scale knobs of one mode (smoke vs full).
struct Scale {
    headline: MegaConfig,
    contention: MegaConfig,
    failover: MegaConfig,
    headline_quota: u64,
    contention_quota: u64,
    contention_pool: u64,
    /// Worker nodes for the headline / failover runs: a million-user
    /// platform does not fit 4 workers, and leaving it oversubscribed
    /// drowns the figure in unschedulable invocations.
    headline_nodes: usize,
    failover_nodes: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        let base = MegaConfig::smoke();
        Scale {
            headline: base.clone(),
            // Image-only profiles (first 12) keep every object cacheable
            // in the tiny pool; the capped tail mean keeps victims warm
            // enough that protection is measurable.
            contention: MegaConfig {
                tenants: 20,
                fns_per_tenant: 12,
                duration: Duration::from_secs(120),
                zipf_s: 2.5,
                max_mean: Duration::from_secs(10),
                ..base.clone()
            },
            failover: MegaConfig {
                tenants: 30,
                fns_per_tenant: 12,
                ..base
            },
            headline_quota: 64 << 10,
            contention_quota: 384 << 10,
            contention_pool: 2 << 20,
            headline_nodes: 4,
            failover_nodes: 4,
        }
    } else {
        Scale {
            headline: MegaConfig::default(),
            contention: MegaConfig {
                tenants: 200,
                fns_per_tenant: 12,
                duration: Duration::from_secs(3600),
                zipf_s: 2.5,
                max_mean: Duration::from_secs(60),
                ..MegaConfig::default()
            },
            failover: MegaConfig {
                tenants: 300,
                fns_per_tenant: 24,
                duration: Duration::from_secs(3600),
                ..MegaConfig::default()
            },
            headline_quota: 64 << 20,
            contention_quota: 128 << 10,
            contention_pool: 4 << 20,
            headline_nodes: 24,
            failover_nodes: 12,
        }
    }
}

fn quota_cfg(quota: Option<u64>, pool: Option<u64>) -> OfcConfig {
    let mut cfg = OfcConfig::default();
    cfg.plane.tenant_quota_bytes = quota;
    // Contention variants pin the pool: override sets the starting size,
    // the cap keeps the agent from regrowing it into the idle node.
    cfg.cache_pool_override = pool;
    cfg.agent.pool_cap = pool;
    cfg
}

fn main() {
    let smoke = ofc_bench::smoke();
    let s = scale(smoke);

    // The occupancy attack reuses the contention scale but churns a wide
    // key range in long bursts: squatting by cardinality, not by rate.
    let attack = MegaConfig {
        output_slots: 256,
        burst_prob: 0.3,
        burst_len: 16,
        ..s.contention.clone()
    };

    let mk = |label: &str, mega: MegaConfig, ofc: OfcConfig, drill: bool, nodes: usize| {
        let mut o = MegaOpts::new(label, mega);
        o.ofc = ofc;
        o.crash_drill = drill;
        o.nodes = nodes;
        o
    };
    let contention_nodes = 4;
    let variants: Vec<MegaOpts> = vec![
        mk(
            "headline",
            s.headline.clone(),
            quota_cfg(Some(s.headline_quota), None),
            false,
            s.headline_nodes,
        ),
        mk(
            "failover",
            s.failover.clone(),
            OfcConfig {
                replicated_control_plane: true,
                ..quota_cfg(Some(s.headline_quota), None)
            },
            true,
            s.failover_nodes,
        ),
        mk(
            "attack-quota",
            attack.clone(),
            quota_cfg(Some(s.contention_quota), Some(s.contention_pool)),
            false,
            contention_nodes,
        ),
        mk(
            "attack-open",
            attack,
            quota_cfg(None, Some(s.contention_pool)),
            false,
            contention_nodes,
        ),
        mk(
            "noisy-quota",
            s.contention.clone(),
            quota_cfg(Some(s.contention_quota), Some(s.contention_pool)),
            false,
            contention_nodes,
        ),
        mk(
            "noisy-open",
            s.contention.clone(),
            quota_cfg(None, Some(s.contention_pool)),
            false,
            contention_nodes,
        ),
    ];

    let jobs: Vec<_> = variants.into_iter().map(|o| move || run_mega(o)).collect();
    let results = par::run_jobs(jobs);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.tenants.to_string(),
                r.functions.to_string(),
                r.arrivals.to_string(),
                r.failed.to_string(),
                format!("{:.1}%", r.hit_ratio_pct),
                format!("{:.1}%", tail_hit_pct(r)),
                format!("{}", r.usage_fairness_bps),
                r.events.to_string(),
            ]
        })
        .collect();
    println!("macro_mega ({})\n", if smoke { "smoke" } else { "full" });
    println!(
        "{}",
        report::table(
            &[
                "variant", "tenants", "fns", "arrivals", "failed", "hit", "tail-hit", "fair-bps",
                "events"
            ],
            &rows,
        )
    );

    let headline = &results[0];
    println!("headline per-tenant-decile figure:");
    let drows: Vec<Vec<String>> = headline
        .deciles
        .iter()
        .map(|d| {
            vec![
                d.decile.to_string(),
                d.invocations.to_string(),
                format!("{:.1}%", d.hit_ratio_pct),
                format!("{:.1}", d.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(&["decile", "invocations", "hit", "p99 ms"], &drows)
    );

    let by = |l: &str| results.iter().find(|r| r.label == l).expect("variant");
    println!(
        "noisy neighbor: tail hit {:.1}% open vs {:.1}% with quotas (usage fairness {} vs {} bps)",
        tail_hit_pct(by("noisy-open")),
        tail_hit_pct(by("noisy-quota")),
        by("noisy-open").usage_fairness_bps,
        by("noisy-quota").usage_fairness_bps,
    );
    println!(
        "occupancy attack: tail hit {:.1}% open vs {:.1}% with quotas",
        tail_hit_pct(by("attack-open")),
        tail_hit_pct(by("attack-quota")),
    );
    let f = by("failover");
    println!(
        "failover drill: {} raft commits, {} elections, {} degraded bypasses, {} failed",
        f.raft_commits, f.raft_elections, f.degraded_bypasses, f.failed,
    );
    // The interner is process-global: the total is order-independent only
    // after every job has finished, so record it exactly once, here.
    println!("interned keys: {}", ofc_intern::interned_count());

    report::save_json(
        if smoke {
            "macro_mega_smoke"
        } else {
            "macro_mega"
        },
        &results,
    );
}
