//! Figure 9, Figure 10 and Table 2: the §7.2.2 macro experiment (8
//! tenants, 30 min, exponential arrivals with a 1-minute mean) under
//! OWK-Swift and OFC, for the three tenant profiles. One run set feeds all
//! three: Figure 9 is the total execution time per function, Figure 10
//! OFC's cache size over time, Table 2 OFC's internal metrics. The six
//! runs are independent sims fanned out through [`ofc_bench::par`].
//!
//! `OFC_MACRO_SMOKE=1` runs a fixed 2-minute window and saves
//! `fig9_smoke.json` instead — the golden suite's serial-vs-parallel
//! determinism probe for the default policy path.

use ofc_bench::cachex::{run_macro, MacroResult, MacroSpec, Table2};
use ofc_bench::par;
use ofc_bench::report;
use ofc_bench::scenario::PlaneKind;
use ofc_workloads::faasload::TenantProfile;

fn main() {
    let window = ofc_bench::window(30);
    let dur = window.duration();
    let profiles = [
        TenantProfile::Normal,
        TenantProfile::Naive,
        TenantProfile::Advanced,
    ];
    let mut jobs: Vec<Box<dyn FnOnce() -> MacroResult + Send>> = Vec::new();
    for profile in profiles {
        for kind in [PlaneKind::Swift, PlaneKind::Ofc] {
            jobs.push(Box::new(move || {
                run_macro(MacroSpec::new(kind, profile, dur, 17)).0
            }));
        }
    }
    let results = par::run_jobs(jobs);
    let mut rows = Vec::new();
    let mut ofc_runs = Vec::new();
    for (profile, pair) in profiles.iter().zip(results.chunks_exact(2)) {
        let [swift, ofc] = pair else {
            unreachable!("a Swift/OFC pair per profile");
        };
        ofc_runs.push((profile, ofc));
        for (tenant, &swift_s) in &swift.per_function_total_s {
            let ofc_s = ofc.per_function_total_s.get(tenant).copied().unwrap_or(0.0);
            let gain = if swift_s > 0.0 {
                100.0 * (1.0 - ofc_s / swift_s)
            } else {
                0.0
            };
            rows.push(vec![
                format!("{profile:?}"),
                tenant.replace("tenant-", ""),
                report::fmt_secs(swift_s),
                report::fmt_secs(ofc_s),
                format!("{gain:.1}%"),
            ]);
        }
    }
    println!(
        "Figure 9 — total execution time per function ({} min window)\n",
        window.mins
    );
    println!(
        "{}",
        report::table(
            &["profile", "function", "OWK-Swift", "OFC", "improvement"],
            &rows,
        )
    );
    println!("Paper reference: OFC improves on OWK-Swift by 23.9-79.8% (54.6% average).\n");

    println!(
        "Figure 10 — OFC cache size over time ({} min window)\n",
        window.mins
    );
    for (profile, r) in &ofc_runs {
        println!("{profile:?}:");
        let max = r
            .cache_series
            .iter()
            .map(|&(_, gb)| gb)
            .fold(1e-9, f64::max);
        for &(min, gb) in r
            .cache_series
            .iter()
            .step_by(4.max(r.cache_series.len() / 12))
        {
            let bar = "#".repeat((gb / max * 40.0) as usize);
            println!("  {min:>5.1} min | {bar} {gb:.1} GB");
        }
        println!();
    }
    println!(
        "Paper reference: naive tenants leave the most memory to the cache,\n\
         advanced the least; the pool dips when sandboxes claim memory and\n\
         recovers as keep-alive reclaims them.\n"
    );

    println!(
        "Table 2 — OFC internal metrics ({} min window, 8 tenants)\n",
        window.mins
    );
    // The paper's column order: Normal, Advanced, Naive.
    let columns = [ofc_runs[0].1, ofc_runs[2].1, ofc_runs[1].1];
    let metric = |name: &str, f: &dyn Fn(&Table2) -> String| {
        let mut row = vec![name.to_string()];
        row.extend(columns.iter().map(|r| f(&r.table2)));
        row
    };
    let rows = vec![
        metric("# scale up", &|t| t.scale_ups.to_string()),
        metric("total scale up time (s)", &|t| {
            format!("{:.2}", t.scale_up_time_s)
        }),
        metric("# scale down (no eviction)", &|t| {
            t.scale_down_no_eviction.to_string()
        }),
        metric("# scale down (migration)", &|t| {
            t.scale_down_migration.to_string()
        }),
        metric("# scale down (eviction)", &|t| {
            t.scale_down_eviction.to_string()
        }),
        metric("total scale down time (s)", &|t| {
            format!("{:.2}", t.scale_down_time_s)
        }),
        metric("# bad predictions", &|t| t.bad_predictions.to_string()),
        metric("# good predictions", &|t| t.good_predictions.to_string()),
        metric("# failed invocations", &|t| {
            t.failed_invocations.to_string()
        }),
        metric("cache hit ratio (%)", &|t| {
            format!("{:.2}", t.hit_ratio_pct)
        }),
        metric("ephemeral data generated (GB)", &|t| {
            format!("{:.1}", t.ephemeral_gb)
        }),
    ];
    println!(
        "{}",
        report::table(&["metric", "Normal", "Advanced", "Naive"], &rows)
    );
    println!(
        "Paper reference (30 min): ~95 scale-ups, ~225 no-eviction scale-downs,\n\
         4-7 migrations, 0 evictions, 7 bad / ~231 good predictions, 0 failed\n\
         invocations, hit ratio 93.1-98.9%."
    );
    report::save_json(&window.file("fig9"), &results);
}
