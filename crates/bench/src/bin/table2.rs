//! Table 2: OFC internal metrics during the macro workload, per tenant
//! profile (§7.2.2).
//!
//! Set `OFC_MACRO_MINS` to shorten the observation window.

use ofc_bench::cachex::{run_macro, MacroSpec};
use ofc_bench::report;
use ofc_bench::scenario::PlaneKind;
use ofc_workloads::faasload::TenantProfile;

fn main() {
    let window = ofc_bench::window(30);
    let (mins, dur) = (window.mins, window.duration());
    let profiles = [
        TenantProfile::Normal,
        TenantProfile::Advanced,
        TenantProfile::Naive,
    ];
    let results: Vec<_> = profiles
        .iter()
        .map(|&p| run_macro(MacroSpec::new(PlaneKind::Ofc, p, dur, 17)).0)
        .collect();

    println!("Table 2 — OFC internal metrics ({mins} min window, 8 tenants)\n");
    let metric = |name: &str, f: &dyn Fn(&ofc_bench::cachex::Table2) -> String| {
        let mut row = vec![name.to_string()];
        for r in &results {
            row.push(f(&r.table2));
        }
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
    report::save_json(&window.file("table2"), &results);
}
