//! Figure 9: total execution time of all invocations per function, for the
//! three tenant profiles, OWK-Swift vs OFC (§7.2.2, 8 tenants, 30 min,
//! exponential arrivals with a 1-minute mean). The six runs are
//! independent sims fanned out through [`ofc_bench::par`].
//!
//! Set `OFC_MACRO_MINS` to shorten the observation window.
//! `OFC_MACRO_SMOKE=1` runs a fixed 2-minute window and saves
//! `fig9_smoke.json` instead — the golden suite's serial-vs-parallel
//! determinism probe for the default policy path.

use ofc_bench::cachex::{run_macro, MacroResult, MacroSpec};
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
    for (profile, pair) in profiles.iter().zip(results.chunks_exact(2)) {
        let [swift, ofc] = pair else {
            unreachable!("a Swift/OFC pair per profile");
        };
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
    println!("Paper reference: OFC improves on OWK-Swift by 23.9-79.8% (54.6% average).");
    report::save_json(&window.file("fig9"), &results);
}
