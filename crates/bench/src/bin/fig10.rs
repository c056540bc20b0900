//! Figure 10: OFC's total cache size over the macro experiment, for the
//! three tenant profiles (§7.2.2). The three runs are independent sims
//! fanned out through [`ofc_bench::par`].
//!
//! Set `OFC_MACRO_MINS` to shorten the observation window.

use ofc_bench::cachex::{run_macro, MacroSpec};
use ofc_bench::par;
use ofc_bench::report;
use ofc_bench::scenario::PlaneKind;
use ofc_workloads::faasload::TenantProfile;

fn main() {
    let window = ofc_bench::window(30);
    let dur = window.duration();
    println!(
        "Figure 10 — OFC cache size over time ({} min window)\n",
        window.mins
    );
    let profiles = [
        TenantProfile::Normal,
        TenantProfile::Naive,
        TenantProfile::Advanced,
    ];
    let jobs: Vec<_> = profiles
        .into_iter()
        .map(|profile| move || run_macro(MacroSpec::new(PlaneKind::Ofc, profile, dur, 17)).0)
        .collect();
    let out = par::run_jobs(jobs);
    for (profile, r) in profiles.iter().zip(&out) {
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
         recovers as keep-alive reclaims them."
    );
    report::save_json(&window.file("fig10"), &out);
}
