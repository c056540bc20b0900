//! The golden anchor: the benchmark's own assembly must reproduce figures
//! the repository commits under `results/`, to the bit — proof that it
//! drives the same program path as the shipped bins although it shares no
//! code with `ofc-bench`.
//!
//! Two smoke-scale figures are checked: the `macro_mega` headline (events,
//! arrivals, hit ratio) and `macro24`'s Normal row (24-tenant hit ratio and
//! gain over `OWK-Swift`).

use crate::pass::run_pass;
use crate::trace::Tracer;
use crate::workloads::{macro_tenants, Load, Plane, Spec};
use ofc::core::ofc::OfcConfig;
use ofc::workloads::faasload::TenantProfile;
use ofc::workloads::mega::MegaConfig;
use serde::Deserialize;
use std::time::Duration;

#[derive(Deserialize)]
struct MegaGolden {
    label: String,
    arrivals: u64,
    events: u64,
    hit_ratio_pct: f64,
}

#[derive(Deserialize)]
struct Macro24Golden {
    profile: String,
    hit_ratio_24: f64,
    gain_24_pct: f64,
}

fn load<T: Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T, out: &mut Vec<String>) {
    if got != want {
        out.push(format!("anchor {what}: got {got:?}, committed {want:?}"));
    }
}

/// Runs both anchors; returns the mismatches (empty = anchored).
pub fn check() -> Vec<String> {
    let mut out = Vec::new();
    let mut tr = Tracer::new(false);

    match load::<Vec<MegaGolden>>("results/macro_mega_smoke.json") {
        Err(e) => out.push(e),
        Ok(rows) => match rows.iter().find(|r| r.label == "headline") {
            None => out.push("results/macro_mega_smoke.json: no headline row".into()),
            Some(want) => {
                let cfg = MegaConfig::smoke();
                let mut ofc = OfcConfig::default();
                ofc.plane.tenant_quota_bytes = Some(64 << 10);
                let spec = Spec {
                    name: "anchor_mega",
                    window: cfg.duration,
                    load: Load::Mega(cfg.clone()),
                    nodes: 4,
                    node_mem: 64 << 30,
                    ofc,
                    drain: Duration::from_secs(600),
                    seed: cfg.seed,
                };
                let (pass, _) = run_pass(&spec, Plane::Ofc, &mut tr);
                // The shipped runner drains records on an in-sim 60 s
                // tick; the benchmark drains between slices instead, so
                // those tick events are the one expected difference.
                let drain_ticks = spec.horizon().as_secs() / 60;
                expect(
                    "mega events",
                    pass.events + drain_ticks,
                    want.events,
                    &mut out,
                );
                expect("mega arrivals", pass.arrivals, want.arrivals, &mut out);
                expect(
                    "mega hit_ratio_pct",
                    pass.hit_ratio_pct().to_bits(),
                    want.hit_ratio_pct.to_bits(),
                    &mut out,
                );
            }
        },
    }

    match load::<Vec<Macro24Golden>>("results/macro24_smoke.json") {
        Err(e) => out.push(e),
        Ok(rows) => match rows.iter().find(|r| r.profile == "Normal") {
            None => out.push("results/macro24_smoke.json: no Normal row".into()),
            Some(want) => {
                let spec = Spec {
                    name: "anchor_macro24",
                    load: Load::Faas(macro_tenants(TenantProfile::Normal, 3)),
                    nodes: 4,
                    node_mem: 64 << 30,
                    ofc: OfcConfig::default(),
                    window: Duration::from_secs(120),
                    drain: Duration::from_secs(600),
                    seed: 23,
                };
                let (ofc, _) = run_pass(&spec, Plane::Ofc, &mut tr);
                let (twin, _) = run_pass(&spec, Plane::Twin, &mut tr);
                expect(
                    "macro24 hit_ratio_24",
                    ofc.hit_ratio_pct().to_bits(),
                    want.hit_ratio_24.to_bits(),
                    &mut out,
                );
                let gain = 100.0 * (1.0 - ofc.fig9_total_s / twin.fig9_total_s);
                expect(
                    "macro24 gain_24_pct",
                    gain.to_bits(),
                    want.gain_24_pct.to_bits(),
                    &mut out,
                );
            }
        },
    }
    out
}
