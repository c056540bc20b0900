//! Multi-tenant load with FaaSLoad: eight tenants (six image functions +
//! two analytics pipelines) fire for ten simulated minutes; the example
//! prints the cache growing and shrinking as sandboxes claim and release
//! memory (the Figure 10 dynamic).
//!
//! Run with: `cargo run --example multi_tenant`

use ofc::core::cache::plane_hit_ratio;
use ofc::core::ofc::Ofc;
use ofc::faas::baselines::NoopPlane;
use ofc::faas::platform::Platform;
use ofc::faas::registry::Registry;
use ofc::faas::{ArgValue, Args, FunctionId, PlatformConfig, TenantId};
use ofc::objstore::store::ObjectStore;
use ofc::simtime::{Sim, SimTime};
use ofc::workloads::catalog::Catalog;
use ofc::workloads::faasload::{FaasLoad, FaasLoadConfig, TenantProfile};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

fn main() {
    let store = Rc::new(RefCell::new(ObjectStore::swift()));
    let catalog = Catalog::new();
    let platform = Platform::build(
        PlatformConfig::default(),
        Registry::new(),
        Box::new(NoopPlane),
    );

    // OFC with a feature extractor covering both the single-stage profiles
    // and the pipeline stage functions.
    let features = {
        let catalog = catalog.clone();
        Rc::new(move |_t: &TenantId, f: &FunctionId, args: &Args| {
            if let Some(p) = ofc::workloads::multimedia::profile(f.as_ref()) {
                let input = args.values().find_map(|v| match v {
                    ArgValue::Obj(r) => Some(r.id),
                    _ => None,
                })?;
                return Some(p.features(&catalog.get(&input)?, args));
            }
            ofc::workloads::pipelines::stage_profile(f.as_ref())
                .map(|sp| sp.features(args, &catalog))
        })
    };
    let ofc = Ofc::builder(&platform)
        .store(Rc::clone(&store))
        .features(features)
        .build();
    let mut sim = Sim::new(99);
    ofc.start(&mut sim);

    // Eight tenants with "normal" memory sizing (1.7x their observed max),
    // exponential arrivals with a one-minute mean.
    let load = FaasLoad::new(
        FaasLoadConfig {
            duration: Duration::from_secs(10 * 60),
            inputs_per_tenant: 12,
            seed: 99,
        },
        FaasLoad::paper_macro(TenantProfile::Normal)
            .tenants()
            .to_vec(),
    );
    let prepared = load.install(&mut sim, &platform, &store, &catalog);
    for pt in &prepared {
        match ofc::workloads::multimedia::profile(&pt.function) {
            Some(p) => ofc.register_function(pt.tenant.as_ref(), p.name, p.feature_schema()),
            None => {
                // Pipeline tenant: register every stage function's schema.
                for sp in &ofc::workloads::pipelines::STAGE_PROFILES {
                    ofc.register_function(pt.tenant.as_ref(), sp.name, sp.feature_schema());
                }
            }
        }
        println!(
            "tenant {:24} books {:5} MB",
            pt.tenant.as_ref(),
            pt.booked_mem >> 20
        );
    }

    sim.run_until(SimTime::from_secs(11 * 60));

    // Report: per-tenant completions and the cache-size time series.
    let records = platform.drain_records();
    println!("\n{} invocations completed", records.len());
    let m = ofc.metrics();
    println!("\ncache size over time:");
    let points = m
        .gauge_series("agent.cache_size_bytes")
        .map(|s| s.downsample(12))
        .unwrap_or_default();
    let max = points.iter().map(|&(_, v)| v).fold(1.0, f64::max);
    for (t, v) in points {
        let bar = "#".repeat((v / max * 40.0) as usize);
        println!(
            "  {:>5.1} min | {bar} {:.1} GB",
            t.as_secs_f64() / 60.0,
            v / (1u64 << 30) as f64
        );
    }
    println!(
        "\nhit ratio {:.1}%  |  scale-ups {}  scale-downs {}  |  {} sandbox resizes absorbed",
        100.0 * plane_hit_ratio(&m),
        m.counter("agent.scale_ups"),
        m.counter("agent.scale_downs_plain")
            + m.counter("agent.scale_downs_migration")
            + m.counter("agent.scale_downs_eviction"),
        platform.counters().resizes,
    );
}
