//! Do no harm: OFC must not fail an invocation that the stock platform
//! completes. One FaaSLoad arrival stream runs twice through
//! `Testbed::build`, once under OFC and once under the stock `DirectPlane`
//! twin, on a cluster whose bookings nearly fill it; every invocation that
//! fails under OFC must also fail under the twin.

use ofc_bench::scenario::{pretrain_single, PlaneKind, Testbed, TestbedSpec};
use ofc_faas::{Completion, FunctionId, TenantId};
use ofc_simtime::SimTime;
use ofc_workloads::faasload::{
    Arrival, FaasLoad, FaasLoadConfig, TenantProfile, TenantSpec, Workload,
};
use ofc_workloads::multimedia::profile;
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

const FUNCTIONS: [&str; 6] = [
    "wand_blur",
    "wand_resize",
    "wand_sepia",
    "wand_rotate",
    "wand_denoise",
    "wand_edge",
];

/// 120 single-function tenants on two 64 GB nodes, half of them booking
/// the 2 GB maximum: their warm sandboxes book about as much memory as
/// the cluster has, so a cold start must pick its node by booking.
const TENANTS: usize = 120;
const NODES: usize = 2;
const WINDOW: Duration = Duration::from_secs(600);

/// Observations that mature each model, so OFC sizes sandboxes below
/// their bookings.
const PRETRAIN: usize = 200;

/// An arrival, named the same way in both runs: tenant, function and
/// arrival instant. (The platform's invocation ids also count OOM
/// retries, which only OFC makes, so they differ between the runs.)
type Arrived = (TenantId, FunctionId, SimTime);

fn tenants() -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let function = FUNCTIONS[i % FUNCTIONS.len()];
            TenantSpec {
                name: format!("tenant-{i}-{function}"),
                workload: Workload::Single(profile(function).expect("known profile")),
                profile: if i % 2 == 0 {
                    TenantProfile::Naive
                } else {
                    TenantProfile::Normal
                },
                arrival: Arrival::Exponential(Duration::from_secs(60)),
            }
        })
        .collect()
}

/// Runs the stream under `plane` and returns the arrivals that failed for
/// good: unschedulable, or OOM-killed on their last allowed attempt.
fn failed(plane: PlaneKind, seed: u64) -> BTreeSet<Arrived> {
    let mut tb = Testbed::build(TestbedSpec {
        nodes: NODES,
        ..TestbedSpec::new(plane, seed)
    });
    let cfg = FaasLoadConfig {
        duration: WINDOW,
        inputs_per_tenant: 4,
        seed,
    };
    let prepared =
        FaasLoad::new(cfg, tenants()).install(&mut tb.sim, &tb.platform, &tb.store, &tb.catalog);
    if let Some(ofc) = &tb.ofc {
        for pt in &prepared {
            let p = profile(&pt.function).expect("single-stage profile");
            ofc.register_function(pt.tenant.as_ref(), p.name, p.feature_schema());
            pretrain_single(&tb, &pt.tenant, p, PRETRAIN);
        }
    }
    tb.sim
        .run_until(SimTime::ZERO + WINDOW + ofc_faas::KEEP_ALIVE);

    let max_retries = tb.platform.config().max_retries;
    let records = tb.platform.drain_records();
    // A retry is submitted at the instant its predecessor was killed.
    let retries: HashMap<Arrived, _> = records
        .iter()
        .filter(|r| r.attempt > 0)
        .map(|r| ((r.tenant, r.function, r.arrival), r))
        .collect();
    let mut failed = BTreeSet::new();
    for first in records.iter().filter(|r| r.attempt == 0) {
        let mut last = first;
        while last.completion == Completion::OomKilled && last.attempt < max_retries {
            last = retries[&(last.tenant, last.function, last.end)];
        }
        if last.completion != Completion::Success {
            failed.insert((first.tenant, first.function, first.arrival));
        }
    }
    failed
}

#[test]
fn ofc_fails_no_invocation_the_stock_twin_completes() {
    for seed in 1..=10 {
        let ofc = failed(PlaneKind::Ofc, seed);
        let twin = failed(PlaneKind::Swift, seed);
        let harmed: Vec<_> = ofc.difference(&twin).collect();
        assert!(
            harmed.is_empty(),
            "seed {seed}: {} of OFC's {} failures completed under the twin, first {:?}",
            harmed.len(),
            ofc.len(),
            harmed[0]
        );
    }
}
