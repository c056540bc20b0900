//! Property: the invoker's running totals and idle index are a faithful
//! accelerator. For any schedule of creates, claims, releases, resizes,
//! destroys and keep-alive reclaims, `committed_mem` / `booked_mem` /
//! `warm_for` must answer exactly what a full walk of the sandbox table
//! would — the index may only change *how many entries a
//! submit visits*, never *what the scheduler is offered*.

use ofc_faas::sandbox::{Invoker, SandboxState};
use ofc_faas::{FunctionId, SandboxView, TenantId};
use ofc_simtime::SimTime;
use proptest::prelude::*;

const NODE: usize = 3;
const TENANTS: usize = 2;
const FUNCTIONS: usize = 3;
const MB: u64 = 1 << 20;

/// `slot` picks among the ids issued so far. `Reclaim` is the keep-alive
/// check, with the sandbox's current use counter (`fresh`) or a stale one.
#[derive(Debug, Clone)]
enum Op {
    Create {
        t: usize,
        f: usize,
        limit: u64,
        booked: u64,
    },
    Claim {
        slot: usize,
    },
    Release {
        slot: usize,
    },
    Resize {
        slot: usize,
        limit: u64,
    },
    Destroy {
        slot: usize,
    },
    Reclaim {
        slot: usize,
        fresh: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let slot = 0..24usize;
    prop_oneof![
        (0..TENANTS, 0..FUNCTIONS, 1..64u64, 1..64u64).prop_map(|(t, f, limit, booked)| {
            Op::Create {
                t,
                f,
                limit: limit * MB,
                booked: booked * MB,
            }
        }),
        slot.clone().prop_map(|slot| Op::Claim { slot }),
        slot.clone().prop_map(|slot| Op::Release { slot }),
        (slot.clone(), 1..64u64).prop_map(|(slot, limit)| Op::Resize {
            slot,
            limit: limit * MB
        }),
        slot.clone().prop_map(|slot| Op::Destroy { slot }),
        (slot, any::<bool>()).prop_map(|(slot, fresh)| Op::Reclaim { slot, fresh }),
    ]
}

fn tenant(t: usize) -> TenantId {
    TenantId::from(format!("tenant{t}"))
}

fn function(f: usize) -> FunctionId {
    FunctionId::from(format!("fn{f}"))
}

/// The pre-index controller: walk the whole table for every answer.
struct Scan {
    committed: u64,
    booked: u64,
}

fn full_scan_totals(inv: &Invoker) -> Scan {
    Scan {
        committed: inv.sandboxes().map(|s| s.mem_limit).sum(),
        booked: inv.sandboxes().map(|s| s.booked).sum(),
    }
}

fn full_scan_warm(inv: &Invoker, function: &FunctionId, tenant: &TenantId) -> Vec<SandboxView> {
    let mut warm: Vec<SandboxView> = inv
        .sandboxes()
        .filter_map(|s| match s.state {
            SandboxState::Idle { since } if &s.function == function && &s.tenant == tenant => {
                Some(SandboxView {
                    node: inv.node(),
                    sandbox: s.id,
                    mem_limit: ofc_faas::Limit(s.mem_limit),
                    idle_since: since,
                })
            }
            _ => None,
        })
        .collect();
    warm.sort_by_key(|v| v.sandbox);
    warm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn totals_and_warm_lookup_equal_the_full_scan(
        ops in prop::collection::vec(op_strategy(), 1..160),
    ) {
        let mut inv = Invoker::new(NODE, 64 << 30);
        // Every id ever issued, destroyed ones included: ops on a dead id
        // must be as harmless as they were before the index.
        let mut issued: Vec<u64> = Vec::new();
        let pick = |issued: &[u64], slot: usize| issued.get(slot % issued.len().max(1)).copied();
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_secs(step as u64 / 3);
            match *op {
                Op::Create { t, f, limit, booked } => {
                    issued.push(inv.create_sandbox(function(f), tenant(t), limit, booked));
                }
                Op::Claim { slot } => {
                    // `claim` panics on a missing or busy sandbox (scheduler
                    // bugs); the platform never does either.
                    if let Some(id) = pick(&issued, slot) {
                        let claimable = inv
                            .sandbox(id)
                            .is_some_and(|s| s.state != SandboxState::Busy);
                        if claimable {
                            inv.claim(id);
                        }
                    }
                }
                Op::Release { slot } => {
                    if let Some(id) = pick(&issued, slot) {
                        inv.release(id, now);
                    }
                }
                Op::Resize { slot, limit } => {
                    if let Some(id) = pick(&issued, slot) {
                        let old = inv.sandbox(id).map(|s| s.mem_limit);
                        prop_assert_eq!(inv.resize(id, limit), old);
                    }
                }
                Op::Destroy { slot } => {
                    if let Some(id) = pick(&issued, slot) {
                        let limit = inv.sandbox(id).map(|s| s.mem_limit);
                        prop_assert_eq!(inv.destroy(id), limit);
                    }
                }
                Op::Reclaim { slot, fresh } => {
                    if let Some(id) = pick(&issued, slot) {
                        let uses = inv.sandbox(id).map_or(0, |s| s.uses);
                        inv.reclaim_if_stale(id, if fresh { uses } else { uses + 1 });
                    }
                }
            }
            // The invariant holds at every intermediate state, not just at
            // quiescence — check after each mutation.
            let scan = full_scan_totals(&inv);
            prop_assert_eq!(inv.committed_mem(), scan.committed, "step {}: {:?}", step, op);
            prop_assert_eq!(inv.booked_mem(), scan.booked, "step {}: {:?}", step, op);
            for t in 0..TENANTS {
                for f in 0..FUNCTIONS {
                    let (f, t) = (function(f), tenant(t));
                    let indexed: Vec<SandboxView> = inv.warm_for(&f, &t).collect();
                    prop_assert_eq!(
                        format!("{indexed:?}"),
                        format!("{:?}", full_scan_warm(&inv, &f, &t)),
                        "step {}: {:?}", step, op
                    );
                }
            }
            prop_assert_eq!(inv.audit(), Ok(()), "step {}: {:?}", step, op);
        }
    }
}
