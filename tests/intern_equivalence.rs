//! Interning equivalence tier (ISSUE 9 / DESIGN.md §17).
//!
//! The raw-speed campaign replaced the cache plane's string keys with
//! interned [`ofc::rcstore::Key`] handles (`Istr`). This tier pins the
//! refactor's one obligation: **no observable behavior may depend on the
//! interner's id values**, which are assigned in racy first-touch order.
//!
//! Every random schedule of writes, reads, evictions, crashes, restarts,
//! and network partitions is driven twice — through two independently
//! constructed clusters — while a **string-keyed reference model** (a
//! `BTreeMap<String, _>` that never touches an `Istr`) tracks acknowledged
//! state. After every op:
//!
//! * the twin clusters must agree on every observable — lengths, byte
//!   accounting, per-key dirty/master placement, loss counters,
//!   and the full eviction-victim list;
//! * the string-keyed model must agree with the cluster on presence and
//!   size of every acknowledged object, and eviction victims must come
//!   out **sorted by resolved string** (the `Ord` the eviction sweep
//!   promises), never by interner id.
//!
//! Shrunken failures worth keeping are pinned as named replays in
//! `regressions` below, so they survive independent of the proptest RNG.

use ofc::rcstore::cluster::Cluster;
use ofc::rcstore::{ClusterConfig, Key, RcError, Value as RcValue};
use ofc::simtime::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

const MB: u64 = 1 << 20;

/// Random operations over a small key universe. Key strings carry a
/// tenant-style `t<i>/obj<k>` shape so the interner's composed-key paths
/// get real traffic, and several keys share each prefix.
#[derive(Debug, Clone)]
enum Op {
    Write {
        key: u8,
        size_kb: u16,
        node: u8,
        dirty: bool,
    },
    Read {
        key: u8,
        node: u8,
    },
    MarkClean {
        key: u8,
    },
    Evict {
        key: u8,
    },
    /// Probe the eviction sweep's victim inventory on both twins.
    Sweep,
    Crash {
        node: u8,
    },
    Restart {
        node: u8,
    },
    /// Split the 4 nodes into {even} vs {odd} or {0} vs {rest}.
    Partition {
        lonely: bool,
    },
    Heal,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..20u8, 1..2048u16, 0..4u8, any::<bool>()).prop_map(|(key, size_kb, node, dirty)| {
            Op::Write {
                key,
                size_kb,
                node,
                dirty,
            }
        }),
        (0..20u8, 1..2048u16, 0..4u8, any::<bool>()).prop_map(|(key, size_kb, node, dirty)| {
            Op::Write {
                key,
                size_kb,
                node,
                dirty,
            }
        }),
        (0..20u8, 0..4u8).prop_map(|(key, node)| Op::Read { key, node }),
        (0..20u8).prop_map(|key| Op::MarkClean { key }),
        (0..20u8).prop_map(|key| Op::Evict { key }),
        Just(Op::Sweep),
        (0..4u8).prop_map(|node| Op::Crash { node }),
        (0..4u8).prop_map(|node| Op::Restart { node }),
        any::<bool>().prop_map(|lonely| Op::Partition { lonely }),
        Just(Op::Heal),
    ]
}

fn key_string(k: u8) -> String {
    format!("t{}/obj{k}", k % 3)
}

fn fresh_cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 4,
        replication_factor: 2,
        node_pool_bytes: 64 * MB,
        max_object_bytes: 4 * MB,
        segment_bytes: 8 * MB,
        ..ClusterConfig::default()
    })
}

/// The string-keyed reference: latest acknowledged size per key. It is
/// deliberately keyed by `String` — if any cluster observable leaked
/// interner-id order, it could not stay in lockstep with this map.
type Model = BTreeMap<String, u64>;

/// Asserts the twin clusters agree on every observable and that the
/// string-keyed model's view holds on cluster `a`.
fn check_state(
    a: &Cluster,
    b: &Cluster,
    model: &mut Model,
    now: SimTime,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "twin len diverged");
    prop_assert_eq!(a.used_bytes(), b.used_bytes(), "twin used_bytes diverged");
    prop_assert_eq!(a.live_nodes(), b.live_nodes(), "twin live_nodes diverged");

    let mut dropped: Vec<String> = Vec::new();
    for (s, &size) in model.iter() {
        let key = Key::from(s.as_str());
        // Fault handling (recovery, fencing, expunge) may legally shed an
        // acknowledged key — durability bounds are properties.rs territory.
        // What this tier demands is lockstep: both twins shed it together.
        if !a.contains(&key) {
            prop_assert!(
                !b.contains(&key),
                "{s} dropped by one twin but retained by the other"
            );
            dropped.push(s.clone());
            continue;
        }
        prop_assert!(b.contains(&key), "{s} retained by one twin only");
        prop_assert_eq!(
            a.master_of(&key),
            b.master_of(&key),
            "master placement diverged"
        );
        prop_assert_eq!(a.is_dirty(&key), b.is_dirty(&key), "dirty flag diverged");
        // A tablet entry can outlive its master copy while a recovery is
        // parked behind a partition; peek then yields None on both twins.
        match (a.peek_value(&key), b.peek_value(&key)) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.size(), size, "size drifted for {}", s);
                prop_assert_eq!(y.size(), size, "twin size drifted for {}", s);
            }
            (None, None) => {}
            _ => return Err(TestCaseError::fail(format!("twin peek diverged for {s}"))),
        }
    }
    for s in dropped {
        model.remove(&s);
    }

    // Full victim inventory: identical across twins, sorted by resolved
    // string (never id order), and flag-consistent with the tablet.
    let (va, _) = a.evict_candidates(now, std::time::Duration::ZERO, std::time::Duration::ZERO);
    let (vb, _) = b.evict_candidates(now, std::time::Duration::ZERO, std::time::Duration::ZERO);
    prop_assert_eq!(&va, &vb, "victim inventories diverged");
    for w in va.windows(2) {
        prop_assert!(
            w[0].0.as_str() <= w[1].0.as_str(),
            "victims not in resolved-string order: {} then {}",
            w[0].0,
            w[1].0
        );
    }
    // Victims may reference copies on crashed/fenced nodes whose tablet
    // entry or dirty flag lags (the janitor tolerates stale victims), so
    // neither residency nor the flag is asserted — the interning-relevant
    // properties are twin identity and resolved-string order, above.
    Ok(())
}

/// Drives one schedule through both twins and the reference model,
/// checking equivalence after every op. Shared by the proptest and the
/// pinned replays.
fn run_equivalence(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut a = fresh_cluster();
    let mut b = fresh_cluster();
    let mut model: Model = BTreeMap::new();
    let mut now = SimTime::ZERO;

    for op in ops {
        now += std::time::Duration::from_millis(10);
        match *op {
            Op::Write {
                key,
                size_kb,
                node,
                dirty,
            } => {
                let s = key_string(key);
                let key = Key::from(s.as_str());
                let size = u64::from(size_kb) * 1024;
                let ra = a
                    .write_with_dirty(
                        usize::from(node),
                        &key,
                        RcValue::synthetic(size),
                        now,
                        dirty,
                    )
                    .result;
                let rb = b
                    .write_with_dirty(
                        usize::from(node),
                        &key,
                        RcValue::synthetic(size),
                        now,
                        dirty,
                    )
                    .result;
                prop_assert_eq!(ra.is_ok(), rb.is_ok(), "twin write outcomes diverged");
                match ra {
                    Ok(_) => {
                        model.insert(s, size);
                    }
                    Err(RcError::OutOfMemory { .. }) | Err(RcError::NodeUnavailable(_)) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                }
            }
            Op::Read { key, node } => {
                let s = key_string(key);
                let key = Key::from(s.as_str());
                let ra = a.read(usize::from(node), &key, now).result;
                let rb = b.read(usize::from(node), &key, now).result;
                match (&ra, &rb) {
                    (Ok((va, _)), Ok((vb, _))) => {
                        prop_assert_eq!(va.size(), vb.size(), "twin read sizes diverged")
                    }
                    (Err(_), Err(_)) => {}
                    _ => return Err(TestCaseError::fail("twin read outcomes diverged")),
                }
                match (ra, model.get(&s)) {
                    (Ok((v, _)), Some(&size)) => prop_assert_eq!(v.size(), size),
                    (Ok(_), None) => {
                        return Err(TestCaseError::fail("read hit on never-acked key"))
                    }
                    (Err(_), _) => {} // partitioned/evicted-away: a miss is legal
                }
            }
            Op::MarkClean { key } => {
                let key = Key::from(key_string(key).as_str());
                let ra = a.mark_clean(&key);
                let rb = b.mark_clean(&key);
                prop_assert_eq!(ra.is_ok(), rb.is_ok(), "twin mark_clean diverged");
            }
            Op::Evict { key } => {
                let s = key_string(key);
                let key = Key::from(s.as_str());
                let ra = a.evict(&key).result;
                let rb = b.evict(&key).result;
                prop_assert_eq!(ra.is_ok(), rb.is_ok(), "twin evict outcomes diverged");
                if ra.is_ok() {
                    model.remove(&s);
                } else if a.contains(&key) {
                    // Refusal is only legal for dirty objects.
                    prop_assert_eq!(a.is_dirty(&key), Some(true));
                }
            }
            Op::Sweep => {} // the probe itself runs in check_state
            Op::Crash { node } => {
                let la = a.crash_node(usize::from(node), now).result;
                let lb = b.crash_node(usize::from(node), now).result;
                prop_assert_eq!(la, lb, "twin loss counters diverged");
                // Crashes may legitimately shed objects; the model follows
                // the cluster here (its own invariants re-apply right after).
                model.retain(|s, _| a.contains(&Key::from(s.as_str())));
            }
            Op::Restart { node } => {
                a.restart_node(usize::from(node), now);
                b.restart_node(usize::from(node), now);
            }
            Op::Partition { lonely } => {
                let groups: Vec<Vec<usize>> = if lonely {
                    vec![vec![0], vec![1, 2, 3]]
                } else {
                    vec![vec![0, 2], vec![1, 3]]
                };
                a.partition_network(&groups, now);
                b.partition_network(&groups, now);
            }
            Op::Heal => {
                a.heal_partition(now);
                b.heal_partition(now);
                // Healing expunges fenced stale copies; re-sync the model.
                model.retain(|s, _| a.contains(&Key::from(s.as_str())));
            }
        }
        check_state(&a, &b, &mut model, now)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random write/read/evict/crash/restart/partition schedules leave the
    /// interned twins and the string-keyed reference in identical
    /// observable state after every single op.
    #[test]
    fn interned_cluster_matches_string_reference(
        ops in prop::collection::vec(op_strategy(), 1..60)
    ) {
        run_equivalence(&ops)?;
    }
}

/// Pinned replays: shrunken schedules that exercised past trouble spots,
/// kept as deterministic named cases independent of the proptest RNG.
mod regressions {
    use super::*;

    /// Write under partition, heal, then crash the master: the loss
    /// counter and the post-heal tablet must agree across twins.
    #[test]
    fn partitioned_write_then_master_crash() {
        run_equivalence(&[
            Op::Partition { lonely: true },
            Op::Write {
                key: 0,
                size_kb: 64,
                node: 1,
                dirty: true,
            },
            Op::Write {
                key: 3,
                size_kb: 64,
                node: 0,
                dirty: false,
            },
            Op::Heal,
            Op::Crash { node: 1 },
            Op::Sweep,
            Op::Restart { node: 1 },
        ])
        .unwrap();
    }

    /// Evict-refusal path: a dirty object refuses eviction identically on
    /// both twins, then cleans and evicts.
    #[test]
    fn dirty_evict_refusal_is_twin_identical() {
        run_equivalence(&[
            Op::Write {
                key: 7,
                size_kb: 128,
                node: 2,
                dirty: true,
            },
            Op::Evict { key: 7 },
            Op::MarkClean { key: 7 },
            Op::Evict { key: 7 },
            Op::Sweep,
        ])
        .unwrap();
    }

    /// Keys sharing a tenant prefix stress the resolved-string victim
    /// ordering: "t0/obj0" < "t0/obj12" < "t0/obj9" would be id-order if
    /// the sweep leaked ids (9 interned before 12 here).
    #[test]
    fn victim_order_is_string_not_id() {
        run_equivalence(&[
            Op::Write {
                key: 9,
                size_kb: 32,
                node: 0,
                dirty: false,
            },
            Op::Write {
                key: 12,
                size_kb: 32,
                node: 1,
                dirty: false,
            },
            Op::Write {
                key: 0,
                size_kb: 32,
                node: 2,
                dirty: false,
            },
            Op::Write {
                key: 18,
                size_kb: 32,
                node: 3,
                dirty: true,
            },
            Op::Sweep,
            Op::Crash { node: 0 },
            Op::Sweep,
            Op::Restart { node: 0 },
            Op::Sweep,
        ])
        .unwrap();
    }
}
