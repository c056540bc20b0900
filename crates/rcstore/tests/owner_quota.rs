//! Property: per-tenant quota accounting is conserved. For any schedule
//! of writes, reads, evictions, deletions, migrations, crashes, and
//! restarts, the per-owner live-byte ledger must satisfy, on every node
//! and at every intermediate state:
//!
//! * `Σ owner_usage == used_bytes()` (nothing leaks, nothing is
//!   double-charged),
//! * each owner's charge equals a full recount over that node's masters,
//! * `owner_victims` returns exactly that owner's masters in LRU order —
//!   never another tenant's object.
//!
//! The pinned `regression_*` tests replay hand-reduced schedules for the
//! paths that historically bend ledgers: overwrite-resize, crash wiping a
//! node mid-charge, recovery re-promoting backups, and demotion.

use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::{owner_of, ClusterConfig, Key, Value};
use ofc_simtime::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const NODES: usize = 4;
const KEY_POOL: u64 = 16;
const OWNERS: u64 = 5;

#[derive(Debug, Clone)]
enum Op {
    Write {
        k: u64,
        home: usize,
        size: u64,
        dirty: bool,
    },
    Read {
        k: u64,
        from: usize,
    },
    Evict {
        k: u64,
    },
    Delete {
        k: u64,
    },
    Migrate {
        k: u64,
    },
    Crash {
        node: usize,
    },
    Restart {
        node: usize,
    },
    Advance {
        secs: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEY_POOL, 0..NODES, 1u64..64 << 10, any::<bool>()).prop_map(
            |(k, home, size, dirty)| Op::Write {
                k,
                home,
                size,
                dirty
            }
        ),
        (0..KEY_POOL, 0..NODES).prop_map(|(k, from)| Op::Read { k, from }),
        (0..KEY_POOL).prop_map(|k| Op::Evict { k }),
        (0..KEY_POOL).prop_map(|k| Op::Delete { k }),
        (0..KEY_POOL).prop_map(|k| Op::Migrate { k }),
        (0..NODES).prop_map(|node| Op::Crash { node }),
        (0..NODES).prop_map(|node| Op::Restart { node }),
        (1..400u32).prop_map(|secs| Op::Advance { secs }),
    ]
}

/// Keys spread over [`OWNERS`] tenant-named buckets, so one owner holds
/// several objects and overwrites cross owners never happen.
fn key(k: u64) -> Key {
    Key::from(format!("t{}/obj{k}", k % OWNERS))
}

fn apply(cluster: &mut Cluster, now: &mut SimTime, op: &Op) {
    match *op {
        Op::Write {
            k,
            home,
            size,
            dirty,
        } => {
            cluster
                .write_with_dirty(home, &key(k), Value::synthetic(size), *now, dirty)
                .result
                .ok();
        }
        Op::Read { k, from } => {
            cluster.read(from, &key(k), *now).result.ok();
        }
        Op::Evict { k } => {
            cluster.evict(&key(k)).result.ok();
        }
        Op::Delete { k } => {
            cluster.delete(&key(k)).result.ok();
        }
        Op::Migrate { k } => {
            cluster.migrate_by_promotion(&key(k), *now).result.ok();
        }
        Op::Crash { node } => {
            if cluster.live_nodes() > 1 {
                cluster.crash_node(node, *now);
            }
        }
        Op::Restart { node } => cluster.restart_node(node, *now),
        Op::Advance { secs } => *now += Duration::from_secs(u64::from(secs)),
    }
}

/// Recounts every charge from the master maps directly — the ledger the
/// O(log n) bookkeeping must always agree with.
fn recount(cluster: &Cluster) -> (Vec<u64>, BTreeMap<Key, u64>) {
    let mut per_node = Vec::new();
    let mut per_owner: BTreeMap<Key, u64> = BTreeMap::new();
    for node in 0..NODES {
        let mut node_total = 0u64;
        for (key, obj) in cluster.node(node).masters() {
            let charge = obj.value.size().max(1);
            node_total += charge;
            *per_owner.entry(owner_of(key)).or_insert(0) += charge;
            assert_eq!(obj.owner, owner_of(key), "stored owner drifted from key");
        }
        per_node.push(node_total);
    }
    (per_node, per_owner)
}

fn check_conserved(cluster: &Cluster) -> Result<(), TestCaseError> {
    let (per_node, per_owner) = recount(cluster);
    for (node, &expect) in per_node.iter().enumerate() {
        let ledger: u64 = cluster.node(node).owner_usages().map(|(_, v)| v).sum();
        prop_assert_eq!(ledger, expect, "node {} ledger != recount", node);
        prop_assert_eq!(
            ledger,
            cluster.node(node).used_bytes(),
            "node {} ledger != live bytes",
            node
        );
    }
    prop_assert_eq!(&cluster.owner_usage(), &per_owner);
    let global: u64 = cluster.owner_usage().values().sum();
    prop_assert_eq!(global, cluster.used_bytes());
    // Victim feeds stay within their owner and in LRU order.
    for owner in per_owner.keys() {
        let victims = cluster.owner_victims(owner, KEY_POOL as usize);
        let mut last = SimTime::ZERO;
        for (vkey, _dirty, size) in &victims {
            prop_assert_eq!(owner_of(vkey), *owner, "victim crossed tenants");
            let stats = cluster.stats_of(vkey).expect("victim is a live master");
            prop_assert!(stats.t_access >= last, "victims out of LRU order");
            prop_assert!(*size >= 1);
            last = stats.t_access;
        }
    }
    Ok(())
}

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        replication_factor: 2,
        node_pool_bytes: 4 << 20,
        ..ClusterConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn owner_ledger_is_conserved(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut c = cluster();
        let mut now = SimTime::ZERO;
        for op in &ops {
            apply(&mut c, &mut now, op);
            // Conservation holds at every intermediate state, not just at
            // quiescence — check after each mutation.
            check_conserved(&c)?;
        }
    }
}

/// Replays a pinned schedule, checking conservation after every step.
fn replay(ops: &[Op]) {
    let mut c = cluster();
    let mut now = SimTime::ZERO;
    for op in ops {
        apply(&mut c, &mut now, op);
        check_conserved(&c).unwrap();
    }
}

#[test]
fn regression_overwrite_resizes_charge() {
    // Re-writing a key with a different size must replace, not add, its
    // owner charge.
    replay(&[
        Op::Write {
            k: 3,
            home: 0,
            size: 4096,
            dirty: false,
        },
        Op::Write {
            k: 3,
            home: 0,
            size: 128,
            dirty: true,
        },
        Op::Write {
            k: 3,
            home: 1,
            size: 9000,
            dirty: false,
        },
        Op::Delete { k: 3 },
    ]);
}

#[test]
fn regression_crash_wipes_node_ledger() {
    // A crash clears the node; recovery promotes backups on survivors.
    // Charges must move with the masters and never survive on the corpse.
    replay(&[
        Op::Write {
            k: 0,
            home: 0,
            size: 1 << 10,
            dirty: false,
        },
        Op::Write {
            k: 5,
            home: 0,
            size: 2 << 10,
            dirty: false,
        },
        Op::Write {
            k: 1,
            home: 1,
            size: 3 << 10,
            dirty: true,
        },
        Op::Crash { node: 0 },
        Op::Restart { node: 0 },
        Op::Crash { node: 1 },
    ]);
}

#[test]
fn regression_migration_moves_charge() {
    // Migration-by-promotion re-homes the master: the source node loses
    // the charge, the promoted backup's node gains it.
    replay(&[
        Op::Write {
            k: 2,
            home: 2,
            size: 10_000,
            dirty: false,
        },
        Op::Read { k: 2, from: 3 },
        Op::Migrate { k: 2 },
        Op::Migrate { k: 2 },
        Op::Evict { k: 2 },
    ]);
}

#[test]
fn regression_zero_size_objects_charge_one_byte() {
    // The node charges `size.max(1)`; the owner ledger must match exactly
    // or Σ tenant usage drifts from global usage one byte per object.
    replay(&[
        Op::Write {
            k: 7,
            home: 0,
            size: 1,
            dirty: false,
        },
        Op::Write {
            k: 12,
            home: 1,
            size: 1,
            dirty: false,
        },
        Op::Read { k: 7, from: 2 },
        Op::Delete { k: 12 },
    ]);
}
