//! Property: the eviction-candidate index is a faithful accelerator. For
//! any schedule of writes, reads, evictions, deletions, crashes, and
//! restarts, `Cluster::evict_candidates` must return exactly the victim
//! set a full scan over every master object would select — the index may
//! only change *how many entries the sweep visits*, never *which objects
//! expire*. Likewise each node's `lru_masters` must be its masters fully
//! sorted by `(t_access, key)`.

use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::node::COLD_ACCESS_THRESHOLD;
use ofc_rcstore::{ClusterConfig, Key, Value};
use ofc_simtime::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const NODES: usize = 4;
const KEY_POOL: u64 = 12;

#[derive(Debug, Clone)]
enum Op {
    Write { k: u64, home: usize, dirty: bool },
    Read { k: u64, from: usize },
    Evict { k: u64 },
    Delete { k: u64 },
    Crash { node: usize },
    Restart { node: usize },
    Advance { secs: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEY_POOL, 0..NODES, any::<bool>()).prop_map(|(k, home, dirty)| Op::Write {
            k,
            home,
            dirty
        }),
        (0..KEY_POOL, 0..NODES).prop_map(|(k, from)| Op::Read { k, from }),
        (0..KEY_POOL).prop_map(|k| Op::Evict { k }),
        (0..KEY_POOL).prop_map(|k| Op::Delete { k }),
        (0..NODES).prop_map(|node| Op::Crash { node }),
        (0..NODES).prop_map(|node| Op::Restart { node }),
        (1..400u32).prop_map(|secs| Op::Advance { secs }),
    ]
}

fn key(k: u64) -> Key {
    Key::from(format!("obj{k}"))
}

/// The pre-index janitor: scan every master on every node and apply the
/// §6.3 expiry predicate directly.
fn full_scan_reference(
    cluster: &Cluster,
    now: SimTime,
    min_age: Duration,
    min_idle: Duration,
) -> Vec<(Key, bool)> {
    let mut victims = BTreeMap::new();
    for node in 0..NODES {
        for (key, obj) in cluster.node(node).masters() {
            let cold = obj.stats.n_access < COLD_ACCESS_THRESHOLD
                && now.saturating_since(obj.stats.created) >= min_age;
            let stale = now.saturating_since(obj.stats.t_access) >= min_idle;
            if cold || stale {
                victims.insert(*key, obj.dirty);
            }
        }
    }
    victims.into_iter().collect()
}

/// The pre-index LRU order of one node: every master, sorted by
/// `(t_access, key)`.
fn full_sort_lru(cluster: &Cluster, node: usize) -> Vec<Key> {
    let mut keys: Vec<(SimTime, Key)> = cluster
        .node(node)
        .masters()
        .map(|(k, o)| (o.stats.t_access, *k))
        .collect();
    keys.sort();
    keys.into_iter().map(|(_, k)| k).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_selects_exactly_the_full_scan_victims(
        ops in prop::collection::vec(op_strategy(), 1..120),
        probe in prop_oneof![
            Just((Duration::ZERO, Duration::ZERO)),
            Just((Duration::from_secs(60), Duration::from_secs(240))),
            // The agent's production parameters (§6.3).
            Just((Duration::from_secs(300), Duration::from_secs(1800))),
        ],
    ) {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: NODES,
            replication_factor: 2,
            node_pool_bytes: 4 << 20,
            ..ClusterConfig::default()
        });
        let (min_age, min_idle) = probe;
        let mut now = SimTime::ZERO;
        for op in &ops {
            match *op {
                Op::Write { k, home, dirty } => {
                    cluster
                        .write_with_dirty(home, &key(k), Value::synthetic(1 << 10), now, dirty)
                        .result
                        .ok();
                }
                Op::Read { k, from } => {
                    cluster.read(from, &key(k), now).result.ok();
                }
                Op::Evict { k } => {
                    cluster.evict(&key(k)).result.ok();
                }
                Op::Delete { k } => {
                    cluster.delete(&key(k)).result.ok();
                }
                Op::Crash { node } => {
                    if cluster.live_nodes() > 1 {
                        cluster.crash_node(node, now);
                    }
                }
                Op::Restart { node } => cluster.restart_node(node, now),
                Op::Advance { secs } => now += Duration::from_secs(u64::from(secs)),
            }
            // The invariant holds at every intermediate state, not just at
            // quiescence — check after each mutation.
            let (victims, visited) = cluster.evict_candidates(now, min_age, min_idle);
            let reference = full_scan_reference(&cluster, now, min_age, min_idle);
            prop_assert_eq!(&victims, &reference);
            // The accelerator never inspects more entries than the scan it
            // replaces (two index walks, each breaking at the first
            // non-expirable entry).
            prop_assert!(
                visited <= 2 * cluster.len() as u64 + 2,
                "visited {} of {} objects",
                visited,
                cluster.len()
            );
            for node in 0..NODES {
                prop_assert_eq!(cluster.node(node).lru_masters(), full_sort_lru(&cluster, node));
            }
        }
    }
}
