//! Property-based tests (proptest) on the core invariants across crates:
//! the cache store's replication and durability, the object store's
//! version discipline, the classifiers, the interval arithmetic of the
//! predictor, and the platform's cold-placement rule.

use ofc::dtree::c45::{C45Params, C45};
use ofc::dtree::data::{Dataset, Value};
use ofc::dtree::Classifier;
use ofc::faas::{Args, Booked, FunctionId, RoutingContext, TenantId};
use ofc::objstore::store::ObjectStore;
use ofc::objstore::{ObjectId, Payload};
use ofc::rcstore::cluster::Cluster;
use ofc::rcstore::{ClusterConfig, Key, RcError, Value as RcValue};
use ofc::simtime::SimTime;
use proptest::prelude::*;

const MB: u64 = 1 << 20;

/// Random operations against the cache cluster.
#[derive(Debug, Clone)]
enum Op {
    Write { key: u8, size_kb: u16, node: u8 },
    Read { key: u8, node: u8 },
    MarkClean { key: u8 },
    Evict { key: u8 },
    Migrate { key: u8 },
    Crash { node: u8 },
    Restart { node: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..16u8, 1..2048u16, 0..4u8).prop_map(|(key, size_kb, node)| Op::Write {
            key,
            size_kb,
            node
        }),
        (0..16u8, 0..4u8).prop_map(|(key, node)| Op::Read { key, node }),
        (0..16u8).prop_map(|key| Op::MarkClean { key }),
        (0..16u8).prop_map(|key| Op::Evict { key }),
        (0..16u8).prop_map(|key| Op::Migrate { key }),
        (0..4u8).prop_map(|node| Op::Crash { node }),
        (0..4u8).prop_map(|node| Op::Restart { node }),
    ]
}

fn key_of(k: u8) -> Key {
    Key::from(format!("k{k}"))
}

/// Drives `ops` against a fresh 4-node cluster and checks the §5
/// invariants after every step. Shared by the proptest and the named
/// replays of its committed regression cases.
fn run_cluster_ops(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 4,
        replication_factor: 2,
        node_pool_bytes: 64 * MB,
        max_object_bytes: 4 * MB,
        ..ClusterConfig::default()
    });
    // Model state: key -> size of the latest acknowledged write.
    let mut model: std::collections::HashMap<Key, u64> = Default::default();
    let mut now = SimTime::ZERO;

    for op in ops {
        now += std::time::Duration::from_millis(10);
        match op {
            Op::Write { key, size_kb, node } => {
                let key = key_of(key);
                let size = u64::from(size_kb) * 1024;
                let t = cluster.write(usize::from(node), &key, RcValue::synthetic(size), now);
                match t.result {
                    Ok(_) => {
                        model.insert(key, size);
                    }
                    Err(RcError::OutOfMemory { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                }
            }
            Op::Read { key, node } => {
                let key = key_of(key);
                let t = cluster.read(usize::from(node), &key, now);
                match (t.result, model.get(&key)) {
                    (Ok((v, _)), Some(&size)) => prop_assert_eq!(v.size(), size),
                    (Ok(_), None) => return Err(TestCaseError::fail("read of never-written key")),
                    (Err(_), _) => {} // evicted/crashed-away: a miss is legal
                }
            }
            Op::MarkClean { key } => {
                cluster.mark_clean(&key_of(key)).ok();
            }
            Op::Evict { key } => {
                let key = key_of(key);
                if cluster.evict(&key).result.is_ok() {
                    model.remove(&key);
                } else if cluster.contains(&key) {
                    // Refusal is only legal for dirty objects.
                    prop_assert_eq!(cluster.is_dirty(&key), Some(true));
                }
            }
            Op::Migrate { key } => {
                let key = key_of(key);
                let before = model.get(&key).copied();
                if cluster.migrate_by_promotion(&key, now).result.is_ok() {
                    // Migration must not lose or change the object.
                    let t = cluster.read(0, &key, now);
                    let v = t
                        .result
                        .map_err(|e| TestCaseError::fail(format!("post-migrate read: {e}")))?;
                    prop_assert_eq!(Some(v.0.size()), before);
                }
            }
            Op::Crash { node } => {
                let lost = cluster.crash_node(usize::from(node), now);
                // With replication factor 2 a single crash loses nothing;
                // only keys that already lost replicas to earlier crashes
                // may vanish.
                for _ in 0..lost.result {
                    // Remove whatever keys disappeared from the tablet.
                    model.retain(|k, _| cluster.contains(k));
                }
                model.retain(|k, _| cluster.contains(k));
            }
            Op::Restart { node } => cluster.restart_node(usize::from(node), now),
        }
        // Global invariants after every step.
        let up_nodes = (0..4).filter(|&n| cluster.node(n).is_up()).count();
        for (key, &size) in &model {
            prop_assert!(cluster.contains(key), "{key} lost without a crash");
            let master = cluster.master_of(key).expect("contained");
            prop_assert!(cluster.node(master).is_up(), "master of {key} is down");
            let obj = cluster
                .node(master)
                .peek_master(key)
                .expect("tablet consistent");
            prop_assert_eq!(obj.value.size(), size);
            if up_nodes >= 3 {
                prop_assert!(
                    cluster.live_replicas(key) >= 1,
                    "{key} unreplicated with {up_nodes} nodes up"
                );
            }
        }
    }
    Ok(())
}

/// Replay of the committed `tests/properties.proptest-regressions` case
/// `cc7de25d…` (shrunken): two crashes empty the replica set of node 0's
/// tablet range, a write lands while only two nodes are up, then the
/// master crashes before any restart. The fix keeps the acknowledged
/// write readable (or consistently absent from the tablet) — never a
/// stale tablet entry pointing at a dead master.
#[test]
fn regression_write_between_crashes_keeps_tablet_consistent() {
    run_cluster_ops(vec![
        Op::Crash { node: 0 },
        Op::Crash { node: 2 },
        Op::Write {
            key: 0,
            size_kb: 1,
            node: 0,
        },
        Op::Crash { node: 1 },
        Op::Restart { node: 0 },
        Op::Restart { node: 1 },
    ])
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary writes, reads, evictions, migrations, crashes, and
    /// restarts: every cached object keeps its size, its replication never
    /// silently drops while enough nodes are up, and reads after writes
    /// observe the latest value (single-key linearizability).
    #[test]
    fn cluster_invariants_under_chaos(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_cluster_ops(ops)?;
    }

    /// The object store's version counters are monotone and
    /// `persisted_version <= version` always holds; fulfillments apply
    /// exactly in order.
    #[test]
    fn objstore_version_discipline(ops in prop::collection::vec((0..3u8, 0..4u8, 1..512u16), 1..60)) {
        let mut store = ObjectStore::new(ofc::objstore::latency::LatencyModel::instant());
        let mut last_version: std::collections::HashMap<u8, u64> = Default::default();
        for (kind, key, size) in ops {
            let id = ObjectId::new("b", format!("k{key}"));
            let size = u64::from(size) * 1024;
            match kind {
                0 => {
                    let (v, _) = store.put(&id, Payload::Synthetic(size), Default::default(), false);
                    let prev = last_version.insert(key, v).unwrap_or(0);
                    prop_assert!(v > prev, "version must grow");
                }
                1 => {
                    let (v, _) = store.put_shadow(&id, size);
                    let prev = last_version.insert(key, v).unwrap_or(0);
                    prop_assert!(v > prev);
                }
                _ => {
                    // Fulfill the oldest pending version, if a shadow exists.
                    if let Ok(meta) = store.head(&id).0 {
                        if meta.is_shadow() {
                            let next = meta.persisted_version + 1;
                            let (res, _) = store.fulfill_shadow(&id, next, Payload::Synthetic(size));
                            prop_assert!(res.is_ok());
                        }
                    }
                }
            }
            if let Ok(meta) = store.head(&id).0 {
                prop_assert!(meta.persisted_version <= meta.version);
            }
        }
    }

    /// J48 predictions always fall inside the training label set, and
    /// training is deterministic.
    #[test]
    fn j48_predictions_stay_in_range(
        rows in prop::collection::vec((0.0f64..100.0, 0..4u32), 10..120),
        probe in 0.0f64..100.0,
    ) {
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b", "c", "d"])
            .build();
        let mut seen = std::collections::HashSet::new();
        for (x, label) in &rows {
            ds.push(vec![Value::Num(*x)], *label);
            seen.insert(*label);
        }
        let t1 = C45::train(&ds, &C45Params);
        let t2 = C45::train(&ds, &C45Params);
        let p = t1.predict(&[Value::Num(probe)]);
        prop_assert!(seen.contains(&p), "predicted unseen class {p}");
        prop_assert_eq!(p, t2.predict(&[Value::Num(probe)]), "training not deterministic");
    }

    /// Interval arithmetic of the predictor: allocations always cover the
    /// raw predicted interval, never exceed the range, and are monotone.
    #[test]
    fn interval_allocation_sound(raw in 0u32..128, mem in 0u64..(3 << 30)) {
        use ofc::core::ml::{interval_of, INTERVAL_BYTES, RANGE_BYTES};
        let cfg = ofc::core::ml::MlConfig::default();
        let label = interval_of(mem);
        prop_assert!(u64::from(label) * INTERVAL_BYTES <= mem || label == 127);
        let alloc = cfg.allocation_for(raw);
        prop_assert!(alloc <= RANGE_BYTES);
        // The allocation covers the upper bound of the raw interval.
        prop_assert!(alloc >= (u64::from(raw) + 1).min(128) * INTERVAL_BYTES);
        if raw < 127 {
            prop_assert!(cfg.allocation_for(raw + 1) >= alloc);
        }
    }

    /// The cold-placement law, per decision: whenever some node admits the
    /// booking, `cold_node` names a node that admits it, and it keeps a
    /// `preferred` node that admits. Free memory and bookings come in
    /// 256 MB steps, so exact fits and ties are common.
    #[test]
    fn cold_node_names_a_node_that_admits(
        free in prop::collection::vec(0..16u64, 1..8),
        booked in 1..9u64,
        home in 0..8usize,
        preferred in 0..9usize,
    ) {
        let nodes = free.len();
        let args = Args::new();
        let ctx = RoutingContext {
            function: FunctionId::from("f"),
            tenant: TenantId::from("t"),
            args: &args,
            booked_mem: Booked(booked * 256 * MB),
            home: home % nodes,
            warm: vec![],
            free_mem: free.iter().map(|&q| Booked(q * 256 * MB)).collect(),
        };
        let preferred = Some(preferred % (nodes + 1)).filter(|&n| n < nodes);
        let node = ctx.cold_node(preferred);
        if (0..nodes).any(|n| ctx.admits(n)) {
            prop_assert!(ctx.admits(node), "node {} cannot admit", node);
        } else {
            prop_assert_eq!(node, ctx.home, "no node admits: the home node");
        }
        if let Some(p) = preferred.filter(|&p| ctx.admits(p)) {
            prop_assert_eq!(node, p, "an admitting preferred node is kept");
        }
    }

    /// The IMOC never exceeds its capacity and keeps hit accounting sane.
    #[test]
    fn imoc_capacity_invariant(ops in prop::collection::vec((0..12u8, 1..200u16), 1..80)) {
        let mut imoc = ofc::objstore::imoc::Imoc::new(
            ofc::objstore::latency::LatencyModel::instant(),
            256 * 1024,
        );
        for (key, kb) in ops {
            let id = ObjectId::new("b", format!("k{key}"));
            let _ = imoc.put(&id, Payload::Synthetic(u64::from(kb) * 1024));
            prop_assert!(imoc.used() <= imoc.capacity());
        }
        let (hits, misses, _) = imoc.counters();
        prop_assert_eq!(hits + misses, 0, "no gets were issued");
    }
}
