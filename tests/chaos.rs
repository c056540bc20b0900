//! Chaos properties: the robustness guarantees of DESIGN.md §10 hold for
//! *generated* fault schedules, not just the hand-picked ones of the unit
//! tests — zero data loss while replication covers every crash, and
//! liveness of the write-back path (every accepted write eventually lands
//! in the RSDS once faults cease).

use ofc::chaos::{ChaosSchedule, FaultKind, FaultTemplate, Recurring};
use ofc::core::cache::{OfcPlane, PlaneConfig, SWEEP_EVERY};
use ofc::core::policy::{build_policy, PolicyKind};
use ofc::core::telemetry::Telemetry;
use ofc::faas::{DataPlane, ObjectWrite};
use ofc::objstore::latency::LatencyModel;
use ofc::objstore::store::ObjectStore;
use ofc::objstore::ObjectId;
use ofc::rcstore::cluster::Cluster;
use ofc::rcstore::{ClusterConfig, Key, Value as RcValue};
use ofc::simtime::{Sim, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

const MB: u64 = 1 << 20;
const NODES: usize = 4;

/// A guarded fault sink against a raw cluster: crashes are skipped when
/// they would leave fewer than two live nodes (a quorum OFC never claims
/// to survive with replication 2); persistor faults are ignored (no
/// persistence layer in this harness).
fn cluster_sink(cluster: Rc<RefCell<Cluster>>) -> ofc::chaos::FaultSink {
    Rc::new(move |sim, kind| {
        let now = sim.now();
        let mut c = cluster.borrow_mut();
        match kind {
            FaultKind::NodeCrash(n) => {
                if c.live_nodes() > 2 {
                    c.crash_node(*n, now);
                }
            }
            FaultKind::NodeRestart(n) => c.restart_node(*n, now),
            FaultKind::SlowNode { node, factor } => c.set_node_slowdown(*node, *factor),
            FaultKind::RestoreNodeSpeed { node } => c.clear_node_slowdown(*node),
            FaultKind::TransientStoreErrors { ops } => c.inject_transient_errors(*ops),
            FaultKind::PersistorFailure { .. } => {}
            FaultKind::CoordinatorCrash(r) => c.crash_coordinator(*r, now),
            FaultKind::CoordinatorRestart(r) => c.restart_coordinator(*r, now),
            FaultKind::LeaderIsolate => {
                c.isolate_leader(now);
            }
            FaultKind::Partition { groups } => c.partition_network(groups, now),
            FaultKind::HealPartition => c.heal_partition(now),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zero data loss: under any generated schedule of crashes, restarts,
    /// slowdowns, and transient-error bursts — crashes guarded so at
    /// least two nodes stay up — every write the cluster acknowledged is
    /// still readable afterwards, and `rcstore.objects_lost` stays zero.
    #[test]
    fn no_acknowledged_write_is_lost(
        seed in any::<u64>(),
        crash_mean_s in 20u64..120,
        transient_mean_s in 10u64..60,
        slow_mean_s in 20u64..90,
        extra_crash_at in 10u64..400,
    ) {
        let telemetry = Telemetry::new();
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: NODES,
            replication_factor: 2,
            node_pool_bytes: 256 * MB,
            max_object_bytes: 10 * MB,
            ..ClusterConfig::default()
        });
        cluster.bind_telemetry(&telemetry);
        let cluster = Rc::new(RefCell::new(cluster));

        let window_end = SimTime::from_secs(500);
        let schedule = ChaosSchedule::new(NODES)
            .one_shot(
                SimTime::from_secs(extra_crash_at),
                FaultKind::NodeCrash((extra_crash_at % NODES as u64) as usize),
            )
            .recurring(Recurring {
                template: FaultTemplate::Crash,
                mean_interval: Duration::from_secs(crash_mean_s),
                from: SimTime::from_secs(5),
                until: window_end,
            })
            .recurring(Recurring {
                template: FaultTemplate::Restart,
                mean_interval: Duration::from_secs(crash_mean_s),
                from: SimTime::from_secs(5),
                until: window_end,
            })
            .recurring(Recurring {
                template: FaultTemplate::Transient { ops: 4 },
                mean_interval: Duration::from_secs(transient_mean_s),
                from: SimTime::from_secs(5),
                until: window_end,
            })
            .recurring(Recurring {
                template: FaultTemplate::Slow { factor: 8.0, duration: Duration::from_secs(20) },
                mean_interval: Duration::from_secs(slow_mean_s),
                from: SimTime::from_secs(5),
                until: window_end,
            });

        let mut sim = Sim::new(seed);
        ofc::chaos::install(
            &mut sim,
            schedule.generate(seed),
            &telemetry,
            cluster_sink(Rc::clone(&cluster)),
        );

        // Deterministic write load interleaved with the fault schedule.
        let accepted: Rc<RefCell<BTreeMap<Key, u64>>> = Rc::new(RefCell::new(BTreeMap::new()));
        for i in 0..40u64 {
            let cluster = Rc::clone(&cluster);
            let accepted = Rc::clone(&accepted);
            sim.schedule_at(SimTime::from_secs(i * 12), move |sim| {
                let mut c = cluster.borrow_mut();
                let Some(node) = (0..NODES).find(|&n| c.node(n).is_up()) else {
                    return;
                };
                let key = Key::from(format!("w{i}"));
                let size = 64 * 1024 + i;
                if c.write(node, &key, RcValue::synthetic(size), sim.now()).result.is_ok() {
                    accepted.borrow_mut().insert(key, size);
                }
            });
        }

        sim.run_until(SimTime::from_secs(700));

        // Faults cease; verify on a healed cluster.
        {
            let mut c = cluster.borrow_mut();
            c.clear_faults();
            for n in 0..NODES {
                if !c.node(n).is_up() {
                    c.restart_node(n, SimTime::from_secs(700));
                }
            }
        }
        let now = SimTime::from_secs(10_000);
        for (key, size) in accepted.borrow().iter() {
            let r = cluster.borrow_mut().read(0, key, now).result;
            match r {
                Ok((v, _)) => prop_assert_eq!(v.size(), *size, "{} changed size", key),
                Err(e) => return Err(TestCaseError::fail(format!("{key} lost: {e}"))),
            }
        }
        prop_assert_eq!(telemetry.metrics().counter("rcstore.objects_lost"), 0);
    }

    /// Liveness of the write-back path: for any finite persistor-failure
    /// budget, every accepted write's payload lands in the RSDS (no
    /// shadow left behind, no pending or dead-lettered entry) once the
    /// retry chain and the periodic sweeper have run.
    #[test]
    fn every_accepted_write_eventually_persists(
        seed in any::<u64>(),
        n_failures in 0u32..24,
        n_writes in 1usize..8,
    ) {
        let telemetry = Telemetry::new();
        let cluster = Rc::new(RefCell::new(Cluster::new(ClusterConfig {
            nodes: 3,
            replication_factor: 1,
            node_pool_bytes: 256 * MB,
            max_object_bytes: 10 * MB,
            ..ClusterConfig::default()
        })));
        let store = Rc::new(RefCell::new(ObjectStore::new(LatencyModel::swift())));
        let mut plane = OfcPlane::new(
            PlaneConfig::default(),
            Rc::clone(&cluster),
            Rc::clone(&store),
            build_policy(PolicyKind::Ofc, &telemetry),
            &telemetry,
        );
        let persistence = plane.persistence();
        persistence.borrow_mut().inject_persist_failures(n_failures);

        let mut sim = Sim::new(seed);
        let sweeper = Rc::clone(&persistence);
        sim.every(SWEEP_EVERY, move |_| {
            sweeper.borrow_mut().sweep();
        });
        let ids: Vec<ObjectId> = (0..n_writes)
            .map(|i| ObjectId::new("out", format!("o{i}")))
            .collect();
        for id in &ids {
            let w = ObjectWrite { id: *id, size: 128 * 1024, is_final: true };
            plane.write(&mut sim, 0, &w, ofc::faas::Admission::admit(), None);
        }
        // The sweeper reschedules itself forever: bound the horizon. Two
        // hours cover any backoff chain plus enough sweeps to drain a
        // budget of 24 injected failures.
        sim.run_until(SimTime::from_secs(2 * 3600));

        prop_assert_eq!(persistence.borrow().pending_count(), 0, "write-backs stuck");
        prop_assert_eq!(persistence.borrow().dead_letter_count(), 0, "dead letters stuck");
        for id in &ids {
            let meta = store.borrow().head(id).0;
            match meta {
                Ok(m) => prop_assert!(!m.is_shadow(), "{} never fulfilled", id),
                Err(e) => return Err(TestCaseError::fail(format!("{id} missing: {e}"))),
            }
        }
        if n_failures == 0 {
            prop_assert_eq!(telemetry.metrics().counter("persist.retries"), 0);
            prop_assert_eq!(telemetry.metrics().counter("persist.dead_letters"), 0);
        }
    }
}

/// Shared body of the failover durability property and its pinned
/// regression seeds: a 3-replica control plane under coordinator crashes,
/// leader isolations, random bipartitions, and guarded node crashes.
/// Every write the cluster acknowledged must be readable after the last
/// partition heals, and `rcstore.objects_lost` must stay zero.
fn failover_durability_case(
    seed: u64,
    coord_mean_s: u64,
    isolate_mean_s: u64,
    partition_mean_s: u64,
    crash_mean_s: u64,
) -> Result<(), TestCaseError> {
    let telemetry = Telemetry::new();
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        replication_factor: 2,
        node_pool_bytes: 256 * MB,
        max_object_bytes: 10 * MB,
        raft: ofc::rcstore::raft::RaftConfig {
            replicas: 3,
            ..ofc::rcstore::raft::RaftConfig::default()
        },
        ..ClusterConfig::default()
    });
    cluster.bind_telemetry(&telemetry);
    let cluster = Rc::new(RefCell::new(cluster));

    let window_end = SimTime::from_secs(500);
    let schedule = ChaosSchedule::new(NODES)
        .coordinators(3)
        .recurring(Recurring {
            template: FaultTemplate::CoordinatorCrash {
                heal_after: Duration::from_secs(25),
            },
            mean_interval: Duration::from_secs(coord_mean_s),
            from: SimTime::from_secs(5),
            until: window_end,
        })
        .recurring(Recurring {
            template: FaultTemplate::LeaderIsolate {
                heal_after: Duration::from_secs(20),
            },
            mean_interval: Duration::from_secs(isolate_mean_s),
            from: SimTime::from_secs(5),
            until: window_end,
        })
        .recurring(Recurring {
            template: FaultTemplate::Partition {
                heal_after: Duration::from_secs(30),
            },
            mean_interval: Duration::from_secs(partition_mean_s),
            from: SimTime::from_secs(5),
            until: window_end,
        })
        .recurring(Recurring {
            template: FaultTemplate::Crash,
            mean_interval: Duration::from_secs(crash_mean_s),
            from: SimTime::from_secs(5),
            until: window_end,
        })
        .recurring(Recurring {
            template: FaultTemplate::Restart,
            mean_interval: Duration::from_secs(crash_mean_s),
            from: SimTime::from_secs(5),
            until: window_end,
        });

    let mut sim = Sim::new(seed);
    ofc::chaos::install(
        &mut sim,
        schedule.generate(seed),
        &telemetry,
        cluster_sink(Rc::clone(&cluster)),
    );
    // The control-plane heartbeat the runtime would provide: elections
    // fire and deferred recoveries drain between fault events.
    for tick in 1..7000u64 {
        let cluster = Rc::clone(&cluster);
        sim.schedule_at(
            SimTime::ZERO + Duration::from_millis(tick * 100),
            move |sim| {
                cluster.borrow_mut().coordinator_pump(sim.now());
            },
        );
    }

    let accepted: Rc<RefCell<BTreeMap<Key, u64>>> = Rc::new(RefCell::new(BTreeMap::new()));
    for i in 0..40u64 {
        let cluster = Rc::clone(&cluster);
        let accepted = Rc::clone(&accepted);
        sim.schedule_at(SimTime::from_secs(i * 12), move |sim| {
            let key = Key::from(format!("w{i}"));
            let size = 64 * 1024 + i;
            let ok = {
                let mut c = cluster.borrow_mut();
                let Some(node) = (0..NODES).find(|&n| c.node(n).is_up()) else {
                    return;
                };
                c.write(node, &key, RcValue::synthetic(size), sim.now())
                    .result
                    .is_ok()
            };
            if ok {
                accepted.borrow_mut().insert(key, size);
            }
        });
    }

    sim.run_until(SimTime::from_secs(700));

    // Faults cease; heal, settle the control plane, and verify.
    {
        let mut c = cluster.borrow_mut();
        c.heal_partition(SimTime::from_secs(700));
        for r in 0..3 {
            if !c.coordinator().replica_up(r) {
                c.restart_coordinator(r, SimTime::from_secs(701));
            }
        }
        for n in 0..NODES {
            if !c.node(n).is_up() {
                c.restart_node(n, SimTime::from_secs(702));
            }
        }
        c.clear_faults();
        for s in 0..5u64 {
            c.coordinator_pump(SimTime::from_secs(703 + s));
        }
        prop_assert!(c.coordinator().leader().is_some(), "quorum settled");
        prop_assert_eq!(c.deferred_recoveries(), 0, "recoveries drained");
    }
    let now = SimTime::from_secs(10_000);
    let written: Vec<(Key, u64)> = accepted.borrow().iter().map(|(k, &s)| (*k, s)).collect();
    for (key, size) in &written {
        let r = cluster.borrow_mut().read(0, key, now).result;
        match r {
            Ok((v, _)) => prop_assert_eq!(v.size(), *size, "{} changed size", key),
            Err(e) => return Err(TestCaseError::fail(format!("{key} lost: {e}"))),
        }
    }
    prop_assert_eq!(telemetry.metrics().counter("rcstore.objects_lost"), 0);
    Ok(())
}

/// Shared body of the minority-partition property and its pinned seeds:
/// while a partition isolates a minority from the coordinator quorum,
/// minority-side writes must bounce with the *typed* transient error —
/// never be silently dropped, never ack-then-lose.
fn minority_partition_case(seed: u64, minority_node: usize) -> Result<(), TestCaseError> {
    let telemetry = Telemetry::new();
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        replication_factor: 2,
        node_pool_bytes: 256 * MB,
        max_object_bytes: 10 * MB,
        raft: ofc::rcstore::raft::RaftConfig { replicas: 3, seed },
        ..ClusterConfig::default()
    });
    cluster.bind_telemetry(&telemetry);

    // Pre-partition writes from every node succeed.
    for i in 0..8u64 {
        let r = cluster.write(
            (i % NODES as u64) as usize,
            &Key::from(format!("pre{i}")),
            RcValue::synthetic(32 * 1024),
            SimTime::from_secs(i),
        );
        prop_assert!(r.result.is_ok());
    }

    // Coordinator replicas live on nodes 0-2: isolating any single node
    // leaves a 2-of-3 quorum on the other side.
    let rest: Vec<usize> = (0..NODES).filter(|&n| n != minority_node).collect();
    cluster.partition_network(&[vec![minority_node], rest.clone()], SimTime::from_secs(60));
    let mut t = SimTime::from_secs(60);
    for _ in 0..4 {
        t += Duration::from_millis(400);
        cluster.coordinator_pump(t);
    }

    // Minority side: every write bounces with the typed transient error.
    for i in 0..6u64 {
        let r = cluster.write(
            minority_node,
            &Key::from(format!("min{i}")),
            RcValue::synthetic(16 * 1024),
            t + Duration::from_secs(i),
        );
        match r.result {
            Err(ofc::rcstore::RcError::Transient) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "minority write {i} was not a typed transient rejection: {other:?}"
                )))
            }
        }
    }
    // Majority side keeps serving.
    let q = cluster.write(
        rest[0],
        &Key::from("maj"),
        RcValue::synthetic(16 * 1024),
        t + Duration::from_secs(10),
    );
    prop_assert!(q.result.is_ok(), "majority side must keep serving");

    // Heal: everyone serves again and nothing was lost.
    cluster.heal_partition(t + Duration::from_secs(20));
    let t2 = t + Duration::from_secs(21);
    let r = cluster.write(
        minority_node,
        &Key::from("after"),
        RcValue::synthetic(16 * 1024),
        t2,
    );
    prop_assert!(r.result.is_ok(), "minority serves after heal");
    for i in 0..8u64 {
        let key = Key::from(format!("pre{i}"));
        prop_assert!(
            cluster
                .read(0, &key, t2 + Duration::from_secs(1))
                .result
                .is_ok(),
            "pre-partition write {} lost",
            i
        );
    }
    prop_assert_eq!(telemetry.metrics().counter("rcstore.objects_lost"), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DESIGN.md §16: no acknowledged write or committed tablet
    /// assignment is lost across leader failovers and healed partitions,
    /// and the majority side keeps serving throughout.
    #[test]
    fn no_acknowledged_write_lost_across_failovers(
        seed in any::<u64>(),
        coord_mean_s in 40u64..150,
        isolate_mean_s in 60u64..200,
        partition_mean_s in 60u64..200,
        crash_mean_s in 40u64..150,
    ) {
        failover_durability_case(seed, coord_mean_s, isolate_mean_s, partition_mean_s, crash_mean_s)?;
    }

    /// DESIGN.md §16: minority-side writes bounce with the typed
    /// [`ofc::rcstore::RcError::Transient`] — never silent loss.
    #[test]
    fn minority_partition_writes_bounce_typed(
        seed in any::<u64>(),
        minority_node in 0usize..NODES,
    ) {
        minority_partition_case(seed, minority_node)?;
    }
}

/// Pinned regression seeds for the failover properties: trajectories that
/// exercised the interesting paths while the suite was developed (leader
/// re-elections under back-to-back coordinator crashes, node crashes
/// inside partition windows, deferred recoveries draining at heal). Run
/// as plain unit tests so a future regression reproduces immediately.
mod failover_regression_seeds {
    use super::*;

    #[test]
    fn failover_seed_42() {
        failover_durability_case(42, 60, 90, 90, 60).unwrap();
    }

    #[test]
    fn failover_seed_7_dense_faults() {
        failover_durability_case(7, 40, 60, 60, 40).unwrap();
    }

    #[test]
    fn failover_seed_1337_sparse_faults() {
        failover_durability_case(1337, 150, 200, 200, 150).unwrap();
    }

    #[test]
    fn minority_partition_each_node() {
        for node in 0..NODES {
            minority_partition_case(0xfc0, node).unwrap();
        }
    }
}
