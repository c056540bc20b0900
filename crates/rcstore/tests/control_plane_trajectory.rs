//! Control-plane trajectory: one fixed schedule of a node crash, gossip
//! verdicts, a partition that leaves one node an island, a coordinator
//! crash, writes on both sides, and the heals — on 4 storage nodes with 3
//! coordinator replicas and gossip on. After every step the observable
//! control-plane state (each key's master and backups, parked
//! recoveries, leader, term, log index, and the recovery counters) must
//! match a pinned string. The goldens see only a run's end-to-end output;
//! this test sees every intermediate state of the recovery decisions.

use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::gossip::{GossipEvent, MemberState, PROBE_PERIOD};
use ofc_rcstore::raft::ELECTION_SEED;
use ofc_rcstore::{ClusterConfig, Key, RcError, Value};
use ofc_simtime::SimTime;
use std::fmt::Write;
use std::time::Duration;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 4,
        replication_factor: 2,
        node_pool_bytes: 4 << 20,
        max_object_bytes: 1 << 20,
        control_plane: Some(ELECTION_SEED),
        ..ClusterConfig::default()
    })
}

/// `master>backups` per key (`-` when uncached), then the parked count,
/// the coordinator's position, and the recovery counters.
fn state(c: &Cluster, keys: &[Key]) -> String {
    let mut s = String::new();
    for k in keys {
        match c.master_of(k) {
            Some(m) => {
                let backups: Vec<String> = c.backups_of(k).iter().map(|b| b.to_string()).collect();
                write!(s, "{m}>{} ", backups.join(",")).unwrap();
            }
            None => s.push_str("- "),
        }
    }
    let coord = c.coordinator().expect("replicated control plane");
    let m = c.telemetry().metrics();
    write!(
        s,
        "| parked {} | leader {:?} term {} idx {} | lost {} promo {} commits {} confirms {} recov {}",
        c.deferred_recoveries(),
        coord.leader(),
        coord.term(),
        coord.last_index(),
        m.counter("rcstore.objects_lost"),
        m.counter("rcstore.promotions"),
        m.counter("raft.commits"),
        m.counter("gossip.confirms"),
        m.histogram("rcstore.recovery_nanos").map_or(0, |h| h.count),
    )
    .unwrap();
    s
}

#[track_caller]
fn check(c: &Cluster, keys: &[Key], want: &str) {
    assert_eq!(state(c, keys), want);
}

/// Runs gossip rounds until one confirms `node` dead; returns the number
/// of rounds it took and the advanced clock.
fn gossip_until_confirmed(c: &mut Cluster, node: usize, mut t: SimTime) -> (usize, SimTime) {
    for round in 1..=20 {
        t += PROBE_PERIOD;
        let events = c.gossip_round(t);
        if events
            .iter()
            .any(|e| matches!(e, GossipEvent::Confirmed { node: n, .. } if *n == node))
        {
            return (round, t);
        }
    }
    panic!("node {node} never confirmed dead");
}

#[test]
fn control_plane_trajectory_is_pinned_step_by_step() {
    let mut c = cluster();
    let mut keys: Vec<Key> = Vec::new();
    let mut t = SimTime::ZERO;

    // Writes from every node.
    for i in 0..8u64 {
        let key = Key::from(format!("t/k{i}").as_str());
        c.write(i as usize % 4, &key, Value::synthetic(1000 * (i + 1)), t)
            .result
            .unwrap();
        keys.push(key);
    }
    check(
        &c,
        &keys,
        "0>1,2 1>2,3 2>3,0 3>0,1 0>1,2 1>2,3 2>3,0 3>0,1 | parked 0 | leader Some(0) term 1 idx 8 | lost 0 promo 0 commits 8 confirms 0 recov 0",
    );

    // A storage crash under gossip waits for membership to confirm it.
    t += Duration::from_secs(1);
    c.crash_node(1, t);
    check(
        &c,
        &keys,
        "0>1,2 1>2,3 2>3,0 3>0,1 0>1,2 1>2,3 2>3,0 3>0,1 | parked 0 | leader Some(0) term 1 idx 8 | lost 0 promo 0 commits 8 confirms 0 recov 0",
    );
    let (rounds, t1) = gossip_until_confirmed(&mut c, 1, t);
    t = t1;
    assert_eq!(rounds, 4);
    check(
        &c,
        &keys,
        "0>2,3 2>3,0 2>3,0 3>0,2 0>2,3 2>3,0 2>3,0 3>0,2 | parked 0 | leader Some(0) term 1 idx 10 | lost 0 promo 0 commits 10 confirms 1 recov 1",
    );

    // Node 3 is listed in no group: it becomes an island.
    t += Duration::from_secs(1);
    c.partition_network(&[vec![0, 1, 2]], t);
    check(
        &c,
        &keys,
        "0>2,3 2>3,0 2>3,0 3>0,2 0>2,3 2>3,0 2>3,0 3>0,2 | parked 0 | leader Some(0) term 1 idx 10 | lost 0 promo 0 commits 10 confirms 1 recov 1",
    );

    // The leader's replica dies; the pump elects on the majority side.
    c.crash_coordinator(0, t);
    check(
        &c,
        &keys,
        "0>2,3 2>3,0 2>3,0 3>0,2 0>2,3 2>3,0 2>3,0 3>0,2 | parked 0 | leader None term 1 idx 10 | lost 0 promo 0 commits 10 confirms 1 recov 1",
    );
    for _ in 0..4 {
        t += Duration::from_millis(400);
        c.coordinator_pump(t);
    }
    check(
        &c,
        &keys,
        "0>2,3 2>3,0 2>3,0 3>0,2 0>2,3 2>3,0 2>3,0 3>0,2 | parked 0 | leader Some(1) term 2 idx 10 | lost 0 promo 0 commits 10 confirms 1 recov 1",
    );

    // The island bounces its write; the majority side commits.
    let island = Key::from("t/island");
    let w = c.write(3, &island, Value::synthetic(500), t);
    assert_eq!(w.result, Err(RcError::Transient));
    let main = Key::from("t/main");
    c.write(2, &main, Value::synthetic(500), t).result.unwrap();
    keys.push(island);
    keys.push(main);
    check(
        &c,
        &keys,
        "0>2,3 2>3,0 2>3,0 3>0,2 0>2,3 2>3,0 2>3,0 3>0,2 - 2>0 | parked 0 | leader Some(1) term 2 idx 11 | lost 0 promo 0 commits 11 confirms 1 recov 1",
    );

    // Quorum-side probes confirm the island dead (fencing its masters);
    // the island's own verdicts on the others park.
    let (rounds, t1) = gossip_until_confirmed(&mut c, 3, t);
    t = t1;
    assert_eq!(rounds, 7);
    check(
        &c,
        &keys,
        "0>2 2>0 2>0 0>2 0>2 2>0 2>0 0>2 - 2>0 | parked 1 | leader Some(1) term 2 idx 13 | lost 0 promo 0 commits 13 confirms 3 recov 2",
    );

    // Heal, rejoin the crashed node, restart the crashed replica.
    t += Duration::from_secs(1);
    c.heal_partition(t);
    check(
        &c,
        &keys,
        "0>2,3 2>0,3 2>0,3 0>2,3 0>2,3 2>0,3 2>0,3 0>2,3 - 2>0,3 | parked 0 | leader Some(1) term 2 idx 13 | lost 0 promo 0 commits 13 confirms 3 recov 2",
    );
    t += Duration::from_secs(1);
    c.restart_node(1, t);
    check(
        &c,
        &keys,
        "0>2,3 2>0,3 2>0,3 0>2,3 0>2,3 2>0,3 2>0,3 0>2,3 - 2>0,3 | parked 0 | leader Some(1) term 2 idx 13 | lost 0 promo 0 commits 13 confirms 3 recov 2",
    );
    t += Duration::from_secs(1);
    c.restart_coordinator(0, t);
    check(
        &c,
        &keys,
        "0>2,3 2>0,3 2>0,3 0>2,3 0>2,3 2>0,3 2>0,3 0>2,3 - 2>0,3 | parked 0 | leader Some(1) term 2 idx 13 | lost 0 promo 0 commits 13 confirms 3 recov 2",
    );

    // Probes readmit the healed island and the restarted node.
    let mut rounds = 0;
    while c.member_state(1) != MemberState::Alive || c.member_state(3) != MemberState::Alive {
        assert!(rounds < 20, "never readmitted");
        rounds += 1;
        t += PROBE_PERIOD;
        c.gossip_round(t);
    }
    assert_eq!(rounds, 2);
    check(
        &c,
        &keys,
        "0>2,3 2>0,3 2>0,3 0>2,3 0>2,3 2>0,3 2>0,3 0>2,3 - 2>0,3 | parked 0 | leader Some(1) term 2 idx 13 | lost 0 promo 0 commits 13 confirms 3 recov 2",
    );
}
