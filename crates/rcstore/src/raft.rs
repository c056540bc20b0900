//! Raft-style replicated coordinator — the control plane's consensus core.
//!
//! With the replicated control plane on
//! ([`crate::ClusterConfig::control_plane`]), the RAMCloud-model
//! coordinator (tablet map, replica placement) runs as a group of
//! [`COORDINATOR_REPLICAS`] replicas, co-located with the first storage
//! nodes. The group carries every tablet-map mutation through a
//! replicated log, commits on majority acknowledgement, elects a
//! leader with per-seed randomized timeouts when the current one dies or
//! is partitioned away, and catches restarted replicas up by log replay —
//! or by snapshot install once they lag past [`SNAPSHOT_LAG`] entries.
//!
//! The model is deliberately compact rather than a full Raft port (no
//! per-replica divergent logs, no vote RPCs): the log is its indices —
//! `last_index`, `commit_index` and a per-replica `match_index` — because
//! no decision reads an entry's contents. That is exactly the observable
//! surface the simulation needs — *when* is a mutation committed, *who*
//! may commit it, and *what happens* to lagging or minority replicas —
//! and it is bounded by construction. All timing runs on the virtual
//! clock and all randomness comes from one seeded stream, so every run is
//! byte-reproducible per seed (ofc-lint D1). With the control plane off
//! no group exists: the cluster's single coordinator commits for free and
//! registers no `raft.*` metric.

use crate::membership::Partition;
use crate::NodeId;
use ofc_simtime::SimTime;
use ofc_telemetry::{Counter, Gauge, Telemetry};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Identifier of a coordinator replica. Replica `r` is co-located with
/// storage node `r`, so a network partition of the nodes partitions the
/// coordinator group the same way.
pub type ReplicaId = usize;

/// Replicas in the coordinator group: the smallest group that survives
/// one replica failure.
pub const COORDINATOR_REPLICAS: usize = 3;

/// Seed of the election-timeout stream the runtime's control plane uses
/// ([`crate::ClusterConfig::control_plane`] carries the seed, so tests
/// can draw other election orders).
pub const ELECTION_SEED: u64 = 0x0fc_c09d;

/// Lower bound of the randomized election timeout.
pub const ELECTION_TIMEOUT_MIN: Duration = Duration::from_millis(150);

/// Upper bound of the randomized election timeout.
pub const ELECTION_TIMEOUT_MAX: Duration = Duration::from_millis(300);

/// Leader heartbeat / follower catch-up cadence (drives the coordinator
/// tick the runtime schedules).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);

/// Latency charged to a client operation for the majority-ack round trip
/// of each committed command.
pub const COMMIT_LATENCY: Duration = Duration::from_micros(120);

/// A rejoining replica lagging more than this many log entries behind the
/// commit index catches up by snapshot install instead of replay.
pub const SNAPSHOT_LAG: u64 = 256;

/// Proposal failure: no leader backed by a reachable replica majority.
/// The cluster surfaces this to clients as [`crate::RcError::Transient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoQuorum;

#[derive(Debug)]
struct RaftMetrics {
    elections: Counter,
    term: Gauge,
    log_len: Gauge,
    snapshot_installs: Counter,
    commits: Counter,
    no_quorum_rejects: Counter,
}

impl RaftMetrics {
    fn new(t: &Telemetry) -> Self {
        RaftMetrics {
            elections: t.counter("raft.elections"),
            term: t.gauge("raft.term"),
            log_len: t.gauge("raft.log_len"),
            snapshot_installs: t.counter("raft.snapshot_installs"),
            commits: t.counter("raft.commits"),
            no_quorum_rejects: t.counter("raft.no_quorum_rejects"),
        }
    }
}

#[derive(Debug, Clone)]
struct Replica {
    up: bool,
    /// Highest log index known replicated on this replica.
    match_index: u64,
    /// State below this index arrived via snapshot install, not replay.
    snapshot_index: u64,
    /// This replica's current randomized election timeout.
    timeout: Duration,
}

/// The replicated coordinator group. See the module docs.
#[derive(Debug)]
pub struct ReplicatedCoordinator {
    replicas: Vec<Replica>,
    term: u64,
    leader: Option<ReplicaId>,
    /// When the group first observed the current leaderless period.
    leader_lost_at: Option<SimTime>,
    /// Index of the last appended entry (1-based; 0 = empty log).
    last_index: u64,
    /// Index of the last majority-committed entry.
    commit_index: u64,
    rng: ChaCha8Rng,
    metrics: RaftMetrics,
}

impl ReplicatedCoordinator {
    /// Builds the coordinator group, drawing election timeouts from the
    /// `seed` stream, with replica 0 leading term 1.
    pub fn new(seed: u64, telemetry: &Telemetry) -> Self {
        let replicas = vec![
            Replica {
                up: true,
                match_index: 0,
                snapshot_index: 0,
                timeout: ELECTION_TIMEOUT_MIN,
            };
            COORDINATOR_REPLICAS
        ];
        let mut coord = ReplicatedCoordinator {
            replicas,
            term: 1,
            leader: Some(0),
            leader_lost_at: None,
            last_index: 0,
            commit_index: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            metrics: RaftMetrics::new(telemetry),
        };
        coord.randomize_timeouts();
        coord
    }

    /// The current leader, if one holds a reachable majority.
    pub fn leader(&self) -> Option<ReplicaId> {
        self.leader
    }

    /// The current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Index of the last appended entry.
    pub fn last_index(&self) -> u64 {
        self.last_index
    }

    /// Index of the last majority-committed entry.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Whether replica `r` is up.
    pub fn replica_up(&self, r: ReplicaId) -> bool {
        self.replicas.get(r).is_some_and(|rep| rep.up)
    }

    /// Crashes a coordinator replica. The tablet state machine survives on
    /// the surviving majority; a crashed leader triggers an election after
    /// the (seeded) timeout.
    pub fn crash_replica(&mut self, r: ReplicaId, now: SimTime) {
        let Some(rep) = self.replicas.get_mut(r) else {
            return;
        };
        if !rep.up {
            return;
        }
        rep.up = false;
        if self.leader == Some(r) {
            self.leader = None;
            self.leader_lost_at = Some(now);
        }
    }

    /// Restarts a crashed replica. It catches up on the next tick: by log
    /// replay when it lags at most [`SNAPSHOT_LAG`] entries, by snapshot
    /// install otherwise.
    pub fn restart_replica(&mut self, r: ReplicaId, _now: SimTime) {
        if let Some(rep) = self.replicas.get_mut(r) {
            rep.up = true;
        }
    }

    /// Whether replica `from`'s side of `partition` holds a majority of
    /// the coordinator group (counting only up replicas).
    fn majority_from(&self, from: ReplicaId, partition: &Partition) -> bool {
        let acks = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(i, rep)| rep.up && partition.reachable(from, *i))
            .count();
        acks * 2 > self.replicas.len()
    }

    /// Whether the current leader is alive and backed by a reachable
    /// majority.
    fn leader_valid(&self, partition: &Partition) -> bool {
        match self.leader {
            Some(l) => self.replicas[l].up && self.majority_from(l, partition),
            None => false,
        }
    }

    /// Drives elections and follower catch-up. Called by the runtime's
    /// coordinator tick and as a prelude to every proposal.
    pub fn tick(&mut self, now: SimTime, partition: &Partition) {
        if self.leader_valid(partition) {
            self.leader_lost_at = None;
            self.catch_up_followers(partition);
            return;
        }
        // Leaderless (or the leader lost its majority): start — or
        // continue — an election round.
        let lost_at = *self.leader_lost_at.get_or_insert(now);
        self.leader = None;
        // The winner is the quorum-capable up replica whose randomized
        // timeout fires first (ties break on the lower id, mirroring
        // Raft's first-candidate-to-campaign advantage).
        let winner = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(i, rep)| rep.up && self.majority_from(*i, partition))
            .min_by_key(|(i, rep)| (rep.timeout, *i))
            .map(|(i, rep)| (i, rep.timeout));
        let Some((winner, timeout)) = winner else {
            return; // No side can form a quorum; stay headless.
        };
        if now < lost_at + timeout {
            return; // Timeout not yet elapsed; stay in the election window.
        }
        self.term += 1;
        self.leader = Some(winner);
        self.leader_lost_at = None;
        self.randomize_timeouts();
        self.metrics.elections.inc();
        self.metrics.term.set(now, self.term as f64);
        self.catch_up_followers(partition);
    }

    /// Brings every reachable up follower to the commit index: log replay
    /// within the lag horizon, snapshot install past it.
    fn catch_up_followers(&mut self, partition: &Partition) {
        let Some(leader) = self.leader else {
            return;
        };
        let commit = self.commit_index;
        let lag_horizon = SNAPSHOT_LAG;
        let mut installs = 0u64;
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if !rep.up || !partition.reachable(leader, i) || rep.match_index >= commit {
                continue;
            }
            if commit - rep.match_index > lag_horizon {
                rep.snapshot_index = commit;
                installs += 1;
            }
            rep.match_index = commit;
        }
        if installs > 0 {
            self.metrics.snapshot_installs.add(installs);
        }
    }

    /// Whether a client on node `origin` can currently commit control-
    /// plane mutations: a valid leader exists and is reachable from
    /// `origin`.
    pub fn can_serve(&self, origin: NodeId, partition: &Partition) -> bool {
        match self.leader {
            Some(l) => self.leader_valid(partition) && partition.reachable(origin, l),
            None => false,
        }
    }

    /// Proposes one tablet-map mutation from node `origin` and commits it
    /// on a majority.
    ///
    /// Returns the commit latency to charge to the client operation, or
    /// [`NoQuorum`] when no reachable leader holds a majority (the caller
    /// surfaces this as a transient error).
    pub fn propose(
        &mut self,
        origin: NodeId,
        now: SimTime,
        partition: &Partition,
    ) -> Result<Duration, NoQuorum> {
        self.tick(now, partition);
        if !self.can_serve(origin, partition) {
            self.metrics.no_quorum_rejects.inc();
            return Err(NoQuorum);
        }
        // ofc-lint: allow(panic) reason=can_serve above guarantees a leader
        let leader = self.leader.unwrap();
        self.last_index += 1;
        // Replicate to every reachable up replica; the leader's majority
        // (checked above) commits the entry in one modeled round trip.
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if rep.up && partition.reachable(leader, i) {
                rep.match_index = self.last_index;
            }
        }
        self.commit_index = self.last_index;
        self.metrics.commits.inc();
        self.metrics.log_len.set(now, self.last_index as f64);
        Ok(COMMIT_LATENCY)
    }

    /// Draws a fresh randomized election timeout for every replica: the
    /// module's only RNG consumer.
    fn randomize_timeouts(&mut self) {
        let lo = ELECTION_TIMEOUT_MIN.as_nanos() as u64;
        let hi = (ELECTION_TIMEOUT_MAX.as_nanos() as u64).max(lo + 1);
        for rep in &mut self.replicas {
            rep.timeout = Duration::from_nanos(self.rng.gen_range(lo..hi));
        }
    }

    /// A replica's snapshot floor (state below this index arrived via
    /// snapshot install). Exposed for tests.
    pub fn snapshot_index(&self, r: ReplicaId) -> u64 {
        self.replicas
            .get(r)
            .map(|rep| rep.snapshot_index)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicated() -> ReplicatedCoordinator {
        ReplicatedCoordinator::new(ELECTION_SEED, &Telemetry::new())
    }

    #[test]
    fn single_replica_is_inert() {
        // With the control plane off no group exists: the single
        // coordinator is the origin of every mutation and commits for
        // free, without a log, an RNG or a raft metric.
        let t = Telemetry::new();
        let mut m = crate::membership::Membership::new(&crate::ClusterConfig::default(), &t);
        assert!(m.coordinator().is_none());
        assert_eq!(m.origin(), 0);
        for _ in 0..3 {
            assert_eq!(m.commit(), Duration::ZERO);
        }
        assert_eq!(t.metrics().counter("raft.commits"), 0);
        assert!(t.metrics().counters.is_empty());
    }

    #[test]
    fn replicated_commit_charges_latency_and_appends() {
        let mut c = replicated();
        let lat = c.propose(0, SimTime::ZERO, &Partition::CONNECTED).unwrap();
        assert_eq!(lat, COMMIT_LATENCY);
        assert_eq!(c.last_index(), 1);
        assert_eq!(c.commit_index(), 1);
    }

    #[test]
    fn leader_crash_triggers_timed_election() {
        let mut c = replicated();
        let t0 = SimTime::from_millis(10);
        c.crash_replica(0, t0);
        assert_eq!(c.leader(), None);
        // Immediately after the crash: inside the election window.
        assert!(c.propose(1, t0, &Partition::CONNECTED).is_err());
        // Past the maximum timeout a new leader must exist.
        let t1 = t0 + ELECTION_TIMEOUT_MAX;
        c.tick(t1, &Partition::CONNECTED);
        let leader = c.leader().expect("election completed");
        assert_ne!(leader, 0);
        assert!(c.term() > 1);
        assert!(c.propose(1, t1, &Partition::CONNECTED).is_ok());
    }

    #[test]
    fn minority_side_cannot_commit() {
        let mut c = replicated();
        // Nodes 0 and 1 on one side, node 2 alone.
        let partition = Partition::split(&[vec![0, 1], vec![2]], 3);
        let t = SimTime::from_millis(5);
        c.tick(t, &partition);
        // Leader 0 keeps its majority; a client on node 2 cannot reach it.
        assert!(c.propose(2, t, &partition).is_err());
        assert!(c.propose(0, t, &partition).is_ok());
        assert!(c.propose(1, t, &partition).is_ok());
    }

    #[test]
    fn isolated_leader_steps_down_and_majority_reelects() {
        let mut c = replicated();
        // Leader 0 cut off from 1 and 2.
        let partition = Partition::split(&[vec![0], vec![1, 2]], 3);
        let t0 = SimTime::from_millis(1);
        c.tick(t0, &partition);
        assert_eq!(c.leader(), None, "leader lost its majority");
        let t1 = t0 + ELECTION_TIMEOUT_MAX;
        c.tick(t1, &partition);
        let leader = c.leader().expect("majority side elects");
        assert!(leader == 1 || leader == 2);
        // Majority side serves; the isolated old leader's side does not.
        assert!(c.propose(1, t1, &partition).is_ok());
        assert!(c.propose(0, t1, &partition).is_err());
        // Healing restores service for everyone under the new leader.
        c.tick(t1, &Partition::CONNECTED);
        assert!(c.propose(0, t1, &Partition::CONNECTED).is_ok());
    }

    #[test]
    fn no_quorum_when_majority_down() {
        let mut c = replicated();
        let t = SimTime::from_millis(2);
        c.crash_replica(1, t);
        c.crash_replica(2, t);
        let t1 = t + Duration::from_secs(1);
        c.tick(t1, &Partition::CONNECTED);
        // Replica 0 alone is not a majority of 3.
        assert!(c.propose(0, t1, &Partition::CONNECTED).is_err());
        // Restarting one replica restores the quorum.
        c.restart_replica(1, t1);
        let t2 = t1 + Duration::from_secs(1);
        c.tick(t2, &Partition::CONNECTED);
        assert!(c.propose(0, t2, &Partition::CONNECTED).is_ok());
    }

    #[test]
    fn lagging_replica_catches_up_by_replay_then_snapshot() {
        let mut c = replicated();
        let t0 = SimTime::from_millis(1);
        c.crash_replica(2, t0);
        // Small lag: replay.
        for _ in 0..10 {
            c.propose(0, t0, &Partition::CONNECTED).unwrap();
        }
        c.restart_replica(2, t0);
        c.tick(t0, &Partition::CONNECTED);
        assert_eq!(c.snapshot_index(2), 0, "short lag replays the log");
        // Large lag: snapshot install.
        c.crash_replica(2, t0);
        for _ in 0..(SNAPSHOT_LAG + 5) {
            c.propose(0, t0, &Partition::CONNECTED).unwrap();
        }
        c.restart_replica(2, t0);
        c.tick(t0, &Partition::CONNECTED);
        assert_eq!(
            c.snapshot_index(2),
            c.commit_index(),
            "deep lag installs a snapshot"
        );
    }

    #[test]
    fn elections_are_deterministic_per_seed() {
        let run = |seed: u64| -> (u64, Vec<Option<ReplicaId>>) {
            let t = Telemetry::new();
            let mut c = ReplicatedCoordinator::new(seed, &t);
            let mut leaders = Vec::new();
            let mut now = SimTime::ZERO;
            for step in 0..6 {
                let r = step % COORDINATOR_REPLICAS;
                now += Duration::from_millis(400);
                c.crash_replica(r, now);
                now += Duration::from_millis(400);
                c.tick(now, &Partition::CONNECTED);
                leaders.push(c.leader());
                c.restart_replica(r, now);
                c.tick(now, &Partition::CONNECTED);
            }
            (c.term(), leaders)
        };
        assert_eq!(run(7), run(7), "same seed, same election history");
        let (_, a) = run(7);
        let (_, b) = run(8);
        // Different seeds draw different timeouts; the histories are
        // allowed to coincide but the streams must be independent.
        let _ = (a, b);
    }
}
