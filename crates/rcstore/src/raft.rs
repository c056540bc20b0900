//! Raft-style replicated coordinator — the control plane's consensus core.
//!
//! The RAMCloud-model coordinator (tablet map, replica placement) was a
//! single in-memory authority inside [`crate::cluster::Cluster`]: crash
//! it and the cluster is headless. This module replicates it: a small
//! fixed group of coordinator replicas (co-located with the first
//! `replicas` storage nodes) carries every tablet-map mutation through a
//! replicated log, commits on majority acknowledgement, elects a
//! leader with per-seed randomized timeouts when the current one dies or
//! is partitioned away, and catches restarted replicas up by log replay —
//! or by snapshot install once they lag past the compaction horizon.
//!
//! The model is deliberately compact rather than a full Raft port (no
//! per-replica divergent logs, no vote RPCs): replication state is a
//! per-replica `match_index` against one authoritative log, which is
//! exactly the observable surface the simulation needs — *when* is a
//! command committed, *who* may commit it, and *what happens* to lagging
//! or minority replicas. All timing runs on the virtual clock and all
//! randomness comes from one seeded stream, so every run is
//! byte-reproducible per seed (ofc-lint D1).
//!
//! **Default-path guarantee:** with `replicas <= 1` the coordinator is the
//! legacy single authority — [`ReplicatedCoordinator::propose`] returns
//! `Ok(Duration::ZERO)` without touching the log, the RNG, or the
//! telemetry registry, so single-replica configurations stay byte-
//! identical to the pre-replication code.

use crate::{Key, NodeId};
use ofc_simtime::SimTime;
use ofc_telemetry::{Counter, Gauge, Telemetry};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::time::Duration;

/// Identifier of a coordinator replica. Replica `r` is co-located with
/// storage node `r`, so a network partition of the nodes partitions the
/// coordinator group the same way.
pub type ReplicaId = usize;

/// Lower bound of the randomized election timeout.
pub const ELECTION_TIMEOUT_MIN: Duration = Duration::from_millis(150);

/// Upper bound of the randomized election timeout.
pub const ELECTION_TIMEOUT_MAX: Duration = Duration::from_millis(300);

/// Leader heartbeat / follower catch-up cadence (drives the coordinator
/// tick the runtime schedules).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);

/// Latency charged to a client operation for the majority-ack round trip
/// of each committed command (only when `replicas > 1`).
pub const COMMIT_LATENCY: Duration = Duration::from_micros(120);

/// A rejoining replica lagging more than this many log entries behind the
/// commit index catches up by snapshot install instead of replay.
pub const SNAPSHOT_LAG: u64 = 256;

/// Retained log suffix; older entries are folded into the snapshot.
pub const LOG_RETAIN: usize = 1024;

/// Replicated-coordinator configuration.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// Number of coordinator replicas. `1` (the default) is the legacy
    /// single in-memory authority: no log, no elections, zero overhead.
    pub replicas: usize,
    /// Seed of the election-timeout randomization stream.
    pub seed: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            replicas: 1,
            seed: 0x0fc_c09d,
        }
    }
}

/// A state-machine command carried by the replicated log. The applied
/// state machine is the cluster's tablet and replica maps; the log
/// records every mutation so tests can audit that no committed assignment
/// is lost across failovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Master + backup placement of a key (writes, migrations, recovery
    /// promotions).
    AssignTablet {
        /// The object key.
        key: Key,
        /// Master node after the mutation.
        master: NodeId,
        /// Backup nodes after the mutation.
        backups: Vec<NodeId>,
    },
    /// Retirement of a key's placement (eviction, deletion).
    RetireTablet {
        /// The object key.
        key: Key,
    },
}

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Term the entry was proposed in.
    pub term: u64,
    /// 1-based log index.
    pub index: u64,
    /// The carried command.
    pub command: Command,
}

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
    /// Retained log suffix (older entries live in the snapshot).
    log: VecDeque<LogEntry>,
    /// Index of the last appended entry (1-based; 0 = empty log).
    last_index: u64,
    /// Index of the last majority-committed entry.
    commit_index: u64,
    rng: ChaCha8Rng,
    /// Registered only in replicated mode, so single-replica
    /// configurations leave the telemetry registry untouched.
    metrics: Option<RaftMetrics>,
}

impl ReplicatedCoordinator {
    /// Builds the coordinator group. With `cfg.replicas <= 1` the group is
    /// inert (see the module docs).
    pub fn new(cfg: RaftConfig, telemetry: &Telemetry) -> Self {
        let n = cfg.replicas.max(1);
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let replicas = vec![
            Replica {
                up: true,
                match_index: 0,
                snapshot_index: 0,
                timeout: ELECTION_TIMEOUT_MIN,
            };
            n
        ];
        let mut coord = ReplicatedCoordinator {
            replicas,
            term: 1,
            leader: Some(0),
            leader_lost_at: None,
            log: VecDeque::new(),
            last_index: 0,
            commit_index: 0,
            rng,
            metrics: None,
        };
        if coord.is_replicated() {
            coord.randomize_timeouts();
            coord.metrics = Some(RaftMetrics::new(telemetry));
        }
        coord
    }

    /// Re-registers the coordinator metrics on a shared telemetry plane
    /// (no-op in single-replica mode).
    pub fn bind_telemetry(&mut self, telemetry: &Telemetry) {
        if self.is_replicated() {
            self.metrics = Some(RaftMetrics::new(telemetry));
        }
    }

    /// Whether consensus is actually in play (`replicas > 1`).
    pub fn is_replicated(&self) -> bool {
        self.replicas.len() > 1
    }

    /// Number of coordinator replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
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

    /// The retained (uncompacted) log suffix, oldest first.
    pub fn retained_log(&self) -> impl Iterator<Item = &LogEntry> {
        self.log.iter()
    }

    /// Looks up a retained entry by index (`None` once compacted away).
    pub fn entry(&self, index: u64) -> Option<&LogEntry> {
        let first = self.first_retained_index()?;
        if index < first || index > self.last_index {
            return None;
        }
        self.log.get((index - first) as usize)
    }

    fn first_retained_index(&self) -> Option<u64> {
        self.log.front().map(|e| e.index)
    }

    /// Crashes a coordinator replica. The tablet state machine survives on
    /// the surviving majority; a crashed leader triggers an election after
    /// the (seeded) timeout.
    pub fn crash_replica(&mut self, r: ReplicaId, now: SimTime) {
        if !self.is_replicated() {
            return;
        }
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
    /// replay when its lag fits the retained log, by snapshot install
    /// otherwise.
    pub fn restart_replica(&mut self, r: ReplicaId, _now: SimTime) {
        if !self.is_replicated() {
            return;
        }
        if let Some(rep) = self.replicas.get_mut(r) {
            rep.up = true;
        }
    }

    /// Whether node `a` can reach node `b` under `partition` (same group,
    /// or no partition at all).
    fn reachable(partition: Option<&[usize]>, a: usize, b: usize) -> bool {
        match partition {
            Some(groups) => groups.get(a) == groups.get(b),
            None => true,
        }
    }

    /// Whether replica `from`'s side of `partition` holds a majority of
    /// the coordinator group (counting only up replicas).
    fn majority_from(&self, from: ReplicaId, partition: Option<&[usize]>) -> bool {
        let acks = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(i, rep)| rep.up && Self::reachable(partition, from, *i))
            .count();
        acks * 2 > self.replicas.len()
    }

    /// Whether the current leader is alive and backed by a reachable
    /// majority.
    fn leader_valid(&self, partition: Option<&[usize]>) -> bool {
        match self.leader {
            Some(l) => self.replicas[l].up && self.majority_from(l, partition),
            None => false,
        }
    }

    /// Drives elections and follower catch-up. Called by the runtime's
    /// coordinator tick and as a prelude to every proposal; a no-op in
    /// single-replica mode.
    pub fn tick(&mut self, now: SimTime, partition: Option<&[usize]>) {
        if !self.is_replicated() {
            return;
        }
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
        if let Some(m) = &self.metrics {
            m.elections.inc();
            m.term.set(now, self.term as f64);
        }
        self.catch_up_followers(partition);
    }

    /// Brings every reachable up follower to the commit index: log replay
    /// within the retained suffix, snapshot install past the lag horizon.
    fn catch_up_followers(&mut self, partition: Option<&[usize]>) {
        let Some(leader) = self.leader else {
            return;
        };
        let commit = self.commit_index;
        let lag_horizon = SNAPSHOT_LAG;
        let mut installs = 0u64;
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if !rep.up || !Self::reachable(partition, leader, i) || rep.match_index >= commit {
                continue;
            }
            if commit - rep.match_index > lag_horizon {
                rep.snapshot_index = commit;
                installs += 1;
            }
            rep.match_index = commit;
        }
        if installs > 0 {
            if let Some(m) = &self.metrics {
                m.snapshot_installs.add(installs);
            }
        }
    }

    /// Whether a client on node `origin` can currently commit control-
    /// plane mutations: a valid leader exists and is reachable from
    /// `origin`. Always true in single-replica mode.
    pub fn can_serve(&self, origin: NodeId, partition: Option<&[usize]>) -> bool {
        if !self.is_replicated() {
            return true;
        }
        match self.leader {
            Some(l) => self.leader_valid(partition) && Self::reachable(partition, origin, l),
            None => false,
        }
    }

    /// Proposes a command from node `origin` and commits it on a majority.
    ///
    /// Returns the commit latency to charge to the client operation, or
    /// [`NoQuorum`] when no reachable leader holds a majority (the caller
    /// surfaces this as a transient error). In single-replica mode this is
    /// free and infallible.
    pub fn propose(
        &mut self,
        command: Command,
        origin: NodeId,
        now: SimTime,
        partition: Option<&[usize]>,
    ) -> Result<Duration, NoQuorum> {
        if !self.is_replicated() {
            return Ok(Duration::ZERO);
        }
        self.tick(now, partition);
        if !self.can_serve(origin, partition) {
            if let Some(m) = &self.metrics {
                m.no_quorum_rejects.inc();
            }
            return Err(NoQuorum);
        }
        // ofc-lint: allow(panic) reason=can_serve above guarantees a leader
        let leader = self.leader.unwrap();
        self.last_index += 1;
        self.log.push_back(LogEntry {
            term: self.term,
            index: self.last_index,
            command,
        });
        // Replicate to every reachable up replica; the leader's majority
        // (checked above) commits the entry in one modeled round trip.
        for (i, rep) in self.replicas.iter_mut().enumerate() {
            if rep.up && Self::reachable(partition, leader, i) {
                rep.match_index = self.last_index;
            }
        }
        self.commit_index = self.last_index;
        while self.log.len() > LOG_RETAIN {
            self.log.pop_front();
        }
        if let Some(m) = &self.metrics {
            m.commits.inc();
            m.log_len.set(now, self.last_index as f64);
        }
        Ok(COMMIT_LATENCY)
    }

    /// Draws a fresh randomized election timeout for every replica. The
    /// only RNG consumer in the module — and it runs only in replicated
    /// mode, so default-path runs never touch the stream.
    fn randomize_timeouts(&mut self) {
        let lo = ELECTION_TIMEOUT_MIN.as_nanos() as u64;
        let hi = (ELECTION_TIMEOUT_MAX.as_nanos() as u64).max(lo + 1);
        for rep in &mut self.replicas {
            rep.timeout = Duration::from_nanos(self.rng.gen_range(lo..hi));
        }
    }

    /// Count of up replicas.
    pub fn up_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.up).count()
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

    fn replicated(n: usize) -> ReplicatedCoordinator {
        let t = Telemetry::standalone();
        ReplicatedCoordinator::new(
            RaftConfig {
                replicas: n,
                ..RaftConfig::default()
            },
            &t,
        )
    }

    fn cmd(i: u64) -> Command {
        Command::AssignTablet {
            key: Key::from(format!("k{i}").as_str()),
            master: 0,
            backups: vec![1, 2],
        }
    }

    #[test]
    fn single_replica_is_inert() {
        let mut c = replicated(1);
        assert!(!c.is_replicated());
        let lat = c.propose(cmd(0), 0, SimTime::ZERO, None).unwrap();
        assert_eq!(lat, Duration::ZERO);
        assert_eq!(c.last_index(), 0, "inert mode appends nothing");
        assert_eq!(c.leader(), Some(0));
    }

    #[test]
    fn replicated_commit_charges_latency_and_appends() {
        let mut c = replicated(3);
        let lat = c.propose(cmd(0), 0, SimTime::ZERO, None).unwrap();
        assert_eq!(lat, COMMIT_LATENCY);
        assert_eq!(c.last_index(), 1);
        assert_eq!(c.commit_index(), 1);
        assert!(matches!(
            c.entry(1).unwrap().command,
            Command::AssignTablet { .. }
        ));
    }

    #[test]
    fn leader_crash_triggers_timed_election() {
        let mut c = replicated(3);
        let t0 = SimTime::from_millis(10);
        c.crash_replica(0, t0);
        assert_eq!(c.leader(), None);
        // Immediately after the crash: inside the election window.
        assert!(c.propose(cmd(0), 1, t0, None).is_err());
        // Past the maximum timeout a new leader must exist.
        let t1 = t0 + ELECTION_TIMEOUT_MAX;
        c.tick(t1, None);
        let leader = c.leader().expect("election completed");
        assert_ne!(leader, 0);
        assert!(c.term() > 1);
        assert!(c.propose(cmd(1), 1, t1, None).is_ok());
    }

    #[test]
    fn minority_side_cannot_commit() {
        let mut c = replicated(3);
        // Nodes 0 and 1 on one side, node 2 alone.
        let partition = vec![0usize, 0, 1];
        let t = SimTime::from_millis(5);
        c.tick(t, Some(&partition));
        // Leader 0 keeps its majority; a client on node 2 cannot reach it.
        assert!(c.propose(cmd(0), 2, t, Some(&partition)).is_err());
        assert!(c.propose(cmd(1), 0, t, Some(&partition)).is_ok());
        assert!(c.propose(cmd(2), 1, t, Some(&partition)).is_ok());
    }

    #[test]
    fn isolated_leader_steps_down_and_majority_reelects() {
        let mut c = replicated(3);
        // Leader 0 cut off from 1 and 2.
        let partition = vec![0usize, 1, 1];
        let t0 = SimTime::from_millis(1);
        c.tick(t0, Some(&partition));
        assert_eq!(c.leader(), None, "leader lost its majority");
        let t1 = t0 + ELECTION_TIMEOUT_MAX;
        c.tick(t1, Some(&partition));
        let leader = c.leader().expect("majority side elects");
        assert!(leader == 1 || leader == 2);
        // Majority side serves; the isolated old leader's side does not.
        assert!(c.propose(cmd(0), 1, t1, Some(&partition)).is_ok());
        assert!(c.propose(cmd(1), 0, t1, Some(&partition)).is_err());
        // Healing restores service for everyone under the new leader.
        c.tick(t1, None);
        assert!(c.propose(cmd(2), 0, t1, None).is_ok());
    }

    #[test]
    fn no_quorum_when_majority_down() {
        let mut c = replicated(3);
        let t = SimTime::from_millis(2);
        c.crash_replica(1, t);
        c.crash_replica(2, t);
        let t1 = t + Duration::from_secs(1);
        c.tick(t1, None);
        // Replica 0 alone is not a majority of 3.
        assert!(c.propose(cmd(0), 0, t1, None).is_err());
        // Restarting one replica restores the quorum.
        c.restart_replica(1, t1);
        let t2 = t1 + Duration::from_secs(1);
        c.tick(t2, None);
        assert!(c.propose(cmd(1), 0, t2, None).is_ok());
    }

    #[test]
    fn lagging_replica_catches_up_by_replay_then_snapshot() {
        let mut c = replicated(3);
        let t0 = SimTime::from_millis(1);
        c.crash_replica(2, t0);
        // Small lag: replay.
        for i in 0..10 {
            c.propose(cmd(i), 0, t0, None).unwrap();
        }
        c.restart_replica(2, t0);
        c.tick(t0, None);
        assert_eq!(c.snapshot_index(2), 0, "short lag replays the log");
        // Large lag: snapshot install.
        c.crash_replica(2, t0);
        for i in 0..(SNAPSHOT_LAG + 5) {
            c.propose(cmd(100 + i), 0, t0, None).unwrap();
        }
        c.restart_replica(2, t0);
        c.tick(t0, None);
        assert_eq!(
            c.snapshot_index(2),
            c.commit_index(),
            "deep lag installs a snapshot"
        );
    }

    #[test]
    fn log_compaction_bounds_memory() {
        let mut c = replicated(3);
        let retain = LOG_RETAIN;
        for i in 0..(retain as u64 + 100) {
            c.propose(cmd(i), 0, SimTime::ZERO, None).unwrap();
        }
        assert_eq!(c.retained_log().count(), retain);
        assert!(c.entry(1).is_none(), "old entries compacted away");
        assert!(c.entry(c.last_index()).is_some());
    }

    #[test]
    fn elections_are_deterministic_per_seed() {
        let run = |seed: u64| -> (u64, Vec<Option<ReplicaId>>) {
            let t = Telemetry::standalone();
            let mut c = ReplicatedCoordinator::new(RaftConfig { replicas: 5, seed }, &t);
            let mut leaders = Vec::new();
            let mut now = SimTime::ZERO;
            for step in 0..6 {
                now += Duration::from_millis(400);
                c.crash_replica(step % 5, now);
                now += Duration::from_millis(400);
                c.tick(now, None);
                leaders.push(c.leader());
                c.restart_replica(step % 5, now);
                c.tick(now, None);
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
