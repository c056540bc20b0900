//! Deterministic fault injection for the OFC stack.
//!
//! OFC's value proposition rests on the cache being *safe to lose*: RSDS
//! consistency via shadow objects and persistors (§6.2), crash recovery by
//! backup promotion (§5), and OOM retry at the booked size (§4). This crate
//! provides the machinery to exercise those guarantees mid-workload:
//!
//! * a **fault taxonomy** ([`FaultKind`]) covering node crashes and
//!   restarts, slow-node latency inflation, transient store-op errors, and
//!   persistor failures,
//! * a **seeded schedule** ([`ChaosSchedule`]) mixing one-shot events with
//!   Poisson-recurring ones — [`ChaosSchedule::generate`] expands it into a
//!   concrete, sorted event list that is bit-for-bit reproducible per seed,
//! * a **driver** ([`install`]) that plants the events on the simulator,
//!   counts them on the shared telemetry plane (`chaos.*`), and hands each
//!   one to a caller-supplied sink (the wiring to the cache cluster and the
//!   persistence plane lives with the caller, keeping this crate free of
//!   upward dependencies).
//!
//! Faults only make sense over virtual time, so everything here layers on
//! `ofc-simtime`; no wall clocks, no ambient RNG.

use ofc_simtime::{Sim, SimTime};
use ofc_telemetry::{Counter, Telemetry};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::rc::Rc;
use std::time::Duration;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Fail-stop crash of a storage node; recovery (promotion +
    /// re-replication) runs immediately, as in RAMCloud.
    NodeCrash(usize),
    /// A crashed node rejoins empty.
    NodeRestart(usize),
    /// Inflate the node's store-op latency by `factor` until a matching
    /// [`FaultKind::RestoreNodeSpeed`] fires.
    SlowNode {
        /// The degraded node.
        node: usize,
        /// Latency multiplier (> 1.0).
        factor: f64,
    },
    /// End of a [`FaultKind::SlowNode`] episode.
    RestoreNodeSpeed {
        /// The node returning to full speed.
        node: usize,
    },
    /// The next `ops` client store operations fail with a transient,
    /// retryable error.
    TransientStoreErrors {
        /// Number of operations to fail.
        ops: u32,
    },
    /// The next `count` asynchronous persistor runs fail (the persistor
    /// function crashes before uploading).
    PersistorFailure {
        /// Number of persistor runs to fail.
        count: u32,
    },
    /// Fail-stop crash of a coordinator replica (the control-plane
    /// process, independent of the co-located storage node). A crashed
    /// leader forces a timed re-election.
    CoordinatorCrash(usize),
    /// A crashed coordinator replica rejoins and catches up by log replay
    /// or snapshot install.
    CoordinatorRestart(usize),
    /// Isolate the current coordinator leader's node from every other
    /// node: the classic Raft drill — the majority side re-elects, the old
    /// leader steps down, and a [`FaultKind::HealPartition`] reunites them.
    LeaderIsolate,
    /// Split the network into the given reachability groups (nodes listed
    /// nowhere become singleton islands). Storage and coordinator planes
    /// split together.
    Partition {
        /// The reachability groups, each a list of node ids.
        groups: Vec<Vec<usize>>,
    },
    /// End of a partition episode: full connectivity returns, fenced
    /// copies are expunged, and deferred recoveries drain.
    HealPartition,
}

/// A fault pinned to a virtual-time instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Template for recurring faults; concrete nodes are drawn per occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTemplate {
    /// Crash a uniformly drawn node.
    Crash,
    /// Restart a uniformly drawn node.
    Restart,
    /// Slow a uniformly drawn node by `factor` for `duration`.
    Slow {
        /// Latency multiplier.
        factor: f64,
        /// Episode length; a matching restore event is emitted.
        duration: Duration,
    },
    /// Fail the next `ops` store operations.
    Transient {
        /// Number of operations to fail.
        ops: u32,
    },
    /// Fail the next `count` persistor runs.
    PersistorFail {
        /// Number of persistor runs to fail.
        count: u32,
    },
    /// Crash a uniformly drawn coordinator replica (requires
    /// [`ChaosSchedule::coordinators`]); a matching restart is emitted
    /// `heal_after` later so the group never drifts headless forever.
    CoordinatorCrash {
        /// How long the replica stays down.
        heal_after: Duration,
    },
    /// Isolate the coordinator leader; a matching heal is emitted
    /// `heal_after` later.
    LeaderIsolate {
        /// Episode length.
        heal_after: Duration,
    },
    /// Split the cluster along a uniformly drawn non-trivial bipartition;
    /// a matching heal is emitted `heal_after` later.
    Partition {
        /// Episode length.
        heal_after: Duration,
    },
}

/// A Poisson-recurring fault source: occurrences arrive with exponential
/// inter-arrival times of mean `mean_interval` within `[from, until]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Recurring {
    /// What recurs.
    pub template: FaultTemplate,
    /// Mean inter-arrival time of the Poisson process.
    pub mean_interval: Duration,
    /// First instant an occurrence may fire.
    pub from: SimTime,
    /// Last instant an occurrence may fire (restore events of a
    /// [`FaultTemplate::Slow`] episode may land later so no node stays
    /// degraded forever).
    pub until: SimTime,
}

/// A seeded, schedulable fault source.
///
/// Build with one-shot events and recurring templates, then expand with
/// [`ChaosSchedule::generate`]: the same seed always yields the same event
/// list, so every chaos run replays bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    nodes: usize,
    coordinators: usize,
    one_shots: Vec<FaultEvent>,
    recurring: Vec<Recurring>,
}

impl ChaosSchedule {
    /// An empty schedule over a cluster of `nodes` storage nodes.
    pub fn new(nodes: usize) -> Self {
        ChaosSchedule {
            nodes,
            coordinators: 0,
            one_shots: Vec::new(),
            recurring: Vec::new(),
        }
    }

    /// Declares the coordinator-replica count so
    /// [`FaultTemplate::CoordinatorCrash`] sources can draw targets.
    pub fn coordinators(mut self, coordinators: usize) -> Self {
        self.coordinators = coordinators;
        self
    }

    /// Adds a one-shot fault at `at`.
    pub fn one_shot(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.one_shots.push(FaultEvent { at, kind });
        self
    }

    /// Adds a Poisson-recurring fault source.
    pub fn recurring(mut self, r: Recurring) -> Self {
        self.recurring.push(r);
        self
    }

    /// Expands the schedule into a concrete, time-sorted event list.
    ///
    /// Deterministic: each recurring source draws from its own
    /// seed-derived `ChaCha8Rng` stream, so adding a source never perturbs
    /// the arrivals of the others.
    pub fn generate(&self, seed: u64) -> Vec<FaultEvent> {
        let mut events = self.one_shots.clone();
        for (i, r) in self.recurring.iter().enumerate() {
            let stream = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1);
            let mut rng = ChaCha8Rng::seed_from_u64(stream);
            let mean = r.mean_interval.as_secs_f64().max(1e-9);
            let mut t = r.from.as_secs_f64();
            loop {
                let u: f64 = rng.gen();
                t += -mean * (1.0 - u).ln();
                let at = SimTime::from_secs_f64(t);
                if at > r.until {
                    break;
                }
                match &r.template {
                    FaultTemplate::Crash => {
                        let node = rng.gen_range(0..self.nodes.max(1));
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::NodeCrash(node),
                        });
                    }
                    FaultTemplate::Restart => {
                        let node = rng.gen_range(0..self.nodes.max(1));
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::NodeRestart(node),
                        });
                    }
                    FaultTemplate::Slow { factor, duration } => {
                        let node = rng.gen_range(0..self.nodes.max(1));
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::SlowNode {
                                node,
                                factor: *factor,
                            },
                        });
                        events.push(FaultEvent {
                            at: at + *duration,
                            kind: FaultKind::RestoreNodeSpeed { node },
                        });
                    }
                    FaultTemplate::Transient { ops } => {
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::TransientStoreErrors { ops: *ops },
                        });
                    }
                    FaultTemplate::PersistorFail { count } => {
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::PersistorFailure { count: *count },
                        });
                    }
                    FaultTemplate::CoordinatorCrash { heal_after } => {
                        let replica = rng.gen_range(0..self.coordinators.max(1));
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::CoordinatorCrash(replica),
                        });
                        events.push(FaultEvent {
                            at: at + *heal_after,
                            kind: FaultKind::CoordinatorRestart(replica),
                        });
                    }
                    FaultTemplate::LeaderIsolate { heal_after } => {
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::LeaderIsolate,
                        });
                        events.push(FaultEvent {
                            at: at + *heal_after,
                            kind: FaultKind::HealPartition,
                        });
                    }
                    FaultTemplate::Partition { heal_after } => {
                        // A uniformly drawn non-trivial bipartition: node 0
                        // anchors one side, and at least one node lands on
                        // the other.
                        let n = self.nodes.max(2);
                        let mut a = vec![0usize];
                        let mut b = Vec::new();
                        for node in 1..n {
                            if rng.gen::<bool>() {
                                a.push(node);
                            } else {
                                b.push(node);
                            }
                        }
                        if b.is_empty() {
                            // ofc-lint: allow(panic) reason=n >= 2 and b empty means every node 1..n landed in a, so a holds at least two
                            b.push(a.pop().expect("side A holds at least two nodes"));
                        }
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::Partition { groups: vec![a, b] },
                        });
                        events.push(FaultEvent {
                            at: at + *heal_after,
                            kind: FaultKind::HealPartition,
                        });
                    }
                }
            }
        }
        // Stable sort: same-instant events keep insertion order.
        events.sort_by_key(|e| e.at);
        events
    }
}

/// Pre-registered handles for the `chaos.*` injection counters.
#[derive(Debug)]
struct ChaosMetrics {
    injected: Counter,
    crashes: Counter,
    restarts: Counter,
    slowdowns: Counter,
    transient_bursts: Counter,
    persistor_failures: Counter,
    coordinator_crashes: Counter,
    coordinator_restarts: Counter,
    leader_isolations: Counter,
    partitions: Counter,
}

impl ChaosMetrics {
    fn new(t: &Telemetry) -> Self {
        ChaosMetrics {
            injected: t.counter("chaos.faults_injected"),
            crashes: t.counter("chaos.node_crashes"),
            restarts: t.counter("chaos.node_restarts"),
            slowdowns: t.counter("chaos.slowdowns"),
            transient_bursts: t.counter("chaos.transient_bursts"),
            persistor_failures: t.counter("chaos.persistor_failures"),
            coordinator_crashes: t.counter("chaos.coordinator_crashes"),
            coordinator_restarts: t.counter("chaos.coordinator_restarts"),
            leader_isolations: t.counter("chaos.leader_isolations"),
            partitions: t.counter("chaos.partitions"),
        }
    }

    fn count(&self, kind: &FaultKind) {
        match kind {
            FaultKind::NodeCrash(_) => {
                self.injected.inc();
                self.crashes.inc();
            }
            FaultKind::NodeRestart(_) => {
                self.injected.inc();
                self.restarts.inc();
            }
            FaultKind::SlowNode { .. } => {
                self.injected.inc();
                self.slowdowns.inc();
            }
            // The paired restore is the end of a slowdown, not a fault.
            FaultKind::RestoreNodeSpeed { .. } => {}
            FaultKind::TransientStoreErrors { .. } => {
                self.injected.inc();
                self.transient_bursts.inc();
            }
            FaultKind::PersistorFailure { .. } => {
                self.injected.inc();
                self.persistor_failures.inc();
            }
            FaultKind::CoordinatorCrash(_) => {
                self.injected.inc();
                self.coordinator_crashes.inc();
            }
            FaultKind::CoordinatorRestart(_) => {
                self.injected.inc();
                self.coordinator_restarts.inc();
            }
            FaultKind::LeaderIsolate => {
                self.injected.inc();
                self.leader_isolations.inc();
            }
            FaultKind::Partition { .. } => {
                self.injected.inc();
                self.partitions.inc();
            }
            // The paired heal is the end of a partition, not a fault.
            FaultKind::HealPartition => {}
        }
    }
}

/// Receives each fault as it fires; wires the fault plane to the stack
/// under test (cache cluster, persistence plane, platform).
pub type FaultSink = Rc<dyn Fn(&mut Sim, &FaultKind)>;

/// Plants `events` on the simulator: at each event's instant the fault is
/// counted on `telemetry` (`chaos.*`) and handed to `sink`.
pub fn install(sim: &mut Sim, events: Vec<FaultEvent>, telemetry: &Telemetry, sink: FaultSink) {
    let metrics = Rc::new(ChaosMetrics::new(telemetry));
    for ev in events {
        let metrics = Rc::clone(&metrics);
        let sink = Rc::clone(&sink);
        sim.schedule_at(ev.at, move |sim| {
            metrics.count(&ev.kind);
            sink(sim, &ev.kind);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn generate_is_deterministic_per_seed() {
        let schedule = ChaosSchedule::new(4)
            .one_shot(SimTime::from_secs(10), FaultKind::NodeCrash(2))
            .recurring(Recurring {
                template: FaultTemplate::Transient { ops: 3 },
                mean_interval: Duration::from_secs(30),
                from: SimTime::ZERO,
                until: SimTime::from_secs(600),
            })
            .recurring(Recurring {
                template: FaultTemplate::Slow {
                    factor: 4.0,
                    duration: Duration::from_secs(20),
                },
                mean_interval: Duration::from_secs(120),
                from: SimTime::from_secs(60),
                until: SimTime::from_secs(600),
            });
        let a = schedule.generate(7);
        let b = schedule.generate(7);
        let c = schedule.generate(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.len() > 2, "recurring sources produced occurrences");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
    }

    #[test]
    fn slow_episodes_always_end() {
        let schedule = ChaosSchedule::new(2).recurring(Recurring {
            template: FaultTemplate::Slow {
                factor: 8.0,
                duration: Duration::from_secs(15),
            },
            mean_interval: Duration::from_secs(60),
            from: SimTime::ZERO,
            until: SimTime::from_secs(900),
        });
        let events = schedule.generate(42);
        let slows = events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::SlowNode { .. }))
            .count();
        let restores = events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::RestoreNodeSpeed { .. }))
            .count();
        assert_eq!(slows, restores, "every slowdown pairs with a restore");
        assert!(slows > 0);
    }

    #[test]
    fn failover_sources_pair_heals_and_leave_existing_streams_untouched() {
        let base = ChaosSchedule::new(4)
            .recurring(Recurring {
                template: FaultTemplate::Crash,
                mean_interval: Duration::from_secs(60),
                from: SimTime::ZERO,
                until: SimTime::from_secs(600),
            })
            .recurring(Recurring {
                template: FaultTemplate::Slow {
                    factor: 4.0,
                    duration: Duration::from_secs(30),
                },
                mean_interval: Duration::from_secs(90),
                from: SimTime::ZERO,
                until: SimTime::from_secs(600),
            });
        let with_failover = base
            .clone()
            .coordinators(3)
            .recurring(Recurring {
                template: FaultTemplate::CoordinatorCrash {
                    heal_after: Duration::from_secs(20),
                },
                mean_interval: Duration::from_secs(80),
                from: SimTime::ZERO,
                until: SimTime::from_secs(600),
            })
            .recurring(Recurring {
                template: FaultTemplate::LeaderIsolate {
                    heal_after: Duration::from_secs(15),
                },
                mean_interval: Duration::from_secs(120),
                from: SimTime::ZERO,
                until: SimTime::from_secs(600),
            })
            .recurring(Recurring {
                template: FaultTemplate::Partition {
                    heal_after: Duration::from_secs(25),
                },
                mean_interval: Duration::from_secs(150),
                from: SimTime::ZERO,
                until: SimTime::from_secs(600),
            });
        let a = base.generate(7);
        let b = with_failover.generate(7);
        // Per-source RNG streams: pre-existing arrivals are byte-identical
        // with the failover sources riding along.
        let legacy = |evs: &[FaultEvent]| {
            evs.iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        FaultKind::NodeCrash(_)
                            | FaultKind::NodeRestart(_)
                            | FaultKind::SlowNode { .. }
                            | FaultKind::RestoreNodeSpeed { .. }
                    )
                })
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(legacy(&a), legacy(&b));
        assert_eq!(with_failover.generate(7), b, "deterministic per seed");

        // Every coordinator crash draws a replica in range and pairs with a
        // restart of the same replica exactly heal_after later.
        let crashes: Vec<(SimTime, usize)> = b
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::CoordinatorCrash(r) => Some((e.at, r)),
                _ => None,
            })
            .collect();
        assert!(!crashes.is_empty(), "coordinator source fired");
        for (at, r) in &crashes {
            assert!(*r < 3, "replica target in range");
            assert!(
                b.iter().any(|e| e.at == *at + Duration::from_secs(20)
                    && matches!(e.kind, FaultKind::CoordinatorRestart(x) if x == *r)),
                "paired restart present"
            );
        }

        // Isolations and partitions each pair with a heal, and partitions
        // are non-trivial bipartitions covering every node exactly once.
        let mut heals = 0usize;
        for e in &b {
            match &e.kind {
                FaultKind::LeaderIsolate => {
                    assert!(b.iter().any(|h| h.at == e.at + Duration::from_secs(15)
                        && matches!(h.kind, FaultKind::HealPartition)));
                }
                FaultKind::Partition { groups } => {
                    assert_eq!(groups.len(), 2);
                    assert!(groups.iter().all(|g| !g.is_empty()), "no empty side");
                    let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
                    all.sort_unstable();
                    assert_eq!(all, vec![0, 1, 2, 3], "bipartition covers the cluster");
                    assert!(b.iter().any(|h| h.at == e.at + Duration::from_secs(25)
                        && matches!(h.kind, FaultKind::HealPartition)));
                }
                FaultKind::HealPartition => heals += 1,
                _ => {}
            }
        }
        let episodes = b
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::LeaderIsolate | FaultKind::Partition { .. }
                )
            })
            .count();
        assert!(episodes > 0, "isolation/partition sources fired");
        assert_eq!(heals, episodes, "one heal per episode");
    }

    #[test]
    fn failover_events_count_on_their_own_counters() {
        let telemetry = Telemetry::new();
        let mut sim = Sim::new(0);
        let events = vec![
            FaultEvent {
                at: SimTime::from_secs(1),
                kind: FaultKind::CoordinatorCrash(2),
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::LeaderIsolate,
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: FaultKind::Partition {
                    groups: vec![vec![0, 1], vec![2, 3]],
                },
            },
            FaultEvent {
                at: SimTime::from_secs(4),
                kind: FaultKind::HealPartition,
            },
            FaultEvent {
                at: SimTime::from_secs(5),
                kind: FaultKind::CoordinatorRestart(2),
            },
        ];
        let seen: Rc<RefCell<Vec<FaultKind>>> = Rc::default();
        let sink = Rc::clone(&seen);
        install(
            &mut sim,
            events,
            &telemetry,
            Rc::new(move |_, kind| sink.borrow_mut().push(kind.clone())),
        );
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(seen.borrow().len(), 5);
        let m = telemetry.metrics();
        assert_eq!(m.counter("chaos.coordinator_crashes"), 1);
        assert_eq!(m.counter("chaos.coordinator_restarts"), 1);
        assert_eq!(m.counter("chaos.leader_isolations"), 1);
        assert_eq!(m.counter("chaos.partitions"), 1);
        // The heal ends an episode; it is not itself a fault.
        assert_eq!(m.counter("chaos.faults_injected"), 4);
    }

    #[test]
    fn install_fires_events_and_counts_them() {
        let telemetry = Telemetry::new();
        let mut sim = Sim::new(0);
        let events = vec![
            FaultEvent {
                at: SimTime::from_secs(1),
                kind: FaultKind::NodeCrash(0),
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::TransientStoreErrors { ops: 5 },
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: FaultKind::RestoreNodeSpeed { node: 0 },
            },
        ];
        let seen: Rc<RefCell<Vec<FaultKind>>> = Rc::default();
        let sink = Rc::clone(&seen);
        install(
            &mut sim,
            events,
            &telemetry,
            Rc::new(move |_, kind| sink.borrow_mut().push(kind.clone())),
        );
        sim.run();
        assert_eq!(seen.borrow().len(), 3);
        let m = telemetry.metrics();
        assert_eq!(m.counter("chaos.faults_injected"), 2, "restore not a fault");
        assert_eq!(m.counter("chaos.node_crashes"), 1);
        assert_eq!(m.counter("chaos.transient_bursts"), 1);
    }
}
