//! SWIM-style gossip membership — observed node liveness for the control
//! plane.
//!
//! With gossip enabled the coordinator no longer learns of node failures
//! by omniscience (the `crash_node` caller running recovery inline): each
//! probe round, every live node pings one seeded-random peer; an
//! unreachable or dead peer becomes **Suspect**, a suspect that survives
//! the confirmation window without a successful probe is **Confirmed
//! dead** (triggering the leader's re-replication walk), and a later
//! successful probe refutes the suspicion — or readmits a previously
//! confirmed node.
//!
//! Dissemination is modeled as instantaneous within a reachability group
//! (one shared membership table): SWIM's infection-style propagation delay
//! is folded into the probe period × confirmation window, which is the
//! scale the simulation observes. Network partitions make cross-group
//! probes fail, so both sides start suspecting each other — exactly the
//! false-suspicion / refutation dance SWIM is built around. Events carry
//! their observer so the cluster can act only on observations from the
//! quorum side.
//!
//! All timing runs on the virtual clock and the probe-target stream is
//! seeded, so rounds are byte-reproducible per seed (ofc-lint D1).
//! With `enabled = false` (the default) the plane registers no telemetry
//! and draws no randomness.

use crate::NodeId;
use ofc_simtime::SimTime;
use ofc_telemetry::{Counter, Telemetry};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Seed of the probe-target stream.
pub const PROBE_SEED: u64 = 0x905_51b;

/// Probe round cadence (drives the tick the runtime schedules).
pub const PROBE_PERIOD: Duration = Duration::from_secs(1);

/// How long a suspicion must survive unrefuted before the member is
/// confirmed dead.
pub const CONFIRM_AFTER: Duration = Duration::from_secs(3);

/// Gossip-membership configuration.
#[derive(Debug, Clone, Default)]
pub struct GossipConfig {
    /// Whether observed membership replaces coordinator omniscience.
    pub enabled: bool,
}

/// Observed liveness of a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Probes succeed (or no failure observed yet).
    Alive,
    /// A probe failed; awaiting confirmation or refutation.
    Suspect,
    /// The suspicion outlived the confirmation window.
    Dead,
}

/// A membership transition surfaced by a probe round. `observer` is the
/// probing node — the cluster acts on confirmations only when the
/// observer's side holds the coordinator quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipEvent {
    /// `node` newly suspected by `observer`.
    Suspected {
        /// The suspected member.
        node: NodeId,
        /// The probing node.
        observer: NodeId,
    },
    /// `node` confirmed dead (suspicion outlived the window).
    Confirmed {
        /// The confirmed-dead member.
        node: NodeId,
        /// The probing node.
        observer: NodeId,
    },
    /// A live probe refuted `node`'s suspicion.
    Refuted {
        /// The refuted member.
        node: NodeId,
        /// The probing node.
        observer: NodeId,
    },
    /// A live probe readmitted a previously confirmed-dead `node`.
    Rejoined {
        /// The readmitted member.
        node: NodeId,
        /// The probing node.
        observer: NodeId,
    },
}

#[derive(Debug)]
struct GossipMetrics {
    rounds: Counter,
    suspects: Counter,
    confirms: Counter,
    refutes: Counter,
}

impl GossipMetrics {
    fn new(t: &Telemetry) -> Self {
        GossipMetrics {
            rounds: t.counter("gossip.rounds"),
            suspects: t.counter("gossip.suspects"),
            confirms: t.counter("gossip.confirms"),
            refutes: t.counter("gossip.refutes"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Member {
    state: MemberState,
    /// When the current suspicion started (meaningful in `Suspect`).
    suspected_at: SimTime,
}

/// The gossip membership plane. See the module docs.
#[derive(Debug)]
pub struct GossipPlane {
    cfg: GossipConfig,
    members: Vec<Member>,
    rng: ChaCha8Rng,
    /// Registered only when enabled, so default configurations leave the
    /// telemetry registry untouched.
    metrics: Option<GossipMetrics>,
}

impl GossipPlane {
    /// Builds the membership plane for `nodes` members.
    pub fn new(cfg: GossipConfig, nodes: usize, telemetry: &Telemetry) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(PROBE_SEED);
        let metrics = cfg.enabled.then(|| GossipMetrics::new(telemetry));
        GossipPlane {
            cfg,
            members: vec![
                Member {
                    state: MemberState::Alive,
                    suspected_at: SimTime::ZERO,
                };
                nodes
            ],
            rng,
            metrics,
        }
    }

    /// Re-registers the gossip metrics on a shared telemetry plane (no-op
    /// when disabled).
    pub fn bind_telemetry(&mut self, telemetry: &Telemetry) {
        if self.cfg.enabled {
            self.metrics = Some(GossipMetrics::new(telemetry));
        }
    }

    /// Whether observed membership is active.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Observed state of a member.
    pub fn state(&self, node: NodeId) -> MemberState {
        self.members
            .get(node)
            .map(|m| m.state)
            .unwrap_or(MemberState::Alive)
    }

    /// Runs one probe round: each physically-up node probes one seeded-
    /// random peer; `up(n)` is ground-truth process liveness and
    /// `reachable(a, b)` the current partition reachability. Returns the
    /// membership transitions this round produced, in observer order.
    pub fn round(
        &mut self,
        now: SimTime,
        up: impl Fn(NodeId) -> bool,
        reachable: impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<GossipEvent> {
        if !self.cfg.enabled || self.members.len() < 2 {
            return Vec::new();
        }
        if let Some(m) = &self.metrics {
            m.rounds.inc();
        }
        let n = self.members.len();
        let mut events = Vec::new();
        for observer in 0..n {
            if !up(observer) {
                continue; // A dead process probes no one.
            }
            // Pick a peer uniformly among the other members.
            let draw = self.rng.gen_range(0..n - 1);
            let target = if draw >= observer { draw + 1 } else { draw };
            let ok = up(target) && reachable(observer, target);
            let member = &mut self.members[target];
            if ok {
                match member.state {
                    MemberState::Alive => {}
                    MemberState::Suspect => {
                        member.state = MemberState::Alive;
                        if let Some(m) = &self.metrics {
                            m.refutes.inc();
                        }
                        events.push(GossipEvent::Refuted {
                            node: target,
                            observer,
                        });
                    }
                    MemberState::Dead => {
                        member.state = MemberState::Alive;
                        events.push(GossipEvent::Rejoined {
                            node: target,
                            observer,
                        });
                    }
                }
            } else {
                match member.state {
                    MemberState::Alive => {
                        member.state = MemberState::Suspect;
                        member.suspected_at = now;
                        if let Some(m) = &self.metrics {
                            m.suspects.inc();
                        }
                        events.push(GossipEvent::Suspected {
                            node: target,
                            observer,
                        });
                    }
                    MemberState::Suspect => {
                        if now >= member.suspected_at + CONFIRM_AFTER {
                            member.state = MemberState::Dead;
                            if let Some(m) = &self.metrics {
                                m.confirms.inc();
                            }
                            events.push(GossipEvent::Confirmed {
                                node: target,
                                observer,
                            });
                        }
                    }
                    MemberState::Dead => {}
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(nodes: usize) -> GossipPlane {
        let t = Telemetry::standalone();
        GossipPlane::new(GossipConfig { enabled: true }, nodes, &t)
    }

    /// Drives rounds at the configured period until `node` reaches
    /// `want`, returning how many rounds it took.
    fn rounds_until(
        g: &mut GossipPlane,
        start: SimTime,
        up: &dyn Fn(NodeId) -> bool,
        node: NodeId,
        want: MemberState,
        max_rounds: usize,
    ) -> usize {
        let period = PROBE_PERIOD;
        for i in 0..max_rounds {
            let now = start + period * (i as u32);
            g.round(now, up, |_, _| true);
            if g.state(node) == want {
                return i + 1;
            }
        }
        panic!("node {node} never reached {want:?} in {max_rounds} rounds");
    }

    #[test]
    fn disabled_plane_is_inert() {
        let t = Telemetry::standalone();
        let mut g = GossipPlane::new(GossipConfig::default(), 4, &t);
        assert!(!g.enabled());
        let events = g.round(SimTime::ZERO, |_| true, |_, _| true);
        assert!(events.is_empty());
        assert_eq!(t.metrics().counter("gossip.rounds"), 0);
    }

    #[test]
    fn dead_node_is_suspected_then_confirmed() {
        let mut g = plane(5);
        let up = |n: NodeId| n != 2;
        let took = rounds_until(&mut g, SimTime::ZERO, &up, 2, MemberState::Suspect, 32);
        let resume = SimTime::ZERO + PROBE_PERIOD * (took as u32);
        let confirm_round = rounds_until(&mut g, resume, &up, 2, MemberState::Dead, 64);
        // Confirmation cannot beat the configured window (3 s at 1 s
        // rounds = at least 3 rounds after the suspicion).
        assert!(confirm_round >= 3, "confirmed after {confirm_round} rounds");
    }

    #[test]
    fn live_probe_refutes_suspicion() {
        let mut g = plane(4);
        // A transient blip: node 1 unreachable for one round only.
        let mut now = SimTime::ZERO;
        while g.state(1) != MemberState::Suspect {
            g.round(now, |n| n != 1, |_, _| true);
            now += PROBE_PERIOD;
        }
        while g.state(1) == MemberState::Suspect {
            g.round(now, |_| true, |_, _| true);
            now += PROBE_PERIOD;
        }
        assert_eq!(g.state(1), MemberState::Alive, "suspicion refuted");
    }

    #[test]
    fn confirmed_node_rejoins_on_successful_probe() {
        let mut g = plane(4);
        let mut now = SimTime::ZERO;
        while g.state(3) != MemberState::Dead {
            g.round(now, |n| n != 3, |_, _| true);
            now += PROBE_PERIOD;
        }
        let mut rejoined = false;
        for _ in 0..32 {
            let events = g.round(now, |_| true, |_, _| true);
            now += PROBE_PERIOD;
            if events
                .iter()
                .any(|e| matches!(e, GossipEvent::Rejoined { node: 3, .. }))
            {
                rejoined = true;
                break;
            }
        }
        assert!(rejoined, "restarted node readmitted");
        assert_eq!(g.state(3), MemberState::Alive);
    }

    #[test]
    fn partition_breeds_cross_group_suspicion_only() {
        let mut g = plane(6);
        // Nodes 0-2 vs 3-5.
        let group = |n: NodeId| usize::from(n >= 3);
        let mut now = SimTime::ZERO;
        let mut cross = 0;
        let mut same = 0;
        for _ in 0..64 {
            for e in g.round(now, |_| true, |a, b| group(a) == group(b)) {
                if let GossipEvent::Suspected { node, observer } = e {
                    if group(node) == group(observer) {
                        same += 1;
                    } else {
                        cross += 1;
                    }
                }
            }
            now += PROBE_PERIOD;
        }
        assert!(cross > 0, "cross-group probes must fail under partition");
        assert_eq!(same, 0, "same-group members stay trusted");
    }

    #[test]
    fn rounds_are_deterministic_per_seed() {
        let run = || {
            let mut g = plane(5);
            let mut log = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..32 {
                log.extend(g.round(now, |n| n != 4, |_, _| true));
                now += PROBE_PERIOD;
            }
            log
        };
        assert_eq!(run(), run());
    }
}
