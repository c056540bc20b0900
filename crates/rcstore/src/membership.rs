//! The coordinator's view of the cluster: who leads, who is alive, who
//! can reach whom, and which node events wait for a quorum. [`Membership`]
//! holds the replicated control plane (the coordinator group and the
//! gossip plane, when [`ClusterConfig::control_plane`] is on), the
//! [`Partition`], the parked nodes and the control-plane clock, and no
//! node storage: the [`crate::cluster::Cluster`] driver asks it whether
//! the control plane may act, and commits tablet-map mutations through
//! it. With the control plane off the single coordinator is omniscient:
//! it may always act, commits for free and observes crashes as they
//! happen.

use crate::gossip::{GossipEvent, GossipPlane};
use crate::raft::{ReplicaId, ReplicatedCoordinator};
use crate::{ClusterConfig, NodeId};
use ofc_simtime::SimTime;
use ofc_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::time::Duration;

/// Network reachability: each node's group, or fully connected. Two
/// nodes interact only within one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition(Option<Vec<usize>>);

impl Partition {
    /// Every node reaches every other.
    pub const CONNECTED: Partition = Partition(None);

    /// Splits `nodes` nodes into `groups` of node ids. A node listed in no
    /// group is an island of its own; ids at or past `nodes` are ignored.
    pub fn split(groups: &[Vec<NodeId>], nodes: usize) -> Self {
        // Island ids start past the group ids, one per node.
        let mut assign: Vec<usize> = (groups.len()..groups.len() + nodes).collect();
        for (g, members) in groups.iter().enumerate() {
            for &m in members.iter().filter(|&&m| m < nodes) {
                assign[m] = g;
            }
        }
        Partition(Some(assign))
    }

    /// Whether nodes `a` and `b` can exchange messages: the store's one
    /// reachability rule, asked by data copies, probes and votes alike.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        match &self.0 {
            Some(groups) => groups.get(a) == groups.get(b),
            None => true,
        }
    }

    /// Whether the network is split.
    pub fn is_split(&self) -> bool {
        self.0.is_some()
    }
}

/// The replicated control plane: the coordinator group (replica `r` is
/// co-located with storage node `r`) and the gossip plane that observes
/// node liveness for it.
#[derive(Debug)]
struct Replicated {
    coord: ReplicatedCoordinator,
    gossip: GossipPlane,
}

impl Replicated {
    /// The leader's node, or node 0 while headless.
    fn origin(&self) -> NodeId {
        self.coord.leader().unwrap_or(0)
    }
}

/// The control plane's membership core. See the module docs.
#[derive(Debug)]
pub struct Membership {
    /// `None` with the control plane off.
    replicated: Option<Replicated>,
    partition: Partition,
    /// Nodes whose recovery or rejoin waits for a quorum.
    parked: BTreeSet<NodeId>,
    /// Latest instant any control-plane call observed: the clock of gates
    /// and commits on untimed operations (evict, delete).
    clock: SimTime,
}

impl Membership {
    /// Builds the coordinator group and gossip plane of `cfg`, if its
    /// control plane is replicated.
    pub(crate) fn new(cfg: &ClusterConfig, telemetry: &Telemetry) -> Self {
        Membership {
            replicated: cfg.control_plane.map(|seed| Replicated {
                coord: ReplicatedCoordinator::new(seed, telemetry),
                gossip: GossipPlane::new(cfg.nodes, telemetry),
            }),
            partition: Partition::CONNECTED,
            parked: BTreeSet::new(),
            clock: SimTime::ZERO,
        }
    }

    /// The coordinator group (inspection); `None` with the control plane
    /// off.
    pub fn coordinator(&self) -> Option<&ReplicatedCoordinator> {
        self.replicated.as_ref().map(|r| &r.coord)
    }

    /// The gossip plane (inspection); `None` with the control plane off.
    pub fn gossip(&self) -> Option<&GossipPlane> {
        self.replicated.as_ref().map(|r| &r.gossip)
    }

    /// The current reachability.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of parked nodes.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// The node coordinator-internal operations originate from: the
    /// leader's, or node 0 while headless.
    pub fn origin(&self) -> NodeId {
        self.replicated.as_ref().map_or(0, Replicated::origin)
    }

    /// Advances the control-plane clock to `now`.
    pub(crate) fn observe(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    /// Installs `partition` at `now`.
    pub(crate) fn set_partition(&mut self, partition: Partition, now: SimTime) {
        self.observe(now);
        self.partition = partition;
    }

    /// Crashes coordinator replica `r` at `now`.
    pub(crate) fn crash_coordinator(&mut self, r: ReplicaId, now: SimTime) {
        self.observe(now);
        if let Some(rep) = &mut self.replicated {
            rep.coord.crash_replica(r, now);
        }
    }

    /// Restarts coordinator replica `r` at `now`.
    pub(crate) fn restart_coordinator(&mut self, r: ReplicaId, now: SimTime) {
        self.observe(now);
        if let Some(rep) = &mut self.replicated {
            rep.coord.restart_replica(r, now);
        }
    }

    /// May the control plane act from `origin` now? Ticks the group to
    /// `now`, then asks for a leader holding a quorum reachable from
    /// `origin` — or, with `None`, for any such leader (the coordinator
    /// acting on its own). Always true with the control plane off.
    pub(crate) fn gate(&mut self, origin: Option<NodeId>, now: SimTime) -> bool {
        self.observe(now);
        let Some(rep) = &mut self.replicated else {
            return true;
        };
        rep.coord.tick(now, &self.partition);
        let origin = origin.unwrap_or_else(|| rep.origin());
        rep.coord.can_serve(origin, &self.partition)
    }

    /// [`Membership::gate`] for a coordinator-internal mutation: from the
    /// leader's node as last seen, at `now` or else the control-plane clock.
    pub(crate) fn gate_internal(&mut self, now: Option<SimTime>) -> bool {
        self.gate(Some(self.origin()), now.unwrap_or(self.clock))
    }

    /// The park-or-act decision on an event about `node`, seen by the
    /// gossip prober `observer` or, with `None`, by the coordinator itself
    /// through [`Membership::gate`]. Returns whether the control plane may
    /// act now; if not, `node` is parked until [`Membership::drain`].
    pub(crate) fn act_or_park(
        &mut self,
        node: NodeId,
        observer: Option<NodeId>,
        now: SimTime,
    ) -> bool {
        let act = match (observer, &self.replicated) {
            (Some(o), Some(rep)) => rep.coord.can_serve(o, &self.partition),
            _ => self.gate(None, now),
        };
        if !act {
            self.park(node);
        }
        act
    }

    /// Parks `node` until the control plane can act on it.
    pub(crate) fn park(&mut self, node: NodeId) {
        self.parked.insert(node);
    }

    /// Releases `node` from the parked set (it is being acted on).
    pub(crate) fn unpark(&mut self, node: NodeId) {
        self.parked.remove(&node);
    }

    /// The pump's step at `now`: once [`Membership::gate`] passes, releases
    /// every parked node ready to be acted on (`None` while the gate is
    /// shut). A node out of reach (down, or across the split) stays parked
    /// while a partition is active: its re-walk only pays once the split
    /// changes.
    pub(crate) fn drain(
        &mut self,
        now: SimTime,
        up: impl Fn(NodeId) -> bool,
    ) -> Option<BTreeSet<NodeId>> {
        if !self.gate(None, now) {
            return None;
        }
        let split = self.partition.is_split();
        let origin = self.origin();
        let (ready, kept) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|&n| !split || (up(n) && self.partition.reachable(origin, n)));
        self.parked = kept;
        Some(ready)
    }

    /// Commits one tablet-map mutation from the origin at the control-plane
    /// clock; returns the latency to charge (zero with the control plane
    /// off). Callers gate first, so a quorum lost in between is the only,
    /// benign, failure.
    pub(crate) fn commit(&mut self) -> Duration {
        let Some(rep) = &mut self.replicated else {
            return Duration::ZERO;
        };
        rep.coord
            .propose(rep.origin(), self.clock, &self.partition)
            .unwrap_or(Duration::ZERO)
    }

    /// Runs one gossip probe round at `now`; `up(n)` is ground-truth
    /// process liveness. No events with the control plane off.
    pub(crate) fn gossip_round(
        &mut self,
        now: SimTime,
        up: impl Fn(NodeId) -> bool,
    ) -> Vec<GossipEvent> {
        self.observe(now);
        match &mut self.replicated {
            Some(rep) => rep.gossip.round(now, up, &self.partition),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raft::ELECTION_SEED;

    fn membership(control_plane: Option<u64>) -> (Membership, Telemetry) {
        let t = Telemetry::new();
        let cfg = ClusterConfig {
            control_plane,
            ..ClusterConfig::default()
        };
        (Membership::new(&cfg, &t), t)
    }

    #[test]
    fn unlisted_node_becomes_its_own_island() {
        let p = Partition::split(&[vec![0, 1], vec![2]], 5);
        assert!(p.reachable(0, 1));
        assert!(!p.reachable(1, 2));
        // Nodes 3 and 4 are listed nowhere: each is alone, not grouped
        // with the other.
        assert!(!p.reachable(3, 4));
        assert!(!p.reachable(3, 0) && !p.reachable(4, 2));
        assert!(p.reachable(3, 3));
        assert!(Partition::CONNECTED.reachable(0, 4));
    }

    #[test]
    fn single_replica_gate_is_always_true_and_free() {
        let (mut m, t) = membership(None);
        m.set_partition(
            Partition::split(&[vec![0], vec![1, 2, 3]], 4),
            SimTime::ZERO,
        );
        for origin in [None, Some(0), Some(3)] {
            assert!(m.gate(origin, SimTime::from_secs(1)));
        }
        assert!(m.act_or_park(2, Some(3), SimTime::from_secs(1)));
        assert_eq!(m.commit(), Duration::ZERO);
        assert_eq!(m.parked(), 0);
        // No group exists and nothing was registered.
        assert!(m.coordinator().is_none() && m.gossip().is_none());
        assert!(t.metrics().counters.is_empty());
    }

    #[test]
    fn parked_node_drains_exactly_once_when_quorum_returns() {
        let (mut m, _t) = membership(Some(ELECTION_SEED));
        let t0 = SimTime::from_secs(1);
        m.crash_coordinator(1, t0);
        m.crash_coordinator(2, t0);
        let t1 = t0 + Duration::from_secs(1);
        assert!(!m.act_or_park(3, None, t1), "headless: park");
        assert_eq!(m.drain(t1, |_| true), None, "the gate is shut");
        assert_eq!(m.parked(), 1);
        m.restart_coordinator(1, t1);
        let t2 = t1 + Duration::from_secs(1);
        assert_eq!(
            m.drain(t2, |_| true),
            Some(BTreeSet::from([3])),
            "quorum is back"
        );
        assert_eq!(m.drain(t2, |_| true), Some(BTreeSet::new()), "drained once");
        assert_eq!(m.parked(), 0);
    }
}
