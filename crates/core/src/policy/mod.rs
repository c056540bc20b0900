//! The pluggable cache-policy plane (DESIGN.md §15).
//!
//! OFC's core contribution is a *policy* — ML-driven opportunistic
//! admission over harvested keep-alive memory — but which policy makes the
//! best use of slack memory is an empirical question. This module factors
//! every policy decision the cache plane makes behind one trait,
//! [`CachePolicy`], so a rival policy is a crate-local module instead of a
//! cross-cutting change:
//!
//! * **admission** — [`CachePolicy::admit`] turns a prediction context
//!   into a typed [`Admission`] (cache? up to what size? chunk?),
//! * **eviction** — [`CachePolicy::select_victims`] picks janitor victims
//!   from a read-only [`EvictView`] over the cache cluster,
//! * **capacity** — [`CachePolicy::target_capacity`] sizes the per-node
//!   slack pool from churn and hit-rate telemetry,
//! * **placement** — [`CachePolicy::place`] biases routing toward a node,
//! * optional hooks — [`CachePolicy::on_access`] (access bookkeeping),
//!   [`CachePolicy::lookup_cold`] (a policy-private cold tier consulted on
//!   RAM misses) and [`CachePolicy::tick`] (periodic work such as
//!   prefetching or cost accrual).
//!
//! Policies see only read-only views plus their own private state, never
//! the `Rc<RefCell<…>>` plumbing, so they stay deterministic (ofc-lint D1:
//! no wall clocks, no ambient RNG — all iteration is over `BTreeMap`s) and
//! can never re-enter the cluster mutably.
//!
//! Three policies ship: [`OfcPolicy`] (the paper's §5.2/§6.3/§6.4
//! behavior, byte-identical to the pre-refactor plane), [`FaastPolicy`]
//! (Faa$T-style per-application caching with frequency-based prefetch) and
//! [`InfiniCachePolicy`] (InfiniCache-style erasure-coded cold tier parked
//! in idle keep-alive sandboxes, with a rental cost model). The `bakeoff`
//! bench bin races them on the Fig 9 mix.

mod faast;
mod infinicache;
mod ofc;

pub use faast::FaastPolicy;
pub use infinicache::InfiniCachePolicy;
pub use ofc::OfcPolicy;

use crate::ml::Prediction;
pub use ofc_faas::Admission;
use ofc_faas::{FunctionId, NodeId, TenantId};
use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::Key;
use ofc_simtime::SimTime;
use ofc_telemetry::Telemetry;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

/// Shared handle to an installed policy. The builder hands the *same*
/// handle to the scheduler, the data plane and the agent, so a stateful
/// policy (frequency maps, cold tiers) sees every event stream.
pub type PolicyHandle = Rc<RefCell<dyn CachePolicy>>;

/// Everything a policy may consult for one admission decision.
#[derive(Debug)]
pub struct PredictionCtx<'a> {
    /// Owning tenant.
    pub tenant: &'a TenantId,
    /// Target function.
    pub function: &'a FunctionId,
    /// Memory the tenant booked for the function.
    pub booked_mem: u64,
    /// The Predictor's output, absent when the function is unknown to the
    /// feature extractor or the model is immature.
    pub prediction: Option<&'a Prediction>,
}

/// Cluster facts offered to a placement decision (no mutable access).
#[derive(Debug)]
pub struct ShardView<'a> {
    /// Owning tenant (Faa$T anchors per-application caches by tenant).
    pub tenant: &'a TenantId,
    /// Target function.
    pub function: &'a FunctionId,
    /// The stock home node (`hash(function, tenant) % n`).
    pub home: NodeId,
    /// Worker-node count.
    pub n_nodes: usize,
    /// Node mastering the request's input object, when the locality oracle
    /// knows one (§6.5).
    pub input_master: Option<NodeId>,
}

/// A placement preference returned by [`CachePolicy::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Preferred execution node, or `None` for the platform default.
    pub preferred: Option<NodeId>,
}

/// Telemetry driving one node's capacity (slack-pool) decision.
#[derive(Debug, Clone, Copy)]
pub struct CapacityTelemetry {
    /// The node being sized.
    pub node: NodeId,
    /// Mean of the node's churn window (§6.4), `None` before any sample.
    pub churn_mean: Option<f64>,
    /// The node's current slack pool.
    pub current_slack: u64,
    /// Configured lower bound of the slack pool.
    pub slack_min: u64,
    /// Configured upper bound of the slack pool.
    pub slack_max: u64,
    /// Configured safety factor over mean churn.
    pub slack_factor: f64,
    /// Cumulative plane-wide local cache hits.
    pub local_hits: u64,
    /// Cumulative plane-wide remote cache hits.
    pub remote_hits: u64,
    /// Cumulative plane-wide cache misses.
    pub misses: u64,
}

impl CapacityTelemetry {
    /// The paper's §6.4 slack formula: `clamp(churn_mean × factor, min,
    /// max)`, keeping the current slack when no churn sample exists yet.
    pub fn ofc_target(&self) -> u64 {
        match self.churn_mean {
            Some(mean) => {
                let target = (mean * self.slack_factor) as u64;
                target.clamp(self.slack_min, self.slack_max)
            }
            None => self.current_slack,
        }
    }

    /// Fraction of cache-eligible reads that missed (0 when none ran).
    pub fn miss_ratio(&self) -> f64 {
        let hits = self.local_hits + self.remote_hits;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A hit served from a policy-private cold tier (see
/// [`CachePolicy::lookup_cold`]).
#[derive(Debug, Clone, Copy)]
pub struct ColdHit {
    /// Restore latency charged to the reader.
    pub latency: Duration,
}

/// One object a policy asks the runtime to pre-load into the cache.
#[derive(Debug, Clone)]
pub struct PrefetchRequest {
    /// Cache key to fill.
    pub key: Key,
    /// Object size in bytes.
    pub size: u64,
    /// Node to master the filled copy on.
    pub node: NodeId,
}

/// Read-only view over the cache cluster offered to an eviction decision.
///
/// The view wraps a shared borrow of the cluster, so a policy can inspect
/// candidates and sizes but never mutate placement mid-selection; the
/// agent applies the returned victims afterwards. `visited` accounting
/// feeds `agent.evict_scan_visited`.
pub struct EvictView<'a> {
    cluster: &'a Cluster,
    /// Current simulated time.
    pub now: SimTime,
    /// Grace period before the `n_access` rule applies (§6.3).
    pub grace: Duration,
    /// Idle bound beyond which any object expires (§6.3).
    pub idle: Duration,
    visited: Cell<u64>,
}

impl<'a> EvictView<'a> {
    /// Builds a view for one janitor pass.
    pub fn new(cluster: &'a Cluster, now: SimTime, grace: Duration, idle: Duration) -> Self {
        EvictView {
            cluster,
            now,
            grace,
            idle,
            visited: Cell::new(0),
        }
    }

    /// The §6.3 expirable set from the store's eviction-candidate index:
    /// key-sorted victims at O(expirable) cost. This is what [`OfcPolicy`]
    /// returns verbatim.
    pub fn expirable(&self) -> Vec<Key> {
        let (pairs, visited) = self
            .cluster
            .evict_candidates(self.now, self.grace, self.idle);
        self.visited.set(self.visited.get() + visited);
        pairs.into_iter().map(|(key, _dirty)| key).collect()
    }

    /// Size of a cached object's master copy, if present.
    pub fn size_of(&self, key: &Key) -> Option<u64> {
        let node = self.cluster.master_of(key)?;
        self.cluster
            .node(node)
            .peek_master(key)
            .map(|o| o.value.size())
    }

    /// Total bytes held by cached master copies.
    pub fn used_bytes(&self) -> u64 {
        (0..self.cluster.n_nodes())
            .map(|n| self.cluster.node(n).used_bytes())
            .sum()
    }

    /// Bytes one tenant holds across the cluster, from the per-owner
    /// ledger (O(nodes · log tenants); DESIGN.md §18). Lets a
    /// tenant-aware policy weigh victims by who is over budget.
    pub fn owner_used(&self, owner: &Key) -> u64 {
        self.cluster.owner_used(owner)
    }

    /// One tenant's coldest cached objects in LRU order, capped at `max`:
    /// `(key, dirty, charged size)` from the per-owner sub-index.
    pub fn owner_victims(&self, owner: &Key, max: usize) -> Vec<(Key, bool, u64)> {
        self.cluster.owner_victims(owner, max)
    }

    /// Index entries inspected so far through this view.
    pub fn visited(&self) -> u64 {
        self.visited.get()
    }
}

/// The policy seam: every cache-plane decision, behind one trait.
///
/// # Contract
///
/// * **Determinism** — implementations must be pure functions of their
///   inputs and own state: no wall clocks, no ambient RNG, no `HashMap`
///   iteration feeding outputs (ofc-lint D1 covers this module).
/// * **Read-only views** — policies never mutate the cluster; they return
///   decisions the runtime applies.
/// * **One shared instance** — the same handle serves the scheduler
///   (admit and place), the agent (select_victims and target_capacity)
///   and the data plane (on_access and lookup_cold), so state composes
///   across seams.
pub trait CachePolicy {
    /// Human-readable policy name (bake-off labels).
    fn name(&self) -> &'static str;

    /// Admission: whether (and how) this invocation's data is cached.
    fn admit(&mut self, ctx: &PredictionCtx<'_>) -> Admission;

    /// Eviction: picks janitor victims from the view. `need` is a byte
    /// target when the caller must free a specific amount (0 for the
    /// periodic pass, which drops every returned key). Returned keys are
    /// written back first if dirty, then evicted, in order.
    fn select_victims(&mut self, view: &EvictView<'_>, need: u64) -> Vec<Key>;

    /// Capacity: the node's target slack pool (bytes held back from the
    /// cache for sandbox churn, §6.4).
    fn target_capacity(&mut self, telemetry: &CapacityTelemetry) -> u64;

    /// Placement: preferred execution node for a request (locality).
    fn place(&mut self, input: Option<&Key>, view: &ShardView<'_>) -> Placement;

    /// Access notification from the data plane (hit or cacheable miss).
    /// Default: ignore.
    fn on_access(&mut self, _key: &Key, _size: u64, _node: NodeId, _hit: bool) {}

    /// Consults the policy's private cold tier on a RAM miss; a `Some`
    /// serves the read at the returned latency (and the runtime re-fills
    /// the RAM cache). Default: no cold tier.
    fn lookup_cold(&mut self, _key: &Key, _now: SimTime) -> Option<ColdHit> {
        None
    }

    /// Cadence of [`CachePolicy::tick`], or `None` for no periodic work.
    fn tick_every(&self) -> Option<Duration> {
        None
    }

    /// Periodic policy work (prefetch selection, cost accrual, cold-tier
    /// expiry). Returned requests are filled into the cache by the runtime.
    fn tick(&mut self, _now: SimTime) -> Vec<PrefetchRequest> {
        Vec::new()
    }
}

/// Selects which [`CachePolicy`] the builder installs (see
/// [`crate::ofc::OfcBuilder::policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The paper's policy (default): ML-gated admission, §6.3 eviction,
    /// §6.4 slack sizing, §6.5 locality placement.
    #[default]
    Ofc,
    /// Faa$T-style per-application caching with frequency prefetch.
    Faast,
    /// InfiniCache-style erasure-coded cold tier in idle sandboxes.
    InfiniCache,
}

/// Constructs a shareable policy instance of the given kind, recording
/// `policy.*` telemetry into the given plane.
pub fn build_policy(kind: PolicyKind, telemetry: &Telemetry) -> PolicyHandle {
    match kind {
        PolicyKind::Ofc => Rc::new(RefCell::new(OfcPolicy::new())),
        PolicyKind::Faast => Rc::new(RefCell::new(FaastPolicy::new(telemetry))),
        PolicyKind::InfiniCache => Rc::new(RefCell::new(InfiniCachePolicy::new(telemetry))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofc_capacity_formula_matches_paper() {
        let t = CapacityTelemetry {
            node: 0,
            churn_mean: Some(100.0 * (1 << 20) as f64),
            current_slack: 100 << 20,
            slack_min: 64 << 20,
            slack_max: 512 << 20,
            slack_factor: 1.5,
            local_hits: 0,
            remote_hits: 0,
            misses: 0,
        };
        assert_eq!(t.ofc_target(), 150 << 20);
        // No sample: hold the current slack.
        let idle = CapacityTelemetry {
            churn_mean: None,
            ..t
        };
        assert_eq!(idle.ofc_target(), 100 << 20);
        // Clamping at both ends.
        let hot = CapacityTelemetry {
            churn_mean: Some(4.0 * (1 << 30) as f64),
            ..t
        };
        assert_eq!(hot.ofc_target(), 512 << 20);
        let cold = CapacityTelemetry {
            churn_mean: Some(0.0),
            ..t
        };
        assert_eq!(cold.ofc_target(), 64 << 20);
    }

    #[test]
    fn miss_ratio_handles_empty_and_mixed() {
        let mut t = CapacityTelemetry {
            node: 0,
            churn_mean: None,
            current_slack: 0,
            slack_min: 0,
            slack_max: 0,
            slack_factor: 1.0,
            local_hits: 0,
            remote_hits: 0,
            misses: 0,
        };
        assert_eq!(t.miss_ratio(), 0.0);
        t.local_hits = 6;
        t.remote_hits = 2;
        t.misses = 2;
        assert!((t.miss_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn build_policy_covers_every_kind() {
        let t = Telemetry::standalone();
        for (kind, name) in [
            (PolicyKind::Ofc, "ofc"),
            (PolicyKind::Faast, "faast"),
            (PolicyKind::InfiniCache, "infinicache"),
        ] {
            let p = build_policy(kind, &t);
            assert_eq!(p.borrow().name(), name);
        }
    }
}
