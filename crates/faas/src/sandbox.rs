//! Sandboxes and invokers: per-node container lifecycle and memory
//! accounting.
//!
//! The invariants mirror §2.1: a sandbox is never shared between functions
//! or tenants, processes one invocation at a time, and idles under
//! keep-alive until reclaimed. Memory committed to sandboxes on a node is
//! the quantity OFC's CacheAgent arbitrates against the cache pool.

use crate::{FunctionId, Limit, NodeId, SandboxView, TenantId};
use ofc_intern::IdHashMap;
use ofc_simtime::SimTime;
use std::collections::hash_map::Entry;

/// Sandbox lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxState {
    /// Being created (cold start in progress).
    Starting,
    /// Warm and idle, available for reuse.
    Idle {
        /// When it became idle.
        since: SimTime,
    },
    /// Executing one invocation.
    Busy,
}

/// A function sandbox (Docker container in OWK).
#[derive(Debug, Clone)]
pub struct Sandbox {
    /// Identifier, unique per node.
    pub id: u64,
    /// Function this sandbox is bound to (never shared, §2.1).
    pub function: FunctionId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Current cgroup memory limit (predicted `Mp` under OFC).
    pub mem_limit: u64,
    /// Memory the tenant booked (the admission-control currency, §2.2.1:
    /// OWK guarantees the booking; OFC harvests the unused difference).
    pub booked: u64,
    /// State.
    pub state: SandboxState,
    /// Monotonic use counter (for keep-alive staleness checks).
    pub uses: u64,
}

/// Idle sandbox ids per `(tenant, function)`, ascending; a function with
/// no idle sandbox has no entry.
type IdleIndex = IdHashMap<(TenantId, FunctionId), Vec<u64>>;

/// A worker node's invoker: sandbox table plus memory accounting.
///
/// The controller asks every invoker for its totals and its warm
/// candidates on every submit, so those are kept incrementally. Invariant
/// (checked by [`Invoker::audit`]): `committed = Σ mem_limit`,
/// `booked = Σ booked`, and `idle` holds exactly the `Idle` sandboxes,
/// each function's ids ascending. Every state change goes through the
/// methods below; there is no mutable access to a [`Sandbox`] from
/// outside.
#[derive(Debug)]
pub struct Invoker {
    node: NodeId,
    total_mem: u64,
    /// Probed by id; iterated only where order cannot show (sums, and
    /// collections sorted before use).
    sandboxes: IdHashMap<u64, Sandbox>,
    idle: IdleIndex,
    committed: u64,
    booked: u64,
    next_id: u64,
}

impl Invoker {
    /// Creates an invoker with `total_mem` bytes of sandbox-usable memory.
    pub fn new(node: NodeId, total_mem: u64) -> Self {
        Invoker {
            node,
            total_mem,
            sandboxes: IdHashMap::default(),
            idle: IdHashMap::default(),
            committed: 0,
            booked: 0,
            next_id: 0,
        }
    }

    /// Node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total node memory.
    pub fn total_mem(&self) -> u64 {
        self.total_mem
    }

    /// Physical memory committed to sandboxes (sum of cgroup limits) —
    /// what the cache pool is carved against.
    pub fn committed_mem(&self) -> u64 {
        self.committed
    }

    /// Booked memory committed to sandboxes — the admission-control sum
    /// (`Σ booked <= capacity`, as in stock OWK).
    pub fn booked_mem(&self) -> u64 {
        self.booked
    }

    /// Number of sandboxes in any state.
    pub fn sandbox_count(&self) -> usize {
        self.sandboxes.len()
    }

    /// Borrow of a sandbox.
    pub fn sandbox(&self, id: u64) -> Option<&Sandbox> {
        self.sandboxes.get(&id)
    }

    /// Creates a sandbox in `Starting` state.
    ///
    /// The caller must have arranged memory through the broker first.
    pub fn create_sandbox(
        &mut self,
        function: FunctionId,
        tenant: TenantId,
        mem_limit: u64,
        booked: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.committed += mem_limit;
        self.booked += booked;
        self.sandboxes.insert(
            id,
            Sandbox {
                id,
                function,
                tenant,
                mem_limit,
                booked,
                state: SandboxState::Starting,
                uses: 0,
            },
        );
        id
    }

    /// Transitions a sandbox to busy.
    ///
    /// # Panics
    ///
    /// Panics if the sandbox does not exist or is already busy — both are
    /// scheduler bugs, not runtime conditions.
    pub fn claim(&mut self, id: u64) {
        let sb = self
            .sandboxes
            .get_mut(&id)
            .expect("claiming unknown sandbox");
        assert!(
            sb.state != SandboxState::Busy,
            "sandbox {id} already busy (one invocation at a time, §2.1)"
        );
        if matches!(sb.state, SandboxState::Idle { .. }) {
            unindex_idle(&mut self.idle, sb);
        }
        sb.state = SandboxState::Busy;
        sb.uses += 1;
    }

    /// Transitions a sandbox back to idle after an invocation.
    pub fn release(&mut self, id: u64, now: SimTime) {
        if let Some(sb) = self.sandboxes.get_mut(&id) {
            index_idle(&mut self.idle, sb);
            sb.state = SandboxState::Idle { since: now };
        }
    }

    /// Updates a sandbox's memory limit; returns the old limit.
    pub fn resize(&mut self, id: u64, mem_limit: u64) -> Option<u64> {
        let sb = self.sandboxes.get_mut(&id)?;
        let old = sb.mem_limit;
        sb.mem_limit = mem_limit;
        self.committed = self.committed - old + mem_limit;
        Some(old)
    }

    /// Destroys a sandbox (OOM kill or keep-alive expiry); returns its
    /// memory limit so the caller can release it to the broker.
    pub fn destroy(&mut self, id: u64) -> Option<u64> {
        let sb = self.sandboxes.remove(&id)?;
        self.committed -= sb.mem_limit;
        self.booked -= sb.booked;
        if matches!(sb.state, SandboxState::Idle { .. }) {
            unindex_idle(&mut self.idle, &sb);
        }
        Some(sb.mem_limit)
    }

    /// Reclaims the sandbox if it is still idle and untouched since `uses`.
    /// Returns the freed memory.
    pub fn reclaim_if_stale(&mut self, id: u64, uses: u64) -> Option<u64> {
        let stale = matches!(
            self.sandboxes.get(&id),
            Some(Sandbox {
                state: SandboxState::Idle { .. },
                uses: u,
                ..
            }) if *u == uses
        );
        if stale {
            self.destroy(id)
        } else {
            None
        }
    }

    /// Idle warm sandboxes bound to `function`/`tenant`, as scheduler
    /// views, in ascending sandbox-id order.
    pub fn warm_for(
        &self,
        function: &FunctionId,
        tenant: &TenantId,
    ) -> impl Iterator<Item = SandboxView> + '_ {
        self.idle
            .get(&(*tenant, *function))
            .into_iter()
            .flatten()
            .filter_map(|id| {
                let sb = self.sandboxes.get(id)?;
                let SandboxState::Idle { since } = sb.state else {
                    return None;
                };
                Some(SandboxView {
                    node: self.node,
                    sandbox: sb.id,
                    mem_limit: Limit(sb.mem_limit),
                    idle_since: since,
                })
            })
    }

    /// Recomputes the running totals and the idle index by a full scan and
    /// compares; `Err` shows both sides. For tests and invariant checks —
    /// O(sandboxes), never called on a timed path.
    pub fn audit(&self) -> Result<(), String> {
        let mut committed = 0;
        let mut booked = 0;
        let mut idle = IdleIndex::default();
        for sb in self.sandboxes.values() {
            committed += sb.mem_limit;
            booked += sb.booked;
            if matches!(sb.state, SandboxState::Idle { .. }) {
                idle.entry((sb.tenant, sb.function))
                    .or_default()
                    .push(sb.id);
            }
        }
        idle.values_mut().for_each(|ids| ids.sort_unstable());
        let kept = (self.committed, self.booked, &self.idle);
        let scanned = (committed, booked, &idle);
        if kept == scanned {
            Ok(())
        } else {
            Err(format!(
                "node {}: kept (committed, booked, idle) {kept:?} != scanned {scanned:?}",
                self.node
            ))
        }
    }

    /// Iterates over all sandboxes.
    pub fn sandboxes(&self) -> impl Iterator<Item = &Sandbox> {
        self.sandboxes.values()
    }
}

/// Puts a sandbox that is becoming `Idle` into the index (a no-op when it
/// already is), keeping its function's ids ascending.
fn index_idle(idle: &mut IdleIndex, sb: &Sandbox) {
    let ids = idle.entry((sb.tenant, sb.function)).or_default();
    if let Err(at) = ids.binary_search(&sb.id) {
        ids.insert(at, sb.id);
    }
}

/// Takes a sandbox that is leaving `Idle` out of the index.
fn unindex_idle(idle: &mut IdleIndex, sb: &Sandbox) {
    if let Entry::Occupied(mut slot) = idle.entry((sb.tenant, sb.function)) {
        let ids = slot.get_mut();
        if let Ok(at) = ids.binary_search(&sb.id) {
            ids.remove(at);
        }
        if ids.is_empty() {
            slot.remove();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoker() -> Invoker {
        Invoker::new(0, 1 << 30)
    }

    fn fid(s: &str) -> FunctionId {
        FunctionId::from(s)
    }

    fn tid(s: &str) -> TenantId {
        TenantId::from(s)
    }

    #[test]
    fn create_claim_release_cycle() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 256 << 20, 256 << 20);
        assert_eq!(inv.committed_mem(), 256 << 20);
        inv.claim(id);
        assert_eq!(inv.sandbox(id).unwrap().state, SandboxState::Busy);
        inv.release(id, SimTime::from_secs(1));
        let warm: Vec<_> = inv.warm_for(&fid("f"), &tid("t")).collect();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm[0].idle_since, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_claim_panics() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 1, 1);
        inv.claim(id);
        inv.claim(id);
    }

    #[test]
    fn warm_lookup_is_function_and_tenant_scoped() {
        let mut inv = invoker();
        let a = inv.create_sandbox(fid("f"), tid("t1"), 1, 1);
        let b = inv.create_sandbox(fid("f"), tid("t2"), 1, 1);
        inv.release(a, SimTime::ZERO);
        inv.release(b, SimTime::ZERO);
        // Same function, different tenant: never shared (§2.1).
        assert_eq!(inv.warm_for(&fid("f"), &tid("t1")).count(), 1);
        assert_eq!(inv.warm_for(&fid("g"), &tid("t1")).count(), 0);
    }

    #[test]
    fn resize_updates_commitment() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 100 << 20, 100 << 20);
        assert_eq!(inv.resize(id, 300 << 20), Some(100 << 20));
        assert_eq!(inv.committed_mem(), 300 << 20);
    }

    #[test]
    fn reclaim_only_when_stale() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 64 << 20, 64 << 20);
        inv.claim(id);
        inv.release(id, SimTime::ZERO);
        let uses_at_schedule = inv.sandbox(id).unwrap().uses;
        // Sandbox gets reused before the keep-alive timer fires…
        inv.claim(id);
        inv.release(id, SimTime::from_secs(1));
        // …so the stale check must not reclaim it.
        assert_eq!(inv.reclaim_if_stale(id, uses_at_schedule), None);
        assert_eq!(inv.sandbox_count(), 1);
        // With the current use counter it does reclaim.
        let uses_now = inv.sandbox(id).unwrap().uses;
        assert_eq!(inv.reclaim_if_stale(id, uses_now), Some(64 << 20));
        assert_eq!(inv.sandbox_count(), 0);
    }

    #[test]
    fn busy_sandbox_not_reclaimed() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 1, 1);
        inv.claim(id);
        let uses = inv.sandbox(id).unwrap().uses;
        assert_eq!(inv.reclaim_if_stale(id, uses), None);
    }

    #[test]
    fn destroy_returns_memory() {
        let mut inv = invoker();
        let id = inv.create_sandbox(fid("f"), tid("t"), 128 << 20, 128 << 20);
        assert_eq!(inv.destroy(id), Some(128 << 20));
        assert_eq!(inv.committed_mem(), 0);
        assert_eq!(inv.destroy(id), None);
    }
}
