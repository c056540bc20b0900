//! The Proxy + rclib data plane (§4, §6.2): transparent interposition of
//! function reads/writes, write-back with shadow objects, asynchronous
//! persistor functions, pipeline intermediate-data lifecycle, and the
//! webhook paths for external clients.

use crate::health::{BreakerConfig, CircuitBreaker};
use crate::policy::PolicyHandle;
use ofc_chaos::RetryPolicy;
use ofc_faas::{
    Admission, DataPlane, NodeId, ObjectRef, ObjectWrite, PipelineId, ReadOutcome, Served,
    WriteOutcome,
};
use ofc_intern::IdHashMap;
use ofc_objstore::store::ObjectStore;
use ofc_objstore::{ObjectId, Payload, StoreError};
use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::{Key, ReadLocality, Value};
use ofc_simtime::Sim;
use ofc_telemetry::{Counter, Phase, Telemetry};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::time::Duration;

/// Victim batch per contended over-quota admission: the quota gate frees
/// at most this many of the tenant's own LRU objects before giving up and
/// bypassing to the RSDS. Bounds the gate's worst-case work per op.
const QUOTA_VICTIM_BATCH: usize = 8;

/// Converts an object id into a cache key: the id's own interned
/// `bucket/key` path, a field read.
pub fn rc_key(id: &ObjectId) -> Key {
    id.path()
}

/// How cached writes reach the RSDS (§6.2; the non-default modes feed the
/// write-policy ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// OFC's default: synchronous shadow object + asynchronous persistor.
    WriteBackShadow,
    /// Synchronous full write to the RSDS on the critical path.
    WriteThrough,
    /// The relaxed mode tenants may opt into: writes reach the RSDS only
    /// on eviction; durability relies on the cache's disk replication.
    Lazy,
}

/// Scheduling overhead of injecting a persistor function.
pub const PERSISTOR_OVERHEAD: Duration = Duration::from_millis(10);

/// Dead-letter sweeper period (see [`start_sweeper`]).
pub const SWEEP_EVERY: Duration = Duration::from_secs(60);

/// Free-pool headroom below which over-quota admissions stop winning
/// slack and quota enforcement kicks in.
pub const QUOTA_HEADROOM_BYTES: u64 = 64 << 20;

/// Plane configuration (§6.2–6.3 defaults).
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Maximum cached object size ([`ofc_rcstore::MAX_OBJECT_BYTES`]);
    /// larger objects bypass the cache unless the admission stripes them.
    pub max_cached_object: u64,
    /// Write policy for cached final outputs.
    pub write_policy: WritePolicy,
    /// Per-tenant cache quota in bytes (DESIGN.md §18). `None` (the
    /// default) disables partitioning entirely — admission behaves byte
    /// for byte as before. With a quota set, a tenant over its budget may
    /// still win **slack** memory while the cluster keeps
    /// [`QUOTA_HEADROOM_BYTES`] free; under contention the tenant first
    /// reclaims its own clean LRU objects, and only bypasses to the RSDS
    /// when that cannot make room.
    pub tenant_quota_bytes: Option<u64>,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            max_cached_object: ofc_rcstore::MAX_OBJECT_BYTES,
            write_policy: WritePolicy::WriteBackShadow,
            tenant_quota_bytes: None,
        }
    }
}

/// Pre-registered handles for the data plane's `plane.*` metrics (feeds
/// Figure 7's scenario split and Table 2 through the shared registry).
#[derive(Debug, Clone)]
struct PlaneMetrics {
    local_hits: Counter,
    remote_hits: Counter,
    misses: Counter,
    bypasses: Counter,
    fills: Counter,
    shadows: Counter,
    invalidations: Counter,
    intermediates_dropped: Counter,
    ephemeral_bytes: Counter,
    chunked_objects: Counter,
    chunked_hits: Counter,
    degraded_bypasses: Counter,
    quota_overshoots: Counter,
    quota_evictions: Counter,
    quota_bypasses: Counter,
}

impl PlaneMetrics {
    fn new(t: &Telemetry) -> Self {
        PlaneMetrics {
            local_hits: t.counter("plane.local_hits"),
            remote_hits: t.counter("plane.remote_hits"),
            misses: t.counter("plane.misses"),
            bypasses: t.counter("plane.bypasses"),
            fills: t.counter("plane.fills"),
            shadows: t.counter("plane.shadows"),
            invalidations: t.counter("plane.invalidations"),
            intermediates_dropped: t.counter("plane.intermediates_dropped"),
            ephemeral_bytes: t.counter("plane.ephemeral_bytes"),
            chunked_objects: t.counter("plane.chunked_objects"),
            chunked_hits: t.counter("plane.chunked_hits"),
            degraded_bypasses: t.counter("plane.degraded_bypasses"),
            quota_overshoots: t.counter("plane.quota_overshoots"),
            quota_evictions: t.counter("plane.quota_evictions"),
            quota_bypasses: t.counter("plane.quota_bypasses"),
        }
    }
}

/// Cache hit ratio from a metrics snapshot: `plane.*` hits over
/// hits + misses (zero when no cache-eligible read happened).
pub fn plane_hit_ratio(m: &ofc_telemetry::MetricsSnapshot) -> f64 {
    let hits = m.counter("plane.local_hits") + m.counter("plane.remote_hits");
    let total = hits + m.counter("plane.misses");
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Shared persistence state: versions pending write-back, plus the
/// retry/dead-letter machinery that keeps write-backs live under faults.
pub struct Persistence {
    store: Rc<RefCell<ObjectStore>>,
    cluster: Rc<RefCell<Cluster>>,
    /// Pending shadow fulfillments: key → (object id, version, size,
    /// drop-from-cache-after-persist).
    pending: IdHashMap<Key, (ObjectId, u64, u64, bool)>,
    /// Write-backs whose persistor exhausted its retries; the pending
    /// entry is kept (nothing is lost) and the sweeper re-drives them.
    dead: BTreeSet<Key>,
    /// Retry/backoff schedule of persistor attempts; exhausted retries
    /// dead-letter the write-back for the periodic sweeper.
    retry: RetryPolicy,
    /// Injected fault budget: the next `n` persistor attempts fail.
    fail_budget: u32,
    persists: Counter,
    retries: Counter,
    dead_letters: Counter,
}

impl Persistence {
    /// Completes the write-back of `key` immediately (used by the persistor
    /// event, by reclamation, and by the external-read boost path).
    ///
    /// Returns `true` if a pending fulfillment existed.
    pub fn persist_now(&mut self, key: &Key) -> bool {
        let Some((id, version, size, drop_after)) = self.pending.remove(key) else {
            return false;
        };
        self.dead.remove(key);
        let (res, _latency) =
            self.store
                .borrow_mut()
                .fulfill_shadow(&id, version, Payload::Synthetic(size));
        if res.is_ok() {
            self.persists.inc();
        }
        let mut cluster = self.cluster.borrow_mut();
        cluster.mark_clean(key).ok();
        if drop_after {
            // Final outputs leave the cache once safely in the RSDS (§6.3).
            cluster.evict(key).result.ok();
        }
        true
    }

    /// One persistor attempt: fails (keeping the pending entry) while an
    /// injected fault budget remains, otherwise persists. Returns `false`
    /// only on a failed attempt — "nothing pending" counts as success.
    fn try_persist(&mut self, key: &Key) -> bool {
        if !self.pending.contains_key(key) {
            return true;
        }
        if self.fail_budget > 0 {
            self.fail_budget -= 1;
            return false;
        }
        self.persist_now(key);
        true
    }

    /// Fault injection: the next `n` persistor attempts fail (the upload
    /// path to the RSDS is down).
    pub fn inject_persist_failures(&mut self, n: u32) {
        self.fail_budget = self.fail_budget.saturating_add(n);
    }

    /// Re-drives every dead-lettered write-back once; entries that are no
    /// longer pending (persisted or invalidated elsewhere) are dropped.
    /// Returns the number successfully re-driven.
    pub fn sweep(&mut self) -> usize {
        let dead: Vec<Key> = self.dead.iter().copied().collect();
        let mut redriven = 0;
        for key in dead {
            if !self.pending.contains_key(&key) {
                self.dead.remove(&key);
            } else if self.try_persist(&key) {
                redriven += 1;
            }
        }
        redriven
    }

    /// Drops a pending entry without persisting — the stale-shadow path:
    /// the RSDS already holds a newer, non-shadow version.
    pub fn forget(&mut self, key: &Key) {
        self.pending.remove(key);
        self.dead.remove(key);
    }

    /// Whether `key` still has an unpersisted version.
    pub fn is_pending(&self, key: &Key) -> bool {
        self.pending.contains_key(key)
    }

    /// Size of the pending write-back of `key`, if any.
    pub fn pending_size(&self, key: &Key) -> Option<u64> {
        self.pending.get(key).map(|&(_, _, size, _)| size)
    }

    /// Number of pending write-backs.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of dead-lettered write-backs awaiting the sweeper.
    pub fn dead_letter_count(&self) -> usize {
        self.dead.len()
    }
}

/// Schedules one persistor attempt for `key` after `delay`; failures
/// reschedule with exponential backoff until the policy's attempt budget
/// is exhausted, then dead-letter the key for [`start_sweeper`].
fn schedule_persistor(
    sim: &mut Sim,
    persistence: Rc<RefCell<Persistence>>,
    key: Key,
    attempt: u32,
    delay: Duration,
) {
    sim.schedule_in(delay, move |sim| {
        let again = Rc::clone(&persistence);
        let mut p = persistence.borrow_mut();
        if p.try_persist(&key) {
            return;
        }
        match p.retry.delay(attempt) {
            Some(backoff) => {
                p.retries.inc();
                drop(p);
                schedule_persistor(sim, again, key, attempt + 1, backoff);
            }
            None => {
                p.dead_letters.inc();
                p.dead.insert(key);
            }
        }
    });
}

/// Starts the periodic dead-letter sweeper: every [`SWEEP_EVERY`] it
/// re-drives write-backs whose persistor gave up, so every accepted write
/// eventually lands in the RSDS once faults cease.
pub fn start_sweeper(sim: &mut Sim, persistence: Rc<RefCell<Persistence>>) {
    sim.schedule_in(SWEEP_EVERY, move |sim| {
        persistence.borrow_mut().sweep();
        start_sweeper(sim, persistence);
    });
}

/// The OFC data plane.
pub struct OfcPlane {
    cfg: PlaneConfig,
    cluster: Rc<RefCell<Cluster>>,
    store: Rc<RefCell<ObjectStore>>,
    persistence: Rc<RefCell<Persistence>>,
    telemetry: Telemetry,
    metrics: PlaneMetrics,
    /// Health monitor: trips open after consecutive transient store
    /// failures; reads/writes then bypass to the RSDS until a probe
    /// succeeds (DESIGN.md §10).
    breaker: CircuitBreaker,
    /// Monotonic id tagging persistor spans in the trace stream.
    persist_seq: u64,
    /// Chunk manifests of striped large objects: key → chunk count
    /// (extension; see [`Admission::chunk_large`]).
    chunks: IdHashMap<Key, u32>,
    /// The installed cache policy: access notifications and the cold-tier
    /// lookup on RAM misses go here (DESIGN.md §15). `None` keeps the
    /// plane policy-free (standalone tests), which behaves exactly like
    /// the default [`crate::policy::OfcPolicy`].
    policy: Option<PolicyHandle>,
}

impl OfcPlane {
    /// Builds the plane over the cache cluster and the RSDS.
    pub fn new(
        cfg: PlaneConfig,
        cluster: Rc<RefCell<Cluster>>,
        store: Rc<RefCell<ObjectStore>>,
        telemetry: &Telemetry,
    ) -> OfcPlane {
        let metrics = PlaneMetrics::new(telemetry);
        let persistence = Rc::new(RefCell::new(Persistence {
            store: Rc::clone(&store),
            cluster: Rc::clone(&cluster),
            pending: IdHashMap::default(),
            dead: BTreeSet::new(),
            retry: RetryPolicy::default(),
            fail_budget: 0,
            persists: telemetry.counter("plane.persists"),
            retries: telemetry.counter("persist.retries"),
            dead_letters: telemetry.counter("persist.dead_letters"),
        }));
        // Webhook interposition (§6.2): a write by an external client
        // synchronously invalidates the cached copy. The store owns the
        // observer and `Persistence` owns the store, so the observer holds
        // weak handles: strong ones would close a cycle that keeps store,
        // cluster and persistence alive after every handle is dropped.
        {
            let cluster = Rc::downgrade(&cluster);
            let persistence = Rc::downgrade(&persistence);
            let invalidations = metrics.invalidations.clone();
            store
                .borrow_mut()
                .add_write_observer(Box::new(move |id, _version, external| {
                    if !external {
                        return;
                    }
                    let (Some(cluster), Some(persistence)) =
                        (cluster.upgrade(), persistence.upgrade())
                    else {
                        return;
                    };
                    let key = rc_key(id);
                    persistence.borrow_mut().pending.remove(&key);
                    if cluster.borrow_mut().delete(&key).result.is_ok() {
                        invalidations.inc();
                    }
                }));
        }
        let breaker = CircuitBreaker::new(BreakerConfig::default(), telemetry);
        OfcPlane {
            cfg,
            cluster,
            store,
            persistence,
            telemetry: telemetry.clone(),
            metrics,
            breaker,
            persist_seq: 0,
            chunks: IdHashMap::default(),
            policy: None,
        }
    }

    /// Installs a cache policy (shared with the scheduler and the agent).
    pub fn set_policy(&mut self, policy: PolicyHandle) {
        self.policy = Some(policy);
    }

    /// Current breaker state (tests and the chaos bench).
    pub fn breaker_state(&self) -> crate::health::BreakerState {
        self.breaker.state()
    }

    /// Per-tenant quota gate (DESIGN.md §18), consulted before any
    /// whole-object cache admission (miss fill and cached write). Returns
    /// whether the object may enter the cache.
    ///
    /// The tenant ledger is the cluster's O(log n) per-owner accounting
    /// (`owner_used` / `owner_victims`), so the gate costs a couple of
    /// B-tree probes — no scans. Decision ladder:
    ///
    /// 1. under quota → admit;
    /// 2. over quota but the pool keeps [`QUOTA_HEADROOM_BYTES`] free →
    ///    admit as a slack win (`plane.quota_overshoots`);
    /// 3. contended → evict the tenant's own clean LRU objects
    ///    (`plane.quota_evictions`) until the object fits its quota;
    /// 4. still over → deny; the caller falls back to the RSDS
    ///    (`plane.quota_bypasses`), exactly as without OFC.
    fn quota_admit(&mut self, key: &Key) -> bool {
        let Some(quota) = self.cfg.tenant_quota_bytes else {
            return true;
        };
        let owner = ofc_rcstore::owner_of(key);
        let mut cluster = self.cluster.borrow_mut();
        if cluster.contains(key) {
            // Overwrite of a key the tenant already holds swaps charges.
            return true;
        }
        let used = cluster.owner_used(&owner);
        if used < quota {
            return true;
        }
        if cluster.free_bytes() >= QUOTA_HEADROOM_BYTES {
            self.metrics.quota_overshoots.inc();
            return true;
        }
        // Contended: make room from the tenant's own coldest clean
        // objects (bounded batch, LRU order from the per-owner sub-index).
        let mut reclaimed = 0u64;
        for (victim, dirty, vsize) in cluster.owner_victims(&owner, QUOTA_VICTIM_BATCH) {
            if used.saturating_sub(reclaimed) < quota {
                break;
            }
            if dirty || victim == *key {
                continue;
            }
            if cluster.evict(&victim).result.is_ok() {
                reclaimed += vsize;
                self.metrics.quota_evictions.inc();
            }
        }
        if used.saturating_sub(reclaimed) < quota {
            return true;
        }
        self.metrics.quota_bypasses.inc();
        false
    }

    fn chunk_key(key: &Key, i: u32) -> Key {
        // Memoised: `"{key}#chunk{i}"` is composed once per (key, chunk
        // index) pair and re-used allocation-free after that.
        ofc_intern::compose_chunk(*key, i)
    }

    /// Stripes a large object into `<= max_cached_object` chunks spread over
    /// the cluster; returns the cache-side latency, or `None` when any chunk
    /// fails to fit (partial stripes are rolled back).
    fn write_chunked(
        &mut self,
        node: usize,
        key: &Key,
        size: u64,
        now: ofc_simtime::SimTime,
    ) -> Option<Duration> {
        let chunk = self.cfg.max_cached_object;
        let n = size.div_ceil(chunk) as u32;
        let mut latency = Duration::ZERO;
        let mut cluster = self.cluster.borrow_mut();
        let nodes = cluster.n_nodes();
        for i in 0..n {
            let this = (chunk.min(size - u64::from(i) * chunk)).max(1);
            // Round-robin homes so the stripe spreads bandwidth.
            let home = (node + i as usize) % nodes;
            let t = cluster.write_with_dirty(
                home,
                &Self::chunk_key(key, i),
                Value::synthetic(this),
                now,
                false, // The RSDS path persists the whole object separately.
            );
            match t.result {
                Ok(_) => latency += t.latency,
                Err(_) => {
                    for j in 0..=i {
                        cluster.delete(&Self::chunk_key(key, j)).result.ok();
                    }
                    return None;
                }
            }
        }
        drop(cluster);
        self.chunks.insert(*key, n);
        self.metrics.chunked_objects.inc();
        Some(latency)
    }

    /// Reassembles a striped object; `None` when any chunk is gone (the
    /// stripe is then dismantled and the read falls back to the RSDS).
    fn read_chunked(
        &mut self,
        node: usize,
        key: &Key,
        now: ofc_simtime::SimTime,
    ) -> Option<Duration> {
        let n = *self.chunks.get(key)?;
        // Chunks on distinct nodes stream in parallel: the read costs the
        // slowest chunk plus a small per-chunk coordination overhead.
        let mut slowest = Duration::ZERO;
        {
            let mut cluster = self.cluster.borrow_mut();
            for i in 0..n {
                let t = cluster.read(node, &Self::chunk_key(key, i), now);
                if t.result.is_err() {
                    drop(cluster);
                    self.drop_chunks(key);
                    return None;
                }
                slowest = slowest.max(t.latency);
            }
        }
        self.metrics.chunked_hits.inc();
        Some(slowest + Duration::from_micros(50) * n)
    }

    fn drop_chunks(&mut self, key: &Key) {
        if let Some(n) = self.chunks.remove(key) {
            let mut cluster = self.cluster.borrow_mut();
            for i in 0..n {
                cluster.delete(&Self::chunk_key(key, i)).result.ok();
            }
        }
    }

    /// The shared persistence state (for the agent's write-back hook and
    /// the webhook paths).
    pub fn persistence(&self) -> Rc<RefCell<Persistence>> {
        Rc::clone(&self.persistence)
    }

    /// The observability plane this data plane records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The webhook read path for external (non-FaaS) clients (§6.2): if the
    /// latest version is still a shadow, the persistor is boosted and the
    /// read only completes once the payload is in the RSDS.
    pub fn external_read(&mut self, id: &ObjectId) -> (Result<Payload, StoreError>, Duration) {
        let key = rc_key(id);
        let mut extra = Duration::ZERO;
        let pending_size = self.persistence.borrow().pending_size(&key);
        if let Some(size) = pending_size {
            // The pending entry may have lost a race: a concurrent writer
            // or a completed persistor can leave the latest RSDS version
            // non-shadow while the entry lingers. Only a still-shadow
            // object gets the boost; otherwise serve the RSDS version
            // as-is and drop the stale entry instead of re-persisting.
            let raced = matches!(
                self.store.borrow().head(id).0,
                Ok(meta) if !meta.is_shadow()
            );
            if raced {
                // Serve the RSDS version; the cached copy is stale too.
                self.persistence.borrow_mut().forget(&key);
                self.cluster.borrow_mut().delete(&key).result.ok();
            } else {
                // Boost: the webhook blocks until the persistor completes;
                // the reader pays the remaining upload time.
                self.persistence.borrow_mut().persist_now(&key);
                extra = self.store.borrow().latency().write(size.max(1));
            }
        }
        let (res, latency) = self.store.borrow_mut().get(id);
        (res.map(|(_, p)| p), latency + extra)
    }

    /// The webhook write path for external clients (§6.2): the registered
    /// write observer synchronously invalidates the cached copy before the
    /// RSDS write completes.
    pub fn external_write(&mut self, id: &ObjectId, payload: Payload) -> Duration {
        let invalidating = self.cluster.borrow().contains(&rc_key(id));
        let (_, latency) = self
            .store
            .borrow_mut()
            .put(id, payload, HashMap::new(), true);
        // The invalidation RTT is on the writer's critical path.
        latency
            + if invalidating {
                Duration::from_micros(200)
            } else {
                Duration::ZERO
            }
    }
}

impl DataPlane for OfcPlane {
    fn read(
        &mut self,
        _sim: &mut Sim,
        node: NodeId,
        obj: &ObjectRef,
        admission: Admission,
    ) -> ReadOutcome {
        let key = rc_key(&obj.id);
        let now = _sim.now();
        // The admission's byte ceiling composes with the plane's: a policy
        // may only tighten, never widen, the configured object-size bound.
        let limit = admission.byte_limit.min(self.cfg.max_cached_object);
        // Degraded operation: an open breaker bypasses the cache — OFC
        // must never be worse than the vanilla platform.
        if !self.breaker.allow(now) {
            self.metrics.degraded_bypasses.inc();
            let (_, latency) = self.store.borrow_mut().get(&obj.id);
            return ReadOutcome {
                latency,
                served: Served::Direct,
            };
        }
        // Try the cache first — transparently (§4).
        let hit = self.cluster.borrow_mut().read(node, &key, now);
        match hit.result {
            Ok((_value, locality)) => {
                self.breaker.record_success(now);
                if let Some(p) = &self.policy {
                    p.borrow_mut().on_access(&key, obj.size, node, true);
                }
                let served = match locality {
                    ReadLocality::LocalHit => {
                        self.metrics.local_hits.inc();
                        Served::LocalHit
                    }
                    ReadLocality::RemoteHit => {
                        self.metrics.remote_hits.inc();
                        Served::RemoteHit
                    }
                };
                return ReadOutcome {
                    latency: hit.latency,
                    served,
                };
            }
            Err(e) if e.is_transient() => {
                // A sick store is not a miss: record the failure, bypass
                // to the RSDS, and do not fill the cache.
                self.breaker.record_failure(now);
                self.metrics.degraded_bypasses.inc();
                let (_, latency) = self.store.borrow_mut().get(&obj.id);
                return ReadOutcome {
                    latency,
                    served: Served::Direct,
                };
            }
            // NotFound is a healthy response — the normal miss path below.
            Err(_) => self.breaker.record_success(now),
        }
        // A policy-private cold tier (e.g. InfiniCache's parked objects)
        // may still hold the object: restore it into RAM and serve the
        // read at the policy's restore latency.
        if admission.cache {
            let cold = self
                .policy
                .as_ref()
                .and_then(|p| p.borrow_mut().lookup_cold(&key, now));
            if let Some(cold) = cold {
                self.metrics.remote_hits.inc();
                let mut latency = cold.latency;
                let t = self.cluster.borrow_mut().write_with_dirty(
                    node,
                    &key,
                    Value::synthetic(obj.size),
                    now,
                    false, // restored copy matches the RSDS version: clean
                );
                if t.result.is_ok() {
                    self.metrics.fills.inc();
                    latency += t.latency;
                }
                if let Some(p) = &self.policy {
                    p.borrow_mut().on_access(&key, obj.size, node, true);
                }
                return ReadOutcome {
                    latency,
                    served: Served::RemoteHit,
                };
            }
        }
        // Striped large object (extension)?
        if admission.cache && admission.chunk_large && obj.size > limit {
            if let Some(latency) = self.read_chunked(node, &key, now) {
                self.metrics.local_hits.inc();
                return ReadOutcome {
                    latency,
                    served: Served::LocalHit,
                };
            }
            // Stripe broken: refetch from the RSDS and re-stripe.
            let (_, store_latency) = self.store.borrow_mut().get(&obj.id);
            self.metrics.misses.inc();
            self.write_chunked(node, &key, obj.size, now);
            return ReadOutcome {
                latency: store_latency,
                served: Served::Miss,
            };
        }

        // Miss: fetch from the RSDS.
        let (res, store_latency) = self.store.borrow_mut().get(&obj.id);
        let mut latency = store_latency;
        let cacheable = admission.cache && obj.size <= limit;
        if cacheable {
            self.metrics.misses.inc();
            if let Some(p) = &self.policy {
                p.borrow_mut().on_access(&key, obj.size, node, false);
            }
            if res.is_ok() && self.quota_admit(&key) {
                let t = self.cluster.borrow_mut().write_with_dirty(
                    node,
                    &key,
                    Value::synthetic(obj.size),
                    now,
                    false, // identical to the RSDS copy: clean
                );
                if t.result.is_ok() {
                    self.metrics.fills.inc();
                    latency += t.latency;
                }
            }
        } else {
            self.metrics.bypasses.inc();
        }
        ReadOutcome {
            latency,
            served: if cacheable {
                Served::Miss
            } else {
                Served::Direct
            },
        }
    }

    fn write(
        &mut self,
        sim: &mut Sim,
        node: NodeId,
        obj: &ObjectWrite,
        admission: Admission,
        pipeline: Option<PipelineId>,
    ) -> WriteOutcome {
        let key = rc_key(&obj.id);
        let now = sim.now();
        let limit = admission.byte_limit.min(self.cfg.max_cached_object);
        let cacheable = admission.cache && obj.size <= limit;
        if !cacheable {
            // Striped large output (extension): cache the stripe, then keep
            // the normal shadow/persistor path for the whole object.
            if admission.cache && admission.chunk_large {
                if let Some(mut latency) = self.write_chunked(node, &key, obj.size, now) {
                    let (version, shadow_latency) =
                        self.store.borrow_mut().put_shadow(&obj.id, obj.size);
                    latency += shadow_latency;
                    self.metrics.shadows.inc();
                    self.persistence
                        .borrow_mut()
                        .pending
                        .insert(key, (obj.id, version, obj.size, false));
                    let upload = self.store.borrow().latency().write(obj.size.max(1));
                    let delay = PERSISTOR_OVERHEAD + upload;
                    self.persist_seq += 1;
                    self.telemetry
                        .span_at(self.persist_seq, Phase::Persist, now, delay);
                    schedule_persistor(sim, Rc::clone(&self.persistence), key, 1, delay);
                    return WriteOutcome { latency };
                }
            }
            // Straight to the RSDS, as without OFC.
            let (_, latency) = self.store.borrow_mut().put(
                &obj.id,
                Payload::Synthetic(obj.size),
                HashMap::new(),
                false,
            );
            return WriteOutcome { latency };
        }

        // Degraded operation: an open breaker writes straight to the RSDS.
        if !self.breaker.allow(now) {
            self.metrics.degraded_bypasses.inc();
            let (_, latency) = self.store.borrow_mut().put(
                &obj.id,
                Payload::Synthetic(obj.size),
                HashMap::new(),
                false,
            );
            return WriteOutcome { latency };
        }

        // Per-tenant quota gate (DESIGN.md §18): a denied tenant writes
        // straight to the RSDS, exactly as without OFC.
        if !self.quota_admit(&key) {
            let (_, latency) = self.store.borrow_mut().put(
                &obj.id,
                Payload::Synthetic(obj.size),
                HashMap::new(),
                false,
            );
            return WriteOutcome { latency };
        }

        // Cache write (dirty until persisted).
        let t = self
            .cluster
            .borrow_mut()
            .write(node, &key, Value::synthetic(obj.size), now);
        let mut latency = t.latency;
        if let Err(e) = &t.result {
            // Transient store trouble feeds the breaker; a full cache
            // (OutOfMemory) is a capacity signal, not a health one.
            if e.is_transient() {
                self.breaker.record_failure(now);
                self.metrics.degraded_bypasses.inc();
            }
            // Either way: fall back to the RSDS path, as without OFC.
            let (_, l) = self.store.borrow_mut().put(
                &obj.id,
                Payload::Synthetic(obj.size),
                HashMap::new(),
                false,
            );
            return WriteOutcome { latency: l };
        }
        self.breaker.record_success(now);

        let intermediate = pipeline.is_some() && !obj.is_final;
        if intermediate {
            // Pipeline intermediates never reach the RSDS (§6.3): they are
            // deleted from the cache when the pipeline completes.
            self.metrics.ephemeral_bytes.add(obj.size);
            return WriteOutcome { latency };
        }

        match self.cfg.write_policy {
            WritePolicy::WriteBackShadow => {
                // Synchronous shadow creation keeps the RSDS aware of the
                // new version (§6.2); the payload follows via a persistor.
                let (version, shadow_latency) =
                    self.store.borrow_mut().put_shadow(&obj.id, obj.size);
                latency += shadow_latency;
                self.metrics.shadows.inc();
                self.persistence
                    .borrow_mut()
                    .pending
                    .insert(key, (obj.id, version, obj.size, true));
                // Inject the persistor: it uploads the payload asynchronously.
                let upload = self.store.borrow().latency().write(obj.size.max(1));
                let delay = PERSISTOR_OVERHEAD + upload;
                self.persist_seq += 1;
                self.telemetry
                    .span_at(self.persist_seq, Phase::Persist, now, delay);
                schedule_persistor(sim, Rc::clone(&self.persistence), key, 1, delay);
            }
            WritePolicy::WriteThrough => {
                // The full payload hits the RSDS on the critical path; the
                // cached copy is immediately clean and (being final) is
                // dropped, as after a persistor run.
                let (_, store_latency) = self.store.borrow_mut().put(
                    &obj.id,
                    Payload::Synthetic(obj.size),
                    HashMap::new(),
                    false,
                );
                latency += store_latency;
                self.cluster.borrow_mut().mark_clean(&key).ok();
                self.cluster.borrow_mut().evict(&key).result.ok();
            }
            WritePolicy::Lazy => {
                // Relaxed mode: persistence deferred to eviction;
                // durability relies on the cache's disk replication (§6.2).
                self.persistence
                    .borrow_mut()
                    .pending
                    .insert(key, (obj.id, 0, obj.size, false));
            }
        }
        WriteOutcome { latency }
    }

    fn pipeline_ended(
        &mut self,
        _sim: &mut Sim,
        _pipeline: PipelineId,
        intermediates: &[ObjectId],
    ) {
        let mut cluster = self.cluster.borrow_mut();
        for id in intermediates {
            let key = rc_key(id);
            if cluster.delete(&key).result.is_ok() {
                self.metrics.intermediates_dropped.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofc_objstore::latency::LatencyModel;
    use ofc_rcstore::ClusterConfig;
    use ofc_simtime::SimTime;

    const MB: u64 = 1 << 20;

    fn setup() -> (OfcPlane, Rc<RefCell<Cluster>>, Rc<RefCell<ObjectStore>>) {
        let cluster = Rc::new(RefCell::new(Cluster::new(ClusterConfig {
            nodes: 3,
            replication_factor: 1,
            node_pool_bytes: 256 * MB,
            max_object_bytes: 10 * MB,
            segment_bytes: 16 * MB,
            ..ClusterConfig::default()
        })));
        let store = Rc::new(RefCell::new(ObjectStore::new(LatencyModel::swift())));
        let plane = OfcPlane::new(
            PlaneConfig::default(),
            Rc::clone(&cluster),
            Rc::clone(&store),
            &Telemetry::standalone(),
        );
        (plane, cluster, store)
    }

    fn put_input(store: &Rc<RefCell<ObjectStore>>, key: &str, size: u64) -> ObjectRef {
        let id = ObjectId::new("in", key);
        store
            .borrow_mut()
            .put(&id, Payload::Synthetic(size), HashMap::new(), false);
        ObjectRef { id, size }
    }

    #[test]
    fn miss_fills_cache_then_local_hit() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let obj = put_input(&store, "a", 64 * 1024);
        let miss = plane.read(&mut sim, 1, &obj, Admission::admit());
        assert_eq!(miss.served, Served::Miss);
        assert!(
            miss.latency >= Duration::from_millis(42),
            "paid the RSDS read"
        );
        assert!(cluster.borrow().contains(&rc_key(&obj.id)));
        let hit = plane.read(&mut sim, 1, &obj, Admission::admit());
        assert_eq!(hit.served, Served::LocalHit);
        assert!(hit.latency < Duration::from_millis(2));
        // From another node: remote hit, ~2 ms dearer.
        let remote = plane.read(&mut sim, 0, &obj, Admission::admit());
        assert_eq!(remote.served, Served::RemoteHit);
        assert!(remote.latency > hit.latency);
        let m = plane.telemetry().metrics();
        assert!((plane_hit_ratio(&m) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn not_beneficial_reads_bypass_cache() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let obj = put_input(&store, "a", 64 * 1024);
        let out = plane.read(&mut sim, 0, &obj, Admission::bypass());
        assert_eq!(out.served, Served::Direct);
        assert!(!cluster.borrow().contains(&rc_key(&obj.id)));
        assert_eq!(plane.telemetry().metrics().counter("plane.bypasses"), 1);
    }

    #[test]
    fn oversized_objects_never_cached() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let obj = put_input(&store, "big", 11 * MB);
        let out = plane.read(&mut sim, 0, &obj, Admission::admit());
        assert_eq!(out.served, Served::Direct);
        assert!(!cluster.borrow().contains(&rc_key(&obj.id)));
    }

    #[test]
    fn write_goes_through_cache_with_shadow() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "o1"),
            size: 256 * 1024,
            is_final: true,
        };
        let out = plane.write(&mut sim, 0, &w, Admission::admit(), None);
        // Critical path: cache write + 11 ms shadow, far below a ~110 ms
        // full Swift PUT.
        assert!(out.latency >= Duration::from_millis(11));
        assert!(out.latency < Duration::from_millis(30), "{:?}", out.latency);
        // The RSDS has a shadow, not yet the payload.
        let meta = store.borrow().head(&w.id).0.unwrap();
        assert!(meta.is_shadow());
        assert!(cluster.borrow().is_dirty(&rc_key(&w.id)).unwrap());
        // After the persistor runs, the payload is in the RSDS, the cache
        // copy is clean and (being a final output) dropped.
        sim.run();
        let meta = store.borrow().head(&w.id).0.unwrap();
        assert!(!meta.is_shadow());
        assert!(!cluster.borrow().contains(&rc_key(&w.id)));
        let m = plane.telemetry().metrics();
        assert_eq!(
            (m.counter("plane.shadows"), m.counter("plane.persists")),
            (1, 1)
        );
        // The persistor run shows up as a Persist span.
        assert_eq!(plane.telemetry().trace().phase_count(Phase::Persist), 1);
    }

    #[test]
    fn pipeline_intermediates_skip_rsds_and_drop_at_end() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("tmp", "chunk0"),
            size: MB,
            is_final: false,
        };
        let out = plane.write(&mut sim, 0, &w, Admission::admit(), Some(7));
        // No shadow: sub-millisecond cache-only write.
        assert!(out.latency < Duration::from_millis(5));
        assert!(
            store.borrow().head(&w.id).0.is_err(),
            "intermediate leaked to RSDS"
        );
        assert!(cluster.borrow().contains(&rc_key(&w.id)));
        plane.pipeline_ended(&mut sim, 7, std::slice::from_ref(&w.id));
        assert!(!cluster.borrow().contains(&rc_key(&w.id)));
        let m = plane.telemetry().metrics();
        assert_eq!(m.counter("plane.intermediates_dropped"), 1);
        assert_eq!(m.counter("plane.ephemeral_bytes"), MB);
    }

    #[test]
    fn external_read_boosts_pending_persistor() {
        let (mut plane, _cluster, store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "o2"),
            size: 512 * 1024,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, Admission::admit(), None);
        // Do NOT run the sim: the persistor has not fired yet.
        let (res, latency) = plane.external_read(&w.id);
        assert!(res.is_ok(), "webhook must deliver the latest version");
        // The reader paid the boosted upload.
        assert!(latency > store.borrow().latency().read(w.size));
        assert!(!store.borrow().head(&w.id).0.unwrap().is_shadow());
    }

    #[test]
    fn external_write_invalidates_cached_copy() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let obj = put_input(&store, "shared", 64 * 1024);
        plane.read(&mut sim, 0, &obj, Admission::admit()); // fill cache
        assert!(cluster.borrow().contains(&rc_key(&obj.id)));
        plane.external_write(&obj.id, Payload::Synthetic(128 * 1024));
        assert!(
            !cluster.borrow().contains(&rc_key(&obj.id)),
            "stale cached copy must be invalidated"
        );
        assert_eq!(
            plane.telemetry().metrics().counter("plane.invalidations"),
            1
        );
        // The store holds the new version.
        let (meta, payload) = store.borrow_mut().get(&obj.id).0.unwrap();
        assert_eq!(payload.len(), 128 * 1024);
        assert_eq!(meta.version, 2);
    }

    #[test]
    fn relaxed_mode_skips_shadows() {
        let (_, cluster, store) = setup();
        let mut plane = OfcPlane::new(
            PlaneConfig {
                write_policy: WritePolicy::Lazy,
                ..PlaneConfig::default()
            },
            Rc::clone(&cluster),
            Rc::clone(&store),
            &Telemetry::standalone(),
        );
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "o3"),
            size: 64 * 1024,
            is_final: true,
        };
        let out = plane.write(&mut sim, 0, &w, Admission::admit(), None);
        assert!(out.latency < Duration::from_millis(5), "no shadow cost");
        sim.run();
        assert!(
            store.borrow().head(&w.id).0.is_err(),
            "lazy: nothing persisted"
        );
        assert!(cluster.borrow().contains(&rc_key(&w.id)));
    }

    /// What the Faa$T rival's admission asks for: stripe oversized objects.
    const STRIPING: Admission = Admission {
        cache: true,
        byte_limit: u64::MAX,
        chunk_large: true,
    };

    #[test]
    fn chunked_write_stripes_large_objects() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "big"),
            size: 25 * MB, // 3 chunks of <=10 MB
            is_final: true,
        };
        let out = plane.write(&mut sim, 0, &w, STRIPING, None);
        // Far cheaper than a ~660 ms direct Swift PUT of 25 MB.
        assert!(out.latency < Duration::from_millis(60), "{:?}", out.latency);
        assert_eq!(
            plane.telemetry().metrics().counter("plane.chunked_objects"),
            1
        );
        // Three chunk entries exist, spread across nodes.
        let key = rc_key(&w.id);
        let masters: std::collections::HashSet<_> = (0..3)
            .map(|i| {
                cluster
                    .borrow()
                    .master_of(&OfcPlane::chunk_key(&key, i))
                    .expect("chunk cached")
            })
            .collect();
        assert!(masters.len() > 1, "stripe must spread over nodes");
        // The persistor still lands the whole object in the RSDS.
        sim.run();
        assert!(!store.borrow().head(&w.id).0.unwrap().is_shadow());
    }

    #[test]
    fn chunked_read_reassembles_fast() {
        let (mut plane, _cluster, _store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "big"),
            size: 25 * MB,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, STRIPING, None);
        sim.run();
        let hit = plane.read(
            &mut sim,
            1,
            &ObjectRef {
                id: w.id,
                size: w.size,
            },
            STRIPING,
        );
        assert_eq!(hit.served, Served::LocalHit);
        // Parallel stripes: far faster than the ~670 ms RSDS read.
        assert!(hit.latency < Duration::from_millis(40), "{:?}", hit.latency);
        assert_eq!(plane.telemetry().metrics().counter("plane.chunked_hits"), 1);
    }

    /// Striping's production caller: the Faa$T rival's admission is what
    /// asks for it, through the same policy seam the scheduler uses.
    #[test]
    fn faast_policy_stripes_oversized_reads() {
        use crate::policy::{build_policy, PolicyKind, PredictionCtx};
        let (mut plane, _cluster, store) = setup();
        let policy = build_policy(PolicyKind::Faast, plane.telemetry());
        plane.set_policy(Rc::clone(&policy));
        let (tenant, function) = ("t".into(), "f".into());
        let admission = policy.borrow_mut().admit(&PredictionCtx {
            tenant: &tenant,
            function: &function,
            booked_mem: 512 * MB,
            prediction: None,
        });
        let mut sim = Sim::new(0);
        let obj = put_input(&store, "big", 25 * MB);
        // First read misses and stripes the object; the second reassembles it.
        let miss = plane.read(&mut sim, 0, &obj, admission);
        assert_eq!(miss.served, Served::Miss);
        assert!(plane.telemetry().metrics().counter("plane.chunked_objects") >= 1);
        let hit = plane.read(&mut sim, 0, &obj, admission);
        assert_eq!(hit.served, Served::LocalHit);
        assert!(plane.telemetry().metrics().counter("plane.chunked_hits") >= 1);
    }

    #[test]
    fn broken_stripe_falls_back_and_restripes() {
        let (mut plane, cluster, _store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "big"),
            size: 25 * MB,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, STRIPING, None);
        sim.run();
        // Evict one chunk behind the plane's back.
        let key = rc_key(&w.id);
        cluster
            .borrow_mut()
            .delete(&OfcPlane::chunk_key(&key, 1))
            .result
            .unwrap();
        let miss = plane.read(
            &mut sim,
            0,
            &ObjectRef {
                id: w.id,
                size: w.size,
            },
            STRIPING,
        );
        assert_eq!(miss.served, Served::Miss, "broken stripe is a miss");
        // The object was re-striped; the next read hits again.
        let hit = plane.read(
            &mut sim,
            0,
            &ObjectRef {
                id: w.id,
                size: w.size,
            },
            STRIPING,
        );
        assert_eq!(hit.served, Served::LocalHit);
    }

    #[test]
    fn breaker_trips_open_then_recovers_through_probe() {
        use crate::health::BreakerState;
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let obj = put_input(&store, "a", 64 * 1024);
        plane.read(&mut sim, 0, &obj, Admission::admit()); // fill
                                                           // Five consecutive transient failures trip the default breaker.
        cluster.borrow_mut().inject_transient_errors(5);
        for _ in 0..5 {
            let out = plane.read(&mut sim, 0, &obj, Admission::admit());
            assert_eq!(out.served, Served::Direct, "degraded bypass to RSDS");
        }
        assert_eq!(plane.breaker_state(), BreakerState::Open);
        // Open: the cache is not even consulted.
        let out = plane.read(&mut sim, 0, &obj, Admission::admit());
        assert_eq!(out.served, Served::Direct);
        let m = plane.telemetry().metrics();
        assert_eq!(m.counter("plane.degraded_bypasses"), 6);
        assert_eq!(m.gauge("plane.breaker_state"), Some(2.0));
        // After the cool-down a probe is admitted; the store is healthy
        // again, so the breaker closes and the cached copy serves hits.
        sim.schedule_at(SimTime::from_secs(31), |_| {});
        sim.run();
        let out = plane.read(&mut sim, 0, &obj, Admission::admit());
        assert_eq!(out.served, Served::LocalHit);
        assert_eq!(plane.breaker_state(), BreakerState::Closed);
        assert_eq!(
            plane.telemetry().metrics().gauge("plane.breaker_state"),
            Some(0.0)
        );
    }

    #[test]
    fn degraded_write_bypasses_when_breaker_open() {
        use crate::health::BreakerState;
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        cluster.borrow_mut().inject_transient_errors(5);
        for i in 0..5 {
            let w = ObjectWrite {
                id: ObjectId::new("out", format!("w{i}")),
                size: 1024,
                is_final: true,
            };
            plane.write(&mut sim, 0, &w, Admission::admit(), None);
        }
        assert_eq!(plane.breaker_state(), BreakerState::Open);
        // Writes under an open breaker land durably in the RSDS directly.
        let w = ObjectWrite {
            id: ObjectId::new("out", "direct"),
            size: 1024,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, Admission::admit(), None);
        assert!(!store.borrow().head(&w.id).0.unwrap().is_shadow());
        assert!(!cluster.borrow().contains(&rc_key(&w.id)));
        // Every failed/bypassed write still reached the RSDS: no data loss.
        for i in 0..5 {
            let id = ObjectId::new("out", format!("w{i}"));
            assert!(store.borrow().head(&id).0.is_ok(), "w{i} lost");
        }
    }

    #[test]
    fn persistor_retries_then_dead_letters_then_sweeper_redrives() {
        let (mut plane, _cluster, store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "o5"),
            size: 1024,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, Admission::admit(), None);
        let p = plane.persistence();
        // Enough failures to exhaust the default 4-attempt budget.
        p.borrow_mut().inject_persist_failures(4);
        sim.run();
        let m = plane.telemetry().metrics();
        assert_eq!(m.counter("persist.retries"), 3, "3 backoff retries");
        assert_eq!(m.counter("persist.dead_letters"), 1);
        assert_eq!(m.counter("plane.persists"), 0);
        assert!(p.borrow().is_pending(&rc_key(&w.id)), "nothing lost");
        assert_eq!(p.borrow().dead_letter_count(), 1);
        assert!(store.borrow().head(&w.id).0.unwrap().is_shadow());
        // The fault has ceased: one sweep re-drives the write-back.
        assert_eq!(p.borrow_mut().sweep(), 1);
        assert!(!store.borrow().head(&w.id).0.unwrap().is_shadow());
        assert_eq!(p.borrow().dead_letter_count(), 0);
        assert_eq!(p.borrow().pending_count(), 0);
    }

    #[test]
    fn scheduled_sweeper_drains_dead_letters() {
        let (mut plane, _cluster, store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "o6"),
            size: 1024,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, Admission::admit(), None);
        let p = plane.persistence();
        p.borrow_mut().inject_persist_failures(4);
        start_sweeper(&mut sim, Rc::clone(&p));
        // The sweeper reschedules forever: bound the run.
        sim.run_until(SimTime::from_secs(120));
        assert!(!store.borrow().head(&w.id).0.unwrap().is_shadow());
        assert_eq!(p.borrow().pending_count(), 0);
        assert_eq!(p.borrow().dead_letter_count(), 0);
    }

    #[test]
    fn external_read_tolerates_already_persisted_race() {
        let (mut plane, cluster, store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "o7"),
            size: 512 * 1024,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, Admission::admit(), None);
        assert!(plane.persistence().borrow().is_pending(&rc_key(&w.id)));
        // A concurrent internal writer lands a newer, full version in the
        // RSDS while the pending entry lingers (the persistor lost the
        // race). The webhook must serve the RSDS version, not boost a
        // stale shadow or re-persist over the newer payload.
        store
            .borrow_mut()
            .put(&w.id, Payload::Synthetic(640 * 1024), HashMap::new(), false);
        let (res, latency) = plane.external_read(&w.id);
        assert_eq!(res.unwrap().len(), 640 * 1024, "the newer version wins");
        assert!(
            latency <= store.borrow().latency().read(640 * 1024),
            "no stale-shadow boost charged: {latency:?}"
        );
        let p = plane.persistence();
        assert!(
            !p.borrow().is_pending(&rc_key(&w.id)),
            "stale entry dropped"
        );
        assert!(
            !cluster.borrow().contains(&rc_key(&w.id)),
            "stale cached copy invalidated"
        );
        assert_eq!(plane.telemetry().metrics().counter("plane.persists"), 0);
    }

    #[test]
    fn persistence_pending_tracking() {
        let (mut plane, _cluster, _store) = setup();
        let mut sim = Sim::new(0);
        let w = ObjectWrite {
            id: ObjectId::new("out", "o4"),
            size: 1024,
            is_final: true,
        };
        plane.write(&mut sim, 0, &w, Admission::admit(), None);
        let p = plane.persistence();
        assert!(p.borrow().is_pending(&rc_key(&w.id)));
        assert_eq!(p.borrow().pending_count(), 1);
        assert!(p.borrow_mut().persist_now(&rc_key(&w.id)));
        assert!(!p.borrow_mut().persist_now(&rc_key(&w.id)), "idempotent");
    }
}
