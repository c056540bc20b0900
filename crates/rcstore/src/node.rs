//! A single storage node: master (in-memory, accounted in live bytes
//! against its pool) plus backup (on-disk replica) roles, co-located with
//! a FaaS invoker.

use crate::{AccessStats, Key, NodeId, RcError, Value};
use ofc_intern::IdHashMap;
use ofc_simtime::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// A master-copy record: payload, access statistics, dirtiness.
#[derive(Debug, Clone)]
pub struct MasterObject {
    /// The payload.
    pub value: Value,
    /// Access statistics (`n_access` / `t_access`, §6.3).
    pub stats: AccessStats,
    /// Dirty objects have not been persisted to the RSDS yet and must not
    /// be evicted before write-back (§6.4).
    pub dirty: bool,
    /// Owning tenant ([`crate::owner_of`] of the key), resolved once at
    /// insertion so the per-owner bookkeeping on the read path stays free
    /// of string work.
    pub owner: Key,
}

/// The slice of `owner_idle` that holds `owner`'s masters: the owner's
/// slab id. Owners are plain names ([`crate::owner_of`]); a structural
/// name owns nothing and maps to an id no string has.
fn owner_group(owner: &Key) -> u32 {
    owner.as_istr().map_or(u32::MAX, |s| s.id())
}

/// Access count at or above which an object can never become a periodic
/// eviction victim through the cold rule (§6.3: `n_access < 5`).
pub const COLD_ACCESS_THRESHOLD: u64 = 5;

/// One storage node.
#[derive(Debug)]
pub struct StorageNode {
    id: NodeId,
    /// Memory pool size in bytes (the vertical-scaling knob, §6.4).
    pool: u64,
    /// Live master bytes, each object charged `size.max(1)`.
    used: u64,
    master: IdHashMap<Key, MasterObject>,
    /// Backup replicas held on disk for other nodes' masters.
    backup: IdHashMap<Key, Value>,
    up: bool,
    /// Eviction-candidate index, idle rule: every master keyed by
    /// `t_access`, so the stale prefix (`idle >= evict_idle`) is a range
    /// scan instead of a full sweep. `BTreeSet` keeps iteration
    /// deterministic.
    idle_index: BTreeSet<(SimTime, Key)>,
    /// Eviction-candidate index, cold rule: masters with `n_access <
    /// COLD_ACCESS_THRESHOLD`, keyed by creation time. An object is pruned for
    /// good once its access count crosses the threshold (`n_access` only
    /// grows), so the index shrinks as the working set warms up.
    cold_index: BTreeSet<(SimTime, Key)>,
    /// Per-tenant LRU sub-index: every master keyed `(owner_group(owner),
    /// t_access, key)`, so one tenant's coldest objects are a prefix range
    /// scan of its own slice (quota reclamation never sweeps other
    /// tenants' objects). The owner's slab id only groups the entries —
    /// no query spans two owners, so id order is never observed — and
    /// spares every probe a string compare; inside a slice the order is
    /// `(t_access, key)`, keys in string order.
    owner_idle: BTreeSet<(u32, SimTime, Key)>,
    /// Per-tenant live-byte accounting, charged on the same lines as
    /// `used` (`size.max(1)`), so `Σ owner_usage == used` is an invariant.
    /// One hash probe per mutation or query; iteration order is arbitrary.
    owner_usage: IdHashMap<Key, u64>,
}

impl StorageNode {
    /// Creates an empty node with the given pool size.
    pub fn new(id: NodeId, pool_bytes: u64) -> Self {
        StorageNode {
            id,
            pool: pool_bytes,
            used: 0,
            master: IdHashMap::default(),
            backup: IdHashMap::default(),
            up: true,
            idle_index: BTreeSet::new(),
            cold_index: BTreeSet::new(),
            owner_idle: BTreeSet::new(),
            owner_usage: IdHashMap::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is alive.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Marks the node down (crash) or up (restart). A restarted node comes
    /// back empty — recovery repopulates it.
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
        if !up {
            self.used = 0;
            self.master.clear();
            self.backup.clear();
            self.idle_index.clear();
            self.cold_index.clear();
            self.owner_idle.clear();
            self.owner_usage.clear();
        }
    }

    /// Memory pool size in bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.pool
    }

    /// Live master bytes in memory.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes available for new master copies.
    pub fn available_bytes(&self) -> u64 {
        self.pool_bytes().saturating_sub(self.used_bytes())
    }

    /// Adjusts the pool size (vertical scaling, §6.4). The caller is
    /// responsible for evicting/migrating first when shrinking; this method
    /// reports whether live data still exceeds the new pool.
    pub fn set_pool_bytes(&mut self, bytes: u64) -> bool {
        self.pool = bytes;
        self.used > self.pool
    }

    /// Number of master objects.
    pub fn master_count(&self) -> usize {
        self.master.len()
    }

    /// Number of backup replicas held.
    pub fn backup_count(&self) -> usize {
        self.backup.len()
    }

    /// Whether this node masters `key`.
    pub fn has_master(&self, key: &Key) -> bool {
        self.master.contains_key(key)
    }

    /// Whether this node holds a backup replica of `key`.
    pub fn has_backup(&self, key: &Key) -> bool {
        self.backup.contains_key(key)
    }

    /// Inserts (or replaces) a master copy.
    ///
    /// Fails with [`RcError::OutOfMemory`], leaving the node untouched, when
    /// the new charge would not fit beside the other live masters.
    pub fn insert_master(
        &mut self,
        key: Key,
        value: Value,
        now: SimTime,
        dirty: bool,
    ) -> Result<(), RcError> {
        if !self.up {
            return Err(RcError::NodeUnavailable(self.id));
        }
        let charge = value.size().max(1);
        let old = self
            .master
            .get(&key)
            .map(|o| (o.stats, o.owner, o.value.size().max(1)));
        let live = self.used - old.map_or(0, |(_, _, c)| c);
        if live + charge > self.pool {
            return Err(RcError::OutOfMemory {
                requested: charge,
                available: self.pool.saturating_sub(live),
            });
        }
        if let Some((old_stats, old_owner, old_charge)) = old {
            self.unindex(&key, &old_stats);
            self.uncharge(old_owner, old_stats.t_access, &key, old_charge);
        }
        let owner = crate::owner_of(&key);
        self.idle_index.insert((now, key));
        self.cold_index.insert((now, key));
        self.owner_idle.insert((owner_group(&owner), now, key));
        *self.owner_usage.entry(owner).or_insert(0) += charge;
        self.used += charge;
        self.master.insert(
            key,
            MasterObject {
                value,
                stats: AccessStats {
                    n_access: 0,
                    t_access: now,
                    created: now,
                },
                dirty,
                owner,
            },
        );
        Ok(())
    }

    /// Reads a master copy, bumping `n_access` / `t_access`.
    pub fn read_master(&mut self, key: &Key, now: SimTime) -> Option<&MasterObject> {
        if !self.up {
            return None;
        }
        let (prev_access, created, n_after, owner) = {
            let obj = self.master.get_mut(key)?;
            let prev = obj.stats.t_access;
            obj.stats.n_access += 1;
            obj.stats.t_access = now;
            (prev, obj.stats.created, obj.stats.n_access, obj.owner)
        };
        if prev_access != now {
            self.idle_index.remove(&(prev_access, *key));
            self.idle_index.insert((now, *key));
            let group = owner_group(&owner);
            self.owner_idle.remove(&(group, prev_access, *key));
            self.owner_idle.insert((group, now, *key));
        }
        if n_after == COLD_ACCESS_THRESHOLD {
            // Crossed the §6.3 access bound: permanently out of the cold set.
            self.cold_index.remove(&(created, *key));
        }
        self.master.get(key)
    }

    /// Peeks at a master copy without touching the access statistics.
    pub fn peek_master(&self, key: &Key) -> Option<&MasterObject> {
        self.master.get(key)
    }

    /// Removes a master copy, returning it.
    pub fn remove_master(&mut self, key: &Key) -> Option<MasterObject> {
        let obj = self.master.remove(key)?;
        self.unindex(key, &obj.stats);
        self.uncharge(obj.owner, obj.stats.t_access, key, obj.value.size().max(1));
        Some(obj)
    }

    /// Drops `key`'s entries from both eviction indexes.
    fn unindex(&mut self, key: &Key, stats: &AccessStats) {
        self.idle_index.remove(&(stats.t_access, *key));
        if stats.n_access < COLD_ACCESS_THRESHOLD {
            self.cold_index.remove(&(stats.created, *key));
        }
    }

    /// Reverses one key's charge to `used` and the per-owner structures.
    fn uncharge(&mut self, owner: Key, t_access: SimTime, key: &Key, charge: u64) {
        self.used -= charge;
        self.owner_idle
            .remove(&(owner_group(&owner), t_access, *key));
        if let Some(used) = self.owner_usage.get_mut(&owner) {
            *used = used.saturating_sub(charge);
            if *used == 0 {
                self.owner_usage.remove(&owner);
            }
        }
    }

    /// Live master bytes charged to `owner` on this node.
    pub fn owner_used(&self, owner: &Key) -> u64 {
        self.owner_usage.get(owner).copied().unwrap_or(0)
    }

    /// Per-owner live-byte accounting, in arbitrary (hash) order.
    pub fn owner_usages(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.owner_usage.iter().map(|(k, &v)| (k, v))
    }

    /// Up to `max` of `owner`'s masters in LRU order, with dirtiness and
    /// charged size — the quota-reclamation victim feed, ties on
    /// `t_access` broken by key string. Walks only the owner's slice of
    /// the per-tenant sub-index (O(log n + max)).
    pub fn owner_victims(&self, owner: &Key, max: usize) -> Vec<(Key, bool, u64, SimTime)> {
        let mut out = Vec::new();
        let group = owner_group(owner);
        let from = (group, SimTime::ZERO, Key::from(""));
        for &(o, t_access, key) in self.owner_idle.range(from..) {
            if o != group || out.len() >= max {
                break;
            }
            let Some(obj) = self.master.get(&key) else {
                debug_assert!(false, "owner index references a missing master");
                continue;
            };
            out.push((key, obj.dirty, obj.value.size().max(1), t_access));
        }
        out
    }

    /// Periodic-eviction candidates (§6.3): masters idle for at least
    /// `min_idle`, plus masters older than `min_age` that never crossed the
    /// cold access threshold. Both come from ordered indexes, so only the
    /// expirable prefix is visited instead of every object; the returned
    /// count says how many index entries were inspected. Victims are
    /// key-sorted `(key, dirty)` pairs — deterministic regardless of hash
    /// map state.
    pub fn evict_candidates(
        &self,
        now: SimTime,
        min_age: Duration,
        min_idle: Duration,
    ) -> (Vec<(Key, bool)>, u64) {
        let mut visited = 0u64;
        // Borrow candidate keys while scanning; the owned clones happen
        // once, below, only for keys that actually survive as victims.
        let mut victims: BTreeMap<&Key, bool> = BTreeMap::new();
        for (t_access, key) in &self.idle_index {
            visited += 1;
            if now.saturating_since(*t_access) < min_idle {
                break; // Everything after this entry is younger.
            }
            let Some(obj) = self.master.get(key) else {
                debug_assert!(false, "idle index references a missing master");
                continue;
            };
            victims.insert(key, obj.dirty);
        }
        for (created, key) in &self.cold_index {
            visited += 1;
            if now.saturating_since(*created) < min_age {
                break; // Everything after this entry is within the grace period.
            }
            let Some(obj) = self.master.get(key) else {
                debug_assert!(false, "cold index references a missing master");
                continue;
            };
            victims.insert(key, obj.dirty);
        }
        let victims = victims.into_iter().map(|(k, d)| (*k, d)).collect();
        (victims, visited)
    }

    /// Sets the dirty flag of a master copy.
    pub fn set_dirty(&mut self, key: &Key, dirty: bool) -> Result<(), RcError> {
        match self.master.get_mut(key) {
            Some(o) => {
                o.dirty = dirty;
                Ok(())
            }
            None => Err(RcError::NotFound(*key)),
        }
    }

    /// Stores a backup replica (on disk; does not consume pool memory).
    pub fn store_backup(&mut self, key: Key, value: Value) {
        if self.up {
            self.backup.insert(key, value);
        }
    }

    /// Drops a backup replica.
    pub fn remove_backup(&mut self, key: &Key) -> Option<Value> {
        self.backup.remove(key)
    }

    /// Takes the backup copy for promotion to master on this node.
    ///
    /// This is the heart of migration-by-promotion (§6.4): the payload is
    /// already on this node's disk, so no network transfer happens.
    pub fn promote_backup(&mut self, key: &Key, now: SimTime, dirty: bool) -> Result<(), RcError> {
        let value = self
            .backup
            .get(key)
            .copied()
            .ok_or(RcError::NoEligibleBackup(*key))?;
        self.insert_master(*key, value, now, dirty)?;
        self.backup.remove(key);
        Ok(())
    }

    /// Demotes the master copy to a backup replica (memory → disk).
    pub fn demote_to_backup(&mut self, key: &Key) -> Result<(), RcError> {
        let obj = self.remove_master(key).ok_or(RcError::NotFound(*key))?;
        self.backup.insert(*key, obj.value);
        Ok(())
    }

    /// Master keys in least-recently-used order, ties by key (LRU eviction
    /// input, §6.4): the idle index read front to back.
    pub fn lru_masters(&self) -> Vec<Key> {
        self.idle_index.iter().map(|&(_, k)| k).collect()
    }

    /// Iterates over master entries.
    pub fn masters(&self) -> impl Iterator<Item = (&Key, &MasterObject)> {
        self.master.iter()
    }

    /// Iterates over backup keys.
    pub fn backups(&self) -> impl Iterator<Item = &Key> {
        self.backup.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from(s)
    }

    fn node() -> StorageNode {
        StorageNode::new(0, 8 << 20)
    }

    #[test]
    fn master_lifecycle() {
        let mut n = node();
        n.insert_master(key("a"), Value::synthetic(1000), SimTime::ZERO, false)
            .unwrap();
        assert!(n.has_master(&key("a")));
        assert_eq!(n.used_bytes(), 1000);
        let obj = n.read_master(&key("a"), SimTime::from_secs(5)).unwrap();
        assert_eq!(obj.stats.n_access, 1);
        assert_eq!(obj.stats.t_access, SimTime::from_secs(5));
        let removed = n.remove_master(&key("a")).unwrap();
        assert_eq!(removed.value.size(), 1000);
        assert_eq!(n.used_bytes(), 0);
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut n = node();
        n.insert_master(key("a"), Value::synthetic(10), SimTime::ZERO, false)
            .unwrap();
        n.peek_master(&key("a")).unwrap();
        assert_eq!(n.peek_master(&key("a")).unwrap().stats.n_access, 0);
    }

    #[test]
    fn pool_exhaustion() {
        let mut n = StorageNode::new(0, 2 << 20);
        n.insert_master(key("a"), Value::synthetic(1 << 20), SimTime::ZERO, false)
            .unwrap();
        n.insert_master(key("b"), Value::synthetic(1 << 20), SimTime::ZERO, false)
            .unwrap();
        let err = n
            .insert_master(key("c"), Value::synthetic(1 << 20), SimTime::ZERO, false)
            .unwrap_err();
        assert!(matches!(err, RcError::OutOfMemory { .. }));
    }

    #[test]
    fn refused_overwrite_leaves_accounting_unchanged() {
        let mut n = StorageNode::new(0, 100);
        n.insert_master(key("a"), Value::synthetic(60), SimTime::ZERO, false)
            .unwrap();
        let err = n
            .insert_master(key("a"), Value::synthetic(120), SimTime::ZERO, false)
            .unwrap_err();
        assert_eq!(
            err,
            RcError::OutOfMemory {
                requested: 120,
                available: 100
            }
        );
        let ledger: u64 = n.owner_usages().map(|(_, v)| v).sum();
        assert_eq!(n.used_bytes(), 60);
        assert_eq!(ledger, 60);
        assert_eq!(n.peek_master(&key("a")).unwrap().value.size(), 60);
    }

    #[test]
    fn promotion_and_demotion_round_trip() {
        let mut n = node();
        n.store_backup(key("a"), Value::synthetic(500));
        assert!(n.has_backup(&key("a")));
        n.promote_backup(&key("a"), SimTime::ZERO, false).unwrap();
        assert!(n.has_master(&key("a")));
        assert!(!n.has_backup(&key("a")));
        n.demote_to_backup(&key("a")).unwrap();
        assert!(!n.has_master(&key("a")));
        assert!(n.has_backup(&key("a")));
        assert_eq!(n.used_bytes(), 0);
    }

    #[test]
    fn promote_without_backup_fails() {
        let mut n = node();
        assert!(matches!(
            n.promote_backup(&key("zzz"), SimTime::ZERO, false),
            Err(RcError::NoEligibleBackup(_))
        ));
    }

    #[test]
    fn lru_order_follows_access_times() {
        let mut n = node();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            n.insert_master(
                key(name),
                Value::synthetic(10),
                SimTime::from_secs(i as u64),
                false,
            )
            .unwrap();
        }
        // Touch "a" last.
        n.read_master(&key("a"), SimTime::from_secs(100));
        let lru = n.lru_masters();
        assert_eq!(lru[0], key("b"));
        assert_eq!(lru[2], key("a"));
    }

    #[test]
    fn crash_clears_state() {
        let mut n = node();
        n.insert_master(key("a"), Value::synthetic(10), SimTime::ZERO, false)
            .unwrap();
        n.store_backup(key("b"), Value::synthetic(10));
        n.set_up(false);
        assert!(!n.is_up());
        assert_eq!(n.master_count(), 0);
        assert_eq!(n.backup_count(), 0);
        assert!(n
            .insert_master(key("c"), Value::synthetic(1), SimTime::ZERO, false)
            .is_err());
        n.set_up(true);
        assert!(n
            .insert_master(key("c"), Value::synthetic(1), SimTime::ZERO, false)
            .is_ok());
    }

    #[test]
    fn dirty_flag_toggles() {
        let mut n = node();
        n.insert_master(key("a"), Value::synthetic(10), SimTime::ZERO, true)
            .unwrap();
        assert!(n.peek_master(&key("a")).unwrap().dirty);
        n.set_dirty(&key("a"), false).unwrap();
        assert!(!n.peek_master(&key("a")).unwrap().dirty);
        assert!(n.set_dirty(&key("zz"), true).is_err());
    }

    #[test]
    fn evict_candidates_selects_cold_and_stale_only() {
        let mut n = node();
        let (grace, idle) = (Duration::from_secs(300), Duration::from_secs(1800));
        // Never read, past the grace period: cold victim.
        n.insert_master(key("cold"), Value::synthetic(10), SimTime::ZERO, true)
            .unwrap();
        // Crosses the access threshold early, read again recently: survives.
        n.insert_master(key("hot"), Value::synthetic(10), SimTime::ZERO, false)
            .unwrap();
        for s in 1..=5 {
            n.read_master(&key("hot"), SimTime::from_secs(s));
        }
        n.read_master(&key("hot"), SimTime::from_secs(390));
        // Unread but still within the grace period: survives.
        n.insert_master(
            key("young"),
            Value::synthetic(10),
            SimTime::from_secs(200),
            false,
        )
        .unwrap();
        let (victims, _) = n.evict_candidates(SimTime::from_secs(400), grace, idle);
        assert_eq!(victims, vec![(key("cold"), true)]);
        // Much later the hot object is stale (idle >= 30 min) and the
        // young one has aged past the grace period.
        let (victims, _) = n.evict_candidates(SimTime::from_secs(4000), grace, idle);
        let keys: Vec<Key> = victims.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![key("cold"), key("hot"), key("young")]);
    }

    #[test]
    fn evict_candidates_visits_only_the_expirable_prefix() {
        let mut n = node();
        let (grace, idle) = (Duration::from_secs(300), Duration::from_secs(1800));
        // 50 objects that crossed the access threshold and were read
        // recently: out of the cold index, deep in the idle index.
        for i in 0..50 {
            let k = key(&format!("hot{i}"));
            n.insert_master(k, Value::synthetic(10), SimTime::ZERO, false)
                .unwrap();
            for s in 0..5 {
                n.read_master(&k, SimTime::from_secs(3500 + s));
            }
        }
        // One genuinely cold object.
        n.insert_master(key("cold"), Value::synthetic(10), SimTime::ZERO, false)
            .unwrap();
        let (victims, visited) = n.evict_candidates(SimTime::from_secs(3600), grace, idle);
        assert_eq!(victims, vec![(key("cold"), false)]);
        // One stale hit + one non-match per index, not a 51-object sweep.
        assert!(visited <= 4, "visited {visited} entries");
    }

    #[test]
    fn evict_candidates_matches_full_scan_reference() {
        let mut n = node();
        let (grace, idle) = (Duration::from_secs(300), Duration::from_secs(1800));
        for i in 0..40u64 {
            let k = key(&format!("k{i}"));
            n.insert_master(
                k,
                Value::synthetic(10),
                SimTime::from_secs(i * 37),
                i % 3 == 0,
            )
            .unwrap();
            for r in 0..(i % 9) {
                n.read_master(&k, SimTime::from_secs(i * 37 + r + 1));
            }
        }
        let now = SimTime::from_secs(1200);
        let mut reference: Vec<(Key, bool)> = n
            .masters()
            .filter(|(_, o)| {
                let cold = o.stats.n_access < COLD_ACCESS_THRESHOLD
                    && now.saturating_since(o.stats.created) >= grace;
                let stale = now.saturating_since(o.stats.t_access) >= idle;
                cold || stale
            })
            .map(|(k, o)| (*k, o.dirty))
            .collect();
        reference.sort();
        let (victims, _) = n.evict_candidates(now, grace, idle);
        assert_eq!(victims, reference);
    }

    #[test]
    fn shrink_pool_reports_over_budget() {
        let mut n = StorageNode::new(0, 4 << 20);
        for i in 0..3 {
            n.insert_master(
                key(&format!("k{i}")),
                Value::synthetic(1 << 20),
                SimTime::ZERO,
                false,
            )
            .unwrap();
        }
        // Shrinking to 1 MB cannot fit 3 MB of live data.
        assert!(n.set_pool_bytes(1 << 20));
        // Evicting two objects resolves it.
        n.remove_master(&key("k0"));
        n.remove_master(&key("k1"));
        assert!(!n.set_pool_bytes(1 << 20));
    }
}
