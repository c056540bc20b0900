//! Redis-model in-memory object cache (IMOC): the `OWK-Redis` baseline.
//!
//! §2.2.3 motivates OFC by comparing the RSDS against "an in-memory object
//! cache (IMOC) such as Redis between the cloud functions and the RSDS".
//! This is that baseline: a flat key-value cache with sub-millisecond
//! latency, explicit tenant-provisioned capacity and LRU eviction — i.e.,
//! exactly the dedicated resource OFC is designed to make unnecessary.

use crate::latency::LatencyModel;
use crate::{ObjectId, Payload, StoreError};
use ofc_intern::IdHashMap;
use std::time::Duration;

/// A Redis-like cache entry.
#[derive(Debug, Clone)]
struct Entry {
    payload: Payload,
    /// LRU clock value of the last access.
    last_used: u64,
}

/// The IMOC. Capacity-bounded, LRU-evicting, latency-modelled.
#[derive(Debug)]
pub struct Imoc {
    latency: LatencyModel,
    capacity: u64,
    used: u64,
    clock: u64,
    entries: IdHashMap<ObjectId, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Imoc {
    /// Creates a cache with the given capacity in bytes.
    pub fn new(latency: LatencyModel, capacity: u64) -> Self {
        Imoc {
            latency,
            capacity,
            used: 0,
            clock: 0,
            entries: IdHashMap::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A Redis-preset cache of `capacity` bytes.
    pub fn redis(capacity: u64) -> Self {
        Imoc::new(LatencyModel::redis(), capacity)
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// `(hits, misses, evictions)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads an object; a miss is a [`StoreError::NotFound`].
    pub fn get(&mut self, id: &ObjectId) -> (Result<Payload, StoreError>, Duration) {
        self.clock += 1;
        match self.entries.get_mut(id) {
            Some(e) => {
                e.last_used = self.clock;
                self.hits += 1;
                let p = e.payload;
                let latency = self.latency.read(p.len());
                (Ok(p), latency)
            }
            None => {
                self.misses += 1;
                (Err(StoreError::NotFound(*id)), self.latency.meta())
            }
        }
    }

    /// Writes an object, evicting LRU entries to make room.
    ///
    /// Fails with [`StoreError::CapacityExceeded`] if the object alone is
    /// larger than the whole cache.
    pub fn put(&mut self, id: &ObjectId, payload: Payload) -> (Result<(), StoreError>, Duration) {
        let size = payload.len();
        if size > self.capacity {
            return (
                Err(StoreError::CapacityExceeded {
                    requested: size,
                    available: self.capacity,
                }),
                self.latency.meta(),
            );
        }
        // Replace any existing entry first so its size is reclaimed.
        if let Some(old) = self.entries.remove(id) {
            self.used -= old.payload.len();
        }
        while self.used + size > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("used > 0 implies entries exist");
            let evicted = self.entries.remove(&victim).expect("victim exists");
            self.used -= evicted.payload.len();
            self.evictions += 1;
        }
        self.clock += 1;
        self.used += size;
        let latency = self.latency.write(size.max(1));
        self.entries.insert(
            *id,
            Entry {
                payload,
                last_used: self.clock,
            },
        );
        (Ok(()), latency)
    }

    /// Removes an object if present; reports whether it was.
    pub fn remove(&mut self, id: &ObjectId) -> (bool, Duration) {
        match self.entries.remove(id) {
            Some(e) => {
                self.used -= e.payload.len();
                (true, self.latency.delete())
            }
            None => (false, self.latency.meta()),
        }
    }

    /// Whether an object is cached (does not touch LRU state).
    pub fn contains(&self, id: &ObjectId) -> bool {
        self.entries.contains_key(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imoc(capacity: u64) -> Imoc {
        Imoc::new(LatencyModel::instant(), capacity)
    }

    fn oid(key: &str) -> ObjectId {
        ObjectId::new("b", key)
    }

    #[test]
    fn put_get_hit_and_miss() {
        let mut c = imoc(1000);
        c.put(&oid("a"), Payload::Synthetic(10)).0.unwrap();
        assert_eq!(c.get(&oid("a")).0.unwrap().len(), 10);
        assert!(c.get(&oid("zz")).0.is_err());
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = imoc(100);
        c.put(&oid("a"), Payload::Synthetic(40)).0.unwrap();
        c.put(&oid("b"), Payload::Synthetic(40)).0.unwrap();
        // Touch "a" so "b" becomes LRU.
        c.get(&oid("a")).0.unwrap();
        c.put(&oid("c"), Payload::Synthetic(40)).0.unwrap();
        assert!(c.contains(&oid("a")));
        assert!(!c.contains(&oid("b")));
        assert!(c.contains(&oid("c")));
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn oversized_object_rejected() {
        let mut c = imoc(10);
        let (res, _) = c.put(&oid("big"), Payload::Synthetic(11));
        assert!(matches!(res, Err(StoreError::CapacityExceeded { .. })));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn replacement_reclaims_old_size() {
        let mut c = imoc(100);
        c.put(&oid("a"), Payload::Synthetic(80)).0.unwrap();
        c.put(&oid("a"), Payload::Synthetic(50)).0.unwrap();
        assert_eq!(c.used(), 50);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_frees_space() {
        let mut c = imoc(100);
        c.put(&oid("a"), Payload::Synthetic(60)).0.unwrap();
        assert!(c.remove(&oid("a")).0);
        assert_eq!(c.used(), 0);
        assert!(!c.remove(&oid("a")).0);
    }

    #[test]
    fn eviction_cascade_until_fit() {
        let mut c = imoc(100);
        for i in 0..5 {
            c.put(&oid(&format!("k{i}")), Payload::Synthetic(20))
                .0
                .unwrap();
        }
        c.put(&oid("big"), Payload::Synthetic(90)).0.unwrap();
        assert!(c.contains(&oid("big")));
        assert!(c.used() <= 100);
        assert_eq!(c.counters().2, 5);
    }
}
