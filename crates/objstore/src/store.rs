//! The Swift-model remote shared data store (RSDS).
//!
//! Implements the storage-side mechanisms OFC relies on (§6.2):
//!
//! * **versioned objects** carrying two version numbers — `version` (latest
//!   logical version) and `persisted_version` (latest version whose payload
//!   the store actually holds). A gap between the two is a **shadow
//!   object**: an empty-payload placeholder created synchronously on the
//!   write path while the data payload follows asynchronously via a
//!   persistor function,
//! * **in-order fulfillment** — persistors may only fill version
//!   `persisted_version + 1`, which enforces the paper's requirement that
//!   successive updates propagate in the correct order,
//! * **metadata tags** — extracted ML features are stored alongside objects
//!   at creation time (§5.1.2),
//! * **write observers** — the interposition hook the paper assumes from the
//!   storage system (§3): OFC registers a webhook that invalidates cached
//!   copies when an external client writes directly to the store.
//!
//! Operations return `(result, Duration)`; the caller charges the duration
//! to virtual time.

use crate::latency::LatencyModel;
use crate::{IdHashMap, ObjectId, Payload, StoreError, Tags};
use std::collections::hash_map::Entry;
use std::time::Duration;

/// Metadata of a stored object.
#[derive(Debug, Clone)]
pub struct ObjectMeta {
    /// Latest logical version (bumped by every write, shadow or full).
    pub version: u64,
    /// Latest version whose payload is persisted here.
    pub persisted_version: u64,
    /// Size in bytes of the *latest* version (announced by shadows).
    pub size: u64,
    /// Free-form metadata tags (feature vectors, content type, …), shared
    /// with the store: a read copies a pointer, never the pairs.
    pub tags: Tags,
}

impl ObjectMeta {
    /// Whether the latest version's payload is still pending (shadow state).
    pub fn is_shadow(&self) -> bool {
        self.persisted_version < self.version
    }
}

#[derive(Debug, Clone)]
struct StoredObject {
    meta: ObjectMeta,
    /// Payload of `persisted_version` (absent before the first fulfillment).
    payload: Option<Payload>,
}

/// Called after any write-path mutation: `(id, new_version, external)`.
///
/// `external` is true for writes that did not come through the FaaS/cache
/// path — the cache must invalidate its copy (§6.2 webhooks).
pub type WriteObserver = Box<dyn FnMut(&ObjectId, u64, bool)>;

/// Operation counters for telemetry and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Successful GETs.
    pub gets: u64,
    /// Full-payload PUTs.
    pub puts: u64,
    /// Shadow (empty-payload) PUTs.
    pub shadow_puts: u64,
    /// Shadow fulfillments by persistors.
    pub fulfillments: u64,
    /// DELETEs.
    pub deletes: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
}

/// The object store. See the module docs for semantics.
pub struct ObjectStore {
    latency: LatencyModel,
    objects: IdHashMap<ObjectId, StoredObject>,
    observers: Vec<WriteObserver>,
    counters: StoreCounters,
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("objects", &self.objects.len())
            .field("counters", &self.counters)
            .finish()
    }
}

impl ObjectStore {
    /// Creates an empty store with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        ObjectStore {
            latency,
            objects: IdHashMap::default(),
            observers: Vec::new(),
            counters: StoreCounters::default(),
        }
    }

    /// A store with Swift's latency preset.
    pub fn swift() -> Self {
        ObjectStore::new(LatencyModel::swift())
    }

    /// Registers a write observer (the webhook interposition point).
    pub fn add_write_observer(&mut self, obs: WriteObserver) {
        self.observers.push(obs);
    }

    /// Operation counters so far.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The latency model in use.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Number of stored objects (shadows included).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    fn notify(&mut self, id: &ObjectId, version: u64, external: bool) {
        let mut observers = std::mem::take(&mut self.observers);
        for obs in &mut observers {
            obs(id, version, external);
        }
        self.observers = observers;
    }

    /// Writes a full object (create or update), bumping both versions.
    ///
    /// An update merges `tags` into the object's: a key of both takes the
    /// new value. `external` marks writes from non-FaaS clients, which
    /// trigger cache invalidation through the write observers.
    pub fn put(
        &mut self,
        id: &ObjectId,
        payload: Payload,
        tags: impl Into<Tags>,
        external: bool,
    ) -> (u64, Duration) {
        let tags = tags.into();
        let size = payload.len();
        let latency = self.latency.write(size.max(1));
        let version = match self.objects.entry(*id) {
            Entry::Occupied(mut e) => {
                let obj = e.get_mut();
                obj.meta.version += 1;
                obj.meta.persisted_version = obj.meta.version;
                obj.meta.size = size;
                obj.meta.tags = obj.meta.tags.merged(tags);
                obj.payload = Some(payload);
                obj.meta.version
            }
            Entry::Vacant(e) => {
                e.insert(StoredObject {
                    meta: ObjectMeta {
                        version: 1,
                        persisted_version: 1,
                        size,
                        tags,
                    },
                    payload: Some(payload),
                });
                1
            }
        };
        self.counters.puts += 1;
        self.counters.bytes_written += size;
        self.notify(id, version, external);
        (version, latency)
    }

    /// Creates a shadow: synchronously registers a new version whose payload
    /// (`announced_size` bytes) will arrive later via a persistor.
    ///
    /// Returns the new version number. The latency is the Swift empty-payload
    /// fast path (~11 ms, §7.2.1), independent of `announced_size`.
    pub fn put_shadow(&mut self, id: &ObjectId, announced_size: u64) -> (u64, Duration) {
        let latency = self.latency.write(0);
        let version = match self.objects.entry(*id) {
            Entry::Occupied(mut e) => {
                let obj = e.get_mut();
                obj.meta.version += 1;
                obj.meta.size = announced_size;
                obj.meta.version
            }
            Entry::Vacant(e) => {
                e.insert(StoredObject {
                    meta: ObjectMeta {
                        version: 1,
                        persisted_version: 0,
                        size: announced_size,
                        tags: Tags::default(),
                    },
                    payload: None,
                });
                1
            }
        };
        self.counters.shadow_puts += 1;
        self.notify(id, version, false);
        (version, latency)
    }

    /// Fulfills a shadow: a persistor delivers the payload of `version`.
    ///
    /// Fulfillments must arrive in version order (`persisted_version + 1`);
    /// anything else is a [`StoreError::VersionConflict`], which is how the
    /// store enforces the paper's ordered-propagation requirement.
    pub fn fulfill_shadow(
        &mut self,
        id: &ObjectId,
        version: u64,
        payload: Payload,
    ) -> (Result<(), StoreError>, Duration) {
        let size = payload.len();
        let latency = self.latency.write(size.max(1));
        let Some(obj) = self.objects.get_mut(id) else {
            return (Err(StoreError::NotFound(*id)), self.latency.meta());
        };
        if version != obj.meta.persisted_version + 1 || version > obj.meta.version {
            let current = obj.meta.persisted_version;
            return (
                Err(StoreError::VersionConflict {
                    id: *id,
                    attempted: version,
                    current,
                }),
                self.latency.meta(),
            );
        }
        obj.meta.persisted_version = version;
        obj.payload = Some(payload);
        self.counters.fulfillments += 1;
        self.counters.bytes_written += size;
        (Ok(()), latency)
    }

    /// Reads the latest persisted payload.
    ///
    /// Fails with [`StoreError::ShadowOnly`] when the latest version's
    /// payload has not been persisted yet — external readers must then wait
    /// for (and boost) the persistor, which the webhook layer in `ofc-core`
    /// arranges.
    pub fn get(&mut self, id: &ObjectId) -> (Result<(ObjectMeta, Payload), StoreError>, Duration) {
        match self.objects.get(id) {
            None => (Err(StoreError::NotFound(*id)), self.latency.meta()),
            Some(obj) if obj.meta.is_shadow() || obj.payload.is_none() => {
                (Err(StoreError::ShadowOnly(*id)), self.latency.meta())
            }
            Some(obj) => {
                let payload = obj.payload.expect("checked above");
                let meta = obj.meta.clone();
                self.counters.gets += 1;
                self.counters.bytes_read += payload.len();
                let latency = self.latency.read(payload.len());
                (Ok((meta, payload)), latency)
            }
        }
    }

    /// Reads object metadata only (HEAD).
    pub fn head(&self, id: &ObjectId) -> (Result<ObjectMeta, StoreError>, Duration) {
        let res = self
            .objects
            .get(id)
            .map(|o| o.meta.clone())
            .ok_or(StoreError::NotFound(*id));
        (res, self.latency.meta())
    }

    /// Deletes an object (shadow or persisted).
    pub fn delete(&mut self, id: &ObjectId) -> (Result<(), StoreError>, Duration) {
        let res = if self.objects.remove(id).is_some() {
            self.counters.deletes += 1;
            Ok(())
        } else {
            Err(StoreError::NotFound(*id))
        };
        (res, self.latency.delete())
    }

    /// Lists the keys of a bucket in lexical order.
    ///
    /// A walk of the whole store and a sort: listing is a set-up and test
    /// operation here, and an index kept for it would be paid for on every
    /// `put` of every run.
    pub fn list_bucket(&self, bucket: &str) -> (Vec<ObjectId>, Duration) {
        let mut keys: Vec<ObjectId> = self
            .objects
            .keys()
            .filter(|id| id.bucket() == bucket)
            .copied()
            .collect();
        keys.sort_unstable();
        (keys, self.latency.meta())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    fn store() -> ObjectStore {
        ObjectStore::new(LatencyModel::instant())
    }

    fn oid(key: &str) -> ObjectId {
        ObjectId::new("bkt", key)
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut s = store();
        let (v, _) = s.put(&oid("a"), Payload::Synthetic(100), HashMap::new(), false);
        assert_eq!(v, 1);
        let (res, _) = s.get(&oid("a"));
        let (meta, payload) = res.unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(meta.persisted_version, 1);
        assert_eq!(payload.len(), 100);
    }

    #[test]
    fn get_missing_is_not_found() {
        let mut s = store();
        let (res, _) = s.get(&oid("nope"));
        assert!(matches!(res, Err(StoreError::NotFound(_))));
    }

    #[test]
    fn versions_bump_on_overwrite() {
        let mut s = store();
        s.put(&oid("a"), Payload::Synthetic(1), HashMap::new(), false);
        let (v, _) = s.put(&oid("a"), Payload::Synthetic(2), HashMap::new(), false);
        assert_eq!(v, 2);
        let (meta, _) = s.head(&oid("a")).0.map(|m| (m.version, ())).unwrap();
        assert_eq!(meta, 2);
    }

    #[test]
    fn shadow_lifecycle() {
        let mut s = store();
        let (v, _) = s.put_shadow(&oid("a"), 500);
        assert_eq!(v, 1);
        // Shadow pending: strict reads fail.
        assert!(matches!(s.get(&oid("a")).0, Err(StoreError::ShadowOnly(_))));
        let meta = s.head(&oid("a")).0.unwrap();
        assert!(meta.is_shadow());
        assert_eq!(meta.size, 500);
        // Persistor fulfills.
        let (res, _) = s.fulfill_shadow(&oid("a"), 1, Payload::Synthetic(500));
        res.unwrap();
        let (meta, payload) = s.get(&oid("a")).0.unwrap();
        assert!(!meta.is_shadow());
        assert_eq!(payload.len(), 500);
    }

    #[test]
    fn shadow_fulfillment_must_be_in_order() {
        let mut s = store();
        s.put(&oid("a"), Payload::Synthetic(1), HashMap::new(), false);
        s.put_shadow(&oid("a"), 10); // v2 pending
        s.put_shadow(&oid("a"), 20); // v3 pending
                                     // v3 before v2 is rejected.
        let (res, _) = s.fulfill_shadow(&oid("a"), 3, Payload::Synthetic(20));
        assert!(matches!(res, Err(StoreError::VersionConflict { .. })));
        // In order works.
        s.fulfill_shadow(&oid("a"), 2, Payload::Synthetic(10))
            .0
            .unwrap();
        s.fulfill_shadow(&oid("a"), 3, Payload::Synthetic(20))
            .0
            .unwrap();
        let (meta, payload) = s.get(&oid("a")).0.unwrap();
        assert_eq!(meta.persisted_version, 3);
        assert_eq!(payload.len(), 20);
    }

    #[test]
    fn stale_fulfillment_rejected() {
        let mut s = store();
        s.put(&oid("a"), Payload::Synthetic(1), HashMap::new(), false);
        let (res, _) = s.fulfill_shadow(&oid("a"), 1, Payload::Synthetic(1));
        assert!(matches!(res, Err(StoreError::VersionConflict { .. })));
    }

    #[test]
    fn write_observers_fire_with_external_flag() {
        let mut s = store();
        let seen: Rc<RefCell<Vec<(String, u64, bool)>>> = Rc::default();
        let sink = Rc::clone(&seen);
        s.add_write_observer(Box::new(move |id, v, ext| {
            sink.borrow_mut().push((id.to_string(), v, ext));
        }));
        s.put(&oid("a"), Payload::Synthetic(1), HashMap::new(), false);
        s.put(&oid("a"), Payload::Synthetic(2), HashMap::new(), true);
        s.put_shadow(&oid("a"), 3);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], ("bkt/a".to_string(), 1, false));
        assert_eq!(seen[1], ("bkt/a".to_string(), 2, true));
        assert_eq!(seen[2], ("bkt/a".to_string(), 3, false));
    }

    fn tags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn tags_merge() {
        let mut s = store();
        let width = tags(&[("width", "640")]);
        s.put(&oid("a"), Payload::Synthetic(1), width, false);
        let update = tags(&[("height", "480")]);
        let (v, _) = s.put(&oid("a"), Payload::Synthetic(2), update, false);
        assert_eq!(v, 2);
        let meta = s.head(&oid("a")).0.unwrap();
        assert_eq!(meta.tags.get("width"), Some("640"));
        assert_eq!(meta.tags.get("height"), Some("480"));
        // An untagged update keeps the tags.
        s.put(&oid("a"), Payload::Synthetic(3), HashMap::new(), false);
        assert_eq!(s.head(&oid("a")).0.unwrap().tags.len(), 2);
    }

    #[test]
    fn reads_share_tags_and_keep_them_across_merges() {
        let mut s = store();
        let width = tags(&[("width", "640")]);
        s.put(&oid("a"), Payload::Synthetic(1), width, false);
        let before = s.head(&oid("a")).0.unwrap();
        let (got, _) = s.get(&oid("a")).0.unwrap();
        assert!(Tags::ptr_eq(&before.tags, &got.tags));
        let update = tags(&[("width", "320")]);
        s.put(&oid("a"), Payload::Synthetic(1), update, false);
        assert_eq!(before.tags.get("width"), Some("640"));
        assert_eq!(s.head(&oid("a")).0.unwrap().tags.get("width"), Some("320"));
        // Untagged objects share the one empty value.
        s.put(&oid("b"), Payload::Synthetic(1), Tags::default(), false);
        s.put_shadow(&oid("c"), 1);
        let (b, c) = (s.head(&oid("b")).0.unwrap(), s.head(&oid("c")).0.unwrap());
        assert!(b.tags.is_empty() && Tags::ptr_eq(&b.tags, &c.tags));
    }

    #[test]
    fn delete_removes_and_updates_listing() {
        let mut s = store();
        s.put(&oid("a"), Payload::Synthetic(1), HashMap::new(), false);
        s.put(&oid("b"), Payload::Synthetic(1), HashMap::new(), false);
        assert_eq!(s.list_bucket("bkt").0.len(), 2);
        s.delete(&oid("a")).0.unwrap();
        let (keys, _) = s.list_bucket("bkt");
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].key(), "b");
        assert!(matches!(
            s.delete(&oid("a")).0,
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn counters_track_operations() {
        let mut s = store();
        s.put(&oid("a"), Payload::Synthetic(100), HashMap::new(), false);
        s.put_shadow(&oid("b"), 50);
        s.fulfill_shadow(&oid("b"), 1, Payload::Synthetic(50))
            .0
            .unwrap();
        s.get(&oid("a")).0.unwrap();
        s.delete(&oid("a")).0.unwrap();
        let c = s.counters();
        assert_eq!(c.puts, 1);
        assert_eq!(c.shadow_puts, 1);
        assert_eq!(c.fulfillments, 1);
        assert_eq!(c.gets, 1);
        assert_eq!(c.deletes, 1);
        assert_eq!(c.bytes_written, 150);
        assert_eq!(c.bytes_read, 100);
    }

    #[test]
    fn latency_charged_by_size() {
        let mut s = ObjectStore::swift();
        let (_, small) = s.put(&oid("s"), Payload::Synthetic(1_000), HashMap::new(), false);
        let (_, big) = s.put(
            &oid("b"),
            Payload::Synthetic(10_000_000),
            HashMap::new(),
            false,
        );
        assert!(big > small);
        let (_, shadow) = s.put_shadow(&oid("sh"), 10_000_000);
        assert_eq!(shadow, Duration::from_millis(11));
    }
}
