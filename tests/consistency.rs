//! Consistency integration tests: the §6.2 guarantees — shadow objects,
//! persistor ordering, webhook paths for external clients — observed
//! through the full stack.

use ofc::core::cache::{rc_key, OfcPlane, PlaneConfig};
use ofc::core::policy::{build_policy, PolicyKind};
use ofc::core::telemetry::Telemetry;
use ofc::faas::{DataPlane, ObjectWrite};
use ofc::objstore::store::ObjectStore;
use ofc::objstore::{ObjectId, Payload};
use ofc::rcstore::cluster::Cluster;
use ofc::rcstore::ClusterConfig;
use ofc::simtime::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

const MB: u64 = 1 << 20;

fn setup() -> (OfcPlane, Rc<RefCell<Cluster>>, Rc<RefCell<ObjectStore>>) {
    let cluster = Rc::new(RefCell::new(Cluster::new(ClusterConfig {
        nodes: 3,
        replication_factor: 1,
        node_pool_bytes: 512 * MB,
        max_object_bytes: 10 * MB,
        ..ClusterConfig::default()
    })));
    let store = Rc::new(RefCell::new(ObjectStore::swift()));
    let telemetry = Telemetry::new();
    let plane = OfcPlane::new(
        PlaneConfig::default(),
        Rc::clone(&cluster),
        Rc::clone(&store),
        build_policy(PolicyKind::Ofc, &telemetry),
        &telemetry,
    );
    (plane, cluster, store)
}

fn write(plane: &mut OfcPlane, sim: &mut Sim, key: &str, size: u64) -> ObjectId {
    let id = ObjectId::new("out", key);
    plane.write(
        sim,
        0,
        &ObjectWrite {
            id,
            size,
            is_final: true,
        },
        ofc::faas::Admission::admit(),
        None,
    );
    id
}

#[test]
fn successive_updates_persist_in_version_order() {
    let (mut plane, _cluster, store) = setup();
    let mut sim = Sim::new(0);
    // Three rapid updates to the same object: three shadows, one pending
    // fulfillment at a time, versions must land 1, 2, 3.
    let id = write(&mut plane, &mut sim, "obj", 100 * 1024);
    sim.run_until(SimTime::from_secs(5));
    write(&mut plane, &mut sim, "obj", 200 * 1024);
    sim.run_until(SimTime::from_secs(10));
    write(&mut plane, &mut sim, "obj", 300 * 1024);
    sim.run();
    let (meta, payload) = store.borrow_mut().get(&id).0.expect("persisted");
    assert_eq!(meta.version, 3);
    assert_eq!(meta.persisted_version, 3);
    assert_eq!(payload.len(), 300 * 1024);
}

#[test]
fn external_reader_never_sees_a_stale_version() {
    let (mut plane, _cluster, store) = setup();
    let mut sim = Sim::new(0);
    let id = write(&mut plane, &mut sim, "fresh", 512 * 1024);
    // Before the persistor fires, the RSDS only has a shadow…
    assert!(store.borrow().head(&id).0.unwrap().is_shadow());
    // …but an external read through the webhook boosts the persistor and
    // returns the latest payload.
    let (res, latency) = plane.external_read(&id);
    assert_eq!(res.unwrap().len(), 512 * 1024);
    // The reader waited for the boosted upload (longer than a plain GET).
    assert!(latency > store.borrow().latency().read(512 * 1024));
}

#[test]
fn external_write_invalidates_and_next_function_read_refetches() {
    let (mut plane, cluster, store) = setup();
    let mut sim = Sim::new(0);
    // A function-cached input object.
    let id = ObjectId::new("in", "shared");
    store
        .borrow_mut()
        .put(&id, Payload::Synthetic(64 * 1024), HashMap::new(), false);
    plane.read(
        &mut sim,
        0,
        &ofc::faas::ObjectRef {
            id,
            size: 64 * 1024,
        },
        ofc::faas::Admission::admit(),
    );
    assert!(cluster.borrow().contains(&rc_key(&id)));
    // An external client overwrites it directly in the RSDS.
    plane.external_write(&id, Payload::Synthetic(128 * 1024));
    assert!(
        !cluster.borrow().contains(&rc_key(&id)),
        "stale cache copy must be gone"
    );
    // The next function read refetches the new version and re-caches it.
    let out = plane.read(
        &mut sim,
        1,
        &ofc::faas::ObjectRef {
            id,
            size: 128 * 1024,
        },
        ofc::faas::Admission::admit(),
    );
    assert_eq!(out.served, ofc::faas::Served::Miss);
    let (meta, payload) = store.borrow_mut().get(&id).0.unwrap();
    assert_eq!(meta.version, 2);
    assert_eq!(payload.len(), 128 * 1024);
}

#[test]
fn external_overwrite_of_pending_object_wins() {
    let (mut plane, cluster, store) = setup();
    let mut sim = Sim::new(0);
    // A cached write whose persistor has not fired…
    let id = write(&mut plane, &mut sim, "race", 100 * 1024);
    assert!(plane.persistence().borrow().is_pending(&rc_key(&id)));
    // …is overwritten externally. The pending fulfillment is cancelled and
    // must NOT clobber the external version afterwards.
    plane.external_write(&id, Payload::Synthetic(999));
    sim.run(); // the stale persistor event fires and finds nothing pending
    let (meta, payload) = store.borrow_mut().get(&id).0.unwrap();
    assert_eq!(payload.len(), 999, "the external write must win");
    assert_eq!(meta.persisted_version, meta.version);
    assert!(!cluster.borrow().contains(&rc_key(&id)));
}

#[test]
fn reclamation_writeback_satisfies_external_reader() {
    let (mut plane, cluster, store) = setup();
    let mut sim = Sim::new(0);
    let id = write(&mut plane, &mut sim, "evictme", 256 * 1024);
    let key = rc_key(&id);
    // Reclamation-style write-back through the persistence hook (the cache
    // agent uses exactly this path).
    assert!(plane.persistence().borrow_mut().persist_now(&key));
    let meta = store.borrow().head(&id).0.unwrap();
    assert!(!meta.is_shadow());
    // Being a final output, the object also left the cache.
    assert!(!cluster.borrow().contains(&key));
    // The pending entry is gone; a second write-back is a no-op.
    assert!(!plane.persistence().borrow_mut().persist_now(&key));
}
