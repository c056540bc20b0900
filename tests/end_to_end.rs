//! End-to-end integration tests across all crates: the full OFC stack vs
//! baselines, pipelines, OOM handling, fault injection, maturation gating.

use ofc::core::ofc::{Ofc, OfcConfig};
use ofc::faas::baselines::{DirectPlane, NoopPlane};
use ofc::faas::platform::{Platform, PlatformHandle};
use ofc::faas::registry::{FunctionSpec, Registry};
use ofc::faas::{
    ArgValue, Args, Completion, FunctionId, InvocationRequest, ObjectRef, PlatformConfig, Served,
    TenantId,
};
use ofc::objstore::store::ObjectStore;
use ofc::objstore::ObjectId;
use ofc::rcstore::raft::COMMIT_LATENCY;
use ofc::rcstore::{latency, Key, Value};
use ofc::simtime::{Sim, SimTime};
use ofc::workloads::catalog::{gen_image_with_bytes, Catalog};
use ofc::workloads::multimedia::{profile, MultimediaModel, Profile};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;

struct Stack {
    sim: Sim,
    platform: PlatformHandle,
    store: Rc<RefCell<ObjectStore>>,
    catalog: Catalog,
    ofc: Option<Ofc>,
    tenant: TenantId,
}

fn features_for(catalog: &Catalog) -> ofc::core::scheduler::FeatureFn {
    let catalog = catalog.clone();
    Rc::new(move |_t, f, args| {
        let p = profile(f.as_ref())?;
        let input = args.values().find_map(|v| match v {
            ArgValue::Obj(r) => Some(r.id),
            _ => None,
        })?;
        Some(p.features(&catalog.get(&input)?, args))
    })
}

fn stack(with_ofc: bool, seed: u64) -> Stack {
    let store = Rc::new(RefCell::new(ObjectStore::swift()));
    let catalog = Catalog::new();
    let mut sim = Sim::new(seed);
    let (platform, ofc) = if with_ofc {
        let platform = Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(NoopPlane),
        );
        let ofc = Ofc::builder(&platform)
            .store(Rc::clone(&store))
            .features(features_for(&catalog))
            .build();
        ofc.start(&mut sim);
        (platform, Some(ofc))
    } else {
        let platform = Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(DirectPlane::new(Rc::clone(&store))),
        );
        (platform, None)
    };
    Stack {
        sim,
        platform,
        store,
        catalog,
        ofc,
        tenant: TenantId::from("it"),
    }
}

fn register(s: &Stack, p: &'static Profile, booked: u64) {
    s.platform.register(FunctionSpec {
        id: FunctionId::from(p.name),
        tenant: s.tenant,
        booked_mem: booked,
        model: Rc::new(MultimediaModel::new(p, s.catalog.clone())),
    });
    if let Some(ofc) = &s.ofc {
        ofc.register_function(s.tenant.as_ref(), p.name, p.feature_schema());
    }
}

fn upload(s: &Stack, key: &str, bytes: u64, seed: u64) -> ObjectRef {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let meta = gen_image_with_bytes(bytes, &mut rng);
    let id = ObjectId::new("it-in", key);
    s.catalog.stage(&mut s.store.borrow_mut(), id, meta)
}

fn submit(s: &mut Stack, p: &'static Profile, input: &ObjectRef, seed: u64) {
    let mut args = Args::new();
    args.insert("input".into(), ArgValue::Obj(*input));
    if let Some(spec) = p.arg {
        args.insert(spec.name.into(), ArgValue::Num((spec.lo + spec.hi) / 2.0));
    }
    s.platform.submit(
        &mut s.sim,
        InvocationRequest {
            function: FunctionId::from(p.name),
            tenant: s.tenant,
            args,
            seed,
            pipeline: None,
        },
    );
}

#[test]
fn repeated_reads_become_cache_hits_and_beat_swift() {
    let p = profile("wand_sepia").unwrap();
    let mut totals = Vec::new();
    for with_ofc in [false, true] {
        let mut s = stack(with_ofc, 1);
        register(&s, p, 512 << 20);
        let input = upload(&s, "a", 64 << 10, 1);
        for i in 0..5 {
            submit(&mut s, p, &input, 10 + i);
            s.sim.run_until(SimTime::from_secs((i + 1) * 30));
        }
        let recs = s.platform.drain_records();
        assert_eq!(recs.len(), 5);
        assert!(recs.iter().all(|r| r.completion == Completion::Success));
        if with_ofc {
            // First read misses, the rest hit.
            assert_eq!(recs[0].reads_served, vec![Served::Miss]);
            for r in &recs[1..] {
                assert!(
                    matches!(r.reads_served[0], Served::LocalHit | Served::RemoteHit),
                    "read {:?}",
                    r.reads_served
                );
            }
        }
        totals.push(recs.iter().map(|r| r.etl().as_secs_f64()).sum::<f64>());
    }
    assert!(
        totals[1] < totals[0] * 0.6,
        "OFC {:.3}s should clearly beat Swift {:.3}s",
        totals[1],
        totals[0]
    );
}

#[test]
fn outputs_are_persisted_despite_write_back() {
    let p = profile("wand_resize").unwrap();
    let mut s = stack(true, 2);
    register(&s, p, 512 << 20);
    let input = upload(&s, "a", 32 << 10, 2);
    submit(&mut s, p, &input, 3);
    s.sim.run_until(SimTime::from_secs(600));
    let recs = s.platform.drain_records();
    assert_eq!(recs[0].completion, Completion::Success);
    // The output landed in the RSDS via shadow + persistor, and the cache
    // dropped its (final-output) copy.
    let outputs = s.store.borrow().list_bucket("outputs").0;
    assert_eq!(outputs.len(), 1);
    let meta = s.store.borrow().head(&outputs[0]).0.unwrap();
    assert!(
        !meta.is_shadow(),
        "persistor must have fulfilled the shadow"
    );
    let ofc = s.ofc.as_ref().unwrap();
    let m = ofc.metrics();
    assert_eq!(m.counter("plane.shadows"), 1);
    assert_eq!(m.counter("plane.persists"), 1);
    assert!(!ofc
        .cluster
        .borrow()
        .contains(&ofc::core::cache::rc_key(&outputs[0])));
}

#[test]
fn oom_underprediction_retries_at_booked_and_learns() {
    // Force a bad predictor: a scheduler that always allocates 64 MB.
    struct Tiny;
    impl ofc::faas::Scheduler for Tiny {
        fn route(&mut self, ctx: &ofc::faas::RoutingContext) -> ofc::faas::RoutingDecision {
            ofc::faas::RoutingDecision {
                node: 0,
                sandbox: ctx.warm.first().map(|s| s.sandbox),
                mem_limit: ofc::faas::Limit(64 << 20),
                admission: ofc::faas::Admission::admit(),
                overhead: std::time::Duration::ZERO,
            }
        }
    }
    let p = profile("wand_blur").unwrap();
    let mut s = stack(true, 3);
    register(&s, p, 1 << 30);
    s.platform.set_scheduler(Box::new(Tiny));
    // A large image needs far more than 64 MB.
    let input = upload(&s, "big", 3 << 20, 3);
    submit(&mut s, p, &input, 4);
    s.sim.run_until(SimTime::from_secs(600));
    let recs = s.platform.drain_records();
    assert_eq!(recs.len(), 2, "OOM then retry");
    assert_eq!(recs[0].completion, Completion::OomKilled);
    assert_eq!(recs[1].completion, Completion::Success);
    assert_eq!(recs[1].mem_limit, 1 << 30, "retry at the booked size");
    let c = s.platform.counters();
    assert_eq!((c.oom_kills, c.retries), (1, 1));
}

#[test]
fn cache_node_crash_preserves_cached_data() {
    let p = profile("wand_edge").unwrap();
    let mut s = stack(true, 4);
    register(&s, p, 512 << 20);
    let input = upload(&s, "a", 64 << 10, 4);
    // Warm the cache.
    submit(&mut s, p, &input, 5);
    s.sim.run_until(SimTime::from_secs(60));
    let ofc = s.ofc.as_ref().unwrap();
    let key = ofc::core::cache::rc_key(&input.id);
    let master = ofc.cluster.borrow().master_of(&key).expect("cached");
    // Crash the master's node: replication recovers the object.
    let lost = ofc
        .cluster
        .borrow_mut()
        .crash_node(master, SimTime::from_secs(60));
    assert_eq!(lost.result, 0, "replicated data survives a crash");
    assert!(ofc.cluster.borrow().contains(&key));
    // The next invocation still completes (and can still hit the cache).
    submit(&mut s, p, &input, 6);
    s.sim.run_until(SimTime::from_secs(120));
    let recs = s.platform.drain_records();
    let last = recs.last().unwrap();
    assert_eq!(last.completion, Completion::Success);
    assert!(matches!(
        last.reads_served[0],
        Served::LocalHit | Served::RemoteHit
    ));
}

#[test]
fn immature_models_fall_back_to_booked_memory() {
    let p = profile("wand_rotate").unwrap();
    let mut s = stack(true, 5);
    register(&s, p, 777 << 20);
    let input = upload(&s, "a", 16 << 10, 5);
    submit(&mut s, p, &input, 6);
    s.sim.run_until(SimTime::from_secs(60));
    let recs = s.platform.drain_records();
    // The model is blank: OFC must not guess; the booked amount applies.
    assert_eq!(recs[0].mem_limit, 777 << 20);
}

#[test]
fn mature_models_right_size_sandboxes() {
    let p = profile("wand_rotate").unwrap();
    let mut s = stack(true, 6);
    register(&s, p, 2 << 30);
    // Pre-train to maturity with the function's invocation history.
    {
        let ofc = s.ofc.as_ref().unwrap();
        let key = (s.tenant, FunctionId::from(p.name));
        let mut ml = ofc.ml.borrow_mut();
        for smp in ofc::workloads::datasets::invocation_stream(p, 1500, 77) {
            ml.observe(
                &key,
                ofc::core::ml::Observation {
                    features: smp.features,
                    actual_mem: smp.mem_bytes,
                    el_ratio: 0.8,
                },
            );
        }
        assert!(ml.is_mature(&key), "wand_rotate must mature");
    }
    let input = upload(&s, "a", 64 << 10, 6);
    submit(&mut s, p, &input, 7);
    s.sim.run_until(SimTime::from_secs(60));
    let recs = s.platform.drain_records();
    assert_eq!(recs[0].completion, Completion::Success);
    assert!(
        recs[0].mem_limit < 512 << 20,
        "predicted limit {} should be far below the 2 GB booking",
        recs[0].mem_limit >> 20
    );
    assert!(
        recs[0].mem_limit >= recs[0].mem_actual,
        "and still cover the need"
    );
}

#[test]
fn memory_conservation_on_every_node() {
    // Sandboxes + cache pool + slack never exceed node memory.
    let p = profile("wand_sepia").unwrap();
    let mut s = stack(true, 7);
    register(&s, p, 1 << 30);
    let inputs: Vec<ObjectRef> = (0..6)
        .map(|i| upload(&s, &format!("i{i}"), 64 << 10, i))
        .collect();
    for (i, input) in inputs.iter().enumerate() {
        submit(&mut s, p, input, 100 + i as u64);
    }
    s.sim.run_until(SimTime::from_secs(300));
    let ofc = s.ofc.as_ref().unwrap();
    let node_mem = s.platform.config().node_mem;
    for node in 0..s.platform.config().nodes {
        let committed = s.platform.committed_mem(node);
        let pool = ofc.cluster.borrow().node(node).pool_bytes();
        assert!(
            committed + pool <= node_mem,
            "node {node}: sandboxes {committed} + cache {pool} exceed {node_mem}"
        );
    }
    // `committed` above is a running total: it must be what a walk of the
    // sandbox tables adds up to.
    assert_eq!(s.platform.audit(), Ok(()));
}

#[test]
fn dropping_every_handle_frees_the_whole_stack() {
    // The RSDS write observer installed by the data plane must not keep
    // the stack alive: store -> observer -> persistence -> store was a
    // strong cycle that leaked every assembled stack.
    let p = profile("wand_sepia").unwrap();
    let mut s = stack(true, 5);
    register(&s, p, 512 << 20);
    let input = upload(&s, "a", 64 << 10, 5);
    for i in 0..3 {
        submit(&mut s, p, &input, 50 + i);
        s.sim.run_until(SimTime::from_secs((i + 1) * 30));
    }
    assert_eq!(s.platform.drain_records().len(), 3);

    let ofc = s.ofc.as_ref().expect("ofc stack");
    let store = Rc::downgrade(&s.store);
    let cluster = Rc::downgrade(&ofc.cluster);
    let persistence = Rc::downgrade(&ofc.persistence);
    drop(s);
    assert!(store.upgrade().is_none(), "ObjectStore leaked");
    assert!(cluster.upgrade().is_none(), "Cluster leaked");
    assert!(persistence.upgrade().is_none(), "Persistence leaked");
}

/// The control plane is off by default, and off is inert: a default `Ofc`
/// registers no `raft.*` or `gossip.*` metric, schedules no control-plane
/// loop and charges a cache write no commit latency. The replicated
/// configuration does all three.
#[test]
fn default_control_plane_is_inert() {
    let build = |replicated_control_plane: bool| {
        let platform = Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(NoopPlane),
        );
        let ofc = Ofc::builder(&platform)
            .store(Rc::new(RefCell::new(ObjectStore::swift())))
            .features(features_for(&Catalog::new()))
            .config(OfcConfig {
                replicated_control_plane,
                ..OfcConfig::default()
            })
            .build();
        let mut sim = Sim::new(1);
        ofc.start(&mut sim);
        (ofc, sim.events_pending())
    };
    let control_plane_names = |ofc: &Ofc| {
        let m = ofc.metrics();
        let names = m.counters.iter().map(|c| &c.name);
        let names = names.chain(m.gauges.iter().map(|g| &g.name));
        let names = names.chain(m.histograms.iter().map(|h| &h.name));
        names
            .filter(|n| n.starts_with("raft.") || n.starts_with("gossip."))
            .count()
    };
    let write = |ofc: &Ofc| {
        let key = Key::from("inert/k");
        let w = ofc
            .cluster
            .borrow_mut()
            .write(0, &key, Value::synthetic(4096), SimTime::ZERO);
        assert_eq!(w.result, Ok(0), "a local write");
        w.latency
    };

    let (off, off_events) = build(false);
    assert!(off.cluster.borrow().coordinator().is_none());
    assert_eq!(control_plane_names(&off), 0);
    assert_eq!(write(&off), latency::write(4096, false));

    let (on, on_events) = build(true);
    assert_eq!(
        on_events,
        off_events + 2,
        "the coordinator pump and the gossip round"
    );
    assert!(control_plane_names(&on) > 0);
    assert_eq!(write(&on), latency::write(4096, false) + COMMIT_LATENCY);
    // The write is the one committed log entry.
    assert_eq!(on.metrics().counter("raft.commits"), 1);
    assert_eq!(off.metrics().counter("raft.commits"), 0);
}
