//! Quickstart: install OFC onto an OpenWhisk-model platform, run an image
//! function twice, and watch the second invocation hit the cache.
//!
//! Run with: `cargo run --example quickstart`

use ofc::core::cache::plane_hit_ratio;
use ofc::core::ofc::Ofc;
use ofc::faas::baselines::NoopPlane;
use ofc::faas::platform::Platform;
use ofc::faas::registry::{FunctionSpec, Registry};
use ofc::faas::{ArgValue, Args, FunctionId, InvocationRequest, PlatformConfig, TenantId};
use ofc::objstore::store::ObjectStore;
use ofc::objstore::{ObjectId, Payload};
use ofc::simtime::{Sim, SimTime};
use ofc::workloads::catalog::{gen_image_with_bytes, Catalog};
use ofc::workloads::multimedia::{profile, MultimediaModel};
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // 1. The substrate: a 4-worker OpenWhisk-model platform and a
    //    Swift-model object store.
    let store = Rc::new(RefCell::new(ObjectStore::swift()));
    let platform = Platform::build(
        PlatformConfig::default(),
        Registry::new(),
        Box::new(NoopPlane),
    );

    // 2. Install OFC: Predictor, CacheAgent, Proxy/rclib, Monitor, and the
    //    RAMCloud-model cache cluster all wire into the platform's seams.
    let catalog = Catalog::new();
    let features = {
        let catalog = catalog.clone();
        let p = profile("wand_edge").expect("known function");
        Rc::new(move |_t: &TenantId, _f: &FunctionId, args: &Args| {
            let input = args.values().find_map(|v| match v {
                ArgValue::Obj(id) => Some(*id),
                _ => None,
            })?;
            Some(p.features(&catalog.get(&input)?, args))
        })
    };
    let ofc = Ofc::builder(&platform)
        .store(Rc::clone(&store))
        .features(features)
        .build();
    let mut sim = Sim::new(42);
    ofc.start(&mut sim);

    // 3. Register a function: tenant "alice" books 512 MB for wand_edge.
    let tenant = TenantId::from("alice");
    let edge = profile("wand_edge").expect("known function");
    platform.register(FunctionSpec {
        id: FunctionId::from(edge.name),
        tenant,
        booked_mem: 512 << 20,
        model: Rc::new(MultimediaModel::new(edge, catalog.clone())),
    });
    ofc.register_function("alice", edge.name, edge.feature_schema());

    // 4. Upload an input image (16 kB) to the object store; feature tags
    //    are extracted at creation time.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let img = gen_image_with_bytes(16 << 10, &mut rng);
    let input = ObjectId::new("alice-images", "photo.jpg");
    store
        .borrow_mut()
        .put(&input, Payload::Synthetic(img.bytes), img.tags(), false);
    catalog.insert(input, img);

    // 5. Invoke twice: the first read misses (and fills the cache); the
    //    second hits locally.
    let submit = |sim: &mut Sim, seed: u64| {
        let mut args = Args::new();
        args.insert("input".into(), ArgValue::Obj(input));
        args.insert("radius".into(), ArgValue::Num(3.0));
        platform.submit(
            sim,
            InvocationRequest {
                function: FunctionId::from(edge.name),
                tenant,
                args,
                seed,
                pipeline: None,
            },
        );
    };
    submit(&mut sim, 1);
    sim.run_until(SimTime::from_secs(30));
    submit(&mut sim, 2);
    sim.run_until(SimTime::from_secs(60));

    // 6. Inspect the records and the cache telemetry.
    let records = platform.drain_records();
    println!("invocation  E        T        L        total    reads");
    for r in &records {
        println!(
            "{:10}  {:6.1}ms {:6.1}ms {:6.1}ms {:6.1}ms  {:?}",
            r.id,
            r.e_time.as_secs_f64() * 1e3,
            r.t_time.as_secs_f64() * 1e3,
            r.l_time.as_secs_f64() * 1e3,
            r.etl().as_secs_f64() * 1e3,
            r.reads_served,
        );
    }
    let m = ofc.metrics();
    println!(
        "\ncache: {} local hit(s), {} miss(es), {} fill(s), {} shadow write(s), hit ratio {:.0}%",
        m.counter("plane.local_hits"),
        m.counter("plane.misses"),
        m.counter("plane.fills"),
        m.counter("plane.shadows"),
        100.0 * plane_hit_ratio(&m)
    );
    assert!(
        records[1].etl() < records[0].etl(),
        "second run must be faster"
    );
    println!(
        "second invocation ran {:.1}x faster thanks to the cache",
        records[0].etl().as_secs_f64() / records[1].etl().as_secs_f64()
    );
}
