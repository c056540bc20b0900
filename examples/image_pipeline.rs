//! Pipelines under OFC: run the ServerlessBench image-processing sequence
//! and a MapReduce word count against `OWK-Swift` and OFC, and show how the
//! cache absorbs intermediate data (§6.3: intermediates never touch the
//! object store and are dropped when the pipeline completes).
//!
//! Run with: `cargo run --example image_pipeline`

use ofc::core::ofc::Ofc;
use ofc::faas::baselines::{DirectPlane, NoopPlane};
use ofc::faas::platform::{Platform, PlatformHandle};
use ofc::faas::registry::Registry;
use ofc::faas::{ObjectRef, PlatformConfig, TenantId};
use ofc::objstore::store::ObjectStore;
use ofc::objstore::{ObjectId, Payload};
use ofc::simtime::{Sim, SimTime};
use ofc::workloads::catalog::{gen_image_with_bytes, gen_text, Catalog};
use ofc::workloads::pipelines::{register_stage_functions, ScatterGather, Sequence};
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

struct Setup {
    sim: Sim,
    platform: PlatformHandle,
    store: Rc<RefCell<ObjectStore>>,
    catalog: Catalog,
    ofc: Option<Ofc>,
}

fn build(with_ofc: bool) -> Setup {
    let store = Rc::new(RefCell::new(ObjectStore::swift()));
    let catalog = Catalog::new();
    let mut sim = Sim::new(7);
    let (platform, ofc) = if with_ofc {
        let platform = Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(NoopPlane),
        );
        // Stage functions: features are the input volume and fan-out.
        let features = {
            let catalog = catalog.clone();
            Rc::new(
                move |_t: &TenantId, f: &ofc::faas::FunctionId, args: &ofc::faas::Args| {
                    ofc::workloads::pipelines::stage_profile(f.as_ref())
                        .map(|sp| sp.features(args, &catalog))
                },
            )
        };
        let ofc = Ofc::builder(&platform)
            .store(Rc::clone(&store))
            .features(features)
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
    Setup {
        sim,
        platform,
        store,
        catalog,
        ofc,
    }
}

fn upload(s: &Setup, key: &str, meta: ofc::workloads::catalog::MediaMeta) -> ObjectRef {
    let id = ObjectId::new("inputs", key);
    s.store
        .borrow_mut()
        .put(&id, Payload::Synthetic(meta.bytes), meta.tags(), false);
    let size = meta.bytes;
    s.catalog.insert(id, meta);
    ObjectRef { id, size }
}

fn run_both(
    label: &str,
    driver_for: impl Fn(&Setup) -> Rc<dyn ofc::faas::platform::PipelineDriver>,
) {
    let mut walls = Vec::new();
    for with_ofc in [false, true] {
        let mut s = build(with_ofc);
        let tenant = TenantId::from("pipelines");
        register_stage_functions(&s.platform, &tenant, 512 << 20);
        if let Some(ofc) = &s.ofc {
            for sp in &ofc::workloads::pipelines::STAGE_PROFILES {
                ofc.register_function("pipelines", sp.name, sp.feature_schema());
            }
        }
        let driver = driver_for(&s);
        s.platform.submit_pipeline(&mut s.sim, driver, 1);
        s.sim.run_until(SimTime::from_secs(3600));
        let pipes = s.platform.drain_pipeline_records();
        assert!(!pipes[0].failed);
        let wall = pipes[0].end.saturating_since(pipes[0].start).as_secs_f64();
        walls.push(wall);
        if let Some(ofc) = &s.ofc {
            let m = ofc.metrics();
            println!(
                "  OFC run: {:5.2}s  ({} intermediates kept out of the RSDS, {:.1} MB ephemeral, dropped at pipeline end)",
                wall,
                m.counter("plane.intermediates_dropped"),
                m.counter("plane.ephemeral_bytes") as f64 / (1 << 20) as f64
            );
        } else {
            println!("  OWK-Swift run: {wall:5.2}s");
        }
    }
    println!(
        "  -> OFC improves {label} by {:.0}%\n",
        100.0 * (1.0 - walls[1] / walls[0])
    );
}

fn main() {
    println!("ServerlessBench image-processing pipeline (1 MB image):");
    run_both("image_processing", |s| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let input = upload(s, "photo.png", gen_image_with_bytes(1 << 20, &mut rng));
        Rc::new(Sequence::image_processing(
            TenantId::from("pipelines"),
            input,
        ))
    });

    println!("MapReduce word count (20 MB text, 8 mappers):");
    run_both("map_reduce", |s| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let input = upload(s, "corpus.txt", gen_text(Some(20 << 20), &mut rng));
        Rc::new(ScatterGather::word_count(
            TenantId::from("pipelines"),
            input,
            8,
        ))
    });
}
