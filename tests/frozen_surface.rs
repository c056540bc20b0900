//! The workspace surface that `benchmark/` compiles against and may not
//! change with it. `feature_fn` below is the body of the benchmark's
//! Predictor feature function (`benchmark/src/workloads.rs`), copied
//! verbatim: if a signature it names changes, this test stops compiling
//! here rather than only in the benchmark's own build.

use ofc::core::scheduler::FeatureFn;
use ofc::dtree::data::Value;
use ofc::faas::{ArgValue, Args, FunctionId, ObjectRef, TenantId};
use ofc::objstore::ObjectId;
use ofc::workloads::catalog::{gen_image_with_bytes, Catalog};
use ofc::workloads::mega;
use ofc::workloads::pipelines::stage_profile;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::rc::Rc;

/// The Predictor's feature extractor: resolves mega variants
/// (`wand_blur.17`), plain single-stage profiles and pipeline stages by
/// function name, reading metadata through the catalog.
fn feature_fn(catalog: Catalog) -> FeatureFn {
    Rc::new(move |_tenant, function, args| {
        let name: &str = function.as_ref();
        if let Some(p) = mega::profile_of_function(name) {
            let input = args.values().find_map(|v| match v {
                ArgValue::Obj(id) => Some(*id),
                _ => None,
            })?;
            let meta = catalog.get(&input)?;
            return Some(p.features(&meta, args));
        }
        stage_profile(name).map(|sp| sp.features(args, &catalog))
    })
}

fn features(f: &FeatureFn, function: &str, args: &Args) -> Option<Vec<Value>> {
    f(&TenantId::from("t"), &FunctionId::from(function), args)
}

#[test]
fn mega_variant_features_come_from_the_catalogued_input() {
    let catalog = Catalog::new();
    let meta = gen_image_with_bytes(48 << 10, &mut ChaCha8Rng::seed_from_u64(1));
    let input = ObjectRef {
        id: ObjectId::new("m0001", "in00"),
        size: meta.bytes,
    };
    catalog.insert(input.id, meta.clone());
    let p = mega::profile_of_function("wand_blur.17").unwrap();
    let args = p.sample_args(&input, &mut ChaCha8Rng::seed_from_u64(2));
    let f = feature_fn(catalog);
    assert_eq!(
        features(&f, "wand_blur.17", &args),
        Some(p.features(&meta, &args))
    );
    // An input the catalog does not know has no features.
    let unknown = ObjectRef {
        id: ObjectId::new("m0001", "missing"),
        ..input
    };
    let args = p.sample_args(&unknown, &mut ChaCha8Rng::seed_from_u64(2));
    assert_eq!(features(&f, "wand_blur.17", &args), None);
}

#[test]
fn stage_features_come_from_the_object_arguments() {
    let f = feature_fn(Catalog::new());
    let mut args = Args::new();
    for (i, size) in [(0, 100u64), (1, 250)] {
        let id = ObjectId::from_fmt("intermediate", format_args!("wc_map-7-{i}"));
        args.insert(
            format!("input{i:03}"),
            ArgValue::Obj(ObjectRef { id, size }),
        );
    }
    args.insert("fanout".into(), ArgValue::Num(4.0));
    // Neither input is catalogued: bytes, input count, fan-out.
    assert_eq!(
        features(&f, "wc_reduce", &args),
        Some(vec![Value::Num(350.0), Value::Num(2.0), Value::Num(4.0)])
    );
    assert_eq!(features(&f, "no_such_function", &args), None);
}
