//! The ML side standalone: train OFC's J48 memory predictor for a function,
//! watch it mature, then size a sandbox with it. `MlEngine` retrains the
//! model itself as observations arrive (§5.3).
//!
//! Run with: `cargo run --example train_predictor`

use ofc::core::ml::{MlConfig, MlEngine, Observation};
use ofc::faas::{FunctionId, TenantId};
use ofc::workloads::datasets::invocation_stream;
use ofc::workloads::multimedia::profile;

fn main() {
    let p = profile("wand_resize").expect("known function");
    let key = (TenantId::from("demo"), FunctionId::from(p.name));

    // 1. Online learning with the maturation criterion (§5.3): the engine
    //    refuses to size sandboxes until 90% of its predictions are
    //    exact-or-over and half of the underpredictions are within one
    //    16 MB interval.
    let mut ml = MlEngine::new(MlConfig::default());
    ml.register(key, p.feature_schema());
    let mut matured_at = None;
    for (i, s) in invocation_stream(p, 2000, 5).into_iter().enumerate() {
        ml.observe(
            &key,
            Observation {
                features: s.features,
                actual_mem: s.mem_bytes,
                el_ratio: if s.cache_benefit { 0.9 } else { 0.1 },
            },
        );
        if ml.is_mature(&key) {
            matured_at = Some(i + 1);
            break;
        }
    }
    match matured_at {
        Some(n) => println!("memory model matured after {n} invocations"),
        None => println!("memory model did not mature within 2000 invocations"),
    }
    let (eo, under1) = ml.window_stats(&key).expect("window populated");
    println!(
        "maturation window: {:.1}% exact-or-over, {:.1}% of unders within one interval",
        eo * 100.0,
        under1 * 100.0
    );

    // 2. Use the predictor: the allocation is the upper bound of the next
    //    greater interval — covered, but far below a 2 GB booking.
    let sample = &invocation_stream(p, 1, 123)[0];
    let pred = ml.predict(&key, &sample.features);
    println!(
        "sample invocation: actual need {:4} MB, OFC allocates {:4} MB (tenant booked 2048 MB)",
        sample.mem_bytes >> 20,
        pred.mem_bytes.expect("mature model") >> 20
    );
}
