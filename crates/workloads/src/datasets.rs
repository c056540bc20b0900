//! ML dataset builders for the §7.1 experiments: memory-interval
//! classification (Table 1, Figures 5–6), cache-benefit classification
//! (§7.1.1), and per-function invocation streams (maturation, §7.1.3).

use crate::catalog::{gen_audio, gen_image, gen_text, gen_video, MediaKind, MediaMeta};
use crate::multimedia::Profile;
use ofc_dtree::data::{Dataset, DatasetBuilder, Value};
use ofc_faas::ObjectRef;
use ofc_objstore::latency::LatencyModel;
use ofc_objstore::ObjectId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Number of classification intervals for a given interval size, over the
/// OWK memory range the classifier covers, `[0, 2 GB]` (§5.1.1).
fn n_intervals(interval_bytes: u64) -> usize {
    (ofc_faas::MAX_SANDBOX_MEM / interval_bytes) as usize
}

/// Maps a memory amount to its interval index (clamped to the top class).
fn interval_label(mem_bytes: u64, interval_bytes: u64) -> u32 {
    let k = mem_bytes / interval_bytes;
    (k as u32).min(n_intervals(interval_bytes) as u32 - 1)
}

/// Class names for the interval classifier.
fn interval_classes(interval_bytes: u64) -> Vec<String> {
    (0..n_intervals(interval_bytes))
        .map(|k| format!("{}MB", (k as u64 + 1) * interval_bytes / (1 << 20)))
        .collect()
}

/// Samples an input of the profile's media kind.
pub fn sample_media(profile: &Profile, rng: &mut ChaCha8Rng) -> MediaMeta {
    match profile.kind {
        MediaKind::Image => gen_image(rng),
        MediaKind::Audio => gen_audio(rng),
        MediaKind::Video => gen_video(rng),
        MediaKind::Text => gen_text(None, rng),
    }
}

/// One synthetic invocation: features, ground-truth memory, and the ETL
/// phase estimate used for cache-benefit labelling.
#[derive(Debug, Clone)]
pub struct InvocationSample {
    /// Feature vector in the profile's schema order.
    pub features: Vec<Value>,
    /// Ground-truth peak memory.
    pub mem_bytes: u64,
    /// Ground truth: would caching be beneficial (`(E+L)/(E+T+L) > 0.5`
    /// against the RSDS, §5.2)?
    pub cache_benefit: bool,
}

/// Generates `n` invocation samples of `profile`.
pub fn invocation_stream(profile: &Profile, n: usize, seed: u64) -> Vec<InvocationSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rsds = LatencyModel::swift();
    (0..n)
        .map(|i| {
            let meta = sample_media(profile, &mut rng);
            let input = ObjectRef {
                id: ObjectId::new("ds", format!("o{i}")),
                size: meta.bytes,
            };
            let args = profile.sample_args(&input, &mut rng);
            let arg_value = profile.arg.and_then(|spec| match args.get(spec.name) {
                Some(ofc_faas::ArgValue::Num(x)) => Some(*x),
                _ => None,
            });
            let invocation_seed = seed.wrapping_add(i as u64);
            let mem_bytes = profile.memory(&meta, arg_value, invocation_seed);
            let t = profile.compute(&meta, arg_value, invocation_seed);
            let e = rsds.read(meta.bytes);
            let l = rsds.write(profile.output_size(&meta));
            let el = (e + l).as_secs_f64();
            let total = el + t.as_secs_f64();
            InvocationSample {
                features: profile.features(&meta, &args),
                mem_bytes,
                cache_benefit: el / total > 0.5,
            }
        })
        .collect()
}

fn schema_builder(profile: &Profile) -> DatasetBuilder {
    let mut b = Dataset::builder();
    for attr in profile.feature_schema() {
        b = match attr.kind {
            ofc_dtree::data::AttrKind::Numeric => b.numeric_attr(attr.name),
            ofc_dtree::data::AttrKind::Nominal(vals) => b.nominal_attr(attr.name, vals),
        };
    }
    b
}

/// Builds the memory-interval dataset of one function (Table 1 input).
pub fn memory_dataset(profile: &Profile, n: usize, interval_bytes: u64, seed: u64) -> Dataset {
    let mut ds = schema_builder(profile)
        .classes(interval_classes(interval_bytes))
        .build();
    for s in invocation_stream(profile, n, seed) {
        ds.push(s.features, interval_label(s.mem_bytes, interval_bytes));
    }
    ds
}

/// Builds the binary cache-benefit dataset of one function (§7.1.1 input).
pub fn cache_benefit_dataset(profile: &Profile, n: usize, seed: u64) -> Dataset {
    let mut ds = schema_builder(profile)
        .classes(["not_beneficial", "beneficial"])
        .build();
    for s in invocation_stream(profile, n, seed) {
        ds.push(s.features, u32::from(s.cache_benefit));
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multimedia::{profile, PROFILES};

    #[test]
    fn interval_math() {
        let mb16 = 16 << 20;
        assert_eq!(n_intervals(mb16), 128);
        assert_eq!(interval_label(0, mb16), 0);
        assert_eq!(interval_label(16 << 20, mb16), 1);
        assert_eq!(interval_label((16 << 20) - 1, mb16), 0);
        // Clamped to the top class.
        assert_eq!(interval_label(10 << 30, mb16), 127);
        assert_eq!(interval_classes(mb16).len(), 128);
        assert_eq!(interval_classes(mb16)[0], "16MB");
    }

    #[test]
    fn memory_dataset_has_schema_and_varied_labels() {
        let p = profile("wand_blur").unwrap();
        let ds = memory_dataset(p, 300, 16 << 20, 1);
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.n_attrs(), p.feature_schema().len());
        let dist = ds.class_distribution();
        let populated = dist.iter().filter(|&&w| w > 0.0).count();
        assert!(
            populated > 5,
            "labels too concentrated: {populated} classes"
        );
    }

    #[test]
    fn datasets_are_deterministic() {
        let p = profile("wand_edge").unwrap();
        let a = memory_dataset(p, 50, 16 << 20, 9);
        let b = memory_dataset(p, 50, 16 << 20, 9);
        for (x, y) in a.rows().iter().zip(b.rows()) {
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn cache_benefit_has_both_classes_across_functions() {
        // Small-input image functions are dominated by E&L (beneficial);
        // long-running audio/video work is compute-dominated.
        let mut saw_yes = false;
        let mut saw_no = false;
        for p in &PROFILES {
            let ds = cache_benefit_dataset(p, 100, 3);
            let dist = ds.class_distribution();
            if dist[1] > 0.0 {
                saw_yes = true;
            }
            if dist[0] > 0.0 {
                saw_no = true;
            }
        }
        assert!(saw_yes && saw_no, "benefit labels degenerate");
    }

    #[test]
    fn learnable_by_j48() {
        // The whole premise of §5.1: J48 must predict intervals well from
        // the observable features.
        use ofc_dtree::c45::C45;
        use ofc_dtree::eval::cross_validate;
        let p = profile("wand_resize").unwrap();
        let ds = memory_dataset(p, 600, 32 << 20, 5);
        let eval = cross_validate(&C45, &ds, 5, 1);
        assert!(
            eval.accuracy() > 0.6,
            "J48 exact accuracy too low: {:.3}",
            eval.accuracy()
        );
        assert!(
            eval.eo_rate() > 0.75,
            "J48 EO rate too low: {:.3}",
            eval.eo_rate()
        );
    }
}
