//! The four multi-stage applications of the evaluation (§7):
//!
//! * **map_reduce** — MapReduce word count over a large text (as in
//!   Pocket/Locus-style analytics),
//! * **THIS** — Thousand Island Scanner: distributed video processing
//!   (decode → per-chunk process → combine),
//! * **IMAD** — Illegitimate Mobile App Detector, reimplemented as a
//!   sequence of functions (fetch → extract features → classify),
//! * **image_processing** — the ServerlessBench image-thumbnailing
//!   pipeline (metadata → transform → thumbnail → upload).
//!
//! Stage functions are generic data processors: their memory and compute
//! scale with input bytes (analytics functions have no hidden bitmap
//! truth), and their outputs register in the catalog so downstream stages
//! can resolve them; the drivers remove them again when the pipeline ends.

use crate::catalog::{gen_text, Catalog};
use ofc_faas::platform::PipelineDriver;
use ofc_faas::registry::FunctionSpec;
use ofc_faas::{
    ArgValue, Args, Behavior, FunctionId, FunctionModel, InvocationRequest, ObjectRef, ObjectWrite,
    TenantId,
};
use ofc_objstore::ObjectId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::rc::Rc;
use std::time::Duration;

/// How many outputs a stage function produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputCount {
    /// A fixed number of outputs (a splitter's fan-out comes from the
    /// `fanout` argument instead when present).
    Fixed(usize),
    /// One output per input object.
    PerInput,
}

/// A pipeline stage function profile.
#[derive(Debug, Clone, Copy)]
pub struct StageProfile {
    /// Function name.
    pub name: &'static str,
    /// Baseline footprint.
    pub mem_base: u64,
    /// Memory per input byte.
    pub mem_per_byte: f64,
    /// Fixed compute.
    pub compute_base: Duration,
    /// Compute per input megabyte.
    pub compute_per_mb: Duration,
    /// Output cardinality.
    pub outputs: OutputCount,
    /// Total output bytes as a fraction of total input bytes.
    pub output_ratio: f64,
    /// Whether outputs are pipeline-final.
    pub is_final: bool,
}

/// All stage functions used by the four applications.
pub const STAGE_PROFILES: [StageProfile; 13] = [
    // MapReduce word count.
    StageProfile {
        name: "wc_split",
        mem_base: 40 << 20,
        mem_per_byte: 2.2,
        compute_base: Duration::from_millis(30),
        compute_per_mb: Duration::from_millis(18),
        outputs: OutputCount::Fixed(0), // fan-out from the `fanout` argument
        output_ratio: 1.0,
        is_final: false,
    },
    StageProfile {
        name: "wc_map",
        mem_base: 60 << 20,
        mem_per_byte: 6.0,
        compute_base: Duration::from_millis(40),
        compute_per_mb: Duration::from_millis(80),
        outputs: OutputCount::PerInput,
        output_ratio: 0.25,
        is_final: false,
    },
    StageProfile {
        name: "wc_reduce",
        mem_base: 70 << 20,
        mem_per_byte: 8.0,
        compute_base: Duration::from_millis(60),
        compute_per_mb: Duration::from_millis(120),
        outputs: OutputCount::Fixed(1),
        output_ratio: 0.05,
        is_final: true,
    },
    // THIS: distributed video processing.
    StageProfile {
        name: "this_decode",
        mem_base: 120 << 20,
        mem_per_byte: 1.4,
        compute_base: Duration::from_millis(200),
        compute_per_mb: Duration::from_millis(55),
        outputs: OutputCount::Fixed(0),
        output_ratio: 2.4, // decoded chunks are bigger than the input
        is_final: false,
    },
    StageProfile {
        name: "this_process",
        mem_base: 90 << 20,
        mem_per_byte: 3.0,
        compute_base: Duration::from_millis(120),
        compute_per_mb: Duration::from_millis(150),
        outputs: OutputCount::PerInput,
        output_ratio: 0.4,
        is_final: false,
    },
    StageProfile {
        name: "this_combine",
        mem_base: 100 << 20,
        mem_per_byte: 2.0,
        compute_base: Duration::from_millis(150),
        compute_per_mb: Duration::from_millis(60),
        outputs: OutputCount::Fixed(1),
        // THIS is video *analysis*: the combined result is a small report.
        output_ratio: 0.05,
        is_final: true,
    },
    // IMAD: app-store crawling and classification.
    StageProfile {
        name: "imad_fetch",
        mem_base: 50 << 20,
        mem_per_byte: 1.5,
        compute_base: Duration::from_millis(80),
        compute_per_mb: Duration::from_millis(25),
        outputs: OutputCount::Fixed(1),
        output_ratio: 0.9,
        is_final: false,
    },
    StageProfile {
        name: "imad_extract",
        mem_base: 140 << 20,
        mem_per_byte: 5.0,
        compute_base: Duration::from_millis(150),
        compute_per_mb: Duration::from_millis(210),
        outputs: OutputCount::Fixed(1),
        output_ratio: 0.05,
        is_final: false,
    },
    StageProfile {
        name: "imad_classify",
        mem_base: 200 << 20,
        mem_per_byte: 3.0,
        compute_base: Duration::from_millis(120),
        compute_per_mb: Duration::from_millis(90),
        outputs: OutputCount::Fixed(1),
        output_ratio: 0.001,
        is_final: true,
    },
    // ServerlessBench image-processing pipeline.
    StageProfile {
        name: "img_meta",
        mem_base: 24 << 20,
        mem_per_byte: 1.2,
        compute_base: Duration::from_millis(4),
        compute_per_mb: Duration::from_millis(12),
        outputs: OutputCount::Fixed(1),
        output_ratio: 1.0,
        is_final: false,
    },
    StageProfile {
        name: "img_transform",
        mem_base: 30 << 20,
        mem_per_byte: 9.0,
        compute_base: Duration::from_millis(6),
        compute_per_mb: Duration::from_millis(70),
        outputs: OutputCount::Fixed(1),
        output_ratio: 0.8,
        is_final: false,
    },
    StageProfile {
        name: "img_thumbnail",
        mem_base: 26 << 20,
        mem_per_byte: 7.0,
        compute_base: Duration::from_millis(4),
        compute_per_mb: Duration::from_millis(40),
        outputs: OutputCount::Fixed(1),
        output_ratio: 0.06,
        is_final: false,
    },
    StageProfile {
        name: "img_upload",
        mem_base: 22 << 20,
        mem_per_byte: 1.1,
        compute_base: Duration::from_millis(3),
        compute_per_mb: Duration::from_millis(8),
        outputs: OutputCount::Fixed(1),
        output_ratio: 1.0,
        is_final: true,
    },
];

/// Looks up a stage profile by name.
pub fn stage_profile(name: &str) -> Option<&'static StageProfile> {
    STAGE_PROFILES.iter().find(|p| p.name == name)
}

impl StageProfile {
    /// The ML feature schema of a stage function: total input bytes, input
    /// count, and the fan-out argument (§5.1.2's common features).
    pub fn feature_schema(&self) -> Vec<ofc_dtree::data::Attribute> {
        use ofc_dtree::data::{AttrKind, Attribute};
        ["bytes", "n_inputs", "fanout"]
            .into_iter()
            .map(|name| Attribute {
                name: name.into(),
                kind: AttrKind::Numeric,
            })
            .collect()
    }

    /// Extracts the feature vector of a stage invocation.
    pub fn features(&self, args: &Args, catalog: &Catalog) -> Vec<ofc_dtree::data::Value> {
        use ofc_dtree::data::Value;
        let mut total = 0u64;
        let mut n_inputs = 0u64;
        for v in args.values() {
            if let ArgValue::Obj(id) = v {
                n_inputs += 1;
                total += catalog.get(id).map(|m| m.bytes).unwrap_or(0);
            }
        }
        let fanout = match args.get("fanout") {
            Some(ArgValue::Num(n)) => *n,
            _ => 0.0,
        };
        vec![
            Value::Num(total as f64),
            Value::Num(n_inputs as f64),
            Value::Num(fanout),
        ]
    }
}

/// [`FunctionModel`] for a stage function.
pub struct StageModel {
    profile: &'static StageProfile,
    catalog: Catalog,
}

impl StageModel {
    /// Wraps a stage profile over the shared catalog.
    pub fn new(profile: &'static StageProfile, catalog: Catalog) -> Self {
        StageModel { profile, catalog }
    }
}

impl FunctionModel for StageModel {
    fn behavior(&self, args: &Args, seed: u64) -> Behavior {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57A6E);
        // All object arguments are inputs, in argument-name order.
        let inputs: Vec<ObjectRef> = args
            .values()
            .filter_map(|v| match v {
                ArgValue::Obj(id) => {
                    let size = self.catalog.get(id).map(|m| m.bytes).unwrap_or(0);
                    Some(ObjectRef { id: *id, size })
                }
                _ => None,
            })
            .collect();
        let total_in: u64 = inputs.iter().map(|r| r.size).sum();
        let fanout = match args.get("fanout") {
            Some(ArgValue::Num(n)) => *n as usize,
            _ => 0,
        };
        let n_outputs = match self.profile.outputs {
            OutputCount::Fixed(0) => fanout.max(1),
            OutputCount::Fixed(n) => n,
            OutputCount::PerInput => inputs.len().max(1),
        };
        let total_out = ((total_in as f64) * self.profile.output_ratio) as u64;
        let per_output = (total_out / n_outputs as u64).max(128);
        let writes: Vec<ObjectWrite> = (0..n_outputs)
            .map(|i| {
                let id = ObjectId::from_fmt(
                    "intermediate",
                    format_args!("{}-{}-{}", self.profile.name, seed, i),
                );
                // Register the output so downstream stages can resolve it.
                self.catalog
                    .insert(id, gen_text(Some(per_output), &mut rng));
                ObjectWrite {
                    id,
                    size: per_output,
                    is_final: self.profile.is_final,
                }
            })
            .collect();
        let in_mb = total_in as f64 / (1 << 20) as f64;
        Behavior {
            mem_bytes: self.profile.mem_base
                + ((total_in as f64) * self.profile.mem_per_byte) as u64,
            compute: self.profile.compute_base + self.profile.compute_per_mb.mul_f64(in_mb),
            reads: inputs,
            writes,
        }
    }
}

/// Registers every stage function for `tenant` on a platform.
pub fn register_stage_functions(
    platform: &ofc_faas::platform::PlatformHandle,
    catalog: &Catalog,
    tenant: &TenantId,
    booked_mem: u64,
) {
    for p in &STAGE_PROFILES {
        platform.register(FunctionSpec {
            id: FunctionId::from(p.name),
            tenant: *tenant,
            booked_mem,
            // ofc-lint: allow(hotloop) reason=registration runs once per tenant and each model shares the catalog; an Rc bump
            model: Rc::new(StageModel::new(p, catalog.clone())),
        });
    }
}

fn request(tenant: &TenantId, function: FunctionId, args: Args, seed: u64) -> InvocationRequest {
    InvocationRequest {
        function,
        tenant: *tenant,
        args,
        seed,
        pipeline: None,
    }
}

fn obj_args(inputs: &[ObjectRef]) -> Args {
    let mut args = Args::new();
    for (i, r) in inputs.iter().enumerate() {
        // ofc-lint: allow(hotloop) reason=`Args` is a `BTreeMap<String, _>`: each argument owns its name
        args.insert(format!("input{i:03}"), ArgValue::Obj(r.id));
    }
    args
}

/// Generic three-stage split/map/reduce driver used by `map_reduce` and
/// `THIS` (which share the scatter-gather shape with different profiles).
///
/// Holds the catalog its stage models register outputs in, and removes
/// them from it when the pipeline ends.
pub struct ScatterGather {
    catalog: Catalog,
    tenant: TenantId,
    inputs: Vec<ObjectRef>,
    fanout: usize,
    split: FunctionId,
    map: FunctionId,
    reduce: FunctionId,
}

impl ScatterGather {
    /// The MapReduce word-count application over `input` text.
    pub fn word_count(
        tenant: TenantId,
        input: ObjectRef,
        fanout: usize,
        catalog: &Catalog,
    ) -> Self {
        ScatterGather {
            catalog: catalog.clone(),
            tenant,
            inputs: vec![input],
            fanout,
            split: FunctionId::from("wc_split"),
            map: FunctionId::from("wc_map"),
            reduce: FunctionId::from("wc_reduce"),
        }
    }

    /// The THIS video-processing application over `input` video.
    pub fn this_video(
        tenant: TenantId,
        input: ObjectRef,
        fanout: usize,
        catalog: &Catalog,
    ) -> Self {
        Self::this_video_chunks(tenant, vec![input], fanout, catalog)
    }

    /// THIS over an input already split into small chunk objects, the way
    /// large data sets are actually stored (§3).
    pub fn this_video_chunks(
        tenant: TenantId,
        inputs: Vec<ObjectRef>,
        fanout: usize,
        catalog: &Catalog,
    ) -> Self {
        ScatterGather {
            catalog: catalog.clone(),
            tenant,
            inputs,
            fanout,
            split: FunctionId::from("this_decode"),
            map: FunctionId::from("this_process"),
            reduce: FunctionId::from("this_combine"),
        }
    }
}

impl PipelineDriver for ScatterGather {
    fn stage(&self, stage: usize, prev: &[ObjectRef], seed: u64) -> Option<Vec<InvocationRequest>> {
        match stage {
            0 => {
                let mut args = obj_args(&self.inputs);
                args.insert("fanout".into(), ArgValue::Num(self.fanout as f64));
                Some(vec![request(&self.tenant, self.split, args, seed)])
            }
            1 => Some(
                prev.iter()
                    .enumerate()
                    .map(|(i, chunk)| {
                        request(
                            &self.tenant,
                            self.map,
                            obj_args(std::slice::from_ref(chunk)),
                            seed.wrapping_mul(31).wrapping_add(i as u64),
                        )
                    })
                    .collect(),
            ),
            2 => Some(vec![request(
                &self.tenant,
                self.reduce,
                obj_args(prev),
                seed.wrapping_add(999),
            )]),
            _ => None,
        }
    }

    fn pipeline_ended(&self, named: &[ObjectId]) {
        self.catalog.remove(named);
    }
}

/// A linear sequence of stage functions, each consuming the previous
/// stage's outputs (IMAD and the ServerlessBench image pipeline). Like
/// [`ScatterGather`], it removes its outputs from the catalog when the
/// pipeline ends.
pub struct Sequence {
    catalog: Catalog,
    tenant: TenantId,
    input: ObjectRef,
    stages: Vec<FunctionId>,
}

impl Sequence {
    /// The IMAD application (fetch → extract → classify).
    pub fn imad(tenant: TenantId, app_package: ObjectRef, catalog: &Catalog) -> Self {
        Sequence {
            catalog: catalog.clone(),
            tenant,
            input: app_package,
            stages: ["imad_fetch", "imad_extract", "imad_classify"]
                .map(FunctionId::from)
                .to_vec(),
        }
    }

    /// The ServerlessBench image-processing pipeline.
    pub fn image_processing(tenant: TenantId, image: ObjectRef, catalog: &Catalog) -> Self {
        Sequence {
            catalog: catalog.clone(),
            tenant,
            input: image,
            stages: ["img_meta", "img_transform", "img_thumbnail", "img_upload"]
                .map(FunctionId::from)
                .to_vec(),
        }
    }
}

impl PipelineDriver for Sequence {
    fn stage(&self, stage: usize, prev: &[ObjectRef], seed: u64) -> Option<Vec<InvocationRequest>> {
        let name = *self.stages.get(stage)?;
        let inputs = if stage == 0 {
            std::slice::from_ref(&self.input)
        } else {
            prev
        };
        Some(vec![request(
            &self.tenant,
            name,
            obj_args(inputs),
            seed.wrapping_add(stage as u64),
        )])
    }

    fn pipeline_ended(&self, named: &[ObjectId]) {
        self.catalog.remove(named);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofc_faas::baselines::NoopPlane;
    use ofc_faas::platform::Platform;
    use ofc_faas::registry::Registry;
    use ofc_faas::PlatformConfig;
    use ofc_simtime::{Sim, SimTime};

    fn setup() -> (
        ofc_faas::platform::PlatformHandle,
        Catalog,
        TenantId,
        ObjectRef,
    ) {
        let catalog = Catalog::new();
        let tenant = TenantId::from("t");
        let platform = Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(NoopPlane),
        );
        register_stage_functions(&platform, &catalog, &tenant, 1 << 30);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let id = ObjectId::new("in", "big.txt");
        let meta = gen_text(Some(30 << 20), &mut rng);
        let size = meta.bytes;
        catalog.insert(id, meta);
        (platform, catalog, tenant, ObjectRef { id, size })
    }

    #[test]
    fn word_count_runs_three_stages_with_fanout() {
        let (platform, catalog, tenant, input) = setup();
        let mut sim = Sim::new(0);
        platform.submit_pipeline(
            &mut sim,
            Rc::new(ScatterGather::word_count(tenant, input, 8, &catalog)),
            42,
        );
        sim.run_until(SimTime::from_secs(600));
        let pipes = platform.drain_pipeline_records();
        assert_eq!(pipes.len(), 1);
        assert_eq!(pipes[0].stages, 3);
        assert_eq!(pipes[0].invocations, 1 + 8 + 1);
        assert!(!pipes[0].failed);
        let recs = platform.drain_records();
        assert_eq!(recs.len(), 10);
        // The reducer's output is the only final one.
        let finals = recs
            .iter()
            .filter(|r| r.function.as_ref() == "wc_reduce")
            .count();
        assert_eq!(finals, 1);
    }

    #[test]
    fn this_video_shares_scatter_gather_shape() {
        let (platform, catalog, tenant, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let id = ObjectId::new("in", "clip.mp4");
        let meta = crate::catalog::gen_video(&mut rng);
        let size = meta.bytes;
        catalog.insert(id, meta);
        let mut sim = Sim::new(0);
        platform.submit_pipeline(
            &mut sim,
            Rc::new(ScatterGather::this_video(
                tenant,
                ObjectRef { id, size },
                4,
                &catalog,
            )),
            7,
        );
        sim.run_until(SimTime::from_secs(3600));
        let pipes = platform.drain_pipeline_records();
        assert_eq!(pipes[0].invocations, 6);
    }

    #[test]
    fn imad_and_image_processing_are_sequences() {
        let (platform, catalog, tenant, input) = setup();
        let mut sim = Sim::new(0);
        platform.submit_pipeline(
            &mut sim,
            Rc::new(Sequence::imad(tenant, input.clone(), &catalog)),
            1,
        );
        platform.submit_pipeline(
            &mut sim,
            Rc::new(Sequence::image_processing(tenant, input, &catalog)),
            2,
        );
        sim.run_until(SimTime::from_secs(3600));
        let mut pipes = platform.drain_pipeline_records();
        pipes.sort_by_key(|p| p.id);
        assert_eq!(pipes[0].stages, 3);
        assert_eq!(pipes[0].invocations, 3);
        assert_eq!(pipes[1].stages, 4);
        assert_eq!(pipes[1].invocations, 4);
    }

    #[test]
    fn stage_outputs_register_in_catalog() {
        let catalog = Catalog::new();
        let model = StageModel::new(stage_profile("wc_split").unwrap(), catalog.clone());
        let input = ObjectId::new("in", "t.txt");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        catalog.insert(input, gen_text(Some(1 << 20), &mut rng));
        let mut args = Args::new();
        args.insert("input000".into(), ArgValue::Obj(input));
        args.insert("fanout".into(), ArgValue::Num(4.0));
        let b = model.behavior(&args, 9);
        assert_eq!(b.writes.len(), 4);
        for w in &b.writes {
            assert!(catalog.get(&w.id).is_some(), "chunk not catalogued");
            assert!(!w.is_final);
        }
        // Chunks partition the input.
        let total: u64 = b.writes.iter().map(|w| w.size).sum();
        assert!((total as f64 / (1 << 20) as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn memory_scales_with_input_size() {
        let catalog = Catalog::new();
        let model = StageModel::new(stage_profile("wc_map").unwrap(), catalog.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut mk = |bytes: u64, key: &str| {
            let id = ObjectId::new("in", key);
            catalog.insert(id, gen_text(Some(bytes), &mut rng));
            let mut args = Args::new();
            args.insert("input000".into(), ArgValue::Obj(id));
            model.behavior(&args, 0).mem_bytes
        };
        assert!(mk(10 << 20, "big") > mk(1 << 20, "small"));
    }
}
