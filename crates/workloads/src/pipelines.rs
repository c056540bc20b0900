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
//! truth). A stage's inputs are object arguments that carry their size:
//! the drivers pass the platform's references to the previous stage's
//! outputs straight through, so no output enters the workload catalog.

use crate::catalog::Catalog;
use ofc_faas::platform::PipelineDriver;
use ofc_faas::registry::FunctionSpec;
use ofc_faas::{
    ArgValue, Args, Behavior, FunctionId, FunctionModel, InvocationRequest, ObjectRef, ObjectWrite,
    TenantId,
};
use ofc_objstore::{Istr, ObjectId};
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

    /// Extracts the feature vector of a stage invocation. The input sizes
    /// come from the object arguments; the catalog is not read, and the
    /// parameter stays for callers that name it.
    pub fn features(&self, args: &Args, _catalog: &Catalog) -> Vec<ofc_dtree::data::Value> {
        use ofc_dtree::data::Value;
        let inputs = inputs(args);
        let total: u64 = inputs.iter().map(|r| r.size).sum();
        vec![
            Value::Num(total as f64),
            Value::Num(inputs.len() as f64),
            Value::Num(fanout(args)),
        ]
    }
}

/// A stage's inputs: its object arguments, in argument-name order.
fn inputs(args: &Args) -> Vec<ObjectRef> {
    args.values()
        .filter_map(|v| match v {
            ArgValue::Obj(r) => Some(*r),
            _ => None,
        })
        .collect()
}

/// A splitter's `fanout` argument; 0 when unset.
fn fanout(args: &Args) -> f64 {
    match args.get("fanout") {
        Some(ArgValue::Num(n)) => *n,
        _ => 0.0,
    }
}

/// [`FunctionModel`] for a stage function.
pub struct StageModel {
    profile: &'static StageProfile,
    /// `intermediate/{stage}-`: output `i` of the run seeded `seed` is
    /// `intermediate/{stage}-{seed}-{i}`, this stem plus a numeric tail.
    stem: Istr,
}

impl StageModel {
    /// Wraps a stage profile.
    pub fn new(profile: &'static StageProfile) -> Self {
        StageModel {
            profile,
            stem: Istr::intern_fmt(format_args!("intermediate/{}-", profile.name)),
        }
    }
}

impl FunctionModel for StageModel {
    fn behavior(&self, args: &Args, seed: u64) -> Behavior {
        let inputs = inputs(args);
        let total_in: u64 = inputs.iter().map(|r| r.size).sum();
        let fanout = fanout(args) as usize;
        let n_outputs = match self.profile.outputs {
            OutputCount::Fixed(0) => fanout.max(1),
            OutputCount::Fixed(n) => n,
            OutputCount::PerInput => inputs.len().max(1),
        };
        let total_out = ((total_in as f64) * self.profile.output_ratio) as u64;
        let per_output = (total_out / n_outputs as u64).max(128);
        let writes: Vec<ObjectWrite> = (0..n_outputs)
            .map(|i| ObjectWrite {
                id: ObjectId::with_tail(
                    self.stem,
                    seed,
                    Some(u32::try_from(i).expect("fewer than 2^32 outputs")),
                ),
                size: per_output,
                is_final: self.profile.is_final,
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
    tenant: &TenantId,
    booked_mem: u64,
) {
    for p in &STAGE_PROFILES {
        platform.register(FunctionSpec {
            id: FunctionId::from(p.name),
            tenant: *tenant,
            booked_mem,
            model: Rc::new(StageModel::new(p)),
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
        args.insert(format!("input{i:03}"), ArgValue::Obj(*r));
    }
    args
}

/// Generic three-stage split/map/reduce driver used by `map_reduce` and
/// `THIS` (which share the scatter-gather shape with different profiles).
pub struct ScatterGather {
    tenant: TenantId,
    inputs: Vec<ObjectRef>,
    fanout: usize,
    split: FunctionId,
    map: FunctionId,
    reduce: FunctionId,
}

impl ScatterGather {
    /// The MapReduce word-count application over `input` text.
    pub fn word_count(tenant: TenantId, input: ObjectRef, fanout: usize) -> Self {
        ScatterGather {
            tenant,
            inputs: vec![input],
            fanout,
            split: FunctionId::from("wc_split"),
            map: FunctionId::from("wc_map"),
            reduce: FunctionId::from("wc_reduce"),
        }
    }

    /// The THIS video-processing application over `input` video.
    pub fn this_video(tenant: TenantId, input: ObjectRef, fanout: usize) -> Self {
        Self::this_video_chunks(tenant, vec![input], fanout)
    }

    /// THIS over an input already split into small chunk objects, the way
    /// large data sets are actually stored (§3).
    pub fn this_video_chunks(tenant: TenantId, inputs: Vec<ObjectRef>, fanout: usize) -> Self {
        ScatterGather {
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
}

/// A linear sequence of stage functions, each consuming the previous
/// stage's outputs (IMAD and the ServerlessBench image pipeline).
pub struct Sequence {
    tenant: TenantId,
    input: ObjectRef,
    stages: Vec<FunctionId>,
}

impl Sequence {
    /// The IMAD application (fetch → extract → classify).
    pub fn imad(tenant: TenantId, app_package: ObjectRef) -> Self {
        Sequence {
            tenant,
            input: app_package,
            stages: ["imad_fetch", "imad_extract", "imad_classify"]
                .map(FunctionId::from)
                .to_vec(),
        }
    }

    /// The ServerlessBench image-processing pipeline.
    pub fn image_processing(tenant: TenantId, image: ObjectRef) -> Self {
        Sequence {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::gen_text;
    use ofc_faas::baselines::NoopPlane;
    use ofc_faas::platform::Platform;
    use ofc_faas::registry::Registry;
    use ofc_faas::PlatformConfig;
    use ofc_simtime::{Sim, SimTime};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::cell::RefCell;

    fn platform() -> ofc_faas::platform::PlatformHandle {
        Platform::build(
            PlatformConfig::default(),
            Registry::new(),
            Box::new(NoopPlane),
        )
    }

    /// A catalogued input of `bytes` stored bytes.
    fn text_input(catalog: &Catalog, key: &str, bytes: u64) -> ObjectRef {
        let id = ObjectId::new("in", key);
        let meta = gen_text(Some(bytes), &mut ChaCha8Rng::seed_from_u64(1));
        let size = meta.bytes;
        catalog.insert(id, meta);
        ObjectRef { id, size }
    }

    fn setup() -> (
        ofc_faas::platform::PlatformHandle,
        Catalog,
        TenantId,
        ObjectRef,
    ) {
        let catalog = Catalog::new();
        let tenant = TenantId::from("t");
        let platform = platform();
        register_stage_functions(&platform, &tenant, 1 << 30);
        let input = text_input(&catalog, "big.txt", 30 << 20);
        (platform, catalog, tenant, input)
    }

    #[test]
    fn word_count_runs_three_stages_with_fanout() {
        let (platform, _catalog, tenant, input) = setup();
        let mut sim = Sim::new(0);
        platform.submit_pipeline(
            &mut sim,
            Rc::new(ScatterGather::word_count(tenant, input, 8)),
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
            Rc::new(ScatterGather::this_video(tenant, ObjectRef { id, size }, 4)),
            7,
        );
        sim.run_until(SimTime::from_secs(3600));
        let pipes = platform.drain_pipeline_records();
        assert_eq!(pipes[0].invocations, 6);
    }

    #[test]
    fn imad_and_image_processing_are_sequences() {
        let (platform, _catalog, tenant, input) = setup();
        let mut sim = Sim::new(0);
        platform.submit_pipeline(&mut sim, Rc::new(Sequence::imad(tenant, input)), 1);
        platform.submit_pipeline(
            &mut sim,
            Rc::new(Sequence::image_processing(tenant, input)),
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

    /// One logged invocation: function name, arguments, behaviour.
    type Entry = (&'static str, Args, Behavior);

    /// A stage model that logs every invocation.
    struct Logged {
        model: StageModel,
        log: Rc<RefCell<Vec<Entry>>>,
    }

    impl FunctionModel for Logged {
        fn behavior(&self, args: &Args, seed: u64) -> Behavior {
            let b = self.model.behavior(args, seed);
            let name = self.model.profile.name;
            self.log.borrow_mut().push((name, args.clone(), b.clone()));
            b
        }
    }

    #[test]
    fn stage_inputs_are_the_previous_stage_outputs() {
        let catalog = Catalog::new();
        let tenant = TenantId::from("t");
        let platform = platform();
        let log = Rc::new(RefCell::new(Vec::new()));
        for p in &STAGE_PROFILES {
            platform.register(FunctionSpec {
                id: FunctionId::from(p.name),
                tenant,
                booked_mem: 1 << 30,
                model: Rc::new(Logged {
                    model: StageModel::new(p),
                    log: Rc::clone(&log),
                }),
            });
        }
        let input = text_input(&catalog, "t.txt", 6 << 20);
        let mut sim = Sim::new(0);
        platform.submit_pipeline(
            &mut sim,
            Rc::new(ScatterGather::word_count(tenant, input, 4)),
            9,
        );
        sim.run_until(SimTime::from_secs(600));
        let pipes = platform.drain_pipeline_records();
        assert_eq!((pipes.len(), pipes[0].stages), (1, 3));
        assert!(!pipes[0].failed);
        assert_eq!(catalog.len(), 1, "only the prepared input is catalogued");

        let log = log.take();
        let stage =
            |name: &str| -> Vec<&Entry> { log.iter().filter(|(n, ..)| *n == name).collect() };
        let sorted = |mut v: Vec<(ObjectId, u64)>| {
            v.sort();
            v
        };
        let reads = |s: &[&Entry]| {
            sorted(
                s.iter()
                    .flat_map(|(_, _, b)| b.reads.iter().map(|r| (r.id, r.size)))
                    .collect(),
            )
        };
        let writes = |s: &[&Entry]| {
            sorted(
                s.iter()
                    .flat_map(|(_, _, b)| b.writes.iter().map(|w| (w.id, w.size)))
                    .collect(),
            )
        };
        // The feature extractor's byte total over a stage's invocations.
        let feature_bytes = |s: &[&Entry]| -> f64 {
            s.iter()
                .map(|(n, args, _)| {
                    let sp = stage_profile(n).unwrap();
                    sp.features(args, &catalog)[0].as_num().unwrap()
                })
                .sum()
        };
        let total = |v: &[(ObjectId, u64)]| v.iter().map(|&(_, size)| size).sum::<u64>() as f64;
        let (split, map, reduce) = (stage("wc_split"), stage("wc_map"), stage("wc_reduce"));
        assert_eq!((split.len(), map.len(), reduce.len()), (1, 4, 1));
        assert_eq!(reads(&split), vec![(input.id, input.size)]);
        assert_eq!(feature_bytes(&split), input.size as f64);
        for (prev, next) in [(&split, &map), (&map, &reduce)] {
            let written = writes(prev);
            assert_eq!(reads(next), written);
            assert_eq!(feature_bytes(next), total(&written));
        }
        // Chunks partition the input.
        assert!((total(&writes(&split)) / input.size as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn memory_scales_with_input_size() {
        let model = StageModel::new(stage_profile("wc_map").unwrap());
        let mem = |size: u64| {
            let mut args = Args::new();
            let id = ObjectId::new("in", "x");
            args.insert("input000".into(), ArgValue::Obj(ObjectRef { id, size }));
            model.behavior(&args, 0).mem_bytes
        };
        assert!(mem(10 << 20) > mem(1 << 20));
    }
}
