//! The 19 single-stage multimedia functions of the evaluation (§7).
//!
//! Each function is a [`Profile`]: a generative model mapping the input
//! object's hidden truth (bitmap size, duration, entropy) and the
//! function-specific argument to peak memory, compute time, and output
//! size. Coefficients are calibrated so the Figure 7 single-stage bars and
//! the Figure 2 memory scatter have the paper's shape (e.g. `wand_edge`
//! with a 16 kB input computes for ~20 ms and completes in ~32 ms under a
//! local cache hit vs ~180 ms against Swift).

use crate::catalog::{Catalog, MediaKind, MediaMeta};
use ofc_dtree::data::{AttrKind, Attribute, Value};
use ofc_faas::{ArgValue, Args, Behavior, FunctionModel, ObjectRef, ObjectWrite};
use ofc_objstore::ObjectId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// One mebibyte as `f64` (noise arithmetic).
const MB_F: f64 = (1u64 << 20) as f64;

/// The function-specific argument of a profile (blur radius, quality, …).
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Argument name as it appears in the request.
    pub name: &'static str,
    /// Lower bound of the sampled range.
    pub lo: f64,
    /// Upper bound of the sampled range.
    pub hi: f64,
    /// Memory sensitivity: peak memory scales by `1 + mem_k * norm(arg)`.
    pub mem_k: f64,
    /// Compute sensitivity: compute scales by `1 + cpu_k * norm(arg)`.
    pub cpu_k: f64,
}

impl ArgSpec {
    fn norm(&self, v: f64) -> f64 {
        ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    /// Samples a value uniformly from the argument's range.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }
}

/// A single-stage function profile.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Function name (as registered on the platform).
    pub name: &'static str,
    /// Media kind it consumes.
    pub kind: MediaKind,
    /// Baseline runtime footprint (interpreter + libraries).
    pub mem_base: u64,
    /// Working-set multiplier over the input's raw (decompressed) bytes
    /// (ImageMagick keeps Q16 pixel caches: ~10× an 8-bit RGB bitmap).
    pub mem_buffers: f64,
    /// Function-specific argument, if any.
    pub arg: Option<ArgSpec>,
    /// Fixed compute overhead.
    pub compute_base: Duration,
    /// Compute per raw megabyte of input (scaled by entropy and argument).
    pub compute_per_raw_mb: Duration,
    /// Output size as a fraction of the *stored* input size.
    pub output_ratio: f64,
}

/// All 19 single-stage functions.
pub const PROFILES: [Profile; 19] = [
    Profile {
        name: "wand_blur",
        kind: MediaKind::Image,
        mem_base: 30 << 20,
        mem_buffers: 10.0,
        arg: Some(ArgSpec {
            name: "sigma",
            lo: 0.3,
            hi: 6.0,
            mem_k: 0.2,
            cpu_k: 2.5,
        }),
        compute_base: Duration::from_millis(4),
        compute_per_raw_mb: Duration::from_millis(120),
        output_ratio: 1.0,
    },
    Profile {
        name: "wand_resize",
        kind: MediaKind::Image,
        mem_base: 28 << 20,
        mem_buffers: 8.0,
        arg: Some(ArgSpec {
            name: "target_width",
            lo: 64.0,
            hi: 1920.0,
            mem_k: 0.3,
            cpu_k: 0.6,
        }),
        compute_base: Duration::from_millis(3),
        compute_per_raw_mb: Duration::from_millis(60),
        output_ratio: 0.4,
    },
    Profile {
        name: "wand_sepia",
        kind: MediaKind::Image,
        mem_base: 26 << 20,
        mem_buffers: 9.0,
        arg: Some(ArgSpec {
            name: "threshold",
            lo: 0.1,
            hi: 1.0,
            mem_k: 0.1,
            cpu_k: 0.4,
        }),
        compute_base: Duration::from_millis(3),
        compute_per_raw_mb: Duration::from_millis(70),
        output_ratio: 1.0,
    },
    Profile {
        name: "wand_rotate",
        kind: MediaKind::Image,
        mem_base: 26 << 20,
        mem_buffers: 11.0,
        arg: Some(ArgSpec {
            name: "degrees",
            lo: 1.0,
            hi: 359.0,
            mem_k: 0.3,
            cpu_k: 0.3,
        }),
        compute_base: Duration::from_millis(3),
        compute_per_raw_mb: Duration::from_millis(55),
        output_ratio: 1.1,
    },
    Profile {
        name: "wand_denoise",
        kind: MediaKind::Image,
        mem_base: 32 << 20,
        mem_buffers: 13.0,
        arg: Some(ArgSpec {
            name: "strength",
            lo: 1.0,
            hi: 5.0,
            mem_k: 0.2,
            cpu_k: 3.0,
        }),
        compute_base: Duration::from_millis(7),
        compute_per_raw_mb: Duration::from_millis(400),
        output_ratio: 1.0,
    },
    Profile {
        name: "wand_edge",
        kind: MediaKind::Image,
        mem_base: 28 << 20,
        mem_buffers: 10.0,
        arg: Some(ArgSpec {
            name: "radius",
            lo: 1.0,
            hi: 8.0,
            mem_k: 0.3,
            cpu_k: 1.2,
        }),
        compute_base: Duration::from_millis(5),
        compute_per_raw_mb: Duration::from_millis(200),
        output_ratio: 0.8,
    },
    Profile {
        name: "wand_sharpen",
        kind: MediaKind::Image,
        mem_base: 28 << 20,
        mem_buffers: 10.0,
        arg: Some(ArgSpec {
            name: "amount",
            lo: 0.5,
            hi: 4.0,
            mem_k: 0.2,
            cpu_k: 1.5,
        }),
        compute_base: Duration::from_millis(4),
        compute_per_raw_mb: Duration::from_millis(150),
        output_ratio: 1.0,
    },
    Profile {
        name: "wand_grayscale",
        kind: MediaKind::Image,
        mem_base: 24 << 20,
        mem_buffers: 7.0,
        arg: None,
        compute_base: Duration::from_millis(2),
        compute_per_raw_mb: Duration::from_millis(35),
        output_ratio: 0.6,
    },
    Profile {
        name: "wand_crop",
        kind: MediaKind::Image,
        mem_base: 24 << 20,
        mem_buffers: 6.0,
        arg: Some(ArgSpec {
            name: "fraction",
            lo: 0.1,
            hi: 0.9,
            mem_k: 0.5,
            cpu_k: 0.5,
        }),
        compute_base: Duration::from_millis(2),
        compute_per_raw_mb: Duration::from_millis(25),
        output_ratio: 0.5,
    },
    Profile {
        name: "wand_thumbnail",
        kind: MediaKind::Image,
        mem_base: 22 << 20,
        mem_buffers: 6.5,
        arg: Some(ArgSpec {
            name: "edge_px",
            lo: 32.0,
            hi: 256.0,
            mem_k: 0.1,
            cpu_k: 0.2,
        }),
        compute_base: Duration::from_millis(2),
        compute_per_raw_mb: Duration::from_millis(30),
        output_ratio: 0.05,
    },
    Profile {
        name: "wand_format_convert",
        kind: MediaKind::Image,
        mem_base: 26 << 20,
        mem_buffers: 9.0,
        arg: Some(ArgSpec {
            name: "quality",
            lo: 10.0,
            hi: 100.0,
            mem_k: 0.2,
            cpu_k: 0.8,
        }),
        compute_base: Duration::from_millis(3),
        compute_per_raw_mb: Duration::from_millis(80),
        output_ratio: 0.7,
    },
    Profile {
        name: "sharp_resize",
        kind: MediaKind::Image,
        mem_base: 40 << 20,
        // Sharp (libvips) streams: far smaller working set than ImageMagick.
        mem_buffers: 2.5,
        arg: Some(ArgSpec {
            name: "target_width",
            lo: 64.0,
            hi: 1920.0,
            mem_k: 0.6,
            cpu_k: 0.5,
        }),
        compute_base: Duration::from_millis(2),
        compute_per_raw_mb: Duration::from_millis(25),
        output_ratio: 0.4,
    },
    Profile {
        name: "audio_transcode",
        kind: MediaKind::Audio,
        mem_base: 35 << 20,
        mem_buffers: 0.6,
        arg: Some(ArgSpec {
            name: "bitrate_kbps",
            lo: 64.0,
            hi: 320.0,
            mem_k: 0.3,
            cpu_k: 0.8,
        }),
        compute_base: Duration::from_millis(10),
        compute_per_raw_mb: Duration::from_millis(12),
        output_ratio: 0.6,
    },
    Profile {
        name: "audio_compress",
        kind: MediaKind::Audio,
        mem_base: 30 << 20,
        mem_buffers: 0.4,
        arg: Some(ArgSpec {
            name: "level",
            lo: 1.0,
            hi: 9.0,
            mem_k: 0.5,
            cpu_k: 1.8,
        }),
        compute_base: Duration::from_millis(8),
        compute_per_raw_mb: Duration::from_millis(10),
        output_ratio: 0.4,
    },
    Profile {
        name: "speech_recognition",
        kind: MediaKind::Audio,
        mem_base: 180 << 20, // acoustic model resident set
        mem_buffers: 0.8,
        arg: Some(ArgSpec {
            name: "beam",
            lo: 4.0,
            hi: 32.0,
            mem_k: 0.9,
            cpu_k: 2.0,
        }),
        compute_base: Duration::from_millis(50),
        compute_per_raw_mb: Duration::from_millis(60),
        output_ratio: 0.01,
    },
    Profile {
        name: "video_grayscale",
        kind: MediaKind::Video,
        mem_base: 60 << 20,
        mem_buffers: 0.02, // streams frames; buffers a GOP at a time
        arg: None,
        compute_base: Duration::from_millis(30),
        compute_per_raw_mb: Duration::from_millis(3),
        output_ratio: 0.9,
    },
    Profile {
        name: "video_transcode",
        kind: MediaKind::Video,
        mem_base: 80 << 20,
        mem_buffers: 0.03,
        arg: Some(ArgSpec {
            name: "crf",
            lo: 18.0,
            hi: 34.0,
            mem_k: 0.1,
            cpu_k: 1.0,
        }),
        compute_base: Duration::from_millis(50),
        compute_per_raw_mb: Duration::from_millis(6),
        output_ratio: 0.5,
    },
    Profile {
        name: "text_summary",
        kind: MediaKind::Text,
        mem_base: 90 << 20,
        mem_buffers: 8.0, // tokenized + embedding workspace per raw byte
        arg: Some(ArgSpec {
            name: "ratio",
            lo: 0.05,
            hi: 0.5,
            mem_k: 0.15,
            cpu_k: 0.7,
        }),
        compute_base: Duration::from_millis(20),
        compute_per_raw_mb: Duration::from_millis(90),
        output_ratio: 0.1,
    },
    Profile {
        name: "sentiment_analysis",
        kind: MediaKind::Text,
        mem_base: 120 << 20,
        mem_buffers: 5.0,
        arg: None,
        compute_base: Duration::from_millis(15),
        compute_per_raw_mb: Duration::from_millis(70),
        output_ratio: 0.001,
    },
];

/// Looks up a profile by name.
pub fn profile(name: &str) -> Option<&'static Profile> {
    PROFILES.iter().find(|p| p.name == name)
}

impl Profile {
    /// Peak memory for an input with truth `meta` and argument `arg_value`.
    ///
    /// Deterministic given `seed`; a small additive noise (±6 MB) models
    /// allocator and runtime variance between invocations on identical
    /// inputs — small relative to the 16 MB classification interval, as the
    /// paper's measured functions exhibit (Figure 2's tight banding).
    pub fn memory(&self, meta: &MediaMeta, arg_value: Option<f64>, seed: u64) -> u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB10B);
        let arg_factor = match (self.arg, arg_value) {
            (Some(spec), Some(v)) => 1.0 + spec.mem_k * spec.norm(v),
            _ => 1.0,
        };
        let working = meta.raw_bytes() as f64 * self.mem_buffers * arg_factor;
        let noise = rng.gen_range(-6.0 * MB_F..6.0 * MB_F);
        self.mem_base + (working + noise).max(0.0) as u64
    }

    /// Compute (Transform) time for the same input.
    pub fn compute(&self, meta: &MediaMeta, arg_value: Option<f64>, seed: u64) -> Duration {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0DE);
        let arg_factor = match (self.arg, arg_value) {
            (Some(spec), Some(v)) => 1.0 + spec.cpu_k * spec.norm(v),
            _ => 1.0,
        };
        let raw_mb = meta.raw_bytes() as f64 / (1 << 20) as f64;
        let noise = rng.gen_range(0.95..1.05);
        self.compute_base
            + self
                .compute_per_raw_mb
                .mul_f64(raw_mb * meta.entropy * arg_factor * noise)
    }

    /// Output object size for a given input.
    pub fn output_size(&self, meta: &MediaMeta) -> u64 {
        ((meta.bytes as f64 * self.output_ratio) as u64).max(128)
    }

    /// The ML feature schema of this function (§5.1.2): common features of
    /// the input type plus the function-specific argument.
    pub fn feature_schema(&self) -> Vec<Attribute> {
        let mut attrs = vec![Attribute {
            name: "bytes".into(),
            kind: AttrKind::Numeric,
        }];
        match self.kind {
            MediaKind::Image => {
                for name in ["width", "height", "channels", "megapixels"] {
                    attrs.push(Attribute {
                        name: name.into(),
                        kind: AttrKind::Numeric,
                    });
                }
                attrs.push(Attribute {
                    name: "format".into(),
                    kind: AttrKind::Nominal(
                        crate::catalog::IMAGE_FORMATS
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    ),
                });
            }
            MediaKind::Audio => {
                attrs.push(Attribute {
                    name: "duration".into(),
                    kind: AttrKind::Numeric,
                });
                attrs.push(Attribute {
                    name: "format".into(),
                    kind: AttrKind::Nominal(
                        crate::catalog::AUDIO_FORMATS
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    ),
                });
            }
            MediaKind::Video => {
                for name in ["duration", "width", "height", "megapixels"] {
                    attrs.push(Attribute {
                        name: name.into(),
                        kind: AttrKind::Numeric,
                    });
                }
                attrs.push(Attribute {
                    name: "format".into(),
                    kind: AttrKind::Nominal(
                        crate::catalog::VIDEO_FORMATS
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    ),
                });
            }
            MediaKind::Text => {
                attrs.push(Attribute {
                    name: "words".into(),
                    kind: AttrKind::Numeric,
                });
            }
        }
        if let Some(spec) = self.arg {
            attrs.push(Attribute {
                name: spec.name.into(),
                kind: AttrKind::Numeric,
            });
        }
        attrs
    }

    /// Extracts the feature vector of an invocation, in schema order.
    ///
    /// Only observable information is used: the catalogued metadata (which
    /// mirrors the RSDS tags) and the request arguments.
    pub fn features(&self, meta: &MediaMeta, args: &Args) -> Vec<Value> {
        let mut v = vec![Value::Num(meta.bytes as f64)];
        match self.kind {
            MediaKind::Image => {
                v.push(Value::Num(f64::from(meta.width)));
                v.push(Value::Num(f64::from(meta.height)));
                v.push(Value::Num(f64::from(meta.channels)));
                // Pixel volume is ordinary image metadata and the feature
                // memory actually tracks; extractors report it directly.
                v.push(Value::Num(meta.megapixels() * f64::from(meta.channels)));
                v.push(Value::Nom(meta.format));
            }
            MediaKind::Audio => {
                v.push(Value::Num(meta.duration_s));
                v.push(Value::Nom(meta.format));
            }
            MediaKind::Video => {
                v.push(Value::Num(meta.duration_s));
                v.push(Value::Num(f64::from(meta.width)));
                v.push(Value::Num(f64::from(meta.height)));
                v.push(Value::Num(meta.megapixels() * meta.duration_s));
                v.push(Value::Nom(meta.format));
            }
            MediaKind::Text => {
                v.push(Value::Num(meta.words as f64));
            }
        }
        if let Some(spec) = self.arg {
            v.push(match args.get(spec.name) {
                Some(ArgValue::Num(x)) => Value::Num(*x),
                _ => Value::Missing,
            });
        }
        v
    }

    /// Samples request arguments for a given input object.
    pub fn sample_args(&self, input: &ObjectId, rng: &mut ChaCha8Rng) -> Args {
        let mut args = Args::new();
        args.insert("input".into(), ArgValue::Obj(*input));
        if let Some(spec) = self.arg {
            args.insert(spec.name.into(), ArgValue::Num(spec.sample(rng)));
        }
        args
    }
}

/// The [`FunctionModel`] adapter: resolves behaviour from the catalog.
pub struct MultimediaModel {
    profile: &'static Profile,
    catalog: Catalog,
}

impl MultimediaModel {
    /// Wraps a profile with the catalog it resolves inputs from.
    pub fn new(profile: &'static Profile, catalog: Catalog) -> Self {
        MultimediaModel { profile, catalog }
    }

    /// The wrapped profile.
    pub fn profile(&self) -> &'static Profile {
        self.profile
    }
}

impl FunctionModel for MultimediaModel {
    fn behavior(&self, args: &Args, seed: u64) -> Behavior {
        let input = args.values().find_map(|v| match v {
            ArgValue::Obj(id) => Some(*id),
            _ => None,
        });
        let Some(input) = input else {
            // Input-less invocation: a trivial run at the base footprint.
            return Behavior {
                mem_bytes: self.profile.mem_base,
                compute: self.profile.compute_base,
                reads: vec![],
                writes: vec![],
            };
        };
        let meta = self
            .catalog
            .get(&input)
            .unwrap_or_else(|| panic!("object {input} not in the workload catalog"));
        let arg_value = self.profile.arg.and_then(|spec| match args.get(spec.name) {
            Some(ArgValue::Num(x)) => Some(*x),
            _ => None,
        });
        let out_id = ObjectId::from_fmt(
            "outputs",
            format_args!("{}-{}-{}", self.profile.name, input.key(), seed),
        );
        Behavior {
            mem_bytes: self.profile.memory(&meta, arg_value, seed),
            compute: self.profile.compute(&meta, arg_value, seed),
            reads: vec![ObjectRef {
                id: input,
                size: meta.bytes,
            }],
            writes: vec![ObjectWrite {
                id: out_id,
                size: self.profile.output_size(&meta),
                is_final: true,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{gen_image, gen_image_with_bytes};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn nineteen_distinct_profiles() {
        assert_eq!(PROFILES.len(), 19);
        let names: std::collections::HashSet<&str> = PROFILES.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 19);
        assert!(profile("wand_blur").is_some());
        assert!(profile("nope").is_none());
    }

    #[test]
    fn memory_scales_with_image_dimensions_not_bytes() {
        let p = profile("wand_blur").unwrap();
        let mut r = rng(1);
        // A big-bitmap jpg (high compression) vs small-bitmap bmp of
        // similar byte size must use very different memory.
        let mut big = gen_image(&mut r);
        big.width = 3000;
        big.height = 2000;
        big.channels = 3;
        big.ratio = 0.05;
        big.bytes = ((big.raw_bytes() as f64) * big.ratio) as u64;
        let mut small = gen_image(&mut r);
        small.width = 600;
        small.height = 500;
        small.channels = 3;
        small.ratio = 1.0;
        small.bytes = small.raw_bytes();
        assert!((big.bytes as f64 / small.bytes as f64) < 1.2);
        let m_big = p.memory(&big, Some(2.0), 0);
        let m_small = p.memory(&small, Some(2.0), 0);
        assert!(
            m_big > 4 * m_small,
            "bitmap size must dominate: {m_big} vs {m_small}"
        );
    }

    #[test]
    fn argument_modulates_memory_and_compute() {
        let p = profile("wand_blur").unwrap();
        let mut r = rng(2);
        // Pin the bitmap to a mid-size image: a degenerate (tiny) sample
        // would let the ±6 MB allocator-noise term clamp both memory
        // readings to the base and mask the argument's effect.
        let mut img = gen_image(&mut r);
        img.width = 1600;
        img.height = 1200;
        img.channels = 3;
        img.bytes = ((img.raw_bytes() as f64) * img.ratio) as u64;
        let low = p.memory(&img, Some(0.3), 7);
        let high = p.memory(&img, Some(6.0), 7);
        assert!(high > low);
        assert!(p.compute(&img, Some(6.0), 7) > p.compute(&img, Some(0.3), 7));
    }

    #[test]
    fn memory_is_noisy_across_seeds_but_deterministic_per_seed() {
        let p = profile("wand_sepia").unwrap();
        let mut r = rng(3);
        let img = gen_image(&mut r);
        assert_eq!(p.memory(&img, Some(0.5), 1), p.memory(&img, Some(0.5), 1));
        let spread: std::collections::HashSet<u64> =
            (0..20).map(|s| p.memory(&img, Some(0.5), s)).collect();
        assert!(spread.len() > 10, "noise should vary with seed");
    }

    #[test]
    fn wand_edge_16kb_compute_matches_paper_scale() {
        // §7.2.1: wand_edge at 16 kB runs in ~32 ms under a local hit, so
        // its Transform phase must be in the tens of milliseconds.
        let p = profile("wand_edge").unwrap();
        let mut r = rng(4);
        let mut total = Duration::ZERO;
        let n = 50;
        for s in 0..n {
            let img = gen_image_with_bytes(16 * 1024, &mut r);
            total += p.compute(&img, Some(3.0), s);
        }
        let avg = total / n as u32;
        assert!(
            (Duration::from_millis(5)..Duration::from_millis(80)).contains(&avg),
            "wand_edge @16kB compute: {avg:?}"
        );
    }

    #[test]
    fn schema_and_features_align() {
        for p in &PROFILES {
            let schema = p.feature_schema();
            let mut r = rng(42);
            let meta = match p.kind {
                MediaKind::Image => gen_image(&mut r),
                MediaKind::Audio => crate::catalog::gen_audio(&mut r),
                MediaKind::Video => crate::catalog::gen_video(&mut r),
                MediaKind::Text => crate::catalog::gen_text(None, &mut r),
            };
            let args = p.sample_args(&ObjectId::new("in", "x"), &mut r);
            let features = p.features(&meta, &args);
            assert_eq!(
                features.len(),
                schema.len(),
                "{}: feature arity mismatch",
                p.name
            );
            for (f, a) in features.iter().zip(&schema) {
                match (&a.kind, f) {
                    (AttrKind::Numeric, Value::Num(_) | Value::Missing) => {}
                    (AttrKind::Nominal(vals), Value::Nom(i)) => {
                        assert!((*i as usize) < vals.len(), "{}: bad nominal", p.name)
                    }
                    other => panic!("{}: schema/feature mismatch {other:?}", p.name),
                }
            }
        }
    }

    #[test]
    fn model_behavior_reads_input_writes_output() {
        let catalog = Catalog::new();
        let mut r = rng(5);
        let id = ObjectId::new("in", "img1");
        // Pin to a large bitmap so the >28 MB working-set bound below is
        // about the model (buffers × raw size), not the sampled input.
        let mut img = gen_image(&mut r);
        img.width = 2400;
        img.height = 1800;
        img.channels = 3;
        img.bytes = ((img.raw_bytes() as f64) * img.ratio) as u64;
        let stored = img.bytes;
        catalog.insert(id, img);
        let model = MultimediaModel::new(profile("wand_resize").unwrap(), catalog);
        let args = profile("wand_resize").unwrap().sample_args(&id, &mut r);
        let b = model.behavior(&args, 3);
        assert_eq!(b.reads.len(), 1);
        assert_eq!(b.reads[0].size, stored);
        assert_eq!(b.writes.len(), 1);
        assert!(b.writes[0].is_final);
        assert!(b.mem_bytes > 28 << 20);
        assert!(b.compute > Duration::ZERO);
    }

    #[test]
    fn output_sizes_follow_ratio() {
        let p = profile("wand_thumbnail").unwrap();
        let mut r = rng(6);
        let img = gen_image_with_bytes(1 << 20, &mut r);
        let out = p.output_size(&img);
        assert!(out < img.bytes / 10, "thumbnails are small: {out}");
    }
}
