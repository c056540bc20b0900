//! The data catalog: hidden ground truth of generated media objects, plus
//! generators for each media kind.
//!
//! Observable features (byte size, pixel dimensions, duration, format) are
//! what the ML layer may see; hidden ones (compression ratio, content
//! entropy) only influence behaviour — that gap is why byte size alone
//! cannot predict memory (Figure 2, top).

use ofc_objstore::{IdHashMap, ObjectId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Media kind of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaKind {
    /// A raster image.
    Image,
    /// An audio clip.
    Audio,
    /// A video clip.
    Video,
    /// A text document.
    Text,
}

/// Image/file formats (the nominal feature of §5.1.2).
pub const IMAGE_FORMATS: [&str; 4] = ["png", "jpg", "gif", "bmp"];
/// Audio formats.
pub const AUDIO_FORMATS: [&str; 3] = ["wav", "mp3", "flac"];
/// Video formats.
pub const VIDEO_FORMATS: [&str; 3] = ["mp4", "avi", "mkv"];

/// Hidden + observable truth about one media object.
#[derive(Debug, Clone)]
pub struct MediaMeta {
    /// Media kind.
    pub kind: MediaKind,
    /// Stored (compressed) byte size — observable.
    pub bytes: u64,
    /// Pixel width (images/videos) — observable via metadata.
    pub width: u32,
    /// Pixel height (images/videos) — observable via metadata.
    pub height: u32,
    /// Colour channels — observable.
    pub channels: u32,
    /// Clip duration in seconds (audio/video) — observable.
    pub duration_s: f64,
    /// Word count (text) — observable.
    pub words: u64,
    /// Format index into the kind's format table — observable, nominal.
    pub format: u32,
    /// Compression ratio (stored / raw) — hidden.
    pub ratio: f64,
    /// Content complexity in `[0.5, 1.5]` — hidden, modulates compute.
    pub entropy: f64,
}

impl MediaMeta {
    /// Raw (decompressed) size in bytes — what actually sits in memory.
    pub fn raw_bytes(&self) -> u64 {
        match self.kind {
            MediaKind::Image => {
                u64::from(self.width) * u64::from(self.height) * u64::from(self.channels)
            }
            MediaKind::Audio => (self.duration_s * 44_100.0 * 2.0 * 2.0) as u64,
            MediaKind::Video => {
                // Raw frame volume at 24 fps (per-frame processing streams
                // it, but codecs buffer several frames).
                (u64::from(self.width) * u64::from(self.height) * 3)
                    * (self.duration_s * 24.0) as u64
            }
            MediaKind::Text => self.words * 6,
        }
    }

    /// Megapixels of an image frame.
    pub fn megapixels(&self) -> f64 {
        f64::from(self.width) * f64::from(self.height) / 1e6
    }

    /// Observable metadata tags, as stored in the RSDS at creation (§5.1.2).
    pub fn tags(&self) -> HashMap<String, String> {
        let mut t = HashMap::new();
        t.insert("bytes".into(), self.bytes.to_string());
        t.insert("format".into(), self.format.to_string());
        match self.kind {
            MediaKind::Image => {
                t.insert("width".into(), self.width.to_string());
                t.insert("height".into(), self.height.to_string());
                t.insert("channels".into(), self.channels.to_string());
            }
            MediaKind::Audio | MediaKind::Video => {
                t.insert("duration".into(), format!("{:.3}", self.duration_s));
                if self.kind == MediaKind::Video {
                    t.insert("width".into(), self.width.to_string());
                    t.insert("height".into(), self.height.to_string());
                }
            }
            MediaKind::Text => {
                t.insert("words".into(), self.words.to_string());
            }
        }
        t
    }
}

/// Shared map from object ids to their truth.
///
/// Grows by one entry per catalogued object and never shrinks: stage
/// models register every output they name and nothing tells the catalog
/// when the pipeline's intermediates are dropped (ROADMAP item 2's
/// boundedness gate).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    inner: Rc<RefCell<IdHashMap<ObjectId, MediaMeta>>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an object's truth.
    pub fn insert(&self, id: ObjectId, meta: MediaMeta) {
        self.inner.borrow_mut().insert(id, meta);
    }

    /// Looks up an object's truth.
    pub fn get(&self, id: &ObjectId) -> Option<MediaMeta> {
        self.inner.borrow().get(id).cloned()
    }

    /// Number of catalogued objects.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }
}

/// Compression ratio by image format (means; jittered per object).
fn image_ratio(format: u32, rng: &mut ChaCha8Rng) -> f64 {
    let base: f64 = match format {
        0 => 0.35, // png
        1 => 0.08, // jpg
        2 => 0.25, // gif
        _ => 1.0,  // bmp
    };
    (base * rng.gen_range(0.6..1.6)).min(1.0)
}

/// Samples an image with dimensions drawn log-scale, biased toward small
/// images (most cloud-function inputs are thumbnails and photos; the AWS
/// survey of §2.2.1 reports a 29 MB *median* function footprint).
pub fn gen_image(rng: &mut ChaCha8Rng) -> MediaMeta {
    let u: f64 = rng.gen();
    let width = (2f64.powf(6.0 + 5.6 * u * u)) as u32; // 64 .. ~3100, small-biased
    let aspect = rng.gen_range(0.5..2.0);
    let height = ((f64::from(width) / aspect) as u32).max(32);
    let channels = if rng.gen_bool(0.8) { 3 } else { 4 };
    let format = rng.gen_range(0..IMAGE_FORMATS.len() as u32);
    let ratio = image_ratio(format, rng);
    let raw = u64::from(width) * u64::from(height) * u64::from(channels);
    MediaMeta {
        kind: MediaKind::Image,
        bytes: ((raw as f64) * ratio) as u64,
        width,
        height,
        channels,
        duration_s: 0.0,
        words: 0,
        format,
        ratio,
        entropy: rng.gen_range(0.5..1.5),
    }
}

/// Samples an image whose *stored* size is close to `target_bytes`
/// (used by the Figure 3/7 input-size sweeps).
pub fn gen_image_with_bytes(target_bytes: u64, rng: &mut ChaCha8Rng) -> MediaMeta {
    let channels = 3u32;
    let format = rng.gen_range(0..IMAGE_FORMATS.len() as u32);
    let ratio = image_ratio(format, rng);
    let raw = (target_bytes as f64 / ratio).max(1024.0);
    let aspect = rng.gen_range(0.8..1.4);
    let width = ((raw / 3.0 * aspect).sqrt() as u32).max(16);
    let height = ((raw / 3.0 / f64::from(width)) as u32).max(16);
    let raw_actual = u64::from(width) * u64::from(height) * u64::from(channels);
    MediaMeta {
        kind: MediaKind::Image,
        bytes: ((raw_actual as f64) * ratio) as u64,
        width,
        height,
        channels,
        duration_s: 0.0,
        words: 0,
        format,
        ratio,
        entropy: rng.gen_range(0.5..1.5),
    }
}

/// Samples an audio clip (seconds to minutes).
pub fn gen_audio(rng: &mut ChaCha8Rng) -> MediaMeta {
    let duration_s = rng.gen_range(5.0..600.0);
    let format = rng.gen_range(0..AUDIO_FORMATS.len() as u32);
    let ratio = match format {
        0 => 1.0,  // wav
        1 => 0.08, // mp3
        _ => 0.5,  // flac
    } * rng.gen_range(0.8..1.2);
    let raw = (duration_s * 44_100.0 * 2.0 * 2.0) as u64;
    MediaMeta {
        kind: MediaKind::Audio,
        bytes: ((raw as f64) * ratio) as u64,
        width: 0,
        height: 0,
        channels: 2,
        duration_s,
        words: 0,
        format,
        ratio,
        entropy: rng.gen_range(0.5..1.5),
    }
}

/// Samples a short video clip.
pub fn gen_video(rng: &mut ChaCha8Rng) -> MediaMeta {
    let duration_s = rng.gen_range(5.0..120.0);
    let width = *[640u32, 1280, 1920]
        .get(rng.gen_range(0..3))
        .expect("in range");
    let height = width * 9 / 16;
    let format = rng.gen_range(0..VIDEO_FORMATS.len() as u32);
    let ratio = rng.gen_range(0.002..0.01);
    let raw = u64::from(width) * u64::from(height) * 3 * (duration_s * 24.0) as u64;
    MediaMeta {
        kind: MediaKind::Video,
        bytes: ((raw as f64) * ratio) as u64,
        width,
        height,
        channels: 3,
        duration_s,
        words: 0,
        format,
        ratio,
        entropy: rng.gen_range(0.5..1.5),
    }
}

/// Samples a text document with roughly `target_bytes` stored bytes, or a
/// random size when `None`.
pub fn gen_text(target_bytes: Option<u64>, rng: &mut ChaCha8Rng) -> MediaMeta {
    // Log-uniform 10 kB .. 30 MB: most documents are small.
    let bytes = target_bytes.unwrap_or_else(|| (10_240.0 * 3000f64.powf(rng.gen::<f64>())) as u64);
    let words = bytes / 6;
    MediaMeta {
        kind: MediaKind::Text,
        bytes,
        width: 0,
        height: 0,
        channels: 0,
        duration_s: 0.0,
        words,
        format: 0,
        ratio: 1.0,
        entropy: rng.gen_range(0.5..1.5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn image_sizes_span_realistic_range() {
        let mut r = rng(1);
        for _ in 0..200 {
            let img = gen_image(&mut r);
            assert!(img.width >= 64 && img.width <= 4096);
            assert!(img.bytes > 0);
            assert!(img.ratio <= 1.0);
            assert!(img.raw_bytes() >= img.bytes);
        }
    }

    #[test]
    fn byte_size_does_not_determine_raw_size() {
        // The crux of §2.2.2: two images of similar stored size can differ
        // widely in bitmap (memory) size because of compression.
        let mut r = rng(2);
        let imgs: Vec<MediaMeta> = (0..500).map(|_| gen_image(&mut r)).collect();
        let mut max_spread: f64 = 0.0;
        for a in &imgs {
            for b in &imgs {
                let close = (a.bytes as f64 / b.bytes as f64).max(b.bytes as f64 / a.bytes as f64);
                if close < 1.1 {
                    let spread = a.raw_bytes() as f64 / b.raw_bytes() as f64;
                    max_spread = max_spread.max(spread.max(1.0 / spread));
                }
            }
        }
        assert!(
            max_spread > 2.0,
            "similar byte sizes should hide >2x raw-size spread, got {max_spread:.2}"
        );
    }

    #[test]
    fn targeted_image_hits_requested_bytes() {
        let mut r = rng(3);
        for target in [16 * 1024u64, 128 * 1024, 1 << 20] {
            let img = gen_image_with_bytes(target, &mut r);
            let ratio = img.bytes as f64 / target as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "target {target}: got {} ({ratio:.2}x)",
                img.bytes
            );
        }
    }

    #[test]
    fn tags_expose_observable_features_only() {
        let mut r = rng(4);
        let img = gen_image(&mut r);
        let tags = img.tags();
        assert!(tags.contains_key("width"));
        assert!(tags.contains_key("bytes"));
        assert!(!tags.contains_key("ratio"), "hidden truth must not leak");
        assert!(!tags.contains_key("entropy"));
        let audio = gen_audio(&mut r);
        assert!(audio.tags().contains_key("duration"));
        let text = gen_text(None, &mut r);
        assert!(text.tags().contains_key("words"));
    }

    #[test]
    fn catalog_round_trip() {
        let cat = Catalog::new();
        let id = ObjectId::new("in", "x");
        let mut r = rng(5);
        cat.insert(id, gen_image(&mut r));
        assert_eq!(cat.len(), 1);
        assert!(cat.get(&id).is_some());
        assert!(cat.get(&ObjectId::new("in", "y")).is_none());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = gen_image(&mut rng(7)).bytes;
        let b = gen_image(&mut rng(7)).bytes;
        assert_eq!(a, b);
    }

    #[test]
    fn text_word_count_scales_with_bytes() {
        let mut r = rng(8);
        let t = gen_text(Some(6_000_000), &mut r);
        assert_eq!(t.words, 1_000_000);
    }
}
