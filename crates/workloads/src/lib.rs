//! Workloads of the OFC evaluation: 19 multimedia functions, four
//! multi-stage applications, media generators, ML dataset builders, and the
//! FaaSLoad load injector (§7, Appendix A).
//!
//! The paper's functions process real media with ImageMagick/Sharp/ffmpeg;
//! we substitute *generative models*: each input object carries hidden
//! ground truth (pixel dimensions, channels, compression ratio, duration…)
//! sampled from realistic distributions, and each function computes its
//! memory footprint and compute time from that truth plus its arguments,
//! with multiplicative noise. This preserves exactly the property §2.2.2
//! motivates ML with: memory is strongly but *non-trivially* correlated
//! with the observable features (byte size alone does not predict it —
//! compression ratio hides the bitmap size; arguments modulate it further).
//!
//! The [`catalog::Catalog`] maps object ids to their truth, hidden and
//! observable. The Predictor reads the observable features from it; OFC
//! extracts them into the RSDS's object metadata at object-creation time
//! (§5.1.2), which the store here does not model.

pub mod catalog;
pub mod datasets;
pub mod faasload;
pub mod mega;
pub mod multimedia;
pub mod pipelines;
mod stream;

/// Bytes per mebibyte, used throughout the workload models.
pub const MB: u64 = 1 << 20;

/// Bytes per kibibyte.
pub const KB: u64 = 1 << 10;
