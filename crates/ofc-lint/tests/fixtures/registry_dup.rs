//! Registry fixture (fail): two constants declare one metric name, so
//! call sites can disagree on which constant names the series.

/// Cache lookups served locally.
pub const CACHE_HITS: &str = "cache.hits";
/// Cache lookups that missed.
pub const CACHE_MISSES: &str = "cache.misses";
/// A second constant for the local-hit series.
pub const CACHE_LOCAL_HITS: &str = "cache.hits";
