//! Registry fixture (fail): values that are not
//! `<subsystem>.<snake_case_metric>`.

/// Cache lookups served locally.
pub const CACHE_HITS: &str = "cache.hits";
/// Cache lookups that missed.
pub const CACHE_MISSES: &str = "cache.misses";
/// No subsystem.
pub const EVICTIONS: &str = "evictions";
/// Camel case.
pub const CACHE_FILLS: &str = "cache.objectFills";
/// Two dots.
pub const CACHE_REMOTE_HITS: &str = "cache.remote.hits";
