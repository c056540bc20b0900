//! D3 fixture (pass): registered literals and registry constants.

pub fn record(t: &Telemetry) {
    t.counter("cache.hits").inc();
    t.counter(names::CACHE_HITS).inc();
    t.counter("cache.misses").inc();
}
