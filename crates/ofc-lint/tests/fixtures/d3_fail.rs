//! D3 fixture (fail): a typo'd name and a dynamic name — either one
//! silently splits a time series.

pub fn record(t: &Telemetry, which: &str) {
    t.counter("cache.hit").inc();
    t.counter(which).inc();
}
