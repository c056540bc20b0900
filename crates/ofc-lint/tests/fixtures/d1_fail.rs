//! D1 fixture (fail): wall clock, hash-ordered export iteration, entropy.

use std::collections::HashMap;
use std::time::Instant;

pub struct Plane {
    hits: HashMap<u64, u64>,
}

impl Plane {
    pub fn snapshot_counters(&self) -> Vec<(u64, u64)> {
        let started = Instant::now();
        let out: Vec<(u64, u64)> = self.hits.iter().map(|(k, v)| (*k, *v)).collect();
        let _ = started.elapsed();
        out
    }
}

pub fn ambient() -> StdRng {
    StdRng::from_entropy()
}
