//! The repo benchmark: four fixed-work workloads, min-of-passes host
//! timing, exact simulated statistics, and a per-layer traced run.
//! See `benchmark/README.md`.

pub mod anchor;
pub mod cli;
pub mod compare;
pub mod drivers;
pub mod host;
pub mod pass;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
