//! The rule scopes: which files each rule reads, and what it bans.
//!
//! [`Config::default`] is the one list. There is no config file: a scope
//! change is a code change, reviewed with the rule it retargets. Tests
//! build their own `Config` to aim the rules at fixtures.
//!
//! Paths are workspace-relative prefixes with forward slashes; a file
//! matches a prefix if its relative path starts with it.

/// Fully resolved linter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from analysis entirely.
    pub exclude: Vec<String>,
    /// D1: identifiers that must not appear (wall clock, ambient RNG).
    pub banned_idents: Vec<String>,
    /// D1: path prefixes exempt from determinism checks.
    pub determinism_allow: Vec<String>,
    /// D1: substrings marking a function as a snapshot/export path.
    pub export_fn_patterns: Vec<String>,
    /// D3/D7: workspace-relative path of the metric-name registry module.
    pub telemetry_registry: String,
    /// D3: path prefixes whose metric names must be registered.
    pub telemetry_paths: Vec<String>,
    /// D4: files whose non-test code must not panic.
    pub panic_hot_paths: Vec<String>,
    /// D5: path prefixes whose loops are allocation-audited.
    pub hotloop_paths: Vec<String>,
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // Never analyzed: vendored stubs, build output, and the lint
            // fixtures (which deliberately contain violations).
            exclude: strings(&["vendor/", "target/", "crates/ofc-lint/tests/fixtures/"]),
            // D1: the simulation must replay bit-for-bit over the
            // ofc-simtime virtual clock, so wall clocks and ambient entropy
            // are banned outright.
            banned_idents: strings(&[
                "Instant",
                "SystemTime",
                "thread_rng",
                "from_entropy",
                "from_os_rng",
                "OsRng",
            ]),
            // The repo benchmark measures real wall time, and the ML
            // micro-benchmark times training: the only two places that
            // read `Instant`.
            determinism_allow: strings(&["benchmark/", "crates/bench/src/mlx.rs"]),
            // Function names containing these substrings are
            // snapshot/export paths: HashMap/HashSet iteration there
            // produces nondeterministic output order.
            export_fn_patterns: strings(&["to_json", "snapshot", "export", "write_json"]),
            // D3: every metric name must be a `pub const` in the central
            // registry; D7 reports the consts nothing emits or reads.
            telemetry_registry: "crates/telemetry/src/names.rs".into(),
            // Paths whose counter/gauge/histogram call sites are
            // cross-checked.
            telemetry_paths: strings(&[
                "crates/core/",
                "crates/faas/",
                "crates/rcstore/",
                "crates/bench/",
                "crates/chaos/",
            ]),
            // D4: non-test code in these files must not unwrap/expect/
            // panic! unless the site documents its invariant with
            // `// ofc-lint: allow(panic) reason=...`.
            panic_hot_paths: strings(&[
                "crates/chaos/src/lib.rs",
                "crates/core/src/cache.rs",
                "crates/core/src/health.rs",
                "crates/core/src/agent.rs",
                "crates/core/src/policy/mod.rs",
                "crates/core/src/policy/ofc.rs",
                "crates/core/src/policy/faast.rs",
                "crates/core/src/policy/infinicache.rs",
                "crates/core/src/scheduler.rs",
                "crates/core/src/monitor.rs",
                "crates/rcstore/src/cluster.rs",
                "crates/rcstore/src/node.rs",
                "crates/rcstore/src/log.rs",
                "crates/rcstore/src/raft.rs",
                "crates/rcstore/src/gossip.rs",
                "crates/faas/src/platform.rs",
                "crates/bench/src/par.rs",
            ]),
            // D5: allocation discipline inside loops of the data-plane hot
            // paths. Every clone/to_string/format!/collect at loop depth
            // >= 1 in these files is a finding, and all of them (suppressed
            // or not) land in the `--emit-hotspots` inventory
            // (results/lint_hotspots.json).
            hotloop_paths: strings(&[
                "crates/rcstore/src/node.rs",
                "crates/rcstore/src/log.rs",
                "crates/rcstore/src/cluster.rs",
                "crates/rcstore/src/raft.rs",
                "crates/rcstore/src/gossip.rs",
                "crates/core/src/cache.rs",
                "crates/core/src/agent.rs",
                // The controller's per-submit path and the Predictor: the
                // population-proportional cost was found here, where D5
                // had never looked.
                "crates/faas/src/platform.rs",
                "crates/faas/src/sandbox.rs",
                "crates/core/src/scheduler.rs",
                "crates/core/src/ml.rs",
                // The J48 trainer every retrain runs: growing a node
                // allocates its `Node` and nothing else.
                "crates/dtree/src/c45.rs",
                // Where object keys are made: the workload models named a
                // fresh output with a `format!` per write, the store
                // indexed it and the interner hashed and leaked it.
                "crates/workloads/src/pipelines.rs",
                "crates/workloads/src/multimedia.rs",
                "crates/workloads/src/mega.rs",
                "crates/objstore/src/store.rs",
                "crates/intern/src/lib.rs",
            ]),
        }
    }
}
