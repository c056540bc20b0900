//! `ofc-lint` — workspace-aware static analysis for the OFC reproduction.
//!
//! `clippy` enforces general Rust hygiene; this crate enforces the
//! *project-specific* invariants the paper's evaluation rests on:
//!
//! * **D1 determinism** — the simulation must replay bit-for-bit over the
//!   `ofc-simtime` virtual clock (reproducible Fig 7/10, Table 2), so
//!   wall clocks, ambient entropy, and hash-ordered export iteration are
//!   banned;
//! * **D3 telemetry hygiene** — metric names must come from the central
//!   registry (`ofc-telemetry::names`) and labels must be bounded;
//! * **D4 panic paths** — the cache/scheduler/cluster hot paths must not
//!   abort, unless a site documents its invariant with
//!   `// ofc-lint: allow(panic) reason=...`;
//! * **D5 hot-loop allocations** — allocation sites inside loops in the
//!   configured hot paths, found over a lightweight statement parser
//!   ([`parser`]) and exported as a machine-readable inventory
//!   (`--emit-hotspots`);
//! * **D7 dead telemetry** — D3 made bidirectional: registry consts no
//!   analyzed call site ever emits are reported.
//!
//! The crate is dependency-free and offline-safe: a hand-rolled Rust
//! tokenizer (no syn, no proc-macro machinery) and plain `std::fs`
//! workspace walking. Rules pattern-match over token streams and the
//! statement tree — deliberately approximate, tuned to this workspace's
//! idioms, with a pragma escape hatch for the rest. The rule scopes are
//! [`Config::default`].

pub mod config;
pub mod parser;
pub mod report;
pub mod rules;
pub mod source;
pub mod tokenizer;
pub mod workspace;

pub use config::Config;
pub use report::{Finding, Hotspot};

use rules::telemetry::NameRegistry;
use source::SourceFile;
use std::path::Path;

/// The result of one analysis pass: findings for the gate, plus the D5
/// hotspot inventory (all allocation sites, suppressed ones included).
pub struct Analysis {
    /// Sorted findings (canonical report order).
    pub findings: Vec<Finding>,
    /// Sorted D5 hotspot inventory.
    pub hotspots: Vec<Hotspot>,
}

/// Analyzes already-parsed sources under `cfg` and returns sorted
/// findings plus the hotspot inventory. `registry_src` is the contents of
/// the metric-name registry module, if available (D3/D7 are skipped
/// without it).
pub fn analyze(files: &[SourceFile], cfg: &Config, registry_src: Option<&str>) -> Analysis {
    let registry = registry_src
        .map(|src| NameRegistry::parse(&SourceFile::parse(cfg.telemetry_registry.clone(), src)));
    let mut findings = Vec::new();
    let mut hotspots = Vec::new();
    for file in files {
        rules::check_pragmas(file, &mut findings);
        rules::determinism::check(file, cfg, &mut findings);
        rules::panics::check(file, cfg, &mut findings);
        rules::hotloops::check(file, cfg, &mut findings, &mut hotspots);
        if let Some(reg) = &registry {
            rules::telemetry::check(file, cfg, reg, &mut findings);
        }
    }
    if let Some(reg) = &registry {
        rules::telemetry::check_dead(files, cfg, reg, &mut findings);
    }
    report::sort_findings(&mut findings);
    report::sort_hotspots(&mut hotspots);
    Analysis { findings, hotspots }
}

/// Loads, parses, and analyzes every non-excluded `.rs` file under
/// `root`, resolving the telemetry registry from the configured path.
pub fn run_workspace(root: &Path, cfg: &Config) -> std::io::Result<Analysis> {
    let rel_paths = workspace::discover(root, &cfg.exclude)?;
    let mut files = Vec::with_capacity(rel_paths.len());
    for rel in &rel_paths {
        let src = std::fs::read_to_string(root.join(rel))?;
        files.push(SourceFile::parse(rel.clone(), src.as_str()));
    }
    let registry_src = std::fs::read_to_string(root.join(&cfg.telemetry_registry)).ok();
    Ok(analyze(&files, cfg, registry_src.as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            panic_hot_paths: vec!["hot.rs".into()],
            telemetry_paths: vec!["hot.rs".into()],
            ..Config::default()
        }
    }

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(path.into(), src)];
        analyze(
            &files,
            &cfg(),
            Some("pub const GOOD: &str = \"plane.good\";"),
        )
        .findings
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = r#"
            use std::collections::BTreeMap;
            pub fn snapshot(m: &BTreeMap<u64, u64>, t: &T) -> Vec<u64> {
                t.counter("plane.good").inc();
                m.values().copied().collect()
            }
        "#;
        assert!(lint("hot.rs", src).is_empty());
    }

    #[test]
    fn unused_registry_const_is_dead_telemetry() {
        // A file that never emits "plane.good": D7 reports the registry
        // const at its declaration site.
        let fs = lint("hot.rs", "pub fn quiet() {}");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "D7-DEAD-TELEMETRY");
        assert_eq!(fs[0].path, Config::default().telemetry_registry);
    }

    #[test]
    fn hotspot_inventory_rides_along_with_findings() {
        let files = vec![SourceFile::parse(
            "crates/rcstore/src/node.rs".into(),
            "fn sweep(ks: &[K]) { for k in ks { out.push(k.clone()); } }",
        )];
        let analysis = analyze(&files, &Config::default(), None);
        assert_eq!(analysis.hotspots.len(), 1);
        assert_eq!(analysis.hotspots[0].kind, "clone");
        assert!(analysis.findings.iter().any(|f| f.rule == "D5-HOTLOOP"));
    }

    #[test]
    fn each_rule_fires_and_pragmas_suppress() {
        let src = r#"
            fn record(t: &T) {
                t.counter("plane.typo").inc();
                t.counter("plane.good").inc();
            }
            fn hot(x: Option<u64>) -> u64 {
                x.unwrap()
            }
            fn fine(x: Option<u64>) -> u64 {
                x.unwrap() // ofc-lint: allow(panic) reason=checked by caller
            }
        "#;
        let fs = lint("hot.rs", src);
        let rules: Vec<&str> = fs.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["D3-TELEMETRY", "D4-PANIC"]);
    }
}
