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
//!   registry (`ofc-telemetry::names`), whose values are unique and
//!   shaped `<subsystem>.<snake_case_metric>`;
//! * **D4 panic paths** — the cache/scheduler/cluster hot paths must not
//!   abort, unless a site documents its invariant with
//!   `// ofc-lint: allow(panic) reason=...`;
//! * **D5 hot-loop allocations** — allocation sites inside loops in the
//!   configured hot paths, at the loop depth one token pass per function
//!   gives them, exported as a machine-readable inventory
//!   (`--emit-hotspots`);
//! * **D7 dead telemetry** — D3 made bidirectional: registry consts no
//!   analyzed call site ever emits are reported.
//!
//! The crate is dependency-free and offline-safe: a hand-rolled Rust
//! tokenizer (no syn, no proc-macro machinery) and plain `std::fs`
//! workspace walking. Rules pattern-match over token streams —
//! deliberately approximate, tuned to this workspace's idioms, with a
//! pragma escape hatch for the rest. The rule scopes are
//! [`Config::default`].

pub mod config;
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
        rules::telemetry::check_registry(cfg, reg, &mut findings);
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

/// The shapes the removed statement parser was tested on, held against
/// D5's token pass: each allocation must get the loop depth it runs at,
/// whatever statement, branch, closure or item surrounds it. Test-only;
/// no statement parser exists.
#[cfg(test)]
mod parser {
    #[cfg(test)]
    mod tests {
        use crate::rules::hotloops;
        use crate::source::SourceFile;
        use crate::{Config, Hotspot};

        /// D5's inventory for `src`, every file path counted as hot.
        fn hotspots(src: &str) -> Vec<Hotspot> {
            let file = SourceFile::parse("t.rs".into(), src);
            let cfg = Config {
                hotloop_paths: vec!["t.rs".into()],
                ..Config::default()
            };
            let (mut findings, mut hotspots) = (Vec::new(), Vec::new());
            hotloops::check(&file, &cfg, &mut findings, &mut hotspots);
            hotspots
        }

        fn depths(src: &str) -> Vec<u32> {
            hotspots(src).iter().map(|h| h.loop_depth).collect()
        }

        #[test]
        fn lets_and_exprs_split_on_semicolons() {
            let h = hotspots(
                "fn f() { for a in xs { let x = g(1, a.clone()); x.h(); let y = x.to_string(); } }",
            );
            let kinds: Vec<(&str, u32)> = h.iter().map(|h| (h.kind, h.loop_depth)).collect();
            assert_eq!(kinds, vec![("clone", 1), ("to_string", 1)]);
        }

        #[test]
        fn nested_loops_nest_in_the_tree() {
            // Each header sits at the depth of the loop around it.
            let d = depths(
                "fn f() { for a in xs.to_vec() { while b.clone().go() { loop { c.clone(); } } } }",
            );
            assert_eq!(d, vec![1, 3]);
        }

        #[test]
        fn loop_depth_walk_counts_nesting() {
            let d = depths(
                "fn f() { a.clone(); for x in xs { b.clone(); for y in ys { c.clone(); } } }",
            );
            assert_eq!(d, vec![1, 2], "depth 0 is no hotspot");
        }

        #[test]
        fn if_else_chains_parse_with_both_branches() {
            let d = depths(
                "fn f() { for a in xs { if a { b.clone(); } else if c { d.clone(); } else { e.clone(); } } }",
            );
            assert_eq!(d, vec![1, 1, 1]);
        }

        #[test]
        fn match_arms_and_guards_are_extracted() {
            let d = depths(
                "fn f(x: u64) { for a in xs { match x { 0 => a.clone(), n if n.to_string() > s => { b.clone(); c.clone(); } _ => d.clone(), } } }",
            );
            assert_eq!(d, vec![1; 5]);
        }

        #[test]
        fn early_return_and_break_terminate_statements() {
            let d = depths(
                "fn f() { for a in xs { if a { return k.clone(); } break; } loop { break m.clone(); } g.clone(); }",
            );
            assert_eq!(d, vec![1, 1], "the loops close before g");
        }

        #[test]
        fn closures_and_nested_braces_do_not_split_statements() {
            let d = depths(
                "fn f() { xs.iter().for_each(|x| { a(x.clone()); b(x.clone()); }); c.clone(); }",
            );
            assert_eq!(d, vec![1, 1], "the closure closes before c");
        }

        #[test]
        fn while_let_headers_parse() {
            let d = depths(
                "fn f() { for a in xs { while let Some(x) = it.next().clone() { use_it(x.clone()); } } }",
            );
            assert_eq!(d, vec![1, 2]);
        }

        #[test]
        fn nested_fn_items_do_not_swallow_following_statements() {
            let h =
                hotspots("fn f() { for a in xs { fn helper() { x.clone(); } after.clone(); } }");
            let sites: Vec<(&str, u32)> = h
                .iter()
                .map(|h| (h.function.as_str(), h.loop_depth))
                .collect();
            assert_eq!(
                sites,
                vec![("f", 1)],
                "helper's clone runs at its own depth 0"
            );
        }
    }
}
