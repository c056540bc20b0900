//! Fixture-driven integration tests: one passing and one failing fixture
//! per rule (D1, D3, D4, D5, D7), plus golden tests pinning the exact
//! text report and the versioned JSON report.
//!
//! The fixtures under `tests/fixtures/` are lint inputs, not compiled
//! code — they are excluded from workspace analysis by the default
//! config and read here as plain text.
//!
//! To regenerate the goldens after an intentional format change:
//! `BLESS=1 cargo test -p ofc-lint --test rules`.

use ofc_lint::config::Config;
use ofc_lint::report;
use ofc_lint::source::SourceFile;
use ofc_lint::{Analysis, Finding};
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> SourceFile {
    let src = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
    SourceFile::parse(name.to_string(), &src)
}

/// Fixture config: the default rule set, retargeted at the fixture files.
fn cfg() -> Config {
    let mut c = Config::default();
    c.determinism_allow.clear();
    c.telemetry_paths = vec!["d3_pass.rs".into(), "d3_fail.rs".into()];
    c.panic_hot_paths = vec!["d4_pass.rs".into(), "d4_fail.rs".into()];
    c.hotloop_paths = vec!["d5_pass.rs".into(), "d5_fail.rs".into()];
    c
}

fn analyze(names: &[&str]) -> Analysis {
    let files: Vec<SourceFile> = names.iter().map(|n| fixture(n)).collect();
    let registry = std::fs::read_to_string(fixture_path("registry.rs")).expect("registry fixture");
    ofc_lint::analyze(&files, &cfg(), Some(&registry))
}

/// Lints `names` with `d3_pass.rs` riding along as the usage anchor that
/// keeps every registry const alive, so D7 stays out of tests that
/// target other rules.
fn lint(names: &[&str]) -> Vec<Finding> {
    let mut all = names.to_vec();
    if !all.contains(&"d3_pass.rs") {
        all.push("d3_pass.rs");
    }
    analyze(&all).findings
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn all_pass_fixtures_are_clean_together() {
    let f = lint(&[
        "d1_pass.rs",
        "d3_pass.rs",
        "d4_pass.rs",
        "d5_pass.rs",
        "d7_pass.rs",
    ]);
    assert!(
        f.is_empty(),
        "expected clean, got:\n{}",
        report::format_text(&f)
    );
}

#[test]
fn d1_fail_flags_wall_clock_and_hash_export() {
    let f = lint(&["d1_fail.rs"]);
    assert!(f.iter().all(|x| x.rule == "D1-DETERMINISM"));
    // `Instant` appears at the use and at the call site.
    assert_eq!(
        f.iter().filter(|x| x.message.contains("`Instant`")).count(),
        2
    );
    // The HashMap-backed field is flagged inside the export path.
    assert!(f
        .iter()
        .any(|x| x.message.contains("`hits`") && x.message.contains("snapshot_counters")));
    // Ambient entropy is banned like the wall clock.
    assert!(f.iter().any(|x| x.message.contains("`from_entropy`")));
}

#[test]
fn d3_fail_flags_typo_dynamic_name_and_dynamic_label() {
    let f = lint(&["d3_fail.rs"]);
    assert_eq!(rules(&f), vec!["D3-TELEMETRY"; 3]);
    assert!(f.iter().any(|x| x.message.contains("\"cache.hit\"")));
    assert!(f.iter().any(|x| x.message.contains("`which`")));
    assert!(f.iter().any(|x| x.message.contains("label \"node\"")));
}

#[test]
fn d4_fail_flags_aborts_and_reasonless_pragma() {
    let f = lint(&["d4_fail.rs"]);
    // The reasonless pragma is itself a finding AND fails to suppress.
    assert_eq!(
        rules(&f),
        vec!["D0-PRAGMA", "D4-PANIC", "D4-PANIC", "D4-PANIC"]
    );
    assert!(f.iter().any(|x| x.message.contains("`.unwrap()`")));
    assert!(f.iter().any(|x| x.message.contains("`.expect()`")));
    assert!(f.iter().any(|x| x.message.contains("`panic!`")));
}

#[test]
fn d5_fail_flags_loop_allocations_and_closure_levels() {
    let f = lint(&["d5_fail.rs"]);
    assert!(f.iter().all(|x| x.rule == "D5-HOTLOOP"));
    let kinds: Vec<&str> = f
        .iter()
        .map(|x| x.message.split('`').nth(1).unwrap())
        .collect();
    assert!(kinds.contains(&"clone"));
    assert!(kinds.contains(&"format"));
    // `retain` predicate counts as a loop level: both to_string calls.
    assert_eq!(kinds.iter().filter(|k| **k == "to_string").count(), 2);
    // The pragma'd clone in `victims` is not a finding...
    assert!(!f.iter().any(|x| x.message.contains("victims")));
}

#[test]
fn d5_inventory_keeps_pragmad_sites() {
    let a = analyze(&["d5_fail.rs"]);
    let suppressed: Vec<_> = a.hotspots.iter().filter(|h| h.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "...but it stays in the inventory");
    assert_eq!(suppressed[0].function, "victims");
    assert_eq!(suppressed[0].kind, "clone");
    assert!(a.hotspots.len() > suppressed.len());
}

#[test]
fn d7_fail_reports_the_dead_registry_const() {
    let a = analyze(&["d7_fail.rs"]);
    let dead: Vec<_> = a
        .findings
        .iter()
        .filter(|x| x.rule == "D7-DEAD-TELEMETRY")
        .collect();
    assert_eq!(dead.len(), 1);
    assert!(dead[0].message.contains("CACHE_MISSES"));
    assert_eq!(dead[0].path, Config::default().telemetry_registry);
    // The pass twin emits both consts: no dead telemetry.
    let a = analyze(&["d7_pass.rs"]);
    assert!(a.findings.iter().all(|x| x.rule != "D7-DEAD-TELEMETRY"));
}

#[test]
fn failing_fixtures_match_golden_report() {
    let f = lint(&["d1_fail.rs", "d3_fail.rs", "d4_fail.rs", "d5_fail.rs"]);
    let text = report::format_text(&f);
    let golden = fixture_path("golden.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &text).expect("write golden");
    }
    let expected = std::fs::read_to_string(&golden).expect("golden fixture (BLESS=1 to create)");
    assert_eq!(
        text, expected,
        "report format drifted; if intentional, regenerate with BLESS=1"
    );
}

/// Golden JSON report over the statement-level and cross-file rules'
/// failing fixtures (D5, D7), without the usage anchor so D7's
/// dead-registry findings appear too.
#[test]
fn v2_failing_fixtures_match_golden_json_report() {
    let a = analyze(&["d5_fail.rs", "d7_fail.rs"]);
    let json = report::format_json(&a.findings);
    assert!(json.starts_with(&format!(
        "{{\"schema\":\"{}\",\"findings\":[",
        report::REPORT_SCHEMA
    )));
    let golden = fixture_path("golden.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &json).expect("write golden");
    }
    let expected = std::fs::read_to_string(&golden).expect("golden fixture (BLESS=1 to create)");
    assert_eq!(
        json, expected,
        "JSON report drifted; if intentional, regenerate with BLESS=1"
    );
}

#[test]
fn json_format_is_stable() {
    let f = vec![Finding {
        rule: "D3-TELEMETRY",
        path: "a.rs".into(),
        line: 7,
        message: "metric name \"x\" unknown".into(),
    }];
    assert_eq!(
        report::format_json(&f),
        r#"{"schema":"ofc-lint-report/2","findings":[{"rule":"D3-TELEMETRY","path":"a.rs","line":7,"message":"metric name \"x\" unknown"}]}"#
    );
}
