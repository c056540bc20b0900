//! The workspace lints clean, and the committed hot-loop inventory is the
//! one this tree emits.
//!
//! CI checks both with the release binary; this test puts the same checks
//! under `cargo test`, so a change that moves the inventory fails there
//! too. Regenerate the inventory with
//! `ofc-lint --workspace --emit-hotspots results/lint_hotspots.json`.

use ofc_lint::config::Config;
use ofc_lint::report;
use std::path::Path;

#[test]
fn workspace_is_clean_and_the_committed_inventory_is_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = ofc_lint::run_workspace(&root, &Config::default()).expect("workspace readable");
    assert!(
        analysis.findings.is_empty(),
        "{}",
        report::format_text(&analysis.findings)
    );
    let committed = std::fs::read_to_string(root.join("results/lint_hotspots.json"))
        .expect("committed inventory exists");
    assert_eq!(
        report::format_hotspots_json(&analysis.hotspots),
        committed,
        "results/lint_hotspots.json is stale"
    );
}
