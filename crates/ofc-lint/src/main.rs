//! CLI driver: `cargo run -p ofc-lint -- --workspace`.
//!
//! Exit codes: `0` no findings, `1` findings, `2` usage/IO error.

use ofc_lint::{config::Config, report, workspace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ofc-lint: OFC workspace static analysis (determinism, telemetry hygiene, panic paths, hot-loop allocations)

USAGE:
    ofc-lint --workspace [OPTIONS]

OPTIONS:
    --workspace               Analyze the whole workspace (finds the root
                              by walking up to the workspace Cargo.toml)
    --root <dir>              Use <dir> as the workspace root instead
    --format <text|json>      Report format (default: text)
    --emit-hotspots <file>    Write the D5 hot-loop allocation inventory
                              (suppressed sites included) as JSON
    --quiet                   Suppress the summary line on success
    --help                    Show this help
";

struct Args {
    root: Option<PathBuf>,
    format_json: bool,
    emit_hotspots: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format_json: false,
        emit_hotspots: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {} // default behavior; kept as the documented entry point
            "--root" => args.root = Some(next_path(&mut it, "--root")?),
            "--format" => {
                args.format_json = match it.next().as_deref() {
                    Some("json") => true,
                    Some("text") => false,
                    other => return Err(format!("--format expects text|json, got {other:?}")),
                }
            }
            "--emit-hotspots" => args.emit_hotspots = Some(next_path(&mut it, "--emit-hotspots")?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn next_path(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, String> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Walks up from the current directory to the workspace root (the
/// directory whose Cargo.toml declares `[workspace]`).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ofc-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = args.root.or_else(find_root) else {
        eprintln!("ofc-lint: could not find the workspace root (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };

    let analysis = match ofc_lint::run_workspace(&root, &Config::default()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ofc-lint: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.emit_hotspots {
        if let Err(e) = std::fs::write(path, report::format_hotspots_json(&analysis.hotspots)) {
            eprintln!("ofc-lint: cannot write hotspots {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !args.quiet && !args.format_json {
            println!(
                "ofc-lint: {} hotspot(s) written to {}",
                analysis.hotspots.len(),
                workspace::relative(&root, path)
            );
        }
    }
    let findings = analysis.findings;

    if args.format_json {
        println!("{}", report::format_json(&findings));
    } else {
        print!("{}", report::format_text(&findings));
    }
    if findings.is_empty() {
        if !args.quiet && !args.format_json {
            println!("ofc-lint: clean");
        }
        ExitCode::SUCCESS
    } else {
        if !args.format_json {
            eprintln!("ofc-lint: {} finding(s)", findings.len());
        }
        ExitCode::FAILURE
    }
}
