//! Golden-figure regression suite: re-runs the cheap figure binaries at
//! their fixed seeds and byte-compares the JSON they emit against the
//! committed `results/*.json`. Any unintended change to the deterministic
//! simulation — placement, latency model, RNG streams, serialization —
//! shows up as a diff here before it silently skews every figure.
//!
//! Regenerate the goldens after an *intended* change with:
//!
//! ```text
//! cargo build --release
//! OFC_GOLDEN_BLESS=1 cargo test --test golden
//! ```
//!
//! The harness drives the pre-built release binaries (`cargo build
//! --release` first); a missing binary skips its case with a note rather
//! than failing, so `cargo test` stays usable without a release build.

use std::path::PathBuf;
use std::process::Command;

/// The cheap, deterministic figures worth re-running on every test pass.
/// Each entry is the binary name; it writes `results/<name>.json`.
const GOLDEN_FIGURES: &[&str] = &["fig2", "fig5", "cache_benefit", "maturation"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn blessing() -> bool {
    std::env::var("OFC_GOLDEN_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Runs one figure binary into a scratch results dir (with extra env
/// vars) and returns the `<out_name>.json` it produced, or `None` (with a
/// note) when the binary is not built.
fn regenerate_with(bin_name: &str, out_name: &str, envs: &[(&str, &str)]) -> Option<Vec<u8>> {
    let root = repo_root();
    let bin = root.join("target/release").join(bin_name);
    if !bin.exists() {
        eprintln!("golden: skipping {bin_name} — build it with `cargo build --release`");
        return None;
    }
    // Unique per call: cases run concurrently and must not share a
    // scratch dir.
    static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SCRATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let scratch = std::env::temp_dir().join(format!(
        "ofc-golden-{}-{seq}-{out_name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let mut cmd = Command::new(&bin);
    cmd.env("OFC_RESULTS_DIR", &scratch);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let status = cmd
        .output()
        .unwrap_or_else(|e| panic!("golden: {bin_name} failed to launch: {e}"));
    assert!(
        status.status.success(),
        "golden: {bin_name} exited with {:?}\n{}",
        status.status,
        String::from_utf8_lossy(&status.stderr)
    );
    let out = scratch.join(format!("{out_name}.json"));
    let bytes = std::fs::read(&out)
        .unwrap_or_else(|e| panic!("golden: {bin_name} wrote no {}: {e}", out.display()));
    std::fs::remove_dir_all(&scratch).ok();
    Some(bytes)
}

fn regenerate(name: &str) -> Option<Vec<u8>> {
    regenerate_with(name, name, &[])
}

fn committed_path(name: &str) -> PathBuf {
    repo_root().join("results").join(format!("{name}.json"))
}

/// First diverging line of two JSON blobs, for a readable failure.
fn first_diff(a: &[u8], b: &[u8]) -> String {
    let (a, b) = (String::from_utf8_lossy(a), String::from_utf8_lossy(b));
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: expected {la:?} vs got {lb:?}", i + 1);
        }
    }
    format!(
        "line counts differ: expected {} vs got {}",
        a.lines().count(),
        b.lines().count()
    )
}

fn check(name: &str) {
    let Some(fresh) = regenerate(name) else {
        return;
    };
    check_bytes(name, fresh);
}

fn check_bytes(name: &str, fresh: Vec<u8>) {
    let golden = committed_path(name);
    if blessing() {
        std::fs::write(&golden, &fresh).expect("bless golden");
        eprintln!("golden: blessed {}", golden.display());
        return;
    }
    let committed = std::fs::read(&golden).unwrap_or_else(|e| {
        panic!(
            "golden: missing {} ({e}); run with OFC_GOLDEN_BLESS=1",
            golden.display()
        )
    });
    assert!(
        committed == fresh,
        "golden: {name} drifted from results/{name}.json — {}\n\
         If the change is intended, regenerate with OFC_GOLDEN_BLESS=1.",
        first_diff(&committed, &fresh)
    );
    // A corrupt or truncated golden should fail loudly, not silently
    // byte-match forever.
    let text = String::from_utf8(fresh).expect("figure JSON is UTF-8");
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with(['{', '[']) && trimmed.ends_with(['}', ']']),
        "golden: {name} output is not a JSON document"
    );
}

#[test]
fn fig2_matches_golden() {
    check("fig2");
}

#[test]
fn fig5_matches_golden() {
    check("fig5");
}

#[test]
fn cache_benefit_matches_golden() {
    check("cache_benefit");
}

#[test]
fn maturation_matches_golden() {
    check("maturation");
}

/// One caller of the scenario runners (`ofc_bench::par` fan-out over
/// `run_macro` / `run_mega` sims): the binary, the JSON file it writes,
/// the committed golden that file must equal, and the environment that
/// shrinks it to a smoke window.
struct RunnerGolden {
    bin: &'static str,
    output: &'static str,
    golden: &'static str,
    env: &'static [(&'static str, &'static str)],
}

/// Every runner caller, pinned. Each row runs twice — serially and over
/// four workers — and both passes must equal the committed golden, so any
/// behavioral drift in the simulation *and* any dependence of figure JSON
/// on thread count land here.
const RUNNER_GOLDENS: &[RunnerGolden] = &[
    // 24-tenant variant: 14 macro sims, cost-ordered claiming.
    RunnerGolden {
        bin: "macro24",
        output: "macro24_smoke",
        golden: "macro24_smoke",
        env: &[("OFC_MACRO_SMOKE", "1")],
    },
    // Default-policy probe: Swift vs OFC over the three tenant profiles.
    RunnerGolden {
        bin: "fig9",
        output: "fig9_smoke",
        golden: "fig9_smoke",
        env: &[("OFC_MACRO_SMOKE", "1")],
    },
    // OFC, Faa$T and InfiniCache on the Fig 9 mix: admission, eviction,
    // prefetch, cold-tier parking and the rent model. `BAKEOFF_CHECK` runs
    // every policy twice in one process and exits non-zero when the passes
    // disagree — the in-process determinism the two passes here cannot see.
    RunnerGolden {
        bin: "bakeoff",
        output: "bakeoff_smoke",
        golden: "bakeoff_smoke",
        env: &[("OFC_MACRO_SMOKE", "1"), ("OFC_BAKEOFF_CHECK", "1")],
    },
    // All six million-user variants at CI size (DESIGN.md §18): the mega
    // generator, the quota plane, per-decile accounting, the crash drill.
    RunnerGolden {
        bin: "macro_mega",
        output: "macro_mega_smoke",
        golden: "macro_mega_smoke",
        env: &[("OFC_MEGA_SMOKE", "1")],
    },
    // Data-plane fault schedule (5-minute window): node crash/restart,
    // transient bursts, slow nodes and persistor failures through the
    // plane's circuit breaker and the retry path.
    RunnerGolden {
        bin: "chaos",
        output: "chaos_smoke",
        golden: "chaos_smoke",
        env: &[("OFC_MACRO_SMOKE", "1")],
    },
    // Control-plane failover drill (5-minute window): Raft coordinator +
    // gossip membership under crash/partition faults, via the pre-run hook.
    RunnerGolden {
        bin: "chaos",
        output: "failover_smoke",
        golden: "failover_smoke",
        env: &[("OFC_MACRO_SMOKE", "1"), ("OFC_CHAOS_FAILOVER", "1")],
    },
    // The remaining runner callers write their full-run file name at any
    // window, so their 2-minute goldens live under a `_smoke` name.
    // Ablation: non-default `OfcConfig`s through both the macro runner and
    // the bare testbed.
    RunnerGolden {
        bin: "ablation",
        output: "ablation",
        golden: "ablation_smoke",
        env: &[("OFC_MACRO_MINS", "2")],
    },
    // Figure 10: the cache-size series of the macro result.
    RunnerGolden {
        bin: "fig10",
        output: "fig10",
        golden: "fig10_smoke",
        env: &[("OFC_MACRO_MINS", "2")],
    },
    // Table 2: every agent/ML counter of the macro result.
    RunnerGolden {
        bin: "table2",
        output: "table2",
        golden: "table2_smoke",
        env: &[("OFC_MACRO_MINS", "2")],
    },
];

#[test]
fn runner_callers_match_goldens_serial_and_parallel() {
    // Rows are independent processes with private scratch dirs; running
    // them side by side keeps the suite's wall time at the slowest row.
    std::thread::scope(|scope| {
        for row in RUNNER_GOLDENS {
            scope.spawn(move || {
                let run = |threading: &[(&str, &str)]| {
                    let envs: Vec<_> = row.env.iter().chain(threading).copied().collect();
                    regenerate_with(row.bin, row.output, &envs)
                };
                let Some(serial) = run(&[("OFC_BENCH_THREADS", "1")]) else {
                    return;
                };
                // `MIN_PAR_SIMS=1` defeats the small-bin serial fallback:
                // this pass exists to drive the parallel runner.
                let parallel = run(&[("OFC_BENCH_THREADS", "4"), ("OFC_BENCH_MIN_PAR_SIMS", "1")])
                    .expect("binary present a moment ago");
                assert!(
                    serial == parallel,
                    "golden: {} output depends on thread count — {}",
                    row.bin,
                    first_diff(&serial, &parallel)
                );
                check_bytes(row.golden, serial);
            });
        }
    });
}

#[test]
fn golden_set_is_complete() {
    // Every golden this suite guards exists in results/ (after a bless).
    if blessing() {
        return;
    }
    let runner = RUNNER_GOLDENS.iter().map(|row| row.golden);
    let full_runs = ["bakeoff", "macro_mega"];
    for name in GOLDEN_FIGURES
        .iter()
        .copied()
        .chain(runner)
        .chain(full_runs)
    {
        assert!(
            committed_path(name).exists(),
            "results/{name}.json missing — run OFC_GOLDEN_BLESS=1 cargo test --test golden"
        );
    }
}
