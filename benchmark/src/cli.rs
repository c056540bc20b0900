//! Command line of both binaries.
//!
//! ```text
//! --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--set FILE]
//! --check
//! --compare A.json B.json
//! ```
//!
//! Work is fixed, never time-boxed: one invocation always makes the same
//! three passes over the same frozen window. `--seconds` is accepted,
//! because the driver passes it, and ignored.

use crate::host::{self, Calib};
use crate::pass::{run_pass, Pass};
use crate::report::{self, Invocation, PassTimes, TracedExtras, END_TO_END, PER_LAYER};
use crate::stats::top_percentile;
use crate::trace::Tracer;
use crate::workloads::{Plane, Spec, WORKLOADS};
use crate::{anchor, compare, drivers};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Timed passes per invocation. Fixed: a minimum over passes falls as
/// their number grows, so a count that depended on the box or on the speed
/// of the code under test would bias every comparison.
const PASSES: usize = 3;

/// Where invocations leave their records.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    set: Option<String>,
    check: bool,
    compare: Option<(String, String)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        trace: false,
        set: None,
        check: false,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                value(&mut it, flag)?;
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--set" => args.set = Some(value(&mut it, flag)?),
            "--check" => args.check = true,
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

#[derive(Serialize)]
struct MetricOut {
    value: f64,
    unit: String,
}

/// The contract's result line.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricOut>,
}

fn pretty<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string_pretty(value).map_err(|e| e.to_string())
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Checks every pass of an invocation against the first: the simulation is
/// deterministic, so anything but bit-equality is a defect.
fn cross_pass_violations(passes: &[&Pass]) -> Vec<String> {
    let first = passes[0];
    let mut out: Vec<String> = first.violations.clone();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.sim_digest != first.sim_digest
            || p.counters != first.counters
            || p.lat_ns != first.lat_ns
            || p.fig9_total_s.to_bits() != first.fig9_total_s.to_bits()
        {
            out.push(format!(
                "pass {} simulated a different outcome than pass 1",
                i + 1
            ));
        }
    }
    out
}

fn workload_violations(spec: &Spec, pass: &Pass, twin: &Pass) -> Vec<String> {
    let mut out = Vec::new();
    if top_percentile(pass.lat_ns.len()).is_none_or(|p| p < 99.0) {
        out.push(format!(
            "{} latency samples do not support a p99 (ten samples beyond it)",
            pass.lat_ns.len()
        ));
    }
    if twin.arrivals != pass.arrivals {
        out.push(format!(
            "the twin saw {} arrivals, the OFC run {}",
            twin.arrivals, pass.arrivals
        ));
    }
    out.extend(twin.violations.iter().map(|v| format!("twin: {v}")));
    if spec.name == "cache_pressure" {
        let hit = pass.hit_ratio_pct();
        if !(40.0..=80.0).contains(&hit) {
            out.push(format!(
                "cache_pressure hit ratio {hit:.1}% left its 40-80% window"
            ));
        }
        let (evictions, writes) = (
            pass.counter("rcstore.evictions"),
            pass.counter("rcstore.writes"),
        );
        if evictions * 10 < writes {
            out.push(format!(
                "cache_pressure evicted {evictions} of {writes} writes: under 10%"
            ));
        }
    }
    out
}

fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let spec = Spec::of(name, args.seed, false).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!(
            "unknown workload {name}; choose one of {}",
            names.join(", ")
        )
    })?;
    let mut violations = anchor::check();

    // Untimed warm-up at smoke scale: pages the binary in and warms the
    // allocator before the first timed pass.
    let mut tr = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    {
        let smoke = Spec::of(name, args.seed, true).expect("every workload has a smoke scale");
        let (warm, _) = run_pass(&smoke, Plane::Ofc, &mut off);
        violations.extend(warm.violations.iter().map(|v| format!("warm-up: {v}")));
    }

    let calib = Calib::default();
    let mut calib_ms = vec![calib.run_ms()];
    // One OFC pass bracketed by the calibration loop: the sample taken
    // after the previous pass is the one before this one.
    let measured = |tr: &mut Tracer, calib_ms: &mut Vec<f64>| {
        let calib_before_ms = *calib_ms.last().expect("seeded above");
        let (pass, stack) = run_pass(&spec, Plane::Ofc, tr);
        calib_ms.push(calib.run_ms());
        let times = PassTimes {
            setup_s: pass.setup.setup_s,
            run_wall_s: pass.run_wall_s(),
            run_cpu_s: pass.run_cpu_s(),
            calib_before_ms,
            calib_after_ms: *calib_ms.last().expect("just pushed"),
        };
        (pass, stack, times)
    };

    // Identical passes, fresh stack each, same seed. The traced binary
    // makes its second pass the traced one (counting and spans on): the
    // mean of the plain passes on either side is the baseline of
    // `host.trace_overhead_pct`, and a drift of the box between them
    // cancels to first order.
    let mut passes: Vec<Pass> = Vec::new();
    let mut times: Vec<PassTimes> = Vec::new();
    let mut traced = None;
    let mut peak_rss_mb = 0.0;
    for i in 0..PASSES {
        if args.trace && i == 1 {
            tr.set_pass(1);
            host::set_counting(true);
            let (pass, stack, t) = measured(&mut tr, &mut calib_ms);
            let alloc_peak_live = host::alloc_stats().peak_live;
            host::set_counting(false);
            tr.set_pass(0);
            traced = Some((pass, stack, t, alloc_peak_live));
            continue;
        }
        let (pass, stack, t) = measured(&mut off, &mut calib_ms);
        drop(stack);
        if i == 0 {
            // Peak memory through one full pass: every pass leaks its
            // store (the write-observer `Rc` cycle), so a later reading
            // would add the dead stacks of the passes before it.
            peak_rss_mb = host::peak_rss_mb();
        }
        passes.push(pass);
        times.push(t);
    }

    // The twin runs once: its simulated totals are as deterministic as the
    // OFC run's, and its host time is a per-layer metric only.
    let (twin, twin_stack) = run_pass(&spec, Plane::Twin, &mut tr);
    drop(twin_stack);

    let first = traced.as_ref().map_or(&passes[0], |(p, ..)| p);
    let all: Vec<&Pass> = passes
        .iter()
        .chain(traced.as_ref().map(|(p, ..)| p))
        .collect();
    violations.extend(cross_pass_violations(&all));
    violations.extend(workload_violations(&spec, first, &twin));

    let (metrics, units): (BTreeMap<String, f64>, Vec<(&str, &str)>) = match &traced {
        None => (
            report::end_to_end(&passes, &twin, peak_rss_mb),
            END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect(),
        ),
        Some((pass, stack, traced_times, alloc_peak_live)) => {
            let drv = drivers::run_all(&spec, pass, stack, &mut tr);
            let extras = TracedExtras {
                plain: &times,
                traced: traced_times,
                twin: &twin,
                drivers: &drv,
                functions: stack.functions.len(),
                calib_ms: &calib_ms,
                alloc_peak_live: *alloc_peak_live,
            };
            (report::per_layer(pass, &extras), PER_LAYER.to_vec())
        }
    };

    let correct = violations.is_empty();
    let (cores, cpu) = host::fingerprint();
    let record = Invocation {
        workload: name.to_string(),
        seed: args.seed,
        traced: args.trace,
        correct,
        violations: violations.clone(),
        attempted: first.arrivals,
        failed: first.failed,
        passes: all.len() as u64,
        sim_digest: first.sim_digest,
        metrics: metrics.clone(),
        pass_times: times,
        pass_folds: report::pass_folds(&passes),
        counts: report::counts(first),
        calib_ms,
        cores: cores as u64,
        cpu,
    };
    write_file(&format!("{OUT_DIR}/results.json"), &pretty(&record)?)?;
    if args.trace {
        write_file(
            &format!("{OUT_DIR}/trace-{name}.json"),
            &tr.to_chrome_json(),
        )?;
    }
    if let Some(path) = &args.set {
        let mut set: Vec<Invocation> = match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?,
            Err(_) => Vec::new(),
        };
        set.push(record.clone());
        write_file(path, &pretty(&set)?)?;
    }

    for v in &violations {
        eprintln!("violation: {v}");
    }
    let line = ResultLine {
        correct,
        attempted: record.attempted,
        failed: record.failed,
        metrics: units
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    MetricOut {
                        value: metrics[name],
                        unit: unit.to_string(),
                    },
                )
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// Entry point shared by the timed and the traced binary. `traced_binary`
/// says whether the counting allocator is installed in this process.
pub fn main(traced_binary: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return compare::run(a, b);
        }
        if args.check {
            let mismatches = anchor::check();
            for m in &mismatches {
                eprintln!("violation: {m}");
            }
            println!(
                "golden anchor: {}",
                if mismatches.is_empty() {
                    "reproduced"
                } else {
                    "MISMATCH"
                }
            );
            return Ok(mismatches.is_empty());
        }
        if args.trace != traced_binary {
            return Err(format!(
                "--trace {} needs the {} binary; benchmark/run.sh picks it",
                u8::from(args.trace),
                if args.trace {
                    "ofc-benchmark-traced"
                } else {
                    "ofc-benchmark"
                }
            ));
        }
        let name = args
            .workload
            .clone()
            .ok_or("give --workload NAME, --check, or --compare A.json B.json")?;
        run_workload(&args, &name)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ofc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
