//! `--compare A.json B.json`: applies `BENCHMARK.json`'s bounds to two
//! sets of invocations.
//!
//! Host metrics compare the medians of the per-invocation values (each
//! already a minimum over passes). What the sets can resolve is their own
//! quartile spread, not the bound: a difference inside the spread is no
//! difference, and a set whose spread exceeds a third of the bound is too
//! unsteady to call anything `unchanged` — it is `unresolved`. Simulated
//! metrics, counts and digests must be bit-identical between invocations
//! of the same seed. Invocations whose calibration loop ran more than 10 %
//! slower than the best of their set are listed as `noisy`.

use crate::report::{Invocation, Kind, END_TO_END};
use crate::stats::fold;
use serde::Deserialize;
use std::collections::BTreeMap;

/// How B relates to A on one host metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improved by more than the sets' own spread.
    Better,
    /// B is worse than A by more than the bound and than the spread.
    Worse,
    /// No difference beyond the spread, and the sets are steady enough
    /// (spread within a third of the bound) to have seen one.
    Unchanged,
    /// The sets' own spread is too wide to make a call.
    Unresolved,
}

/// The verdict for B's values against A's under `bound`. The spread is
/// the wider of the two sets' quartile distances over their medians.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (fa, fb) = (fold(a), fold(b));
    let spread = fa.spread().max(fb.spread());
    let change = (fb.median - fa.median) / fa.median.abs();
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound.max(spread) {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else if spread > bound / 3.0 {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

#[derive(Deserialize)]
struct Bounded {
    name: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct Bench {
    end_to_end: Vec<Bounded>,
}

fn load_set(path: &str) -> Result<Vec<Invocation>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn noisy(label: &str, set: &[Invocation]) {
    let medians: Vec<f64> = set
        .iter()
        .filter(|i| !i.calib_ms.is_empty())
        .map(|i| fold(&i.calib_ms).median)
        .collect();
    let best = medians.iter().copied().fold(f64::INFINITY, f64::min);
    for (i, inv) in set.iter().enumerate() {
        if inv.calib_ms.is_empty() {
            continue;
        }
        let m = fold(&inv.calib_ms).median;
        if m > 1.10 * best {
            println!(
                "noisy      set {label} invocation {i} ({} seed {}): calib {m:.1} ms vs best {best:.1} ms",
                inv.workload, inv.seed
            );
        }
    }
}

/// Compares two set files; returns `true` when nothing is `worse` and all
/// simulated outcomes agree.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let bench: Bench = {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?
    };
    let (a, b) = (load_set(path_a)?, load_set(path_b)?);
    noisy("A", &a);
    noisy("B", &b);

    let mut by_workload: BTreeMap<&str, (Vec<&Invocation>, Vec<&Invocation>)> = BTreeMap::new();
    for inv in a.iter().filter(|i| !i.traced) {
        by_workload.entry(&inv.workload).or_default().0.push(inv);
    }
    for inv in b.iter().filter(|i| !i.traced) {
        by_workload.entry(&inv.workload).or_default().1.push(inv);
    }

    let mut ok = true;
    for (workload, (sa, sb)) in &by_workload {
        if sa.is_empty() || sb.is_empty() {
            println!("skipped    {workload}: present in one set only");
            continue;
        }
        for m in &bench.end_to_end {
            let kind = END_TO_END
                .iter()
                .find(|(n, _, _)| *n == m.name)
                .map(|&(_, _, k)| k)
                .ok_or_else(|| format!("BENCHMARK.json names unknown metric {}", m.name))?;
            let values = |set: &[&Invocation]| -> Vec<f64> {
                set.iter()
                    .filter_map(|i| i.metrics.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(sa), values(sb));
            if kind == Kind::Sim {
                continue;
            }
            let (fa, fb) = (fold(&va), fold(&vb));
            let v = verdict(&va, &vb, m.better == "lower", m.bound);
            ok &= v != Verdict::Worse;
            println!(
                "{:<10} {workload:<15} {:<12} A {:.6} (spread {:.2}%)  B {:.6} (spread {:.2}%)  change {:+.2}%  bound {:.0}%",
                format!("{v:?}").to_lowercase(),
                m.name,
                fa.median,
                100.0 * fa.spread(),
                fb.median,
                100.0 * fb.spread(),
                100.0 * (fb.median - fa.median) / fa.median.abs(),
                100.0 * m.bound,
            );
        }

        // Simulated side: per seed, every invocation of either set must
        // agree to the bit on metrics, counts and digest.
        let mut by_seed: BTreeMap<u64, Vec<&Invocation>> = BTreeMap::new();
        for inv in sa.iter().chain(sb.iter()) {
            by_seed.entry(inv.seed).or_default().push(inv);
        }
        for (seed, invs) in &by_seed {
            let first = invs[0];
            let mut diffs = Vec::new();
            for other in &invs[1..] {
                if other.sim_digest != first.sim_digest {
                    diffs.push("sim_digest".to_string());
                }
                if other.counts != first.counts {
                    diffs.push("counts".to_string());
                }
                for &(name, _, kind) in &END_TO_END {
                    let bits = |i: &Invocation| i.metrics.get(name).map(|v| v.to_bits());
                    if kind == Kind::Sim && bits(other) != bits(first) {
                        diffs.push(name.to_string());
                    }
                }
            }
            diffs.sort();
            diffs.dedup();
            if diffs.is_empty() {
                println!(
                    "identical  {workload:<15} seed {seed}: simulated metrics, counts and digest over {} invocations",
                    invs.len()
                );
            } else {
                ok = false;
                println!(
                    "changed    {workload:<15} seed {seed}: {}",
                    diffs.join(", ")
                );
            }
        }
        if sa.iter().chain(sb.iter()).any(|i| !i.correct) {
            ok = false;
            println!("incorrect  {workload}: an invocation failed its output checks");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // 20 % slower against an 8 % bound.
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&a, &slower, true, 0.08), Verdict::Worse);
        // 20 % faster, far beyond A's ~1 % spread.
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&a, &faster, true, 0.08), Verdict::Better);
        // For a higher-is-better metric the same numbers flip.
        assert_eq!(verdict(&a, &faster, false, 0.08), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, false, 0.08), Verdict::Better);
        // 0.3 % apart: inside the bound and inside the spread.
        let same: Vec<f64> = a.iter().map(|v| v * 1.003).collect();
        assert_eq!(verdict(&a, &same, true, 0.08), Verdict::Unchanged);
        // A set whose own spread exceeds the bound resolves nothing — not
        // even an apparent 20 % regression, and never `unchanged`.
        let wild = [10.0, 13.0, 8.0, 12.0, 9.0];
        assert_eq!(verdict(&wild, &same, true, 0.08), Verdict::Unresolved);
        assert_eq!(verdict(&a, &wild, true, 0.08), Verdict::Unresolved);
        assert_eq!(verdict(&wild, &slower, true, 0.08), Verdict::Unresolved);
        // A wide bound does not buy a verdict: two sets 15 % apart with
        // 19 % spreads are unresolved under a 25 % bound.
        let loose = [10.0, 12.0, 9.0, 11.0, 10.5];
        let apart: Vec<f64> = loose.iter().map(|v| v * 0.85).collect();
        assert_eq!(verdict(&loose, &apart, true, 0.25), Verdict::Unresolved);
        // A regression beyond a wide bound still shows through that spread.
        let much_slower: Vec<f64> = loose.iter().map(|v| v * 1.5).collect();
        assert_eq!(verdict(&loose, &much_slower, true, 0.25), Verdict::Worse);
    }
}
