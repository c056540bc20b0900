//! EXPERIMENTS.md quotes the committed results: every measured number in
//! Table 1, Figure 5, §7.1.1 and §7.1.3, Figure 8 and the migration sweep,
//! the numeric headline rows of Figure 7, and every conclusion drawn from
//! them, must hold for its `results/` source at the printed precision. A
//! re-bless that moves a number fails here until the report moves too.
//! Figure 6 times the wall clock, so it is not checked.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The EXPERIMENTS.md subsection under the heading that starts with
/// `heading`, up to the next heading.
fn section(heading: &str) -> String {
    let md = read("EXPERIMENTS.md");
    let start = md
        .find(&format!("\n{heading}"))
        .unwrap_or_else(|| panic!("no section {heading}"))
        + 1;
    let body = &md[start..];
    let end = body[1..].find("\n#").map_or(body.len(), |i| i + 1);
    body[..end].to_string()
}

/// The section's prose with every whitespace run collapsed to one space.
fn prose(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The cells after `labels` of the table row whose leading cells are
/// `labels`.
fn row(text: &str, labels: &[&str]) -> Vec<String> {
    text.lines()
        .map(|line| {
            line.trim()
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect::<Vec<_>>()
        })
        .find(|cells| cells.len() > labels.len() && cells[..labels.len()] == *labels)
        .map(|cells| cells[labels.len()..].to_vec())
        .unwrap_or_else(|| panic!("no row {labels:?}"))
}

/// The raw JSON text of every value of `key` in `json`, in document
/// order. Results files are machine-written, so a value ends at the
/// bracket matching its opening one, or else at the next `,`, `}`, `]` or
/// newline.
fn raw_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .map(|(i, _)| {
            let rest = json[i + pat.len()..].trim_start();
            let len = if rest.starts_with('[') {
                let mut depth = 0;
                rest.char_indices()
                    .find_map(|(j, c)| {
                        depth += match c {
                            '[' => 1,
                            ']' => -1,
                            _ => 0,
                        };
                        (depth == 0).then_some(j + 1)
                    })
                    .expect("balanced brackets")
            } else {
                rest.find([',', '}', ']', '\n']).unwrap_or(rest.len())
            };
            rest[..len].trim()
        })
        .collect()
}

fn numbers(json: &str, key: &str) -> Vec<f64> {
    raw_values(json, key)
        .into_iter()
        .map(|v| serde_json::from_str::<f64>(v).expect("a number"))
        .collect()
}

fn number(json: &str, key: &str) -> f64 {
    let values = numbers(json, key);
    assert_eq!(values.len(), 1, "one {key}");
    values[0]
}

fn strings(json: &str, key: &str) -> Vec<String> {
    raw_values(json, key)
        .into_iter()
        .map(|v| serde_json::from_str::<String>(v).expect("a string"))
        .collect()
}

/// `"a / b"` as two numbers.
fn pair(cell: &str) -> (f64, f64) {
    let (a, b) = cell.split_once(" / ").expect("an `a / b` cell");
    (a.parse().unwrap(), b.parse().unwrap())
}

/// A `"98.8 %"` or `"26.8 MB"` cell's number.
fn leading_number(cell: &str) -> f64 {
    cell.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn table1_quotes_table1_json() {
    let json = read("results/table1.json");
    let text = section("### Table 1");
    let intervals = numbers(&json, "interval_mb");
    let algorithms = strings(&json, "algorithm");
    let exact = numbers(&json, "exact_pct");
    let eo = numbers(&json, "eo_pct");
    assert_eq!(intervals.len(), 12);
    // Paper minus measured, over both columns: (tree learners, Hoeffding).
    let (mut trees, mut hoeffding) = (Vec::new(), Vec::new());
    let mut widest = (0.0, 0.0);
    for i in 0..intervals.len() {
        let interval = format!("{} MB", intervals[i]);
        let cells = row(&text, &[&interval, &algorithms[i]]);
        assert_eq!(
            cells[1],
            format!("{:.1} / {:.1}", exact[i], eo[i]),
            "{interval} {}",
            algorithms[i]
        );
        let (paper_exact, paper_eo) = pair(&cells[0]);
        for gap in [paper_exact - exact[i], paper_eo - eo[i]] {
            if algorithms[i] == "HoeffdingTree" {
                hoeffding.push(gap);
            } else {
                trees.push(gap);
                if gap > widest.0 {
                    widest = (gap, intervals[i]);
                }
            }
        }
    }
    let range = |gaps: &[f64]| {
        let lo = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{lo:.0} to {hi:.0} points")
    };
    let prose = prose(&text);
    assert!(prose.contains(&format!(
        "run {} below the paper for the three tree learners, the gap widest at {} MB",
        range(&trees),
        widest.1
    )));
    assert!(prose.contains(&format!("trails by {}", range(&hoeffding))));
}

#[test]
fn fig5_quotes_fig5_json() {
    let json = read("results/fig5.json");
    let text = section("### Figure 5");
    let within = number(&json, "over_within_3_pct");
    let waste = number(&json, "mean_over_waste_mb");
    let cells = row(&text, &["Overpredictions within 3 intervals"]);
    assert_eq!(cells[1], format!("{within:.1} %"));
    assert!(
        within > leading_number(&cells[0]),
        "more often than the paper's"
    );
    let cells = row(&text, &["Mean overprediction waste"]);
    assert_eq!(cells[1], format!("{waste:.1} MB"));
    assert!(
        waste < leading_number(&cells[0]),
        "less waste than the paper's"
    );
    let cells = row(&text, &["Error histogram"]);
    assert!(cells[1].ends_with(&format!(
        "({:.1} % exact, {:.1} % over, {:.1} % under)",
        number(&json, "exact_pct"),
        number(&json, "over_pct"),
        number(&json, "under_pct")
    )));
}

#[test]
fn cache_benefit_quotes_cache_benefit_json() {
    let json = read("results/cache_benefit.json");
    let text = section("### §7.1.1");
    let algorithms = strings(&json, "algorithm");
    let at = |name: &str| algorithms.iter().position(|a| a == name).unwrap();
    let f_measure = numbers(&json, "f_measure_pct");
    let j48 = at("J48");
    for (label, key) in [
        ("Precision", "precision_pct"),
        ("Recall", "recall_pct"),
        ("F-measure", "f_measure_pct"),
    ] {
        let cells = row(&text, &[label]);
        assert_eq!(
            cells[1],
            format!("{:.1} %", numbers(&json, key)[j48]),
            "{label}"
        );
    }
    let prose = prose(&text);
    for rival in ["RandomForest", "HoeffdingTree"] {
        let quoted = format!("{rival} ({:.1} % F)", f_measure[at(rival)]);
        assert!(prose.contains(&quoted), "{quoted}");
    }
}

#[test]
fn maturation_quotes_maturation_json() {
    let json = read("results/maturation.json");
    let text = section("### §7.1.3");
    let [functions] = raw_values(&json, "per_function")[..] else {
        panic!("one per_function list");
    };
    let functions: Vec<(String, Option<u64>)> = serde_json::from_str(functions).unwrap();
    let n = functions.len();
    let matured = functions.iter().filter(|(_, m)| m.is_some()).count();
    let (median, p75, p95) = (
        number(&json, "median"),
        number(&json, "p75"),
        number(&json, "p95"),
    );
    let floor = number(&json, "matured_at_floor");
    assert_eq!(
        row(&text, &["Median"])[1],
        format!("{median:.1} ({floor}/{n} at the floor)")
    );
    assert_eq!(row(&text, &["75th percentile"])[1], format!("{p75:.1}"));
    assert_eq!(row(&text, &["95th percentile"])[1], format!("{p95:.1}"));
    assert!(row(&text, &["Functions matured"])[1].starts_with(&format!("{matured}/{n} ")));

    let prose = prose(&text);
    assert!(prose.contains(&format!(
        "The median is {median:.0} invocations against 100"
    )));
    assert!(p75 > 250.0 && (p95 / 450.0).round() == 2.0);
    assert!(prose.contains(&format!(
        "{floor} functions mature at the 100-invocation floor"
    )));
    let mut tail: Vec<(&str, u64)> = functions
        .iter()
        .filter_map(|(f, m)| m.filter(|&m| m > 700).map(|m| (f.as_str(), m)))
        .collect();
    tail.sort_by_key(|&(_, m)| std::cmp::Reverse(m));
    let named: Vec<String> = tail.iter().map(|(f, m)| format!("{f} ({m})")).collect();
    let (last, rest) = named.split_last().unwrap();
    assert!(prose.contains(&format!(
        "The tail is the {} functions that need more than 700 invocations: {} and {last}.",
        tail.len(),
        rest.join(", ")
    )));
}

/// `value` printed with as many decimals as `printed` has.
fn at_precision_of(printed: &str, value: f64) -> String {
    let decimals = printed.split_once('.').map_or(0, |(_, frac)| frac.len());
    format!("{value:.decimals$}")
}

/// Whether `cell`'s leading number (`"0.289"`) or range (`"0.785–2.2"`)
/// is the span of `values`, each end at its printed precision.
fn quotes_span(cell: &str, values: &[f64]) -> bool {
    let quoted = cell.split_whitespace().next().unwrap();
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match quoted.split_once('–') {
        Some((a, b)) => at_precision_of(a, lo) == a && at_precision_of(b, hi) == b,
        None => at_precision_of(quoted, lo) == quoted && at_precision_of(quoted, hi) == quoted,
    }
}

#[test]
fn fig8_quotes_fig8_json() {
    let json = read("results/fig8.json");
    let text = section("### Figure 8");
    let scenarios = strings(&json, "scenario");
    let scaling = numbers(&json, "scaling_ms");
    let of = |name: &str| -> Vec<f64> {
        (0..scenarios.len())
            .filter(|&i| scenarios[i] == name)
            .map(|i| scaling[i])
            .collect()
    };
    for (label, scenario) in [
        ("Sc1 (plain rescale)", "Sc1"),
        ("Sc3 (eviction)", "Sc3"),
        ("Sc2 (migration)", "Sc2"),
    ] {
        let cell = &row(&text, &[label])[1];
        assert!(quotes_span(cell, &of(scenario)), "{label}: {cell}");
    }
    let cell = &row(&text, &["cgroup + docker update"])[1];
    assert!(cell.ends_with(" ms (constant)"), "{cell}");
    assert!(quotes_span(cell, &numbers(&json, "cgroup_ms")), "{cell}");

    // The worst case is the largest overhead, on the smallest input.
    let overhead = numbers(&json, "overhead_pct");
    let exec = numbers(&json, "exec_ms");
    let worst = (0..overhead.len())
        .max_by(|&a, &b| overhead[a].total_cmp(&overhead[b]))
        .unwrap();
    assert_eq!(strings(&json, "input")[worst], "1KB");
    let cell = &row(&text, &["Worst-case overhead on tiny inputs"])[1];
    let (pct, ms) = cell
        .strip_suffix(" ms exec")
        .and_then(|c| c.split_once(" % on "))
        .unwrap_or_else(|| panic!("{cell}"));
    assert_eq!(at_precision_of(pct, overhead[worst]), pct);
    assert_eq!(at_precision_of(ms, exec[worst]), ms);
}

#[test]
fn migration_quotes_migration_json() {
    let json = read("results/migration.json");
    let text = section("### Migration sweep");
    let volumes = numbers(&json, "volume_mb");
    let times = numbers(&json, "time_ms");
    assert_eq!(volumes.len(), 5);
    let mut high = Vec::new();
    for (&mb, &ms) in volumes.iter().zip(&times) {
        let label = if mb >= 1024.0 {
            format!("{} GB", mb / 1024.0)
        } else {
            format!("{mb} MB")
        };
        let cells = row(&text, &[&label]);
        let measured = cells[1].strip_suffix(" ms").unwrap();
        assert_eq!(at_precision_of(measured, ms), measured, "{label}");
        if mb >= 256.0 {
            high.push(ms / leading_number(&cells[0]));
        }
    }
    let lo = high.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = high.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(prose(&text).contains(&format!(
        "our points from 256 MB up run {lo:.1}–{hi:.1}× high"
    )));
}

#[test]
fn fig7_headlines_quote_fig7_json() {
    let json = read("results/fig7.json");
    let text = section("### Figure 7");
    let (workloads, inputs, scenarios) = (
        strings(&json, "workload"),
        strings(&json, "input"),
        strings(&json, "scenario"),
    );
    let (totals, loads) = (numbers(&json, "total_s"), numbers(&json, "l_s"));
    let at = |w: &str, i: &str, s: &str| {
        (0..totals.len())
            .find(|&k| workloads[k] == w && inputs[k] == i && scenarios[k] == s)
            .unwrap_or_else(|| panic!("no {w} {i} {s}"))
    };
    let speedup = |w: &str, i: &str| {
        let (swift, lh) = (totals[at(w, i, "Swift")], totals[at(w, i, "LH")]);
        (swift, lh, 100.0 * (1.0 - lh / swift))
    };

    let (swift, lh, cut) = speedup("wand_edge", "16KB");
    assert_eq!(
        row(&text, &["wand_edge @16 kB, Swift → LH"])[1],
        format!("{:.0} ms → {:.0} ms (−{cut:.0} %)", swift * 1e3, lh * 1e3)
    );
    let (swift, lh, cut) = speedup("THIS", "125MB");
    assert_eq!(
        row(&text, &["THIS @125 MB, Swift → LH"])[1],
        format!("{swift:.1} s → {lh:.1} s (−{cut:.0} %)")
    );

    // Single-stage functions are the `wand_*` ones; the rest are
    // pipelines.
    let single = |k: usize| workloads[k].starts_with("wand_");
    let lh_rows: Vec<usize> = (0..totals.len())
        .filter(|&k| scenarios[k] == "LH")
        .collect();
    let persist: Vec<f64> = lh_rows
        .iter()
        .filter(|&&k| single(k))
        .map(|&k| loads[k] * 1e3)
        .collect();
    let cell = &row(&text, &["Shadow persist in L phase"])[1];
    let quoted = cell.strip_prefix("constant ").unwrap();
    assert!(
        quoted.ends_with(" ms") && quotes_span(quoted, &persist),
        "{cell}"
    );

    let penalty = |k: usize| {
        let rh = totals[at(&workloads[k], &inputs[k], "RH")];
        (rh - totals[k], rh / totals[k] - 1.0)
    };
    let small: Vec<f64> = lh_rows
        .iter()
        .filter(|&&k| single(k) && inputs[k] == "1KB")
        .map(|&k| penalty(k).0 * 1e3)
        .collect();
    let cell = &row(&text, &["RH vs LH penalty"])[1];
    let (reads, pipelines) = cell.split_once("; ").unwrap();
    let quoted = reads.strip_prefix('+').unwrap();
    assert!(
        quoted.ends_with(" ms per small read") && quotes_span(quoted, &small),
        "{cell}"
    );
    assert_eq!(pipelines, "<1 % on pipelines");
    assert!(lh_rows
        .iter()
        .filter(|&&k| !single(k))
        .all(|&k| penalty(k).1 < 0.01));
}
