//! EXPERIMENTS.md §7.1 quotes the committed results: every measured number
//! in Table 1, Figure 5, §7.1.1 and §7.1.3, and every conclusion drawn
//! from them, must hold for its `results/` source at the printed
//! precision. A re-bless that moves a number fails here until the report
//! moves too. Figure 6 times the wall clock, so it is not checked.

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
