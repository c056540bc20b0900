//! Findings and their stable output formats.
//!
//! The text format is machine-readable and **stable**: one finding per
//! line, `<rule> <path>:<line> <message>`, sorted by (path, line, rule,
//! message). CI and the golden test both depend on this shape — change it
//! only with the golden fixture.

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `D1-DETERMINISM`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Sorts findings into the canonical report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
}

/// Renders the stable one-line-per-finding text report.
pub fn format_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{} {}:{} {}\n", f.rule, f.path, f.line, f.message));
    }
    out
}

/// Versioned identifier of the findings-report JSON document.
pub const REPORT_SCHEMA: &str = "ofc-lint-report/2";
/// Versioned identifier of the hotspot-inventory JSON document.
pub const HOTSPOTS_SCHEMA: &str = "ofc-lint-hotspots/1";

/// One D5 allocation site inside a hot-path loop — the unit of the
/// committed interning work-list (`results/lint_hotspots.json`).
///
/// Suppressed sites are **kept** in the inventory (flagged) so a pragma
/// silences the finding without deleting the site from the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line of the allocation.
    pub line: u32,
    /// Loop nesting depth (1 = directly inside one loop).
    pub loop_depth: u32,
    /// Allocation kind: `clone`, `to_string`, `to_owned`, `format`,
    /// `collect`, `string_from`, `to_vec`, `string_map_key`.
    pub kind: &'static str,
    /// Enclosing function name.
    pub function: String,
    /// Whether an `allow(hotloop)` pragma covers the site.
    pub suppressed: bool,
}

/// Renders the findings under the versioned report schema:
/// `{"schema":"ofc-lint-report/2","findings":[...]}` (stable field order).
pub fn format_json(findings: &[Finding]) -> String {
    let mut out = format!("{{\"schema\":\"{REPORT_SCHEMA}\",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            escape_json(f.rule),
            escape_json(&f.path),
            f.line,
            escape_json(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Renders the hotspot inventory under its versioned schema, one object
/// per line for reviewable diffs.
pub fn format_hotspots_json(hotspots: &[Hotspot]) -> String {
    let mut out = format!("{{\"schema\":\"{HOTSPOTS_SCHEMA}\",\"hotspots\":[\n");
    for (i, h) in hotspots.iter().enumerate() {
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"loop_depth\":{},\"kind\":\"{}\",\"function\":\"{}\",\"suppressed\":{}}}{}\n",
            escape_json(&h.path),
            h.line,
            h.loop_depth,
            escape_json(h.kind),
            escape_json(&h.function),
            h.suppressed,
            if i + 1 < hotspots.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

/// Sorts hotspots into the canonical inventory order and collapses
/// duplicate rows.
///
/// Two allocations of the same kind on the same line (e.g.
/// `f(key.clone(), value.clone())`) are one work-list row, not two: the
/// inventory names *sites to fix*, and both expressions vanish with the
/// same edit. Without the collapse the committed inventory carried
/// duplicated rows for exactly that shape.
pub fn sort_hotspots(hotspots: &mut Vec<Hotspot>) {
    hotspots.sort_by(|a, b| {
        (&a.path, a.line, a.kind, &a.function).cmp(&(&b.path, b.line, b.kind, &b.function))
    });
    hotspots.dedup();
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, path: &str, line: u32, msg: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            message: msg.into(),
        }
    }

    #[test]
    fn text_format_is_one_line_per_finding() {
        let fs = vec![f("D4-PANIC", "a.rs", 3, "unwrap in hot path")];
        assert_eq!(format_text(&fs), "D4-PANIC a.rs:3 unwrap in hot path\n");
    }

    #[test]
    fn json_escapes_quotes_and_carries_the_schema() {
        let fs = vec![f("D3-TELEMETRY", "a.rs", 1, "name \"x\" unknown")];
        let j = format_json(&fs);
        assert!(j.contains("\\\"x\\\""));
        assert!(j.starts_with("{\"schema\":\"ofc-lint-report/2\",\"findings\":["));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn hotspot_inventory_is_versioned_and_line_per_entry() {
        let mut hs = vec![
            Hotspot {
                path: "b.rs".into(),
                line: 9,
                loop_depth: 2,
                kind: "clone",
                function: "g".into(),
                suppressed: true,
            },
            Hotspot {
                path: "a.rs".into(),
                line: 3,
                loop_depth: 1,
                kind: "format",
                function: "f".into(),
                suppressed: false,
            },
        ];
        sort_hotspots(&mut hs);
        let j = format_hotspots_json(&hs);
        assert!(j.starts_with("{\"schema\":\"ofc-lint-hotspots/1\",\"hotspots\":[\n"));
        let lines: Vec<&str> = j.lines().collect();
        assert!(lines[1].contains("\"path\":\"a.rs\"") && lines[1].ends_with(','));
        assert!(lines[2].contains("\"suppressed\":true"));
        assert_eq!(*lines.last().unwrap(), "]}");
    }

    #[test]
    fn same_line_same_kind_hotspots_collapse_to_one_row() {
        // `f(key.clone(), value.clone())` records two identical hotspots;
        // the canonical inventory carries that site once.
        let site = Hotspot {
            path: "crates/rcstore/src/cluster.rs".into(),
            line: 300,
            loop_depth: 1,
            kind: "clone",
            function: "write_with_dirty".into(),
            suppressed: true,
        };
        let other = Hotspot {
            line: 309,
            ..site.clone()
        };
        let mut hs = vec![site.clone(), other.clone(), site.clone()];
        sort_hotspots(&mut hs);
        assert_eq!(hs, vec![site, other], "duplicate rows must collapse");
    }

    #[test]
    fn distinct_depth_or_kind_rows_survive_dedup() {
        let a = Hotspot {
            path: "a.rs".into(),
            line: 5,
            loop_depth: 1,
            kind: "clone",
            function: "f".into(),
            suppressed: false,
        };
        let deeper = Hotspot {
            loop_depth: 2,
            ..a.clone()
        };
        let formatted = Hotspot {
            kind: "format",
            ..a.clone()
        };
        let mut hs = vec![deeper.clone(), a.clone(), formatted.clone()];
        sort_hotspots(&mut hs);
        assert_eq!(hs.len(), 3, "only exact duplicates collapse");
    }

    #[test]
    fn sort_is_by_path_line_rule() {
        let mut fs = vec![
            f("D4-PANIC", "b.rs", 1, "x"),
            f("D1-DETERMINISM", "a.rs", 9, "x"),
            f("D3-TELEMETRY", "a.rs", 2, "x"),
        ];
        sort_findings(&mut fs);
        assert_eq!(
            fs.iter()
                .map(|f| (f.path.as_str(), f.line))
                .collect::<Vec<_>>(),
            vec![("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]
        );
    }
}
