//! Rule D3 — telemetry hygiene.
//!
//! Metric names are the join key between instrumentation sites, the
//! benchmark harness, and every figure script downstream: a typo does not
//! fail anything at runtime, it silently splits a time series in two. So
//! every name used at a record or snapshot-read site in the target crates
//! must be declared in the central registry module
//! (`crates/telemetry/src/names.rs`).
//!
//! Checked call shapes (both the recording `Telemetry` handle and the
//! reading `MetricsSnapshot` side use the same method names):
//! `.counter("...")`, `.gauge("...")`, `.gauge_series("...")`,
//! `.histogram("...")`.
//!
//! The registry itself is checked too ([`check_registry`]): every value
//! has the `<subsystem>.<snake_case_metric>` shape, and no two constants
//! share a value.

use crate::config::Config;
use crate::report::Finding;
use crate::source::SourceFile;
use crate::tokenizer::TokKind;
use crate::workspace::matches_prefix;
use std::collections::{BTreeMap, BTreeSet};

/// Pragma group for this rule.
pub const PRAGMA: &str = "telemetry";
/// Rule id.
pub const RULE: &str = "D3-TELEMETRY";
/// Rule id for registry consts no call site ever emits (D7 makes the D3
/// check bidirectional: names must be registered, and registrations must
/// be used, so the registry can't rot).
pub const RULE_DEAD: &str = "D7-DEAD-TELEMETRY";

const METRIC_METHODS: [&str; 4] = ["counter", "gauge", "gauge_series", "histogram"];

/// The parsed registry: constant name -> metric name string.
pub struct NameRegistry {
    /// `pub const FOO: &str = "foo.bar";` pairs from the registry module.
    pub consts: BTreeMap<String, String>,
    /// Declaration line of each constant, for D7 reporting.
    pub decl_lines: BTreeMap<String, u32>,
}

impl NameRegistry {
    /// Extracts `const NAME: ... = "value";` declarations from the
    /// registry module's token stream.
    pub fn parse(file: &SourceFile) -> NameRegistry {
        let toks = &file.tokens;
        let mut consts = BTreeMap::new();
        let mut decl_lines = BTreeMap::new();
        for i in 0..toks.len() {
            if !toks[i].kind.is_ident("const") {
                continue;
            }
            let Some(name) = toks.get(i + 1).and_then(|t| t.kind.ident()) else {
                continue;
            };
            // Scan to `=` then expect a string literal.
            for j in i + 2..(i + 12).min(toks.len()) {
                if toks[j].kind.is_punct('=') {
                    if let Some(TokKind::Str(v)) = toks.get(j + 1).map(|t| &t.kind) {
                        consts.insert(name.to_string(), v.clone());
                        decl_lines.insert(name.to_string(), toks[i].line);
                    }
                    break;
                }
                if toks[j].kind.is_punct(';') {
                    break;
                }
            }
        }
        NameRegistry { consts, decl_lines }
    }

    /// Whether `name` is a registered metric name.
    pub fn has_name(&self, name: &str) -> bool {
        self.consts.values().any(|v| v == name)
    }

    /// Whether `ident` is one of the registry's constant identifiers.
    pub fn has_const(&self, ident: &str) -> bool {
        self.consts.contains_key(ident)
    }

    /// All registered metric names.
    pub fn names(&self) -> BTreeSet<&str> {
        self.consts.values().map(String::as_str).collect()
    }
}

/// Runs D3 over one file.
pub fn check(
    file: &SourceFile,
    cfg: &Config,
    registry: &NameRegistry,
    findings: &mut Vec<Finding>,
) {
    if !matches_prefix(&file.path, &cfg.telemetry_paths) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let Some(method) = toks[i].kind.ident() else {
            continue;
        };
        if !METRIC_METHODS.contains(&method)
            || i == 0
            || !toks[i - 1].kind.is_punct('.')
            || !toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('))
        {
            continue;
        }
        let line = toks[i].line;
        if file.suppressed(PRAGMA, line) {
            continue;
        }
        // First argument: the metric name.
        match toks.get(i + 2).map(|t| &t.kind) {
            Some(TokKind::Str(name)) if !registry.has_name(name) => {
                findings.push(Finding {
                    rule: RULE,
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "metric name \"{name}\" is not declared in the registry ({}) — typo or unregistered metric",
                        file_hint(cfg)
                    ),
                });
            }
            Some(TokKind::Ident(_)) => {
                // A path or variable: resolve the last identifier before
                // the argument ends; registry constants are fine.
                if let Some(last) = last_path_ident(toks, i + 2) {
                    if !registry.has_const(&last) {
                        findings.push(Finding {
                            rule: RULE,
                            path: file.path.clone(),
                            line,
                            message: format!(
                                "dynamic metric name `{last}` — metric names must be string literals or registry constants"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Runs D3 over the registry module: a value that is not
/// `<subsystem>.<snake_case_metric>` (lowercase ASCII letters and `_`,
/// one dot) or that an earlier constant already declares is a finding at
/// the constant's declaration.
pub fn check_registry(cfg: &Config, registry: &NameRegistry, findings: &mut Vec<Finding>) {
    let mut decls: Vec<(u32, &str, &str)> = registry
        .consts
        .iter()
        .map(|(name, value)| {
            let line = registry.decl_lines.get(name).copied().unwrap_or(1);
            (line, name.as_str(), value.as_str())
        })
        .collect();
    decls.sort_unstable();
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    for (line, name, value) in decls {
        let message = if !well_formed(value) {
            format!(
                "registry const `{name}` (\"{value}\") is not `<subsystem>.<snake_case_metric>`"
            )
        } else if let Some(earlier) = first.insert(value, name) {
            format!("registry const `{name}` repeats \"{value}\", already declared by `{earlier}`")
        } else {
            continue;
        };
        findings.push(Finding {
            rule: RULE,
            path: cfg.telemetry_registry.clone(),
            line,
            message,
        });
    }
}

/// Whether `name` is `<subsystem>.<metric>`, both non-empty and made of
/// lowercase ASCII letters and `_`.
fn well_formed(name: &str) -> bool {
    let snake =
        |part: &str| !part.is_empty() && part.chars().all(|c| c.is_ascii_lowercase() || c == '_');
    name.split_once('.')
        .is_some_and(|(subsystem, metric)| snake(subsystem) && snake(metric))
}

fn file_hint(cfg: &Config) -> String {
    cfg.telemetry_registry.clone()
}

/// Runs D7 across the whole workspace: any registry const whose name (as
/// an identifier) or value (as a string literal) never appears in an
/// analyzed file outside the registry module is dead telemetry.
///
/// The registry file itself is excluded from the usage scan — every
/// declaration names its own const and value. Suppress at the
/// declaration with `// ofc-lint: allow(telemetry) reason=...` (e.g. a
/// name reserved for a wired-but-unlanded subsystem).
pub fn check_dead(
    files: &[SourceFile],
    cfg: &Config,
    registry: &NameRegistry,
    findings: &mut Vec<Finding>,
) {
    let value_to_const: BTreeMap<&str, &str> = registry
        .consts
        .iter()
        .map(|(k, v)| (v.as_str(), k.as_str()))
        .collect();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for file in files {
        if file.path == cfg.telemetry_registry {
            continue;
        }
        for t in &file.tokens {
            match &t.kind {
                TokKind::Ident(id) if registry.has_const(id) => {
                    used.insert(id.clone());
                }
                TokKind::Str(s) => {
                    if let Some(c) = value_to_const.get(s.as_str()) {
                        used.insert((*c).to_string());
                    }
                }
                _ => {}
            }
        }
    }
    let reg_file = files.iter().find(|f| f.path == cfg.telemetry_registry);
    for (name, value) in &registry.consts {
        if used.contains(name) {
            continue;
        }
        let line = registry.decl_lines.get(name).copied().unwrap_or(1);
        if reg_file.is_some_and(|f| f.suppressed(PRAGMA, line)) {
            continue;
        }
        findings.push(Finding {
            rule: RULE_DEAD,
            path: cfg.telemetry_registry.clone(),
            line,
            message: format!(
                "registry const `{name}` (\"{value}\") is never emitted or read by any analyzed call site — dead telemetry"
            ),
        });
    }
}

/// For an argument starting at `start` with an identifier, returns the
/// final identifier of the path before `,` or `)` — e.g. `names ::
/// PLANE_LOCAL_HITS` resolves to `PLANE_LOCAL_HITS`.
fn last_path_ident(toks: &[crate::tokenizer::Token], start: usize) -> Option<String> {
    let mut last = None;
    let mut depth = 0i32;
    for t in toks.iter().skip(start) {
        match &t.kind {
            TokKind::Ident(id) => last = Some(id.clone()),
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') if depth == 0 => break,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => break,
            TokKind::Punct(':') | TokKind::Punct('&') | TokKind::Punct('.') => {}
            _ => break,
        }
    }
    last
}
