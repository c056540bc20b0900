//! `ofc-lint.toml` parsing.
//!
//! The linter must stay dependency-free, so this is a deliberately small
//! TOML subset: `[section]` headers, `key = "string"`, and
//! `key = ["a", "b", ...]` arrays (single- or multi-line). Comments start
//! with `#` outside strings. That covers the whole configuration surface;
//! anything fancier is a config error, not a silent misparse.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A configuration error with enough context to fix the file.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ofc-lint config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Fully resolved linter configuration.
///
/// Paths are workspace-relative prefixes with forward slashes; a file
/// matches if its relative path starts with the prefix.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from analysis entirely.
    pub exclude: Vec<String>,
    /// D1: identifiers that must not appear (wall clock, ambient RNG).
    pub banned_idents: Vec<String>,
    /// D1: path prefixes exempt from determinism checks.
    pub determinism_allow: Vec<String>,
    /// D1: substrings marking a function as a snapshot/export path.
    pub export_fn_patterns: Vec<String>,
    /// D2: scope lock identities per file (`true`) or globally (`false`).
    pub lock_scope_per_file: bool,
    /// D2: path prefixes exempt from lock analysis.
    pub locks_allow: Vec<String>,
    /// D3: workspace-relative path of the metric-name registry module.
    pub telemetry_registry: String,
    /// D3: path prefixes whose metric names must be registered.
    pub telemetry_paths: Vec<String>,
    /// D4: files whose non-test code must not panic.
    pub panic_hot_paths: Vec<String>,
    /// D5: path prefixes whose loops are allocation-audited (the
    /// interning-campaign work list).
    pub hotloop_paths: Vec<String>,
    /// D6: identifier substrings that prove a seed expression is
    /// schedule-derived (matched case-insensitively).
    pub rng_seed_idents: Vec<String>,
    /// D6: path prefixes exempt from RNG lineage analysis.
    pub rng_allow: Vec<String>,
    /// D8: path prefixes containing scoped-thread worker closures whose
    /// captures are audited.
    pub parallel_harness_paths: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            exclude: vec![
                "vendor/".into(),
                "target/".into(),
                "crates/ofc-lint/tests/fixtures/".into(),
            ],
            banned_idents: vec!["Instant".into(), "SystemTime".into(), "thread_rng".into()],
            determinism_allow: vec!["crates/bench/".into(), "crates/simtime/".into()],
            export_fn_patterns: vec![
                "to_json".into(),
                "snapshot".into(),
                "export".into(),
                "write_json".into(),
            ],
            lock_scope_per_file: true,
            locks_allow: vec![],
            telemetry_registry: "crates/telemetry/src/names.rs".into(),
            telemetry_paths: vec![
                "crates/core/".into(),
                "crates/faas/".into(),
                "crates/rcstore/".into(),
                "crates/bench/".into(),
                "crates/chaos/".into(),
            ],
            panic_hot_paths: vec![
                "crates/chaos/src/lib.rs".into(),
                "crates/core/src/cache.rs".into(),
                "crates/core/src/health.rs".into(),
                "crates/core/src/agent.rs".into(),
                "crates/core/src/scheduler.rs".into(),
                "crates/core/src/monitor.rs".into(),
                "crates/rcstore/src/cluster.rs".into(),
                "crates/rcstore/src/txn.rs".into(),
                "crates/rcstore/src/node.rs".into(),
                "crates/rcstore/src/log.rs".into(),
                "crates/faas/src/platform.rs".into(),
            ],
            hotloop_paths: vec![
                "crates/rcstore/src/node.rs".into(),
                "crates/rcstore/src/log.rs".into(),
                "crates/rcstore/src/cluster.rs".into(),
                "crates/core/src/cache.rs".into(),
                "crates/core/src/agent.rs".into(),
                "crates/faas/src/platform.rs".into(),
                "crates/faas/src/sandbox.rs".into(),
                "crates/core/src/scheduler.rs".into(),
                "crates/core/src/ml.rs".into(),
                "crates/dtree/src/c45.rs".into(),
                "crates/workloads/src/pipelines.rs".into(),
                "crates/workloads/src/multimedia.rs".into(),
                "crates/workloads/src/mega.rs".into(),
                "crates/objstore/src/store.rs".into(),
                "crates/intern/src/lib.rs".into(),
            ],
            rng_seed_idents: vec![
                "seed".into(),
                "stream".into(),
                "schedule".into(),
                "chaos".into(),
                "rng".into(),
            ],
            rng_allow: vec![],
            parallel_harness_paths: vec!["crates/bench/".into()],
        }
    }
}

impl Config {
    /// Loads configuration from `path`, overriding defaults key by key.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        Config::parse(&text)
    }

    /// Parses TOML-subset text, overriding defaults key by key.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let raw = parse_toml_subset(text)?;
        let mut cfg = Config::default();
        for (key, value) in &raw {
            match (key.as_str(), value) {
                ("files.exclude", Value::List(v)) => cfg.exclude = v.clone(),
                ("determinism.banned_idents", Value::List(v)) => cfg.banned_idents = v.clone(),
                ("determinism.allow_paths", Value::List(v)) => cfg.determinism_allow = v.clone(),
                ("determinism.export_fn_patterns", Value::List(v)) => {
                    cfg.export_fn_patterns = v.clone()
                }
                ("locks.scope", Value::Str(s)) => {
                    cfg.lock_scope_per_file = match s.as_str() {
                        "file" => true,
                        "global" => false,
                        other => {
                            return Err(ConfigError(format!(
                                "locks.scope must be \"file\" or \"global\", got \"{other}\""
                            )))
                        }
                    }
                }
                ("locks.allow_paths", Value::List(v)) => cfg.locks_allow = v.clone(),
                ("telemetry.registry", Value::Str(s)) => cfg.telemetry_registry = s.clone(),
                ("telemetry.paths", Value::List(v)) => cfg.telemetry_paths = v.clone(),
                ("panics.hot_paths", Value::List(v)) => cfg.panic_hot_paths = v.clone(),
                ("hotloops.paths", Value::List(v)) => cfg.hotloop_paths = v.clone(),
                ("rng.seed_idents", Value::List(v)) => cfg.rng_seed_idents = v.clone(),
                ("rng.allow_paths", Value::List(v)) => cfg.rng_allow = v.clone(),
                ("parallel.harness_paths", Value::List(v)) => {
                    cfg.parallel_harness_paths = v.clone()
                }
                (other, _) => {
                    return Err(ConfigError(format!(
                        "unknown or mistyped key \"{other}\" (string vs list?)"
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

/// A parsed value: string or list of strings.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    List(Vec<String>),
}

/// Parses the TOML subset into `section.key -> value` pairs.
fn parse_toml_subset(text: &str) -> Result<BTreeMap<String, Value>, ConfigError> {
    let mut out = BTreeMap::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let (key, mut rest) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| ConfigError(format!("line {}: expected key = value", ln + 1)))?;
        if section.is_empty() {
            return Err(ConfigError(format!(
                "line {}: key \"{key}\" outside any [section]",
                ln + 1
            )));
        }
        let full_key = format!("{section}.{key}");
        let value = if rest.starts_with('[') {
            // Accumulate a possibly multi-line array until the closing ']'.
            while !rest.contains(']') {
                match lines.next() {
                    Some((_, more)) => {
                        rest.push(' ');
                        rest.push_str(strip_comment(more).trim());
                    }
                    None => {
                        return Err(ConfigError(format!(
                            "line {}: unterminated array for \"{full_key}\"",
                            ln + 1
                        )))
                    }
                }
            }
            Value::List(parse_string_array(&rest, &full_key)?)
        } else {
            Value::Str(parse_quoted(&rest).ok_or_else(|| {
                ConfigError(format!(
                    "line {}: value for \"{full_key}\" must be a quoted string or array",
                    ln + 1
                ))
            })?)
        };
        out.insert(full_key, value);
    }
    Ok(out)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b", ...]` (trailing comma tolerated).
fn parse_string_array(text: &str, key: &str) -> Result<Vec<String>, ConfigError> {
    let inner = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| ConfigError(format!("\"{key}\": malformed array")))?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        items.push(
            parse_quoted(part)
                .ok_or_else(|| ConfigError(format!("\"{key}\": array items must be strings")))?,
        );
    }
    Ok(items)
}

/// Parses a double-quoted string literal.
fn parse_quoted(text: &str) -> Option<String> {
    let t = text.trim();
    t.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .map(|s| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_used_when_keys_absent() {
        let cfg = Config::parse("[determinism]\nbanned_idents = [\"Foo\"]\n").unwrap();
        assert_eq!(cfg.banned_idents, vec!["Foo"]);
        // Untouched sections keep defaults.
        assert!(cfg.telemetry_registry.ends_with("names.rs"));
        assert!(cfg.lock_scope_per_file);
    }

    #[test]
    fn multiline_arrays_and_comments_parse() {
        let cfg = Config::parse(
            "# top comment\n[panics]\nhot_paths = [\n  \"a.rs\", # trailing\n  \"b.rs\",\n]\n[locks]\nscope = \"global\"\n",
        )
        .unwrap();
        assert_eq!(cfg.panic_hot_paths, vec!["a.rs", "b.rs"]);
        assert!(!cfg.lock_scope_per_file);
    }

    #[test]
    fn analyzer_v2_sections_parse() {
        let cfg = Config::parse(
            "[hotloops]\npaths = [\"x.rs\"]\n[rng]\nseed_idents = [\"seed\"]\nallow_paths = [\"y/\"]\n[parallel]\nharness_paths = [\"z/\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.hotloop_paths, vec!["x.rs"]);
        assert_eq!(cfg.rng_seed_idents, vec!["seed"]);
        assert_eq!(cfg.rng_allow, vec!["y/"]);
        assert_eq!(cfg.parallel_harness_paths, vec!["z/"]);
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(Config::parse("[determinism]\nbanned = []\n").is_err());
        assert!(Config::parse("orphan = \"x\"\n").is_err());
        assert!(Config::parse("[locks]\nscope = \"per-thread\"\n").is_err());
    }
}
