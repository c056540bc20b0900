//! Rule D1 — determinism.
//!
//! The simulation must be bit-for-bit reproducible over the `ofc-simtime`
//! virtual clock: Figure 7/10 and Table 2 are only comparable across runs
//! if nothing reads the wall clock, seeds from ambient entropy, or
//! iterates a randomized-order container on an export path.
//!
//! Two checks:
//! * **banned identifiers** — the wall clock (`Instant`, `SystemTime`)
//!   and ambient entropy (`thread_rng`, `from_entropy`, `from_os_rng`,
//!   `OsRng`) anywhere outside the allowlisted paths. With the ambient
//!   constructors gone, every RNG is seeded explicitly and a run is a
//!   function of its seeds;
//! * **hash-ordered iteration in export paths**: inside any function whose
//!   name marks it as a snapshot/JSON-export path, using a `HashMap`/
//!   `HashSet`-typed binding (or constructing one) is flagged — export
//!   order must come from `BTreeMap` or explicit key sorting.

use crate::config::Config;
use crate::report::Finding;
use crate::source::SourceFile;
use crate::tokenizer::TokKind;
use crate::workspace::matches_prefix;
use std::collections::BTreeSet;

/// Pragma group for this rule.
pub const PRAGMA: &str = "determinism";
/// Rule id for banned identifiers and hash-iteration findings.
pub const RULE: &str = "D1-DETERMINISM";

/// Runs D1 over one file.
pub fn check(file: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    if matches_prefix(&file.path, &cfg.determinism_allow) {
        return;
    }
    banned_idents(file, cfg, findings);
    hash_iteration_in_exports(file, cfg, findings);
}

fn banned_idents(file: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    for t in &file.tokens {
        let Some(id) = t.kind.ident() else { continue };
        if cfg.banned_idents.iter().any(|b| b == id) && !file.suppressed(PRAGMA, t.line) {
            findings.push(Finding {
                rule: RULE,
                path: file.path.clone(),
                line: t.line,
                message: format!(
                    "banned nondeterminism source `{id}` — use the ofc-simtime virtual clock / seeded rngs"
                ),
            });
        }
    }
}

/// Names declared with a `HashMap`/`HashSet` type in this file, found by
/// scanning `name : ... Hash{Map,Set} ...` declaration shapes (struct
/// fields, lets, params).
fn hash_typed_names(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.tokens;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(name) = toks[i].kind.ident() else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|t| t.kind.is_punct(':')) {
            continue;
        }
        // `::` is a path, not a type ascription.
        if toks.get(i + 2).is_some_and(|t| t.kind.is_punct(':')) {
            continue;
        }
        // Scan a bounded window of the type expression for Hash{Map,Set},
        // stopping at tokens that end the declaration. A `,` ends it too
        // (next struct field / parameter) — but only outside `<...>`, so
        // multi-parameter generics don't cut the scan short.
        let mut angle = 0i32;
        for t in toks.iter().skip(i + 2).take(24) {
            match &t.kind {
                TokKind::Ident(id) if id == "HashMap" || id == "HashSet" => {
                    names.insert(name.to_string());
                    break;
                }
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Punct(',') if angle <= 0 => break,
                TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('=') => break,
                _ => {}
            }
        }
    }
    names
}

fn hash_iteration_in_exports(file: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    let hash_names = hash_typed_names(file);
    for func in &file.functions {
        let lname = func.name.to_lowercase();
        if !cfg.export_fn_patterns.iter().any(|p| lname.contains(p)) {
            continue;
        }
        for i in func.body.0 + 1..func.body.1 {
            let t = &file.tokens[i];
            let Some(id) = t.kind.ident() else { continue };
            if file.suppressed(PRAGMA, t.line) {
                continue;
            }
            if id == "HashMap" || id == "HashSet" {
                findings.push(Finding {
                    rule: RULE,
                    path: file.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{id}` constructed in export path `{}` — iteration order is nondeterministic; use BTreeMap or sort keys",
                        func.name
                    ),
                });
            } else if hash_names.contains(id)
                // Only flag uses, not the declaration site itself.
                && !file.tokens.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
            {
                findings.push(Finding {
                    rule: RULE,
                    path: file.path.clone(),
                    line: t.line,
                    message: format!(
                        "HashMap/HashSet-backed `{id}` used in export path `{}` — iteration order is nondeterministic; use BTreeMap or sort keys",
                        func.name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("sim.rs".into(), src);
        let mut findings = Vec::new();
        check(&file, &Config::default(), &mut findings);
        findings
    }

    #[test]
    fn from_entropy_is_always_an_error() {
        // A seed in scope does not excuse an ambient-entropy constructor.
        let f = run("fn mk(seed: u64) { let r = StdRng::from_entropy(); let _ = seed; }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE);
        assert!(f[0].message.contains("from_entropy"));
    }
}
