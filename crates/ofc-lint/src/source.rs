//! Per-file structural model: functions, test regions, pragmas.
//!
//! Built on the flat token stream, this module recovers just enough
//! structure for the rules: where each `fn` body starts and ends, and
//! which token ranges belong to `#[cfg(test)]` / `#[test]` code (the
//! panic and hot-loop rules skip those — tests are allowed to unwrap).

use crate::tokenizer::{tokenize, Pragma, Token};

/// One analyzed function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name as written.
    pub name: String,
    /// Token indices of the body's `{` and matching `}` (inclusive).
    pub body: (usize, usize),
    /// Whether the function is test code.
    pub in_test: bool,
}

/// A lexed and structurally indexed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Flat token stream (comments and whitespace removed).
    pub tokens: Vec<Token>,
    /// Extracted `ofc-lint:` pragmas.
    pub pragmas: Vec<Pragma>,
    /// Every function, in source order (outer before nested).
    pub functions: Vec<Function>,
    /// Token index ranges (inclusive) that are test-only code.
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and indexes one file.
    pub fn parse(path: String, src: &str) -> SourceFile {
        let (tokens, pragmas) = tokenize(src);
        let test_ranges = find_test_ranges(&tokens);
        let functions = find_functions(&tokens, &test_ranges);
        SourceFile {
            path,
            tokens,
            pragmas,
            functions,
            test_ranges,
        }
    }

    /// Whether token index `i` falls inside test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// The innermost function whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&Function> {
        self.functions
            .iter()
            .filter(|f| i > f.body.0 && i < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// Whether a finding of pragma-group `rule` at `line` is suppressed by
    /// a valid (reason-carrying) pragma on the same or previous line.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.pragmas.iter().any(|p| {
            p.rule == rule && !p.reason.is_empty() && (p.line == line || p.line + 1 == line)
        })
    }
}

/// Finds the token index of the `}` matching the `{` at `open`.
pub fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind.is_punct('{') {
            depth += 1;
        } else if t.kind.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Finds the token index of the `]` matching the `[` at `open`.
fn match_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind.is_punct('[') {
            depth += 1;
        } else if t.kind.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// True if the attribute tokens in `[s..=e]` (exclusive of brackets) spell
/// `cfg(test)` or `test`.
fn is_test_attr(tokens: &[Token], s: usize, e: usize) -> bool {
    let inner: Vec<&str> = tokens[s..=e]
        .iter()
        .filter_map(|t| t.kind.ident())
        .collect();
    inner == ["test"] || (inner.first() == Some(&"cfg") && inner.contains(&"test"))
}

/// Marks token ranges that belong to `#[cfg(test)]` items or `#[test]`
/// functions: the attribute, any stacked attributes after it, and the
/// next item's braced body (or up to `;` for bodiless items).
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind.is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.kind.is_punct('[')) {
            let Some(close) = match_bracket(tokens, i + 1) else {
                break;
            };
            if is_test_attr(tokens, i + 2, close.saturating_sub(1)) {
                // Skip any further stacked attributes.
                let mut j = close + 1;
                while j < tokens.len()
                    && tokens[j].kind.is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.kind.is_punct('['))
                {
                    match match_bracket(tokens, j + 1) {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                // The item body: first `{` before any `;` ends the item.
                let mut k = j;
                let mut end = None;
                while k < tokens.len() {
                    if tokens[k].kind.is_punct('{') {
                        end = match_brace(tokens, k);
                        break;
                    }
                    if tokens[k].kind.is_punct(';') {
                        end = Some(k);
                        break;
                    }
                    k += 1;
                }
                if let Some(e) = end {
                    ranges.push((i, e));
                    i = e + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Extracts every `fn name ... { body }` in the stream.
fn find_functions(tokens: &[Token], test_ranges: &[(usize, usize)]) -> Vec<Function> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].kind.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        let Some(name) = name_tok.kind.ident() else {
            continue; // `fn(` pointer type
        };
        // Find the body `{`; a `;` first means a bodiless trait method.
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            if tokens[j].kind.is_punct('{') {
                open = Some(j);
                break;
            }
            if tokens[j].kind.is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let Some(close) = match_brace(tokens, open) else {
            continue;
        };
        let in_test = test_ranges.iter().any(|&(s, e)| i >= s && i <= e);
        fns.push(Function {
            name: name.to_string(),
            body: (open, close),
            in_test,
        });
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_and_test_mods_are_found() {
        let src = r#"
            pub fn hot(x: u64) -> u64 { x + 1 }

            #[cfg(test)]
            mod tests {
                #[test]
                fn checks() { assert_eq!(super::hot(1), 2); }
            }
        "#;
        let f = SourceFile::parse("x.rs".into(), src);
        let hot = f.functions.iter().find(|f| f.name == "hot").unwrap();
        assert!(!hot.in_test);
        let checks = f.functions.iter().find(|f| f.name == "checks").unwrap();
        assert!(checks.in_test);
    }

    #[test]
    fn cfg_test_on_single_fn_marks_only_it() {
        let src = "#[cfg(test)]\nfn helper() {}\nfn live() {}\n";
        let f = SourceFile::parse("x.rs".into(), src);
        assert!(
            f.functions
                .iter()
                .find(|x| x.name == "helper")
                .unwrap()
                .in_test
        );
        assert!(
            !f.functions
                .iter()
                .find(|x| x.name == "live")
                .unwrap()
                .in_test
        );
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let src = "fn outer() { fn inner() { let x = 1; } }";
        let f = SourceFile::parse("x.rs".into(), src);
        let x_idx = f.tokens.iter().position(|t| t.kind.is_ident("x")).unwrap();
        assert_eq!(f.enclosing_fn(x_idx).unwrap().name, "inner");
    }

    #[test]
    fn suppression_requires_reason_and_adjacency() {
        let src = "// ofc-lint: allow(panic) reason=fine\nfn a() {}\n\n// ofc-lint: allow(panic)\nfn b() {}\n";
        let f = SourceFile::parse("x.rs".into(), src);
        assert!(f.suppressed("panic", 1));
        assert!(f.suppressed("panic", 2)); // following line
        assert!(!f.suppressed("panic", 3));
        assert!(!f.suppressed("panic", 4), "reasonless pragma is invalid");
        assert!(!f.suppressed("determinism", 1), "rule must match");
    }
}
