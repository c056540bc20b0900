//! Rule D5 — allocations inside hot-path loops.
//!
//! ROADMAP item 2's interning campaign needs a complete work-list of the
//! allocation sites that run per-key per-sweep: `clone()` / `to_string()`
//! / `to_owned()` / `format!` / `String::from` / `to_vec()` / `collect()`
//! into owned containers, and `String`-keyed map types — *inside loops*
//! in the configured hot paths ([`crate::config::Config::hotloop_paths`]).
//!
//! One pass over the tokens of each function body gives every token its
//! loop depth. On a `for`, `while` or `loop` keyword, the first `{`
//! outside parentheses and brackets opens the loop body; closures passed
//! to the common in-place iterator methods (`for_each`, `retain`,
//! `sort_by_key`, `sort_unstable_by_key`) count as one more loop level —
//! an allocation in a `retain` predicate runs exactly as often as one in
//! a `for` body. Plain `map`/`filter` chains are deliberately *not*
//! treated as loops to bound noise: they usually feed a `collect`, which
//! is flagged at the collect site itself.
//!
//! Every site becomes a [`Hotspot`] in the machine-readable inventory
//! (`--emit-hotspots`), suppressed or not; only unsuppressed sites become
//! findings. A pragma therefore quiets the gate without deleting the
//! site from the committed campaign work-list.

use crate::config::Config;
use crate::report::{Finding, Hotspot};
use crate::source::{match_brace, Function, SourceFile};
use crate::tokenizer::TokKind;
use crate::workspace::matches_prefix;

/// Pragma group for this rule.
pub const PRAGMA: &str = "hotloop";
/// Rule id.
pub const RULE: &str = "D5-HOTLOOP";

/// Method calls that allocate an owned value.
const ALLOC_METHODS: [(&str, &str); 5] = [
    ("clone", "clone"),
    ("to_string", "to_string"),
    ("to_owned", "to_owned"),
    ("to_vec", "to_vec"),
    ("collect", "collect"),
];

/// Iterator methods whose closure argument executes once per element.
const ITER_METHODS: [&str; 4] = ["for_each", "retain", "sort_by_key", "sort_unstable_by_key"];

/// Runs D5 over one file, appending findings and inventory entries.
pub fn check(
    file: &SourceFile,
    cfg: &Config,
    findings: &mut Vec<Finding>,
    hotspots: &mut Vec<Hotspot>,
) {
    if !matches_prefix(&file.path, &cfg.hotloop_paths) {
        return;
    }
    for func in &file.functions {
        if !func.in_test {
            scan_fn(file, func, findings, hotspots);
        }
    }
}

/// Walks one function body, recording every allocation at loop depth
/// ≥ 1. A token's depth is the number of open loop bodies plus the
/// number of open `ITER_METHODS` closures. The bodies of nested `fn`
/// items are skipped: each is scanned as a function of its own.
fn scan_fn(
    file: &SourceFile,
    func: &Function,
    findings: &mut Vec<Finding>,
    hotspots: &mut Vec<Hotspot>,
) {
    let toks = &file.tokens;
    let name = func.name.as_str();
    let (open, close) = func.body;
    // The first and last token index of each open loop level, innermost
    // last. A loop level is pushed at its keyword, so a header's tokens
    // (before the first index) stay at the outer depth.
    let mut levels: Vec<(usize, usize)> = Vec::new();
    let mut i = open + 1;
    while i < close {
        if let Some(nested) = file.functions.iter().find(|g| g.body.0 == i) {
            i = nested.body.1 + 1;
            continue;
        }
        while levels.last().is_some_and(|&(_, last)| last < i) {
            levels.pop();
        }
        if let TokKind::Ident(id) = &toks[i].kind {
            let after_dot = i > 0 && toks[i - 1].kind.is_punct('.');
            let callish = toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('));
            let level = if after_dot && callish && ITER_METHODS.contains(&id.as_str()) {
                match_paren(toks, i + 1).map(|end| (i + 2, end))
            } else {
                loop_body(toks, i, close)
            };
            if let Some(level) = level {
                levels.push(level);
            } else if let Some(kind) = classify(toks, i, after_dot, callish) {
                let depth = levels.iter().filter(|&&(first, _)| first <= i).count() as u32;
                if depth > 0 {
                    record(file, name, toks[i].line, depth, kind, findings, hotspots);
                }
            }
        }
        i += 1;
    }
}

/// The body of the loop whose keyword sits at `kw`, as its first and last
/// token index. `while`, `loop` and `for` open a loop, except a `for<'a>`
/// bound; the body is the first `{` outside parentheses and brackets
/// before `end`.
fn loop_body(toks: &[crate::tokenizer::Token], kw: usize, end: usize) -> Option<(usize, usize)> {
    let bound = toks.get(kw + 1).is_some_and(|t| t.kind.is_punct('<'));
    match toks[kw].kind.ident() {
        Some("while" | "loop") => {}
        Some("for") if !bound => {}
        _ => return None,
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(kw + 1) {
        match t.kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some((j + 1, match_brace(toks, j)?)),
            _ => {}
        }
    }
    None
}

/// Classifies the allocation at token `i`, if any.
fn classify(
    toks: &[crate::tokenizer::Token],
    i: usize,
    after_dot: bool,
    callish: bool,
) -> Option<&'static str> {
    let id = toks[i].kind.ident()?;
    if after_dot && callish {
        if let Some(&(_, kind)) = ALLOC_METHODS.iter().find(|(m, _)| *m == id) {
            return Some(kind);
        }
        // `.collect::<Vec<_>>()` — the turbofish separates `collect`
        // from its `(`; catch the `::<` shape too.
        return None;
    }
    if after_dot && id == "collect" && toks.get(i + 1).is_some_and(|t| t.kind.is_punct(':')) {
        return Some("collect");
    }
    match id {
        "format" if toks.get(i + 1).is_some_and(|t| t.kind.is_punct('!')) => Some("format"),
        "String"
            if toks.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.kind.is_ident("from")) =>
        {
            Some("string_from")
        }
        "HashMap" | "BTreeMap"
            if toks.get(i + 1).is_some_and(|t| t.kind.is_punct('<'))
                && toks.get(i + 2).is_some_and(|t| t.kind.is_ident("String")) =>
        {
            Some("string_map_key")
        }
        _ => None,
    }
}

fn record(
    file: &SourceFile,
    fn_name: &str,
    line: u32,
    depth: u32,
    kind: &'static str,
    findings: &mut Vec<Finding>,
    hotspots: &mut Vec<Hotspot>,
) {
    let suppressed = file.suppressed(PRAGMA, line);
    hotspots.push(Hotspot {
        path: file.path.clone(),
        line,
        loop_depth: depth,
        kind,
        function: fn_name.to_string(),
        suppressed,
    });
    if !suppressed {
        findings.push(Finding {
            rule: RULE,
            path: file.path.clone(),
            line,
            message: format!(
                "`{kind}` allocation at loop depth {depth} in hot fn `{fn_name}` — intern or hoist (ROADMAP item 2), or justify with allow({PRAGMA})"
            ),
        });
    }
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(toks: &[crate::tokenizer::Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind.is_punct('(') {
            depth += 1;
        } else if t.kind.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (Vec<Finding>, Vec<Hotspot>) {
        let file = SourceFile::parse("hot.rs".into(), src);
        let cfg = Config {
            hotloop_paths: vec!["hot.rs".into()],
            ..Config::default()
        };
        let mut findings = Vec::new();
        let mut hotspots = Vec::new();
        check(&file, &cfg, &mut findings, &mut hotspots);
        (findings, hotspots)
    }

    #[test]
    fn clone_outside_a_loop_is_not_flagged() {
        let (f, h) = run("fn f(k: &K) { let owned = k.clone(); }");
        assert!(f.is_empty() && h.is_empty());
    }

    #[test]
    fn clone_inside_a_loop_is_flagged_with_depth() {
        let (f, h) = run("fn f(ks: &[K]) { for k in ks { use_key(k.clone()); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, "clone");
        assert_eq!(h[0].loop_depth, 1);
        assert_eq!(h[0].function, "f");
    }

    #[test]
    fn retain_closure_counts_as_a_loop_level() {
        let (f, h) = run(
            "fn f(m: &mut M) { for s in m.shards { s.retain(|k, _| k.to_string() != gone); } }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(h[0].loop_depth, 2, "for + retain closure");
        assert_eq!(h[0].kind, "to_string");
    }

    /// Each case holds exactly one allocation; depth 0 means no hotspot.
    const DEPTH_CASES: [(&str, u32); 15] = [
        ("fn f() { for a in xs { a.clone(); } }", 1),
        ("fn f() { for a in xs { while b { a.clone(); } } }", 2),
        ("fn f() { for a in xs { while b { loop { a.clone(); } } } }", 3),
        (
            "fn f() { for a in xs { while let Some(x) = a.clone().pop() { use_it(x); } } }",
            1,
        ),
        (
            "fn f() { for a in xs { if b { c(); } else if d { e(); } else { a.clone(); } } }",
            1,
        ),
        (
            "fn f() { for a in xs { match a { 0 => b(), n if n > 3 => { c(); } _ => a.to_string(), } } }",
            1,
        ),
        ("fn f() { xs.iter().for_each(|a| { b(a.clone()); }); }", 1),
        ("fn f() { for s in m { s.retain(|k, _| k.to_string() != gone); } }", 2),
        ("fn f() { fn helper() { c(); } for a in xs { a.clone(); } }", 1),
        ("fn f() { let v = loop { break k.clone(); }; }", 1),
        (
            "fn f() { sim.every(p, move |_| { for a in xs { a.clone(); } }); }",
            1,
        ),
        ("fn f() { 'scan: for a in xs { a.clone(); } }", 1),
        (
            "fn f() { impl T for U { fn m(&self) -> V { self.v.clone() } } }",
            0,
        ),
        (
            "fn f() { let g: &dyn for<'a> Fn(&'a str) -> S = &h; if c { g(x).clone(); } }",
            0,
        ),
        ("fn f() { fn helper() { for a in xs { a.clone(); } } }", 1),
    ];

    #[test]
    fn allocations_get_the_loop_depth_they_run_at() {
        let wrong: Vec<(&str, u32, Vec<u32>)> = DEPTH_CASES
            .iter()
            .filter_map(|&(src, want)| {
                let (_, h) = run(src);
                let got: Vec<u32> = h.iter().map(|x| x.loop_depth).collect();
                let ok = if want == 0 {
                    got.is_empty()
                } else {
                    got == [want]
                };
                (!ok).then_some((src, want, got))
            })
            .collect();
        assert!(wrong.is_empty(), "(case, want, got): {wrong:#?}");
    }

    #[test]
    fn pragma_keeps_the_hotspot_but_drops_the_finding() {
        let (f, h) = run(
            "fn f(ks: &[K]) {\nfor k in ks {\n// ofc-lint: allow(hotloop) reason=victims are returned by value\nout.push(k.clone());\n}\n}",
        );
        assert!(f.is_empty(), "pragma suppresses the finding");
        assert_eq!(h.len(), 1, "inventory keeps the site");
        assert!(h[0].suppressed);
    }

    #[test]
    fn format_collect_and_string_maps_are_classified() {
        let (f, _) = run(
            "fn f(xs: &[X]) { while go() { let k = format!(\"k{}\", 1); let v: Vec<u64> = xs.iter().map(|x| x.n).collect(); let m: BTreeMap<String, u64> = BTreeMap::new(); } }",
        );
        let kinds: Vec<&str> = f
            .iter()
            .map(|x| x.message.split('`').nth(1).unwrap())
            .collect();
        assert!(kinds.contains(&"format"));
        assert!(kinds.contains(&"collect"));
        assert!(kinds.contains(&"string_map_key"));
    }

    #[test]
    fn test_code_is_skipped() {
        let (f, h) = run("#[cfg(test)]\nmod t { fn f(ks: &[K]) { for k in ks { k.clone(); } } }");
        assert!(f.is_empty() && h.is_empty());
    }
}
