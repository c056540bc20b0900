//! A lightweight statement parser over the flat token stream.
//!
//! [`parse_body`] turns one function body into a tree of [`Stmt`]s — just
//! enough structure for D5 to know the loop depth every token runs at:
//! `if`/`else` chains, the three loop forms, `match` arms, and bare
//! blocks. Everything else (`let`, `return`, `break`, nested items, …)
//! is an opaque expression statement whose token span the rule scans
//! directly.
//!
//! The parser is deliberately approximate in the same way the tokenizer
//! is: it balances all three bracket kinds, so closures, nested blocks,
//! and struct literals inside expressions never derail statement
//! boundaries, but it does not build full expression trees.

use crate::tokenizer::{TokKind, Token};

/// Inclusive token-index span.
pub type Span = (usize, usize);

/// Statement payload.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// Any other expression/item statement; the span is scanned raw.
    Expr,
    /// `if cond { .. } [else ..]`.
    If {
        /// Condition span.
        cond: Span,
        /// Then-branch statements.
        then_branch: Vec<Stmt>,
        /// Else-branch statements (an `else if` is a single nested `If`).
        else_branch: Option<Vec<Stmt>>,
    },
    /// `for`/`while`/`loop`.
    Loop {
        /// Header span (`pat in iter`, `cond`; empty for `loop`).
        header: Span,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee span.
        scrutinee: Span,
        /// Each arm's body statements (a block, or a single expression
        /// statement), in source order; patterns and guards are skipped.
        arms: Vec<Vec<Stmt>>,
    },
    /// A bare `{ .. }` block statement.
    Block(Vec<Stmt>),
}

/// One parsed statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement payload.
    pub kind: StmtKind,
    /// Inclusive token span of the whole statement (body included).
    pub span: Span,
}

/// Item keywords that can open a braced item inside a function body; an
/// expression statement starting with one of these ends at its closing
/// brace (no trailing `;`).
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "impl", "mod", "trait", "union"];

/// Parses the statements of a function body whose braces sit at token
/// indices `open` and `close` (as found by [`crate::source::match_brace`]).
pub fn parse_body(tokens: &[Token], open: usize, close: usize) -> Vec<Stmt> {
    let mut p = Parser { tokens };
    p.stmts(open + 1, close)
}

struct Parser<'a> {
    tokens: &'a [Token],
}

impl<'a> Parser<'a> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        self.tokens.get(i).and_then(|t| t.kind.ident())
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.kind.is_punct(c))
    }

    /// Index of the bracket matching the opener at `open` (any of
    /// `(`/`[`/`{`), or `end` if unbalanced.
    fn matching(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            match &self.tokens[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Scans from `i` to the statement terminator `;` at depth 0 (all
    /// bracket kinds balanced), stopping at `end`. Returns the index of
    /// the `;` (or `end`).
    fn stmt_end(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match &self.tokens[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct(';') if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Scans from `i` to the `{` opening the next block at depth 0 —
    /// the end of an `if`/`while`/`for`/`match` header. Struct literals
    /// in headers are rare enough in this workspace to ignore.
    fn header_end(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match &self.tokens[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => return j,
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        end
    }

    fn stmts(&mut self, start: usize, end: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            if self.punct_at(i, ';') {
                i += 1; // empty statement
                continue;
            }
            let (stmt, next) = self.stmt(i, end);
            out.push(stmt);
            i = next;
        }
        out
    }

    /// Parses one statement starting at `i`; returns it and the index
    /// just past it.
    fn stmt(&mut self, i: usize, end: usize) -> (Stmt, usize) {
        match self.ident_at(i) {
            Some("if") => self.if_stmt(i, end),
            Some("while" | "for" | "loop") => self.loop_stmt(i, end),
            Some("match") => self.match_stmt(i, end),
            _ if self.punct_at(i, '{') => {
                let close = self.matching(i, end);
                let body = self.stmts(i + 1, close);
                (
                    Stmt {
                        kind: StmtKind::Block(body),
                        span: (i, close),
                    },
                    close + 1,
                )
            }
            _ => self.expr_stmt(i, end),
        }
    }

    fn if_stmt(&mut self, i: usize, end: usize) -> (Stmt, usize) {
        let open = self.header_end(i + 1, end);
        let cond = (i + 1, open.saturating_sub(1).max(i + 1));
        let close = self.matching(open, end);
        let then_branch = self.stmts(open + 1, close);
        let mut span_end = close;
        let mut next = close + 1;
        let mut else_branch = None;
        if self.ident_at(close + 1) == Some("else") {
            if self.ident_at(close + 2) == Some("if") {
                let (nested, after) = self.if_stmt(close + 2, end);
                span_end = nested.span.1;
                else_branch = Some(vec![nested]);
                next = after;
            } else if self.punct_at(close + 2, '{') {
                let else_close = self.matching(close + 2, end);
                else_branch = Some(self.stmts(close + 3, else_close));
                span_end = else_close;
                next = else_close + 1;
            }
        }
        (
            Stmt {
                kind: StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                },
                span: (i, span_end),
            },
            next,
        )
    }

    fn loop_stmt(&mut self, i: usize, end: usize) -> (Stmt, usize) {
        let open = self.header_end(i + 1, end);
        let header = (i + 1, open.saturating_sub(1).max(i + 1));
        let close = self.matching(open, end);
        let body = self.stmts(open + 1, close);
        (
            Stmt {
                kind: StmtKind::Loop { header, body },
                span: (i, close),
            },
            close + 1,
        )
    }

    fn match_stmt(&mut self, i: usize, end: usize) -> (Stmt, usize) {
        let open = self.header_end(i + 1, end);
        let scrutinee = (i + 1, open.saturating_sub(1).max(i + 1));
        let close = self.matching(open, end);
        let arms = self.match_arms(open + 1, close);
        // A match used as an initializer/argument continues past `}`; as
        // a statement the caller's scan resumes right after. Either way
        // the span covers scrutinee + arms.
        let semi = if self.punct_at(close + 1, ';') {
            close + 1
        } else {
            close
        };
        (
            Stmt {
                kind: StmtKind::Match { scrutinee, arms },
                span: (i, semi),
            },
            semi + 1,
        )
    }

    fn match_arms(&mut self, start: usize, end: usize) -> Vec<Vec<Stmt>> {
        let mut arms = Vec::new();
        let mut i = start;
        while i < end {
            if self.punct_at(i, ',') {
                i += 1;
                continue;
            }
            // Pattern (and guard): tokens until `=>` at depth 0.
            let mut depth = 0i32;
            let mut arrow = end;
            let mut j = i;
            while j < end {
                match &self.tokens[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct('=') if depth == 0 && self.punct_at(j + 1, '>') => {
                        arrow = j;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if arrow >= end {
                break; // trailing tokens that aren't an arm
            }
            let body_start = arrow + 2;
            let (body, next) = if self.punct_at(body_start, '{') {
                let bclose = self.matching(body_start, end);
                (self.stmts(body_start + 1, bclose), bclose + 1)
            } else {
                // Expression arm: runs to `,` at depth 0 or the match end.
                let mut depth = 0i32;
                let mut k = body_start;
                while k < end {
                    match &self.tokens[k].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                            depth += 1
                        }
                        TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                            depth -= 1
                        }
                        TokKind::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let body = if k > body_start {
                    vec![Stmt {
                        kind: StmtKind::Expr,
                        span: (body_start, k.saturating_sub(1).max(body_start)),
                    }]
                } else {
                    Vec::new()
                };
                (body, k + 1)
            };
            arms.push(body);
            i = next;
        }
        arms
    }

    fn expr_stmt(&mut self, i: usize, end: usize) -> (Stmt, usize) {
        // Items nested in a body (`fn helper() { .. }`) end at their
        // closing brace; macro invocations with brace bodies too.
        let is_item = self
            .ident_at(i)
            .is_some_and(|id| ITEM_KEYWORDS.contains(&id))
            || matches!(self.ident_at(i), Some("pub") | Some("unsafe"))
            || (self.ident_at(i).is_some()
                && self.punct_at(i + 1, '!')
                && self.punct_at(i + 2, '{'));
        let (last, next) = if is_item {
            // Scan to the first depth-0 `{`, balance it; a `;` first means
            // a bodiless item (`macro_rules` never appears in fn bodies).
            let mut j = i;
            loop {
                if j >= end {
                    break (end.saturating_sub(1).max(i), end);
                }
                if self.punct_at(j, ';') {
                    break (j, j + 1);
                }
                if self.punct_at(j, '{') {
                    let close = self.matching(j, end);
                    break (close, close + 1);
                }
                j += 1;
            }
        } else {
            let semi = self.stmt_end(i, end);
            (semi.min(end.saturating_sub(1)).max(i), semi + 1)
        };
        (
            Stmt {
                kind: StmtKind::Expr,
                span: (i, last),
            },
            next,
        )
    }
}

/// Depth-first walk over a statement tree, calling `f` with each
/// statement and the loop depth it executes at (0 = outside any loop).
pub fn walk_with_loop_depth<'a>(stmts: &'a [Stmt], depth: u32, f: &mut impl FnMut(&'a Stmt, u32)) {
    for s in stmts {
        f(s, depth);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk_with_loop_depth(then_branch, depth, f);
                if let Some(e) = else_branch {
                    walk_with_loop_depth(e, depth, f);
                }
            }
            StmtKind::Loop { body, .. } => walk_with_loop_depth(body, depth + 1, f),
            StmtKind::Match { arms, .. } => {
                for arm in arms {
                    walk_with_loop_depth(arm, depth, f);
                }
            }
            StmtKind::Block(body) => walk_with_loop_depth(body, depth, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse(src: &str) -> (SourceFile, Vec<Stmt>) {
        let f = SourceFile::parse("t.rs".into(), src);
        let body = f.functions[0].body;
        let stmts = parse_body(&f.tokens, body.0, body.1);
        (f, stmts)
    }

    /// The identifiers inside `span`, in order.
    fn idents(f: &SourceFile, span: Span) -> Vec<&str> {
        f.tokens[span.0..=span.1]
            .iter()
            .filter_map(|t| t.kind.ident())
            .collect()
    }

    #[test]
    fn lets_and_exprs_split_on_semicolons() {
        let (f, s) = parse("fn f() { let x = g(1, 2); x.h(); let y; }");
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|st| matches!(st.kind, StmtKind::Expr)));
        assert_eq!(idents(&f, s[0].span), vec!["let", "x", "g"]);
        assert_eq!(idents(&f, s[2].span), vec!["let", "y"]);
    }

    #[test]
    fn nested_loops_nest_in_the_tree() {
        let (f, s) = parse("fn f() { for a in xs { while b { loop { c(); } } } }");
        let StmtKind::Loop { header, body } = &s[0].kind else {
            panic!("outer for");
        };
        assert_eq!(idents(&f, *header), vec!["a", "in", "xs"]);
        let StmtKind::Loop { header, body } = &body[0].kind else {
            panic!("while");
        };
        assert_eq!(idents(&f, *header), vec!["b"]);
        let StmtKind::Loop { body, .. } = &body[0].kind else {
            panic!("loop");
        };
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn loop_depth_walk_counts_nesting() {
        let (_, s) = parse("fn f() { a(); for x in xs { b(); for y in ys { c(); } } }");
        let mut depths = Vec::new();
        walk_with_loop_depth(&s, 0, &mut |st, d| {
            if matches!(st.kind, StmtKind::Expr) {
                depths.push(d);
            }
        });
        assert_eq!(depths, vec![0, 1, 2]);
    }

    #[test]
    fn if_else_chains_parse_with_both_branches() {
        let (_, s) = parse("fn f() { if a { b(); } else if c { d(); } else { e(); } }");
        let StmtKind::If {
            then_branch,
            else_branch,
            ..
        } = &s[0].kind
        else {
            panic!("if");
        };
        assert_eq!(then_branch.len(), 1);
        let nested = else_branch.as_ref().unwrap();
        let StmtKind::If { else_branch, .. } = &nested[0].kind else {
            panic!("else-if nests");
        };
        assert_eq!(else_branch.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn match_arms_and_guards_are_extracted() {
        let (f, s) =
            parse("fn f(x: u64) { match x { 0 => a(), n if n > 3 => { b(); c(); } _ => d(), } }");
        let StmtKind::Match { arms, .. } = &s[0].kind else {
            panic!("match");
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[1].len(), 2);
        assert_eq!(arms[2].len(), 1);
        // The guard belongs to the pattern, not to the arm body.
        let body: Vec<&str> = arms[1].iter().flat_map(|st| idents(&f, st.span)).collect();
        assert_eq!(body, vec!["b", "c"]);
    }

    #[test]
    fn early_return_and_break_terminate_statements() {
        let (f, s) = parse("fn f() { if a { return 1; } for x in xs { break; } g(); }");
        assert_eq!(s.len(), 3);
        let StmtKind::If { then_branch, .. } = &s[0].kind else {
            panic!("if");
        };
        assert_eq!(then_branch.len(), 1);
        assert_eq!(idents(&f, then_branch[0].span), vec!["return"]);
        let StmtKind::Loop { body, .. } = &s[1].kind else {
            panic!("for");
        };
        assert_eq!(body.len(), 1);
        assert_eq!(idents(&f, body[0].span), vec!["break"]);
    }

    #[test]
    fn closures_and_nested_braces_do_not_split_statements() {
        let (_, s) = parse("fn f() { xs.iter().for_each(|x| { a(x); b(x); }); c(); }");
        assert_eq!(s.len(), 2, "closure body stays inside one statement");
    }

    #[test]
    fn while_let_headers_parse() {
        let (f, s) = parse("fn f() { while let Some(x) = it.next() { use_it(x); } }");
        let StmtKind::Loop { header, body } = &s[0].kind else {
            panic!("while let");
        };
        assert_eq!(idents(&f, *header), vec!["let", "Some", "x", "it", "next"]);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn nested_fn_items_do_not_swallow_following_statements() {
        let (_, s) = parse("fn f() { fn helper() { x(); } after(); }");
        assert_eq!(s.len(), 2);
    }
}
