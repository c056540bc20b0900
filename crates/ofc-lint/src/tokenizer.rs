//! A lightweight Rust lexer: just enough structure for lint rules.
//!
//! The tokenizer understands comments (line, block, nested), string and
//! char literals (including raw and byte strings), lifetimes, numbers,
//! identifiers, and punctuation — everything needed so that rules never
//! match text inside a comment or a string by accident. It does **not**
//! build a syntax tree; rules pattern-match over the flat token stream.
//!
//! `// ofc-lint: allow(<rule>) reason=<text>` comments are extracted as
//! [`Pragma`]s during lexing and suppress findings on the same or the
//! following line.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// What was lexed.
    pub kind: TokKind,
}

/// Token payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// String literal (unescaped raw contents, quotes stripped).
    Str(String),
    /// Character literal (contents ignored).
    Char,
    /// Numeric literal (verbatim text).
    Num(String),
    /// Lifetime such as `'a` (name without the quote).
    Lifetime(String),
    /// Single punctuation character.
    Punct(char),
}

impl TokKind {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, TokKind::Punct(p) if *p == c)
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, TokKind::Ident(i) if i == s)
    }
}

/// An in-source suppression: `// ofc-lint: allow(<rule>) reason=<text>`.
///
/// A pragma with an empty reason is invalid — it suppresses nothing and
/// is itself reported (`D0-PRAGMA`), so every allowance stays justified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// Rule group being allowed: `determinism`, `hotloop`, `panic`, `telemetry`.
    pub rule: String,
    /// Human justification (required).
    pub reason: String,
}

/// Lexes `src`, returning the token stream and any lint pragmas.
pub fn tokenize(src: &str) -> (Vec<Token>, Vec<Pragma>) {
    let mut tokens = Vec::new();
    let mut pragmas = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                // Doc comments (`///`, `//!`) are documentation, not
                // directives: text *describing* the pragma syntax must
                // not register as a pragma.
                let doc = matches!(chars.get(i + 2), Some('/') | Some('!'));
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                if !doc {
                    let comment: String = chars[start..i].iter().collect();
                    if let Some(p) = parse_pragma(&comment, line) {
                        pragmas.push(p);
                    }
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                i += 2;
                let mut depth = 1;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let (s, ni, nl) = lex_string(&chars, i, line);
                tokens.push(Token {
                    line,
                    kind: TokKind::Str(s),
                });
                line = nl;
                i = ni;
            }
            '\'' => {
                // Lifetime or char literal.
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
                if is_lifetime {
                    let start = i + 1;
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    tokens.push(Token {
                        line,
                        kind: TokKind::Lifetime(chars[start..i].iter().collect()),
                    });
                } else {
                    // Char literal: '\\n', 'x', '\''.
                    i += 1;
                    if chars.get(i) == Some(&'\\') {
                        i += 2; // escape + escaped char
                                // \u{..} escapes: consume to closing brace.
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                    } else if i < chars.len() {
                        i += 1;
                    }
                    if chars.get(i) == Some(&'\'') {
                        i += 1;
                    }
                    tokens.push(Token {
                        line,
                        kind: TokKind::Char,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric()
                        || chars[i] == '_'
                        || (chars[i] == '.'
                            && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                            && chars.get(i.wrapping_sub(1)) != Some(&'.')))
                {
                    i += 1;
                }
                tokens.push(Token {
                    line,
                    kind: TokKind::Num(chars[start..i].iter().collect()),
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                // Raw / byte string prefixes: r"", r#""#, b"", br"".
                let is_raw_prefix = matches!(ident.as_str(), "r" | "b" | "br" | "rb")
                    && matches!(chars.get(i), Some('"') | Some('#'));
                if is_raw_prefix {
                    let raw = ident.contains('r');
                    let (s, ni, nl) = if raw {
                        lex_raw_string(&chars, i, line)
                    } else {
                        lex_string(&chars, i, line)
                    };
                    tokens.push(Token {
                        line,
                        kind: TokKind::Str(s),
                    });
                    line = nl;
                    i = ni;
                } else {
                    tokens.push(Token {
                        line,
                        kind: TokKind::Ident(ident),
                    });
                }
            }
            other => {
                tokens.push(Token {
                    line,
                    kind: TokKind::Punct(other),
                });
                i += 1;
            }
        }
    }
    (tokens, pragmas)
}

/// Lexes a `"..."` string starting at the opening quote; returns
/// (contents, next index, next line).
fn lex_string(chars: &[char], start: usize, mut line: u32) -> (String, usize, u32) {
    let mut i = start + 1;
    let mut out = String::new();
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if let Some(&e) = chars.get(i + 1) {
                    if e == '\n' {
                        line += 1;
                    }
                    out.push(e);
                }
                i += 2;
            }
            '"' => return (out, i + 1, line),
            '\n' => {
                line += 1;
                out.push('\n');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    (out, i, line)
}

/// Lexes a raw string `#*"..."#*` starting at the first `#` or `"`.
fn lex_raw_string(chars: &[char], start: usize, mut line: u32) -> (String, usize, u32) {
    let mut i = start;
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return (String::new(), i, line);
    }
    i += 1;
    let mut out = String::new();
    while i < chars.len() {
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return (out, i + 1 + hashes, line);
            }
        }
        if chars[i] == '\n' {
            line += 1;
        }
        out.push(chars[i]);
        i += 1;
    }
    (out, i, line)
}

/// Parses `// ofc-lint: allow(<rule>) reason=<text>` out of a line comment.
fn parse_pragma(comment: &str, line: u32) -> Option<Pragma> {
    let rest = comment.split("ofc-lint:").nth(1)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let tail = &rest[close + 1..];
    let reason = tail
        .split("reason=")
        .nth(1)
        .map(|r| r.trim().to_string())
        .unwrap_or_default();
    Some(Pragma { line, rule, reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .0
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* Instant in /* nested */ block */
            let s = "SystemTime inside a string";
            let r = r#"thread_rng raw"#;
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"thread_rng".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (toks, _) = tokenize("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Lifetime(l) if l == "a")));
        assert!(toks.iter().any(|t| matches!(t.kind, TokKind::Char)));
    }

    #[test]
    fn string_contents_and_lines_are_tracked() {
        let (toks, _) = tokenize("\n\nlet x = \"a.b\";");
        let s = toks
            .iter()
            .find_map(|t| match &t.kind {
                TokKind::Str(s) => Some((t.line, s.clone())),
                _ => None,
            })
            .expect("string token");
        assert_eq!(s, (3, "a.b".to_string()));
    }

    #[test]
    fn pragmas_are_extracted_with_reason() {
        let (_, pragmas) = tokenize("x.unwrap(); // ofc-lint: allow(panic) reason=checked above\n");
        assert_eq!(pragmas.len(), 1);
        assert_eq!(pragmas[0].rule, "panic");
        assert_eq!(pragmas[0].reason, "checked above");
        assert_eq!(pragmas[0].line, 1);
    }

    #[test]
    fn pragma_without_reason_has_empty_reason() {
        let (_, pragmas) = tokenize("// ofc-lint: allow(determinism)\n");
        assert_eq!(pragmas.len(), 1);
        assert!(pragmas[0].reason.is_empty());
    }
}
