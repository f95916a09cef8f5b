//! A std-only Rust lexer for `dd-analyze`.
//!
//! Produces a flat token stream with line positions — enough syntax to be
//! *correct* about the things the old string scanner got wrong (raw
//! strings, nested block comments, char-vs-lifetime, raw identifiers)
//! without pulling in a real parser. Comments are dropped from the
//! stream, except that analyzer *markers* (`// dd:hot`, `// dd:cold`)
//! are recorded with their line so the model can attach them to the
//! following item or loop.
//!
//! The lexer is intentionally forgiving: on malformed input it keeps
//! scanning (an unterminated literal runs to end of file) — the analyzer
//! lints code that `rustc` already accepted, so recovery paths are for
//! fixtures and mid-edit files, not correctness.

use std::fmt;

/// Token kind. String/char bodies are *kept* (the model matches
/// `trace_phase("recovery-…")` arguments), but they are distinct kinds,
/// so rule needles can never match inside a literal by accident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `if`, `barrier`, …). Raw identifiers
    /// (`r#type`) arrive with the `r#` stripped.
    Ident,
    /// Lifetime (`'a`), text without the leading `'`.
    Lifetime,
    /// String literal (plain, raw, byte, or C); text is the literal body
    /// as written, without quotes/hashes/prefix.
    Str,
    /// Char or byte literal; text is the body as written.
    Char,
    /// Numeric literal, text as written (suffix included).
    Num,
    /// Punctuation. Multi-character operators arrive joined (`::`, `->`,
    /// `=>`, `..`, `&&`, …).
    Punct,
    /// Opening delimiter: `(`, `[`, `{`.
    Open,
    /// Closing delimiter: `)`, `]`, `}`.
    Close,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Tok {
    pub fn is(&self, kind: TokKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }
    pub fn is_ident(&self, text: &str) -> bool {
        self.is(TokKind::Ident, text)
    }
    pub fn is_punct(&self, text: &str) -> bool {
        self.is(TokKind::Punct, text)
    }
    pub fn is_open(&self, d: char) -> bool {
        self.kind == TokKind::Open && self.text.as_bytes()[0] == d as u8
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokKind::Str => write!(f, "\"{}\"", self.text),
            TokKind::Char => write!(f, "'{}'", self.text),
            TokKind::Lifetime => write!(f, "'{}", self.text),
            _ => f.write_str(&self.text),
        }
    }
}

/// Analyzer marker found in a comment (`// dd:hot`, `// dd:cold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Marker {
    /// The next `fn` item or loop is a zero-allocation hot region.
    Hot,
    /// The next statement is an audited cold path inside a hot region
    /// (error construction, one-time growth) — exempt from
    /// `warm-loop-alloc`.
    Cold,
}

/// Lexer output: the token stream plus marker comments by line.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    /// `(line, marker)` for every `dd:` marker comment, in order.
    pub markers: Vec<(u32, Marker)>,
}

/// Multi-char operators, longest first so `..=` wins over `..`.
const JOINED: [&str; 24] = [
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "..", "&&", "||", "==", "!=", "<=", ">=", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}
fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens. Never fails; see module docs for the recovery
/// stance on malformed input.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut line: u32 = 1;
    let mut i = 0;

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {
            out.toks.push(Tok {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (incl. doc comments). Record dd: markers.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let body: String = b[start..i].iter().collect();
            if let Some(m) = marker_of(&body) {
                out.markers.push((line, m));
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start_line = line;
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let body: String = b[start..i.min(n)].iter().collect();
            if let Some(m) = marker_of(&body) {
                out.markers.push((start_line, m));
            }
            continue;
        }
        // String-ish literals and raw identifiers. Prefixes: r, b, br,
        // c, cr (each optionally before a raw/plain string).
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_cont(b[i]) {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            // `r#ident` raw identifier.
            if word == "r" && i + 1 < n && b[i] == '#' && is_ident_start(b[i + 1]) {
                let id_start = i + 1;
                i += 1;
                while i < n && is_ident_cont(b[i]) {
                    i += 1;
                }
                push!(TokKind::Ident, b[id_start..i].iter().collect(), line);
                continue;
            }
            // String prefix?
            let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br" | "c" | "cr");
            let raw = word.ends_with('r') && is_str_prefix;
            if is_str_prefix && i < n && (b[i] == '"' || (raw && b[i] == '#')) {
                let (body, nl, ni) = lex_string_from(&b, i, raw);
                push!(TokKind::Str, body, line);
                line += nl;
                i = ni;
                continue;
            }
            // Byte char literal b'x'.
            if word == "b" && i < n && b[i] == '\'' {
                let (body, ni) = lex_char_from(&b, i);
                push!(TokKind::Char, body, line);
                i = ni;
                continue;
            }
            push!(TokKind::Ident, word, line);
            continue;
        }
        // Plain string.
        if c == '"' {
            let (body, nl, ni) = lex_string_from(&b, i, false);
            push!(TokKind::Str, body, line);
            line += nl;
            i = ni;
            continue;
        }
        // Char literal vs lifetime. A lifetime is `'` + ident with no
        // closing quote immediately after the ident; a char literal
        // always closes. `'\''` and `'\u{…}'` have escapes.
        if c == '\'' {
            if i + 1 < n && is_ident_start(b[i + 1]) {
                // Scan the ident; decide by what follows.
                let mut j = i + 1;
                while j < n && is_ident_cont(b[j]) {
                    j += 1;
                }
                if j < n && b[j] == '\'' && j == i + 2 {
                    // 'x' — single ident char then quote: char literal.
                    push!(TokKind::Char, b[i + 1..j].iter().collect(), line);
                    i = j + 1;
                } else {
                    // Lifetime ('a, 'static) — multi-char idents followed
                    // by `'` (as in 'ab') cannot be char literals.
                    push!(TokKind::Lifetime, b[i + 1..j].iter().collect(), line);
                    i = j;
                }
                continue;
            }
            // Escaped or punctuation char literal.
            let (body, ni) = lex_char_from(&b, i);
            push!(TokKind::Char, body, line);
            i = ni;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < n {
                let d = b[i];
                if is_ident_cont(d) {
                    i += 1;
                } else if d == '.' && i + 1 < n && b[i + 1].is_ascii_digit() {
                    // `1.5` but not `1..n` (range) or `1.method()`.
                    i += 1;
                } else {
                    break;
                }
            }
            push!(TokKind::Num, b[start..i].iter().collect(), line);
            continue;
        }
        // Delimiters.
        if matches!(c, '(' | '[' | '{') {
            push!(TokKind::Open, c.to_string(), line);
            i += 1;
            continue;
        }
        if matches!(c, ')' | ']' | '}') {
            push!(TokKind::Close, c.to_string(), line);
            i += 1;
            continue;
        }
        // Joined operators, longest first.
        let mut joined = false;
        for op in JOINED {
            let oc: Vec<char> = op.chars().collect();
            if i + oc.len() <= n && b[i..i + oc.len()] == oc[..] {
                push!(TokKind::Punct, op.to_string(), line);
                i += oc.len();
                joined = true;
                break;
            }
        }
        if joined {
            continue;
        }
        push!(TokKind::Punct, c.to_string(), line);
        i += 1;
    }
    out
}

fn marker_of(comment: &str) -> Option<Marker> {
    // The marker must lead the comment (`// dd:hot — gmres inner loop`
    // is fine); prose *mentioning* a marker, like this sentence, is not
    // a marker.
    let t = comment.trim_start_matches(['/', '!', '*']).trim_start();
    if t.starts_with("dd:hot") {
        Some(Marker::Hot)
    } else if t.starts_with("dd:cold") {
        Some(Marker::Cold)
    } else {
        None
    }
}

/// Lex a string literal starting at `b[i]` (which is `"` or, for raw
/// strings, the first `#` or `"`). Returns (body, newlines-consumed,
/// next-index).
fn lex_string_from(b: &[char], mut i: usize, raw: bool) -> (String, u32, usize) {
    let n = b.len();
    let mut newlines = 0u32;
    let mut hashes = 0usize;
    if raw {
        while i < n && b[i] == '#' {
            hashes += 1;
            i += 1;
        }
    }
    debug_assert!(i >= n || b[i] == '"');
    i += 1; // opening quote
    let start = i;
    while i < n {
        let c = b[i];
        if c == '\n' {
            newlines += 1;
        }
        if !raw && c == '\\' && i + 1 < n {
            i += 2;
            continue;
        }
        if c == '"' {
            if hashes == 0 {
                return (b[start..i].iter().collect(), newlines, i + 1);
            }
            // Need exactly `hashes` trailing #s to close.
            let mut k = i + 1;
            let mut seen = 0usize;
            while k < n && b[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (b[start..i].iter().collect(), newlines, k);
            }
        }
        i += 1;
    }
    (b[start..n].iter().collect(), newlines, n)
}

/// Lex a char/byte-char literal starting at the opening `'`.
fn lex_char_from(b: &[char], i: usize) -> (String, usize) {
    let n = b.len();
    let mut j = i + 1;
    while j < n {
        if b[j] == '\\' && j + 1 < n {
            j += 2;
            continue;
        }
        if b[j] == '\'' {
            return (b[i + 1..j].iter().collect(), j + 1);
        }
        if j > i + 24 || b[j] == '\n' {
            break; // malformed; bail as a lone quote
        }
        j += 1;
    }
    (String::new(), i + 1)
}

/// Parse a needle like `Instant::now`, `.unwrap()`, `format!`,
/// `RetryPolicy::unbounded` into a token pattern for [`find_pattern`].
/// Needles are lexed with the same lexer, so matching is token-exact:
/// `Mutex::new` will not match `SyncMutex::new`, and nothing matches
/// inside string literals or comments.
pub fn needle(pat: &str) -> Vec<Tok> {
    lex(pat).toks
}

/// Find every occurrence of the token pattern `pat` in `toks`, returning
/// the index of the first matched token. Ident tokens must match whole
/// (token-boundary anchoring comes free with the lexer).
pub fn find_pattern(toks: &[Tok], pat: &[Tok]) -> Vec<usize> {
    let mut out = Vec::new();
    if pat.is_empty() || toks.len() < pat.len() {
        return out;
    }
    'outer: for s in 0..=toks.len() - pat.len() {
        for (k, p) in pat.iter().enumerate() {
            let t = &toks[s + k];
            if t.kind != p.kind || t.text != p.text {
                continue 'outer;
            }
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let got = kinds("let x = a.b::<u64>(1_000u64) + 0x1f;");
        assert!(got.contains(&(TokKind::Ident, "let".into())));
        assert!(got.contains(&(TokKind::Punct, "::".into())));
        assert!(got.contains(&(TokKind::Num, "1_000u64".into())));
        assert!(got.contains(&(TokKind::Num, "0x1f".into())));
    }

    #[test]
    fn raw_string_bodies_are_literals_not_code() {
        // The old scanner's failure mode: a rule substring inside a raw
        // string body must never appear as Ident tokens.
        let lx = lex("let s = r#\"Instant::now \" still inside\"#; f();");
        assert!(!lx.toks.iter().any(|t| t.is_ident("Instant")));
        let body = lx
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("one string token");
        assert_eq!(body.text, "Instant::now \" still inside");
        assert!(lx.toks.iter().any(|t| t.is_ident("f")));
    }

    #[test]
    fn raw_strings_with_more_hashes_and_prefixes() {
        let lx = lex(r####"let a = r##"x "# y"##; let b = br#"bytes"#; let c = b"esc\"q";"####);
        let strs: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, [r##"x "# y"##, "bytes", "esc\\\"q"]);
    }

    #[test]
    fn nested_block_comments_are_dropped() {
        let lx = lex("a /* outer /* Instant::now */ still comment */ b");
        let idents: Vec<&str> = lx.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, ["a", "b"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let lx = lex("fn f<'a>(x: &'a str) { let c = ':'; let d = '\\n'; let s = 'static; }");
        let lifetimes: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "static"]);
        let chars: Vec<&str> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, [":", "\\n"]);
    }

    #[test]
    fn raw_identifiers() {
        let lx = lex("let r#type = 1; let r#fn = 2;");
        assert!(lx.toks.iter().any(|t| t.is_ident("type")));
        assert!(lx.toks.iter().any(|t| t.is_ident("fn")));
        assert!(lx.toks.iter().all(|t| t.kind != TokKind::Str));
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let lx = lex("let a = \"two\nlines\";\nlet b = 1;\n");
        let b_tok = lx.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn markers_are_recorded_with_lines() {
        let lx = lex("// dd:hot\nfn f() {\n  // dd:cold\n  g();\n}\n");
        assert_eq!(lx.markers, vec![(1, Marker::Hot), (3, Marker::Cold)]);
    }

    #[test]
    fn token_patterns_anchor_on_token_boundaries() {
        let toks = lex("SyncMutex::new(x); Mutex::new(y); s.unwrap(); // Mutex::new\n").toks;
        let pat = needle("Mutex::new");
        let hits = find_pattern(&toks, &pat);
        assert_eq!(hits.len(), 1);
        assert_eq!(toks[hits[0]].line, 1);
        // `.unwrap()` as punct+ident+parens.
        assert_eq!(find_pattern(&toks, &needle(".unwrap()")).len(), 1);
    }

    #[test]
    fn pattern_never_matches_inside_string_literals() {
        let toks = lex("let msg = \"call Instant::now here\"; let x = 1;").toks;
        assert!(find_pattern(&toks, &needle("Instant::now")).is_empty());
    }
}
