//! A token-level Rust scanner: just enough lexing to separate *code*
//! from *comments and string literals* without a full parser (the
//! container is offline — no `syn`, no `rustc` internals).
//!
//! [`scan`] produces three views of a source file:
//!
//! * `code` — the source with every comment and string literal blanked
//!   to spaces, newlines preserved, so byte offsets and line numbers
//!   still line up. Forbidden-API rules search this text and can never
//!   be fooled by a pattern inside a string or a comment.
//! * `strings` — every string literal's *value* with the line it
//!   starts on. The metric-name rule checks these.
//! * `allows` — every `lint:allow(rule-a, rule-b)` marker found in a
//!   line comment, with its line. A marker suppresses matching
//!   violations on its own line and the line below it.
//!
//! Handled syntax: line comments, nested block comments, string
//! literals with escapes, raw strings (`r"…"`, `r#"…"#`, any hash
//! depth), byte/raw-byte strings, and character literals — including
//! the `'a'`-vs-`'a` lifetime ambiguity.

/// One string literal: the line it starts on (1-based) and its raw
/// value (escape sequences are *not* processed — metric names contain
/// none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    /// 1-based line the opening quote is on.
    pub line: usize,
    /// The literal's contents, between the quotes, unprocessed.
    pub value: String,
}

/// One `lint:allow(...)` marker with its justification text — the
/// waiver-report and stale-waiver surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowMarker {
    /// 1-based line the marker is on.
    pub line: usize,
    /// The rule ids named inside the parentheses.
    pub rules: Vec<String>,
    /// The free text after the closing paren (leading `:` stripped) —
    /// the human justification for the waiver.
    pub note: String,
}

/// The views of a scanned source file; see the module docs.
#[derive(Debug, Default)]
pub struct Scan {
    /// Source with comments and string literals blanked to spaces.
    pub code: String,
    /// Every string literal with its starting line.
    pub strings: Vec<StrLit>,
    /// `(line, rule)` pairs from `lint:allow(...)` comment markers.
    pub allows: Vec<(usize, String)>,
    /// The same markers, one entry per marker, with justification text.
    pub markers: Vec<AllowMarker>,
}

impl Scan {
    /// Whether `rule` is suppressed at `line` (marker on the same line
    /// or the line above).
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
    }
}

/// Scans `source`, producing blanked code, string literals, and
/// `lint:allow` markers. Never fails: unterminated constructs simply
/// run to end of input.
pub fn scan(source: &str) -> Scan {
    let bytes = source.as_bytes();
    let mut code: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut strings = Vec::new();
    let mut allows = Vec::new();
    let mut markers = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    // True when the previous code byte could end an identifier — used
    // to tell a raw-string prefix (`r"`) from an identifier that merely
    // ends in `r` (`for var in …; var"` cannot occur, but `attr r"x"`
    // vs `myvar r` must not mislex).
    let mut prev_ident = false;

    // Pushes a blanked byte: newlines survive, everything else spaces.
    fn blank_into(code: &mut Vec<u8>, b: u8) {
        code.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let text = &source[start..i];
                collect_allows(text, line, &mut allows, &mut markers);
                code.extend(std::iter::repeat_n(b' ', i - start));
                prev_ident = false;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1usize;
                blank_into(&mut code, bytes[i]);
                blank_into(&mut code, bytes[i + 1]);
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        blank_into(&mut code, bytes[i]);
                        blank_into(&mut code, bytes[i + 1]);
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        blank_into(&mut code, bytes[i]);
                        blank_into(&mut code, bytes[i + 1]);
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        blank_into(&mut code, bytes[i]);
                        i += 1;
                    }
                }
                prev_ident = false;
            }
            b'"' => {
                let (value, consumed, newlines) = lex_string(&source[i..]);
                strings.push(StrLit { line, value });
                for &sb in &bytes[i..i + consumed] {
                    blank_into(&mut code, sb);
                }
                line += newlines;
                i += consumed;
                prev_ident = false;
            }
            b'r' | b'b' if !prev_ident && starts_raw_or_byte_string(&source[i..]) => {
                let (value, consumed, newlines) = lex_raw_or_byte(&source[i..]);
                strings.push(StrLit { line, value });
                for &sb in &bytes[i..i + consumed] {
                    blank_into(&mut code, sb);
                }
                line += newlines;
                i += consumed;
                prev_ident = false;
            }
            b'\'' => {
                // Char literal or lifetime. A char literal is `'` +
                // (escape | one char) + `'`; anything else is a
                // lifetime/label and stays as code.
                if let Some(consumed) = char_literal_len(&source[i..]) {
                    for &sb in &bytes[i..i + consumed] {
                        blank_into(&mut code, sb);
                    }
                    i += consumed;
                } else {
                    code.push(b);
                    i += 1;
                }
                prev_ident = false;
            }
            _ => {
                if b == b'\n' {
                    line += 1;
                }
                code.push(b);
                prev_ident = b == b'_' || b.is_ascii_alphanumeric();
                i += 1;
            }
        }
    }

    Scan {
        // The blanked text replaces multi-byte UTF-8 only inside
        // comments/strings (each byte becomes one space), so this is
        // always valid ASCII-compatible UTF-8.
        code: String::from_utf8_lossy(&code).into_owned(),
        strings,
        allows,
        markers,
    }
}

/// Parses every `lint:allow(a, b): why` marker in a line comment's
/// text, recording both the flat `(line, rule)` pairs and the full
/// marker with its justification note.
fn collect_allows(
    comment: &str,
    line: usize,
    out: &mut Vec<(usize, String)>,
    markers: &mut Vec<AllowMarker>,
) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { return };
        let mut rules = Vec::new();
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push((line, rule.to_string()));
                rules.push(rule.to_string());
            }
        }
        rest = &rest[close + 1..];
        if !rules.is_empty() {
            // The justification runs to the next marker, if any.
            let note_end = rest.find("lint:allow(").unwrap_or(rest.len());
            let note = rest[..note_end].trim_start_matches(':').trim().to_string();
            markers.push(AllowMarker { line, rules, note });
        }
    }
}

/// Lexes a normal `"…"` string starting at the opening quote. Returns
/// (value, bytes consumed, newlines crossed).
fn lex_string(s: &str) -> (String, usize, usize) {
    let bytes = s.as_bytes();
    let mut i = 1;
    let mut newlines = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return (s[1..i].to_string(), i + 1, newlines),
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (s[1..].to_string(), bytes.len(), newlines)
}

/// Whether the text starts a raw string (`r"`, `r#"`), byte string
/// (`b"`), or raw byte string (`br"`, `br#"`).
fn starts_raw_or_byte_string(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if b[0] == b'b' {
        i = 1;
    }
    if i < b.len() && b[i] == b'r' {
        i += 1;
        while i < b.len() && b[i] == b'#' {
            i += 1;
        }
    }
    i > 0 && i < b.len() && b[i] == b'"'
}

/// Lexes a raw/byte string; see [`starts_raw_or_byte_string`].
fn lex_raw_or_byte(s: &str) -> (String, usize, usize) {
    let bytes = s.as_bytes();
    let mut i = 0;
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = i < bytes.len() && bytes[i] == b'r';
    if raw {
        i += 1;
    }
    let mut hashes = 0;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    // Opening quote.
    i += 1;
    let content_start = i;
    let mut newlines = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if !raw => i += 2,
            b'"' => {
                // A raw string closes only on `"` followed by the same
                // number of hashes.
                if bytes[i + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == b'#')
                    .count()
                    == hashes
                {
                    let value = s[content_start..i].to_string();
                    return (value, i + 1 + hashes, newlines);
                }
                i += 1;
            }
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (s[content_start..].to_string(), bytes.len(), newlines)
}

/// If the text starting at `'` is a character literal, its byte
/// length; `None` for lifetimes and loop labels.
fn char_literal_len(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    if bytes.len() < 3 {
        return None;
    }
    if bytes[1] == b'\\' {
        // Escape: find the closing quote.
        let mut i = 2;
        // Skip the escaped character (handles \', \\, \n, \u{...}).
        if i < bytes.len() && bytes[i] == b'u' {
            while i < bytes.len() && bytes[i] != b'\'' {
                i += 1;
            }
            return (i < bytes.len()).then_some(i + 1);
        }
        i += 1;
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
        return (i < bytes.len()).then_some(i + 1);
    }
    // Unescaped: `'x'` where x is any single char (may be multi-byte).
    let mut chars = s[1..].char_indices();
    let (_, _first) = chars.next()?;
    let (next_idx, next) = chars.next()?;
    (next == '\'').then_some(1 + next_idx + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"server.fake\"; // trailing .unwrap()\nlet y = 2; /* .expect( */";
        let scan = scan(src);
        assert!(!scan.code.contains("server.fake"));
        assert!(!scan.code.contains(".unwrap()"));
        assert!(!scan.code.contains(".expect("));
        assert!(scan.code.contains("let x ="));
        assert!(scan.code.contains("let y = 2;"));
        assert_eq!(scan.strings.len(), 1);
        assert_eq!(scan.strings[0].value, "server.fake");
        assert_eq!(scan.strings[0].line, 1);
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "/* a\nb */\nlet s = \"x\ny\";\nlet t = \"z\";";
        let scan = scan(src);
        assert_eq!(scan.strings[0].line, 3);
        assert_eq!(scan.strings[0].value, "x\ny");
        assert_eq!(scan.strings[1].line, 5);
        // Newlines survive blanking, so code line count matches source.
        assert_eq!(scan.code.lines().count(), src.lines().count());
    }

    #[test]
    fn nested_block_comments() {
        let scan = scan("a /* outer /* inner */ still */ b");
        assert!(scan.code.contains('a'));
        assert!(scan.code.contains('b'));
        assert!(!scan.code.contains("inner"));
        assert!(!scan.code.contains("still"));
    }

    #[test]
    fn raw_strings_and_hash_depth() {
        let scan = scan("let p = r#\"say \"hi\" now\"#; let q = r\"plain\";");
        assert_eq!(scan.strings[0].value, "say \"hi\" now");
        assert_eq!(scan.strings[1].value, "plain");
        assert!(!scan.code.contains("say"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let scan = scan("let var = 1; let x = var; let s = r\"raw\";");
        assert_eq!(scan.strings.len(), 1);
        assert_eq!(scan.strings[0].value, "raw");
        assert!(scan.code.contains("let x = var;"));
    }

    #[test]
    fn char_literals_versus_lifetimes() {
        let scan = scan("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        // Lifetimes stay in code; char literals are blanked.
        assert!(scan.code.contains("<'a>"));
        assert!(scan.code.contains("&'a str"));
        assert!(!scan.code.contains("'x'"));
        assert_eq!(scan.strings.len(), 0);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let scan = scan(r#"let s = "a\"b"; let t = "c";"#);
        assert_eq!(scan.strings[0].value, r#"a\"b"#);
        assert_eq!(scan.strings[1].value, "c");
    }

    #[test]
    fn allow_markers_are_collected_and_scoped() {
        let src = "x(); // lint:allow(no-unwrap-hot-path, dead-metric)\ny();\nz();";
        let scan = scan(src);
        assert!(scan.allowed("no-unwrap-hot-path", 1), "same line");
        assert!(scan.allowed("no-unwrap-hot-path", 2), "line below");
        assert!(!scan.allowed("no-unwrap-hot-path", 3), "two lines below");
        assert!(scan.allowed("dead-metric", 1));
        assert!(!scan.allowed("no-std-sync", 1), "unlisted rule");
    }
}
