//! Item-level parsing on top of the lexer: `fn` discovery with
//! `impl`/`trait` ownership and body extents — the front end of the
//! interprocedural lock-effect analysis ([`crate::callgraph`],
//! [`crate::lockflow`]).
//!
//! The input is always the `code` view of [`crate::lexer::scan`]:
//! comments and string literals are already blanked, so brace counting
//! and keyword matching cannot be fooled by either. There is no `syn`
//! and no `rustc` — the grammar subset is exactly what this
//! rustfmt-formatted workspace uses. [`parse`] returns `None` for
//! input it cannot model (unbalanced braces); the lock-flow pass then
//! reports a server file as unchecked.

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` target (last path segment, generics stripped)
    /// or `trait` name; `None` for free functions.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte span of the signature text, from `fn` to the body brace or
    /// terminating semicolon (exclusive).
    pub sig: (usize, usize),
    /// Byte span of the body *contents* (between the braces), or
    /// `None` for bodiless declarations (trait methods, externs).
    pub body: Option<(usize, usize)>,
}

/// Byte offsets of each line start; maps offsets back to 1-based lines.
#[derive(Debug)]
pub struct LineMap {
    starts: Vec<usize>,
}

impl LineMap {
    /// Builds the line table for `code`.
    pub fn new(code: &str) -> Self {
        let mut starts = vec![0];
        for (i, b) in code.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineMap { starts }
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds the matching `}` for the `{` at `open`. `None` if unbalanced.
fn match_brace(bytes: &[u8], open: usize) -> Option<usize> {
    debug_assert_eq!(bytes[open], b'{');
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the implemented-on type from an `impl` header (the text
/// between the `impl` keyword and the block's `{`): the tail after the
/// last ` for ` if present (trait impls), else the text after leading
/// generics. Only the last path segment survives and generics are cut.
fn impl_owner(header: &str) -> Option<String> {
    let header = header.split(" where ").next().unwrap_or(header);
    let tail = match header.rfind(" for ") {
        Some(p) => &header[p + 5..],
        None => skip_generics(header.trim_start()),
    };
    first_type_name(tail)
}

/// Skips a leading `<...>` generic parameter list, tolerating `->`
/// inside `Fn() -> R` bounds.
fn skip_generics(text: &str) -> &str {
    let bytes = text.as_bytes();
    if bytes.first() != Some(&b'<') {
        return text;
    }
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return &text[i + 1..];
                }
            }
            _ => {}
        }
        i += 1;
    }
    text
}

/// The first plain type name in `text`: strips references, `mut`,
/// `dyn`, leading path segments, and trailing generics.
fn first_type_name(text: &str) -> Option<String> {
    let mut t = text.trim_start_matches(|c: char| c == '&' || c.is_whitespace());
    loop {
        let next = t
            .strip_prefix("mut ")
            .or_else(|| t.strip_prefix("dyn "))
            .or_else(|| t.strip_prefix("'_ "));
        match next {
            Some(rest) => t = rest.trim_start(),
            None => break,
        }
    }
    let cut = t.find(['<', ' ', '{', '(']).unwrap_or(t.len());
    let path = &t[..cut];
    path.rsplit("::")
        .next()
        .filter(|s| {
            !s.is_empty()
                && s.bytes().next().is_some_and(is_ident_start)
                && s.bytes().all(is_ident_char)
        })
        .map(str::to_string)
}

/// The trait's name from a `trait` header (text after the keyword).
fn trait_name(header: &str) -> Option<String> {
    let t = header.trim_start();
    let end = t.bytes().position(|b| !is_ident_char(b)).unwrap_or(t.len());
    let name = &t[..end];
    (!name.is_empty() && is_ident_start(name.as_bytes()[0])).then(|| name.to_string())
}

/// Parses blanked source into its `fn` items, or `None` if the brace
/// structure cannot be modeled (the lock-flow pass then reports a
/// server file as unchecked).
pub fn parse(code: &str) -> Option<Vec<FnItem>> {
    let bytes = code.as_bytes();
    let lines = LineMap::new(code);
    let mut fns = Vec::new();
    // Owner context: (brace depth the block opened at, owner name).
    let mut owners: Vec<(usize, Option<String>)> = Vec::new();
    let mut pending_owner: Option<Option<String>> = None;
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'{' {
            depth += 1;
            if let Some(owner) = pending_owner.take() {
                owners.push((depth, owner));
            }
            i += 1;
            continue;
        }
        if b == b'}' {
            if depth == 0 {
                return None;
            }
            while owners.last().is_some_and(|(d, _)| *d == depth) {
                owners.pop();
            }
            depth -= 1;
            i += 1;
            continue;
        }
        if !is_ident_start(b) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        match &code[start..i] {
            "macro_rules" => {
                // Skip the whole definition: matcher fragments contain
                // `fn`-shaped tokens that are not items.
                let Some(rel) = code[i..].find('{') else {
                    continue;
                };
                let close = match_brace(bytes, i + rel)?;
                i = close + 1;
            }
            kw @ ("impl" | "trait") => {
                // Find the block open; the header text in between names
                // the owner. (`impl` inside fn signatures never reaches
                // here — signatures are consumed below.)
                let Some(rel) = code[i..].find(['{', ';']) else {
                    continue;
                };
                if bytes[i + rel] == b'{' {
                    let header = &code[i..i + rel];
                    pending_owner = Some(if kw == "impl" {
                        impl_owner(header)
                    } else {
                        trait_name(header)
                    });
                }
                // The walk continues over the header; the next `{`
                // consumes `pending_owner`.
            }
            "fn" => {
                // `fn(` with no name is a fn-pointer type, not an item.
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j >= bytes.len() || !is_ident_start(bytes[j]) {
                    continue;
                }
                let name_start = j;
                while j < bytes.len() && is_ident_char(bytes[j]) {
                    j += 1;
                }
                let name = code[name_start..j].to_string();
                // Scan the signature for the body `{` or a terminating
                // `;`, tracking paren/bracket nesting so default
                // argument-position braces can't confuse us. Generic
                // bounds like `Fn() -> T` carry no braces in this tree.
                let mut k = j;
                let mut nest = 0i32;
                let mut body_open = None;
                while k < bytes.len() {
                    match bytes[k] {
                        b'(' | b'[' => nest += 1,
                        b')' | b']' => nest -= 1,
                        b'{' if nest == 0 => {
                            body_open = Some(k);
                            break;
                        }
                        b';' if nest == 0 => break,
                        b'}' if nest == 0 => break, // malformed; bail out
                        _ => {}
                    }
                    k += 1;
                }
                let owner = owners.last().and_then(|(_, o)| o.clone());
                let line = lines.line_of(start);
                match body_open {
                    Some(open) => {
                        let close = match_brace(bytes, open)?;
                        fns.push(FnItem {
                            name,
                            owner,
                            line,
                            sig: (start, open),
                            body: Some((open + 1, close)),
                        });
                        // Re-enter at the brace so nested items inside
                        // the body are discovered by this same walk.
                        i = open;
                    }
                    None => {
                        fns.push(FnItem {
                            name,
                            owner,
                            line,
                            sig: (start, k.min(bytes.len())),
                            body: None,
                        });
                        i = k.min(bytes.len());
                    }
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return None;
    }
    Some(fns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn items(src: &str) -> Vec<FnItem> {
        parse(&lexer::scan(src).code).expect("parseable")
    }

    #[test]
    fn finds_free_and_method_fns() {
        let src = "fn free(a: u32) -> u32 { a }\n\
                   struct S;\n\
                   impl S {\n    fn method(&self) {}\n}\n\
                   impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n";
        let fns = items(src);
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "free");
        assert_eq!(fns[0].owner, None);
        assert_eq!(fns[1].name, "method");
        assert_eq!(fns[1].owner.as_deref(), Some("S"));
        assert_eq!(fns[2].name, "clone");
        assert_eq!(fns[2].owner.as_deref(), Some("S"));
    }

    #[test]
    fn generic_impl_and_trait_owners() {
        let src = "impl<T: Clone> Wrapper<T> {\n    fn get(&self) {}\n}\n\
                   trait Probe {\n    fn inspect(&self);\n    fn both(&self) -> u32 { 1 }\n}\n";
        let fns = items(src);
        assert_eq!(fns[0].owner.as_deref(), Some("Wrapper"));
        assert_eq!(fns[1].name, "inspect");
        assert_eq!(fns[1].owner.as_deref(), Some("Probe"));
        assert!(fns[1].body.is_none(), "trait decl has no body");
        assert!(fns[2].body.is_some(), "default method has a body");
    }

    #[test]
    fn nested_fns_and_modules() {
        let src = "mod inner {\n    pub fn helper() {\n        fn local() {}\n        local();\n    }\n}\n";
        let fns = items(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "helper");
        assert_eq!(fns[0].owner, None, "mod does not set an owner");
        assert_eq!(fns[1].name, "local");
        assert_eq!(fns[1].line, 3);
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "macro_rules! m {\n    () => { fn phantom() {} };\n}\nfn real() {}\n";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
        assert_eq!(fns[0].line, 4);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn takes(cb: fn(u32) -> u32) -> u32 { cb(1) }\n";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "takes");
    }

    #[test]
    fn unbalanced_braces_fail_the_parse() {
        assert!(parse("fn broken() { {\n").is_none());
        assert!(parse("fn broken() {}\n}\n").is_none());
    }

    #[test]
    fn impl_owner_strips_paths_and_generics() {
        assert_eq!(
            impl_owner(" Display for ShardedVec<T> ").as_deref(),
            Some("ShardedVec")
        );
        assert_eq!(
            impl_owner("<T> crate::shard::LeafLock<T> ").as_deref(),
            Some("LeafLock")
        );
        assert_eq!(impl_owner(" Server ").as_deref(), Some("Server"));
        assert_eq!(
            impl_owner("<'a, F: Fn() -> u32> Runner<'a, F> ").as_deref(),
            Some("Runner")
        );
    }
}
