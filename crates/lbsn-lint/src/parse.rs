//! Item-level parsing on top of the lexer: `fn` discovery with body
//! extents, which the `dead-metric` rule reads to find the builder
//! functions of the name registry.
//!
//! The input is always the `code` view of [`crate::lexer::scan`]:
//! comments and string literals are already blanked, so brace counting
//! and keyword matching cannot be fooled by either. There is no `syn`
//! and no `rustc` — the grammar subset is exactly what this
//! rustfmt-formatted workspace uses. [`parse`] returns `None` for
//! input it cannot model (unbalanced braces).

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Byte span of the body *contents* (between the braces), or
    /// `None` for bodiless declarations (trait methods, externs).
    pub body: Option<(usize, usize)>,
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

/// Parses blanked source into its `fn` items, or `None` if the brace
/// structure cannot be modeled.
pub fn parse(code: &str) -> Option<Vec<FnItem>> {
    let bytes = code.as_bytes();
    let mut fns = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'{' {
            depth += 1;
            i += 1;
            continue;
        }
        if b == b'}' {
            depth = depth.checked_sub(1)?;
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
                match body_open {
                    Some(open) => {
                        let close = match_brace(bytes, open)?;
                        fns.push(FnItem {
                            name,
                            body: Some((open + 1, close)),
                        });
                        // Re-enter at the brace so nested items inside
                        // the body are discovered by this same walk.
                        i = open;
                    }
                    None => {
                        fns.push(FnItem { name, body: None });
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

    fn names(src: &str) -> Vec<String> {
        items(src).into_iter().map(|f| f.name).collect()
    }

    #[test]
    fn finds_free_and_method_fns() {
        let src = "fn free(a: u32) -> u32 { a }\n\
                   struct S;\n\
                   impl S {\n    fn method(&self) {}\n}\n\
                   impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n";
        assert_eq!(names(src), ["free", "method", "clone"]);
        let fns = items(src);
        assert_eq!(&src[fns[0].body.unwrap().0..fns[0].body.unwrap().1], " a ");
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "trait Probe {\n    fn inspect(&self);\n    fn both(&self) -> u32 { 1 }\n}\n";
        let fns = items(src);
        assert_eq!(fns[0].name, "inspect");
        assert!(fns[0].body.is_none(), "trait decl has no body");
        assert!(fns[1].body.is_some(), "default method has a body");
    }

    #[test]
    fn nested_fns_and_modules() {
        let src = "mod inner {\n    pub fn helper() {\n        fn local() {}\n        local();\n    }\n}\n";
        assert_eq!(names(src), ["helper", "local"]);
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "macro_rules! m {\n    () => { fn phantom() {} };\n}\nfn real() {}\n";
        assert_eq!(names(src), ["real"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn takes(cb: fn(u32) -> u32) -> u32 { cb(1) }\n";
        assert_eq!(names(src), ["takes"]);
    }

    #[test]
    fn unbalanced_braces_fail_the_parse() {
        assert!(parse("fn broken() { {\n").is_none());
        assert!(parse("fn broken() {}\n}\n").is_none());
    }
}
