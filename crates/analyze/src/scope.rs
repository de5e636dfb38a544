//! Source classification: which file class a path falls in, which token
//! ranges are test-gated, and which function encloses a token.
//!
//! The rules need three kinds of context the raw token stream does not
//! carry:
//!
//! * **file class** — library code (`src/`, `crates/*/src/` excluding
//!   `src/bin/`) versus tests, examples, benches, and binaries, plus the
//!   one special file (`crates/core/src/kernel.rs`) where `unsafe` and
//!   architecture intrinsics are allowed to live;
//! * **test spans** — token ranges under `#[cfg(test)]` / `#[test]`,
//!   exempt from the library-surface rules;
//! * **function spans** — the innermost named `fn` containing a token.

use crate::lexer::{Token, TokenKind};

/// Path-derived classification of one file.
#[derive(Clone, Copy, Debug)]
pub struct FileClass {
    /// The file is `crates/core/src/kernel.rs`, the one module where
    /// `unsafe` and architecture intrinsics are permitted.
    pub is_kernel: bool,
    /// The file is library-surface code: under `src/` or `crates/*/src/`,
    /// excluding `src/bin/` binary targets.
    pub is_library: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let is_kernel =
        path == "crates/core/src/kernel.rs" || path.ends_with("/crates/core/src/kernel.rs");
    let in_crate_src = path.starts_with("crates/") && path.contains("/src/");
    let in_root_src = path.starts_with("src/");
    let is_bin = path.contains("/src/bin/") || path.starts_with("src/bin/");
    FileClass {
        is_kernel,
        is_library: (in_crate_src || in_root_src) && !is_bin,
    }
}

/// A named function's token span (`start..end`, token indexes).
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index of the `fn` keyword token.
    pub start: usize,
    /// One past the index of the body's closing brace.
    pub end: usize,
}

/// Token-range classification computed once per file.
#[derive(Debug, Default)]
pub struct Scopes {
    test_spans: Vec<(usize, usize)>,
    fns: Vec<FnSpan>,
}

impl Scopes {
    /// Computes test-gated and function spans for a token stream.
    pub fn compute(tokens: &[Token]) -> Scopes {
        Scopes {
            test_spans: test_spans(tokens),
            fns: fn_spans(tokens),
        }
    }

    /// True if the token at `idx` is inside `#[cfg(test)]`/`#[test]` code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| idx >= start && idx < end)
    }

    /// The innermost named function containing the token at `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| idx >= f.start && idx < f.end)
            .min_by_key(|f| f.end - f.start)
    }

    /// All function spans in the file, in source order.
    pub fn fns(&self) -> &[FnSpan] {
        &self.fns
    }
}

/// Finds the index one past the bracket that closes the one at `open`,
/// counting only the given delimiter pair. Returns `tokens.len()` when
/// unbalanced (malformed input never panics the analyzer).
fn matching(tokens: &[Token], open: usize, open_ch: char, close_ch: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct(open_ch) {
            depth += 1;
        } else if tokens[i].is_punct(close_ch) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// True if the attribute token range (inside `#[ … ]`) gates test code:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]`, which gates *non*-test code.
fn attr_gates_test(idents: &[&str]) -> bool {
    if idents == ["test"] {
        return true;
    }
    idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not")
}

fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let attr_end = matching(tokens, i + 1, '[', ']');
        let idents: Vec<&str> = tokens[i + 2..attr_end.saturating_sub(1)]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        if !attr_gates_test(&idents) {
            i = attr_end;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end;
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            j = matching(tokens, j + 1, '[', ']');
        }
        // The gated item runs to its body's closing brace, or to the `;`
        // of a bodiless item. Delimiter depth keeps a `;` inside
        // `[u8; 4]` or a nested block from ending the span early.
        let mut depth = 0usize;
        let mut end = tokens.len();
        let mut k = j;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = k + 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                end = k + 1;
                break;
            }
            k += 1;
        }
        spans.push((attr_start, end));
        i = end;
    }
    spans
}

fn fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_fn_item = tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .map(|t| t.kind == TokenKind::Ident)
                .unwrap_or(false);
        if !is_fn_item {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        // Scan the signature for the body `{` (or a `;` for a bodiless
        // trait method), tracking paren/bracket depth so array types like
        // `[u8; 4]` in parameters cannot end the item early.
        let mut depth = 0usize;
        let mut j = i + 2;
        let mut body_open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct('{') && depth == 0 {
                body_open = Some(j);
                break;
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
            j += 1;
        }
        if let Some(open) = body_open {
            let end = matching(tokens, open, '{', '}');
            fns.push(FnSpan {
                name,
                start: i,
                end,
            });
            // Continue *inside* the body so nested fns are recorded too.
            i += 2;
        } else {
            i = j + 1;
        }
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classifies_paths() {
        assert!(classify("crates/core/src/kernel.rs").is_kernel);
        assert!(classify("crates/core/src/index.rs").is_library);
        assert!(classify("src/lib.rs").is_library);
        assert!(!classify("crates/bench/src/bin/fig3.rs").is_library);
        assert!(!classify("tests/end_to_end.rs").is_library);
        assert!(!classify("examples/quickstart.rs").is_library);
        assert!(!classify("crates/bench/benches/mr_kernel.rs").is_library);
    }

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        let lexed = lex(src);
        let scopes = Scopes::compute(&lexed.tokens);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(scopes.in_test(unwrap_idx));
        let lib_idx = lexed.tokens.iter().position(|t| t.is_ident("lib")).unwrap();
        assert!(!scopes.in_test(lib_idx));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\nfn real() { x.unwrap(); }\n";
        let lexed = lex(src);
        let scopes = Scopes::compute(&lexed.tokens);
        let idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(!scopes.in_test(idx));
    }

    #[test]
    fn test_attr_with_stacked_attributes() {
        let src = "#[test]\n#[ignore]\nfn t() { x.unwrap(); }\nfn real() {}\n";
        let lexed = lex(src);
        let scopes = Scopes::compute(&lexed.tokens);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(scopes.in_test(unwrap_idx));
        let real_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("real"))
            .unwrap();
        assert!(!scopes.in_test(real_idx));
    }

    #[test]
    fn enclosing_fn_finds_innermost() {
        let src = "fn outer() { fn inner() { let x = 1; } }";
        let lexed = lex(src);
        let scopes = Scopes::compute(&lexed.tokens);
        let x_idx = lexed.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        assert_eq!(
            scopes.enclosing_fn(x_idx).map(|f| f.name.as_str()),
            Some("inner")
        );
    }

    #[test]
    fn fn_pointer_types_are_not_fn_items() {
        let src = "type F = fn(u32) -> u32; fn real() {}";
        let lexed = lex(src);
        let scopes = Scopes::compute(&lexed.tokens);
        assert_eq!(scopes.fns().len(), 1);
        assert_eq!(scopes.fns()[0].name, "real");
    }

    #[test]
    fn array_params_do_not_truncate_the_span() {
        let src = "#[cfg(test)] fn t(x: [u8; 4]) { y.unwrap(); } fn real() { }";
        let lexed = lex(src);
        let scopes = Scopes::compute(&lexed.tokens);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(scopes.in_test(unwrap_idx));
        let real_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("real"))
            .unwrap();
        assert!(!scopes.in_test(real_idx));
    }
}
