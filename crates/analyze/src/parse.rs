//! Layer 2 of the pipeline: a token-tree parser over the lexer.
//!
//! The lexer (layer 1) produces a flat, position-stamped token stream;
//! this module gives it *structure* without ever failing:
//!
//! * a **token tree** — `{}`/`()`/`[]` nesting as a forest of groups over
//!   token indexes, total on malformed input (an unmatched closer stays a
//!   leaf, an unmatched opener's group runs to end of file), and
//!   round-trippable: flattening the tree re-serializes the exact token
//!   stream the lexer produced;
//! * **item extraction** — `fn` items (with parsed parameter lists and
//!   body spans), `impl` blocks, and `mod` blocks, each with token-index
//!   spans;
//! * **statement segmentation** — the direct children of a `{}` group cut
//!   into statement spans at top-level `;` and after statement-ending
//!   `{}` groups (`if`/`match`/`loop` bodies), which the dataflow engine
//!   walks in source order;
//! * a **call-graph approximation** — every `name(...)` / `.name(...)`
//!   call site inside a function body, by callee name only (one level,
//!   intra-workspace; generic instantiations and trait dispatch are
//!   approximated by name identity).
//!
//! Generics are *not* delimiters here: `Vec<Vec<u64>>` lexes as plain
//! punctuation (`<`, `<`, `>`, `>`), so shift-vs-generics ambiguity
//! cannot unbalance the tree. Where the parser must skip a generic
//! parameter list (between a function's name and its parameter parens) it
//! counts angle brackets locally instead.

use crate::lexer::{Token, TokenKind};

/// One node of the token tree: a plain token or a delimited group.
#[derive(Debug)]
pub enum TokenTree {
    /// A single non-delimiter token (index into the lexed token stream).
    Leaf(usize),
    /// A `{}`/`()`/`[]` group.
    Group(Group),
}

/// A delimited group of the token tree.
#[derive(Debug)]
pub struct Group {
    /// The opening delimiter: `{`, `(`, or `[`.
    pub delim: char,
    /// Token index of the opening delimiter.
    pub open: usize,
    /// Token index of the closing delimiter, or `None` when the group is
    /// unterminated (runs to end of file).
    pub close: Option<usize>,
    /// Child nodes between the delimiters, in source order.
    pub children: Vec<TokenTree>,
}

fn closer_for(open: char) -> char {
    match open {
        '{' => '}',
        '(' => ')',
        _ => ']',
    }
}

/// Builds the token-tree forest for a token stream.
///
/// Total on malformed input: a closing delimiter with no matching opener
/// becomes a [`TokenTree::Leaf`]; an opener with no closer produces a
/// [`Group`] with `close: None` holding everything to end of file.
pub fn build_forest(tokens: &[Token]) -> Vec<TokenTree> {
    // Stack of (group-in-progress); the bottom pseudo-level collects the
    // forest roots.
    let mut stack: Vec<Group> = vec![Group {
        delim: ' ',
        open: usize::MAX,
        close: None,
        children: Vec::new(),
    }];
    for (i, token) in tokens.iter().enumerate() {
        let ch = if token.kind == TokenKind::Punct {
            token.text.chars().next().unwrap_or(' ')
        } else {
            ' '
        };
        match ch {
            '{' | '(' | '[' => stack.push(Group {
                delim: ch,
                open: i,
                close: None,
                children: Vec::new(),
            }),
            '}' | ')' | ']' => {
                let matches_top = stack
                    .last()
                    .map(|g| closer_for(g.delim) == ch)
                    .unwrap_or(false);
                if matches_top && stack.len() > 1 {
                    let mut group = match stack.pop() {
                        Some(group) => group,
                        None => continue, // unreachable: len > 1 checked
                    };
                    group.close = Some(i);
                    push_child(&mut stack, TokenTree::Group(group));
                } else {
                    // Unmatched closer: keep it as a leaf so the
                    // round-trip stays exact.
                    push_child(&mut stack, TokenTree::Leaf(i));
                }
            }
            _ => push_child(&mut stack, TokenTree::Leaf(i)),
        }
    }
    // Unterminated groups: fold them into their parents, closeless.
    while stack.len() > 1 {
        let group = match stack.pop() {
            Some(group) => group,
            None => break, // unreachable: len > 1 checked
        };
        push_child(&mut stack, TokenTree::Group(group));
    }
    stack.pop().map(|g| g.children).unwrap_or_default()
}

fn push_child(stack: &mut [Group], child: TokenTree) {
    if let Some(top) = stack.last_mut() {
        top.children.push(child);
    }
}

/// Flattens a forest back into token indexes, in source order.
///
/// For any forest built by [`build_forest`] this re-serializes the exact
/// token stream: `flatten(&build_forest(&t)) == [0, 1, …, t.len() - 1]`.
pub fn flatten(forest: &[TokenTree]) -> Vec<usize> {
    let mut out = Vec::new();
    flatten_into(forest, &mut out);
    out
}

fn flatten_into(forest: &[TokenTree], out: &mut Vec<usize>) {
    for node in forest {
        match node {
            TokenTree::Leaf(i) => out.push(*i),
            TokenTree::Group(g) => {
                out.push(g.open);
                flatten_into(&g.children, out);
                if let Some(close) = g.close {
                    out.push(close);
                }
            }
        }
    }
}

/// A parsed function parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// The binding name (first non-`mut`/`ref` identifier of the pattern).
    pub name: String,
    /// Token index of the name.
    pub name_idx: usize,
    /// True when the declared type contains a `[u8]` slice (`&[u8]`,
    /// `&mut &[u8]`, …) — the shape of every untrusted loader input.
    pub is_byte_slice: bool,
    /// True when the declared type names `Reader` (`&mut Reader<'_>`, …) —
    /// the bounded cursor decode helpers take.
    pub is_reader: bool,
}

/// What kind of item a span describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// A named `fn` item with its parameter list.
    Fn {
        /// The function name.
        name: String,
        /// Parsed parameters, in declaration order.
        params: Vec<Param>,
        /// Token index of the body's `{` (None for bodiless trait fns).
        body_open: Option<usize>,
    },
    /// An `impl` block (`name` is the implemented type's head identifier).
    Impl {
        /// Head identifier of the self type (e.g. `RlcIndex`).
        name: String,
    },
    /// A `mod` block or declaration.
    Mod {
        /// The module name.
        name: String,
    },
}

/// One extracted item with its token span.
#[derive(Clone, Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Token index of the introducing keyword (`fn`/`impl`/`mod`).
    pub start: usize,
    /// One past the token index of the item's closing brace (or `;`).
    pub end: usize,
}

/// A parsed file: the token tree plus extracted items.
#[derive(Debug, Default)]
pub struct ParseFile {
    /// The token-tree forest.
    pub forest: Vec<TokenTree>,
    /// All `fn`/`impl`/`mod` items, in source order (nested items appear
    /// after their parents).
    pub items: Vec<Item>,
}

/// Function items only, in source order.
impl ParseFile {
    /// Iterates the `fn` items of the file.
    pub fn fns(&self) -> impl Iterator<Item = (&Item, &str, &[Param], Option<usize>)> {
        self.items.iter().filter_map(|item| match &item.kind {
            ItemKind::Fn {
                name,
                params,
                body_open,
            } => Some((item, name.as_str(), params.as_slice(), *body_open)),
            _ => None,
        })
    }
}

/// Parses a token stream into its tree and item structure.
pub fn parse(tokens: &[Token]) -> ParseFile {
    let forest = build_forest(tokens);
    let mut items = Vec::new();
    extract_items(tokens, &mut items);
    ParseFile { forest, items }
}

/// Skips a generic parameter list starting at `<` (returns the index one
/// past the matching `>`). `>>` lexes as two `>` tokens, so plain angle
/// counting is exact; `(`/`)` inside bounds (e.g. `Fn(u32) -> u32`) do
/// not disturb the count because `->`'s `>` is always preceded by `-`,
/// which we detect by column adjacency.
fn skip_generics(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0isize;
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !glued_to_prev(tokens, i, '-') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// True when token `i` is glued (no whitespace) to a previous token whose
/// text is `prev` — used to tell `->` / `=>` / `>=` apart from bare `>`
/// and `=`, which the lexer emits as single punctuation characters.
pub fn glued_to_prev(tokens: &[Token], i: usize, prev: char) -> bool {
    if i == 0 {
        return false;
    }
    let p = &tokens[i - 1];
    let t = &tokens[i];
    p.kind == TokenKind::Punct
        && p.text.len() == prev.len_utf8()
        && p.text.starts_with(prev)
        && p.line == t.line
        && p.col + 1 == t.col
}

/// True when the token after `i` is glued (no whitespace) to token `i`
/// and is the punctuation `next` — `i` must be a single-char punct.
pub fn glued_to_next(tokens: &[Token], i: usize, next: char) -> bool {
    match tokens.get(i + 1) {
        Some(n) => n.is_punct(next) && n.line == tokens[i].line && n.col == tokens[i].col + 1,
        None => false,
    }
}

/// Index one past the token that closes the delimiter opened at `open`.
/// Returns `tokens.len()` when unbalanced.
pub fn matching(tokens: &[Token], open: usize, open_ch: char, close_ch: char) -> usize {
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

fn extract_items(tokens: &[Token], items: &mut Vec<Item>) {
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("fn")
            && tokens
                .get(i + 1)
                .map(|t| t.kind == TokenKind::Ident)
                .unwrap_or(false)
        {
            let (item, next) = parse_fn_item(tokens, i);
            items.push(item);
            // Continue *inside* the signature and body so nested items
            // (closures' inner fns, impls in fn bodies) are found too.
            i = next;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((item, _)) = parse_braced_item(tokens, i, "impl") {
                items.push(item);
            }
            i += 1;
            continue;
        }
        if t.is_ident("mod")
            && tokens
                .get(i + 1)
                .map(|t| t.kind == TokenKind::Ident)
                .unwrap_or(false)
        {
            if let Some((item, _)) = parse_braced_item(tokens, i, "mod") {
                items.push(item);
            }
            i += 1;
            continue;
        }
        i += 1;
    }
}

/// Parses a `fn` item starting at the `fn` keyword; returns the item and
/// the index to resume scanning from (just past the parameter list, so
/// nested items inside the body are still visited).
fn parse_fn_item(tokens: &[Token], fn_idx: usize) -> (Item, usize) {
    let name = tokens[fn_idx + 1].text.clone();
    let mut j = fn_idx + 2;
    if tokens.get(j).map(|t| t.is_punct('<')).unwrap_or(false) {
        j = skip_generics(tokens, j);
    }
    // Parameter list.
    let mut params = Vec::new();
    let mut after_params = j;
    if tokens.get(j).map(|t| t.is_punct('(')).unwrap_or(false) {
        let close = matching(tokens, j, '(', ')');
        params = parse_params(tokens, j + 1, close.saturating_sub(1));
        after_params = close;
    }
    // Scan past the return type / where clause for the body `{` or a
    // bodiless `;`, tracking paren/bracket depth so `[u8; 4]` defaults or
    // `Fn(A) -> B` bounds cannot end the item early.
    let mut depth = 0usize;
    let mut k = after_params;
    let mut body_open = None;
    let mut end = tokens.len();
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('{') && depth == 0 {
            body_open = Some(k);
            end = matching(tokens, k, '{', '}');
            break;
        } else if t.is_punct(';') && depth == 0 {
            end = k + 1;
            break;
        }
        k += 1;
    }
    (
        Item {
            kind: ItemKind::Fn {
                name,
                params,
                body_open,
            },
            start: fn_idx,
            end,
        },
        after_params.max(fn_idx + 2),
    )
}

/// Parses an `impl`/`mod` item: name is the first identifier after the
/// keyword (skipping generics for `impl<T>`), span runs to the matching
/// `}` of the first top-level `{` (or the `;` of `mod name;`).
fn parse_braced_item(tokens: &[Token], kw_idx: usize, kw: &str) -> Option<(Item, usize)> {
    let mut j = kw_idx + 1;
    if tokens.get(j).map(|t| t.is_punct('<')).unwrap_or(false) {
        j = skip_generics(tokens, j);
    }
    let name = tokens
        .iter()
        .skip(j)
        .take(24)
        .find(|t| t.kind == TokenKind::Ident && t.text != "mut" && t.text != "dyn")
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let mut depth = 0usize;
    let mut k = j;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('{') && depth == 0 {
            let end = matching(tokens, k, '{', '}');
            let kind = if kw == "impl" {
                ItemKind::Impl { name }
            } else {
                ItemKind::Mod { name }
            };
            return Some((
                Item {
                    kind,
                    start: kw_idx,
                    end,
                },
                k,
            ));
        } else if t.is_punct(';') && depth == 0 {
            let kind = if kw == "impl" {
                ItemKind::Impl { name }
            } else {
                ItemKind::Mod { name }
            };
            return Some((
                Item {
                    kind,
                    start: kw_idx,
                    end: k + 1,
                },
                k,
            ));
        }
        k += 1;
    }
    None
}

/// Splits a parameter-list token range on top-level commas and parses
/// each parameter's binding name and byte-slice-ness.
fn parse_params(tokens: &[Token], start: usize, end: usize) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut param_start = start;
    let mut i = start;
    let end = end.min(tokens.len());
    while i <= end {
        let at_end = i == end;
        let is_sep = !at_end && tokens[i].is_punct(',') && depth == 0;
        if !at_end {
            let t = &tokens[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            }
        }
        if is_sep || at_end {
            if let Some(param) = parse_one_param(tokens, param_start, i) {
                params.push(param);
            }
            param_start = i + 1;
        }
        if at_end {
            break;
        }
        i += 1;
    }
    params
}

fn parse_one_param(tokens: &[Token], start: usize, end: usize) -> Option<Param> {
    let range = &tokens[start..end.min(tokens.len())];
    if range.is_empty() {
        return None;
    }
    // Binding name: first identifier that is not a pattern keyword.
    let (offset, name_tok) = range.iter().enumerate().find(|(_, t)| {
        t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "box")
    })?;
    // The type follows the top-level `:` (absent for `self` receivers).
    let colon = range.iter().enumerate().position(|(i, t)| {
        t.is_punct(':') && !glued_to_prev(range, i, ':') && !glued_to_next(range, i, ':')
    });
    let ty = colon.map_or(&range[..0], |c| &range[c + 1..]);
    Some(Param {
        name: name_tok.text.clone(),
        name_idx: start + offset,
        is_byte_slice: type_is_byte_slice(ty),
        is_reader: ty.iter().any(|t| t.is_ident("Reader")),
    })
}

/// True when a type token sequence contains a `[u8]` slice.
fn type_is_byte_slice(ty: &[Token]) -> bool {
    ty.windows(3)
        .any(|w| w[0].is_punct('[') && w[1].is_ident("u8") && w[2].is_punct(']'))
}

/// A statement span inside a `{}` body: token indexes `start..end`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StmtSpan {
    /// Index of the statement's first token.
    pub start: usize,
    /// One past the statement's last token (includes a trailing `;`).
    pub end: usize,
    /// True when the statement begins with `let`.
    pub is_let: bool,
}

/// Segments the *direct* token range of a `{}` body (open/close exclusive)
/// into statements: a statement ends at a top-level `;`, or after a
/// top-level `{}` group that is not continued by `else`, an operator, or
/// method/field access (so `if c { … }` and `match x { … }` end
/// statements, while `let x = if c { 1 } else { 2 };` stays one).
pub fn statements(tokens: &[Token], open: usize, close: usize) -> Vec<StmtSpan> {
    let mut out = Vec::new();
    let close = close.min(tokens.len());
    let mut start = open + 1;
    let mut depth = 0usize;
    let mut i = start;
    while i < close {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('{') && depth == 0 {
            // Skip the whole nested group, then decide whether the
            // statement ends here.
            let group_end = matching(tokens, i, '{', '}');
            let continues = tokens
                .get(group_end)
                .map(|next| {
                    next.is_ident("else")
                        || (next.kind == TokenKind::Punct
                            && !matches!(
                                next.text.chars().next().unwrap_or(' '),
                                '{' | '}' | '(' | '[' // a new statement can open with these
                            )
                            && !next.is_punct('#'))
                })
                .unwrap_or(false);
            if continues {
                i = group_end;
                continue;
            }
            push_stmt(tokens, &mut out, start, group_end);
            // A trailing `;` after a block (`let x = … };` handled above;
            // bare `};` folds into the span) — consume it if present.
            start = group_end;
            i = group_end;
            continue;
        } else if t.is_punct('{') {
            // Inside parens/brackets: delimiter-matched, not a statement
            // boundary.
            let group_end = matching(tokens, i, '{', '}');
            i = group_end;
            continue;
        } else if t.is_punct(';') && depth == 0 {
            push_stmt(tokens, &mut out, start, i + 1);
            start = i + 1;
        }
        i += 1;
    }
    push_stmt(tokens, &mut out, start, close);
    out
}

fn push_stmt(tokens: &[Token], out: &mut Vec<StmtSpan>, start: usize, end: usize) {
    if start >= end {
        return;
    }
    let is_let = tokens
        .get(start)
        .map(|t| t.is_ident("let"))
        .unwrap_or(false);
    out.push(StmtSpan { start, end, is_let });
}

/// Keywords that look like calls when followed by `(` but are not.
const NOT_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "move", "let", "else",
    "unsafe", "impl", "where", "pub", "use", "mod", "crate", "super", "self", "Self", "dyn",
    "break", "continue", "ref", "mut", "await",
];

/// One call site: the callee's bare name and its token index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// The callee name (last path segment; method name for `.name(...)`).
    pub callee: String,
    /// Token index of the callee name.
    pub pos: usize,
}

/// Extracts call sites by callee name within `start..end`: `name(...)`,
/// `path::name(...)`, and `.name(...)`. Macro invocations (`name!(...)`)
/// and definitions (`fn name(...)`) are excluded.
pub fn call_sites(tokens: &[Token], start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let end = end.min(tokens.len());
    for i in start..end {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || NOT_CALLEES.contains(&t.text.as_str()) {
            continue;
        }
        let next_is_paren = tokens.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
        if !next_is_paren {
            continue;
        }
        if i > 0 && (tokens[i - 1].is_ident("fn") || tokens[i - 1].is_punct('!')) {
            continue;
        }
        out.push(CallSite {
            callee: t.text.clone(),
            pos: i,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn roundtrips(src: &str) {
        let lexed = lex(src);
        let forest = build_forest(&lexed.tokens);
        let flat = flatten(&forest);
        let expect: Vec<usize> = (0..lexed.tokens.len()).collect();
        assert_eq!(flat, expect, "round-trip failed for {src:?}");
    }

    #[test]
    fn forest_round_trips_nested_delimiters() {
        roundtrips("fn f(a: [u8; 4]) -> Vec<Vec<u64>> { if x { y(z[0]) } else { w } }");
    }

    #[test]
    fn forest_round_trips_unbalanced_input() {
        roundtrips("fn f() { } } extra closer");
        roundtrips("fn f() { never closed (");
        roundtrips(") { ] ( [ }");
    }

    #[test]
    fn fn_item_with_params_and_body() {
        let lexed = lex("pub fn from_bytes(data: &[u8], n: usize) -> X { body() }");
        let parsed = parse(&lexed.tokens);
        let (item, name, params, body) = parsed.fns().next().expect("one fn");
        assert_eq!(name, "from_bytes");
        assert!(body.is_some());
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, "data");
        assert!(params[0].is_byte_slice);
        assert_eq!(params[1].name, "n");
        assert!(!params[1].is_byte_slice);
        assert_eq!(item.end, lexed.tokens.len());
    }

    #[test]
    fn generic_fn_with_fn_bound_finds_real_params() {
        let lexed =
            lex("fn apply<F: Fn(u32) -> u32>(input: &[u8], f: F) -> u32 { f(input[0] as u32) }");
        let parsed = parse(&lexed.tokens);
        let (_, name, params, _) = parsed.fns().next().expect("one fn");
        assert_eq!(name, "apply");
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, "input");
        assert!(params[0].is_byte_slice);
        assert_eq!(params[1].name, "f");
    }

    #[test]
    fn where_clause_does_not_truncate_the_body() {
        let src = "fn f<T>(x: T) -> usize where T: IntoIterator<Item = u8> { x.into_iter().count() } fn g() {}";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let names: Vec<_> = parsed.fns().map(|(_, n, _, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["f", "g"]);
        let (item_f, _, _, body) = parsed.fns().next().expect("f");
        let open = body.expect("f has a body");
        assert!(lexed.tokens[open].is_punct('{'));
        assert!(lexed.tokens[item_f.end - 1].is_punct('}'));
    }

    #[test]
    fn impl_and_mod_items_are_extracted_with_spans() {
        let src = "impl<T> Foo<T> { fn m(&self) {} } mod bar { fn inner() {} } mod decl;";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let kinds: Vec<_> = parsed
            .items
            .iter()
            .map(|i| match &i.kind {
                ItemKind::Fn { name, .. } => format!("fn {name}"),
                ItemKind::Impl { name } => format!("impl {name}"),
                ItemKind::Mod { name } => format!("mod {name}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["impl Foo", "fn m", "mod bar", "fn inner", "mod decl"]
        );
    }

    #[test]
    fn statement_segmentation_cuts_at_semis_and_blocks() {
        let src = "fn f() { let a = 1; if c { g(); } let b = Foo { x: 1 }; match v { _ => 0 }; }";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let (_, _, _, body) = parsed.fns().next().expect("fn");
        let open = body.expect("body");
        let close = matching(&lexed.tokens, open, '{', '}') - 1;
        let stmts = statements(&lexed.tokens, open, close);
        let first_tokens: Vec<_> = stmts
            .iter()
            .map(|s| lexed.tokens[s.start].text.clone())
            .collect();
        assert_eq!(first_tokens, vec!["let", "if", "let", "match"]);
        assert!(stmts[0].is_let && !stmts[1].is_let);
    }

    #[test]
    fn if_else_chains_stay_one_statement() {
        let src = "fn f() { let x = if c { 1 } else { 2 }; done(); }";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let (_, _, _, body) = parsed.fns().next().expect("fn");
        let open = body.expect("body");
        let close = matching(&lexed.tokens, open, '{', '}') - 1;
        let stmts = statements(&lexed.tokens, open, close);
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].is_let);
    }

    #[test]
    fn call_sites_by_name_excluding_macros_and_keywords() {
        let src = "fn f() { g(); h.m(1); path::to::q(2); vec![0; 3]; if (a) { } panic!(\"x\"); }";
        let lexed = lex(src);
        let calls = call_sites(&lexed.tokens, 0, lexed.tokens.len());
        let names: Vec<_> = calls.iter().map(|c| c.callee.clone()).collect();
        assert_eq!(names, vec!["g", "m", "q"]);
    }

    #[test]
    fn unterminated_group_is_total_and_round_trips() {
        let src = "macro_rules! bad { (x) => { { unbalanced };";
        roundtrips(src);
        let lexed = lex(src);
        let forest = build_forest(&lexed.tokens);
        assert!(!forest.is_empty());
    }
}
