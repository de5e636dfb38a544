//! Layer 3a of the pipeline: an intra-procedural def-use/taint engine.
//!
//! The engine runs a forward dataflow over one function body in source
//! order, tracking which bindings are *tainted* (derived from a
//! configured source — for the `untrusted-length-flow` rule, the
//! byte-slice parameter of a binary loader, or every parameter of a decode
//! helper taking a `Reader`). It understands:
//!
//! * `let` bindings, including typed patterns (`let n: usize = …`),
//!   destructuring (`let (a, b) = …` taints both), `if let`/`while let`
//!   scrutinees, and `for pat in expr` loops;
//! * plain reassignment (`n = expr;`, `self.field = expr;` taints/clears
//!   `field`) — this is what catches the rebinding launder that defeats
//!   the v1 lexical heuristic;
//! * **sanitizers**: an RHS that calls a configured sanitizer
//!   (`checked_len`) produces a *clean* value regardless of its inputs,
//!   so the idiomatic `let n = checked_len(n, 8, buf.remaining())?;`
//!   rebind clears the taint on `n`;
//! * **measurement projections**: `tainted.len()` / `.remaining()` /
//!   `.is_empty()` are clean — the *actual* size of the input is
//!   trustworthy, only integers decoded *from* it are not;
//! * **sinks**: `with_capacity(size)`, `vec![value; size]`, and
//!   `.resize(size, fill)` size operands, checked against the
//!   environment at the moment the sink executes.
//!
//! The flow is linear (no branch joins: a taint set union over both
//! arms would need a CFG; walking arms in source order over-approximates
//! in the same direction — a binding tainted in either arm stays tainted
//! after it, unless the later arm rebinds it clean). Closure bodies are
//! walked inline as part of the enclosing function; `match`-arm bindings
//! are not modeled. Every flow carries a machine-readable trace from the
//! source parameter through each rebinding to the sink.

use crate::lexer::{Token, TokenKind};
use crate::parse::{glued_to_next, glued_to_prev, matching};
use std::collections::HashMap;

/// One step of a dataflow trace (source → propagation → sink).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceStep {
    /// Workspace-relative path the step is in.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What happens at this step.
    pub note: String,
}

/// Taint configuration for one function analysis.
pub struct TaintSpec<'a> {
    /// Workspace-relative path (recorded in trace steps).
    pub file: &'a str,
    /// Enclosing function name (recorded in trace notes).
    pub fn_name: &'a str,
    /// Initially-tainted bindings: `(name, token index of the name)`.
    pub sources: Vec<(String, usize)>,
    /// Calls that produce clean values from any input.
    pub sanitizers: &'a [&'a str],
}

/// Methods whose result is clean even on a tainted receiver: they
/// measure the input we actually hold, not a decoded claim about it.
const MEASUREMENTS: &[&str] = &["len", "is_empty", "remaining"];

/// One tainted value reaching an allocation-size sink.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Token index of the sink head (`with_capacity`, `vec`, `resize`).
    pub sink_idx: usize,
    /// Which sink shape matched.
    pub sink_kind: &'static str,
    /// The tainted identifier observed in the size operand.
    pub ident: String,
    /// Full provenance: source parameter, each rebinding, the sink.
    pub trace: Vec<TraceStep>,
}

/// A tainted environment entry: the provenance chain of the binding.
type Env = HashMap<String, Vec<TraceStep>>;

/// Runs the taint dataflow over one function body (`open`/`close` are the
/// token indexes of the body braces) and returns every source→sink flow.
pub fn taint_fn(tokens: &[Token], open: usize, close: usize, spec: &TaintSpec<'_>) -> Vec<Flow> {
    let mut env: Env = HashMap::new();
    for (name, idx) in &spec.sources {
        let t = &tokens[*idx];
        env.insert(
            name.clone(),
            vec![step(
                spec,
                t,
                format!(
                    "untrusted input parameter `{name}` enters `{}`",
                    spec.fn_name
                ),
            )],
        );
    }
    let mut flows = Vec::new();
    let close = close.min(tokens.len());
    let mut i = open + 1;
    while i < close {
        let t = &tokens[i];
        if t.is_ident("let") {
            let in_condition =
                i > 0 && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while"));
            bind_let(tokens, i, close, in_condition, spec, &mut env);
            i += 1;
            continue;
        }
        if t.is_ident("for") {
            bind_for(tokens, i, close, spec, &mut env);
            i += 1;
            continue;
        }
        // Plain reassignment: `name = expr` (also the tail of
        // `self.name = expr`). Compound operators (`==`, `>=`, `+=`,
        // `=>`, …) lex as glued punct pairs and are excluded.
        if t.kind == TokenKind::Ident && is_assign_eq(tokens, i + 1) {
            let rhs_end = scan_extent(tokens, i + 2, close, Stop::Semi);
            let value = eval(tokens, i + 2, rhs_end, spec, &env);
            rebind(
                tokens,
                &[(t.text.clone(), i)],
                value,
                tokens[i].line,
                tokens[i].col,
                spec,
                &mut env,
            );
            i += 1;
            continue;
        }
        // Sinks.
        if t.is_ident("with_capacity") && next_is(tokens, i + 1, '(') {
            let end = matching(tokens, i + 1, '(', ')') - 1;
            record_flow(
                tokens,
                i,
                "with_capacity",
                i + 2,
                end,
                spec,
                &env,
                &mut flows,
            );
        } else if t.is_ident("vec") && next_is(tokens, i + 1, '!') && next_is(tokens, i + 2, '[') {
            let end = matching(tokens, i + 2, '[', ']') - 1;
            if let Some(semi) = top_level_semi(tokens, i + 3, end) {
                record_flow(
                    tokens,
                    i,
                    "vec![_; n]",
                    semi + 1,
                    end,
                    spec,
                    &env,
                    &mut flows,
                );
            }
        } else if t.is_ident("resize")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && next_is(tokens, i + 1, '(')
        {
            let close_paren = matching(tokens, i + 1, '(', ')') - 1;
            let first_arg_end = top_level_comma(tokens, i + 2, close_paren).unwrap_or(close_paren);
            record_flow(
                tokens,
                i,
                ".resize",
                i + 2,
                first_arg_end,
                spec,
                &env,
                &mut flows,
            );
        }
        i += 1;
    }
    flows
}

fn step(spec: &TaintSpec<'_>, at: &Token, note: String) -> TraceStep {
    TraceStep {
        file: spec.file.to_owned(),
        line: at.line,
        col: at.col,
        note,
    }
}

fn next_is(tokens: &[Token], i: usize, ch: char) -> bool {
    tokens.get(i).map(|t| t.is_punct(ch)).unwrap_or(false)
}

/// True when token `i` is a *binding* `=`: a bare punct not glued into a
/// compound operator on either side.
fn is_assign_eq(tokens: &[Token], i: usize) -> bool {
    let Some(t) = tokens.get(i) else {
        return false;
    };
    if !t.is_punct('=') {
        return false;
    }
    // `==`, `>=`, `<=`, `!=`, `+=`, `-=`, … : glued to a previous punct.
    if i > 0
        && tokens[i - 1].kind == TokenKind::Punct
        && glued_to_prev(tokens, i, tokens[i - 1].text.chars().next().unwrap_or(' '))
    {
        return false;
    }
    // `==` (we are the first char) and `=>`.
    if glued_to_next(tokens, i, '=') || glued_to_next(tokens, i, '>') {
        return false;
    }
    true
}

/// What ends an expression extent scan.
enum Stop {
    /// Top-level `;` (plain `let`, assignment).
    Semi,
    /// Top-level `{` (`if let`/`while let` scrutinee, `for` iterator).
    Brace,
}

/// One past the end of an expression starting at `start`: stops at the
/// configured top-level terminator, a dedent past the enclosing group, or
/// `limit`.
fn scan_extent(tokens: &[Token], start: usize, limit: usize, stop: Stop) -> usize {
    let mut depth = 0isize;
    let mut i = start;
    while i < limit {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        } else if t.is_punct('{') {
            if depth == 0 {
                if let Stop::Brace = stop {
                    return i;
                }
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        } else if t.is_punct(';') && depth == 0 {
            if let Stop::Semi = stop {
                return i;
            }
        }
        i += 1;
    }
    limit
}

/// Finds a `;` at delimiter depth zero within `start..end`.
fn top_level_semi(tokens: &[Token], start: usize, end: usize) -> Option<usize> {
    top_level_punct(tokens, start, end, ';')
}

/// Finds a `,` at delimiter depth zero within `start..end`.
fn top_level_comma(tokens: &[Token], start: usize, end: usize) -> Option<usize> {
    top_level_punct(tokens, start, end, ',')
}

fn top_level_punct(tokens: &[Token], start: usize, end: usize, want: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens
        .iter()
        .enumerate()
        .take(end.min(tokens.len()))
        .skip(start)
    {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(want) && depth == 0 {
            return Some(i);
        }
    }
    None
}

/// Handles a `let` binding at token `let_idx`.
fn bind_let(
    tokens: &[Token],
    let_idx: usize,
    limit: usize,
    in_condition: bool,
    spec: &TaintSpec<'_>,
    env: &mut Env,
) {
    // Find the binding `=` at depth 0, cutting the pattern at a typed
    // `let`'s top-level `:` (single colon, not a `::` path).
    let mut depth = 0isize;
    let mut colon = None;
    let mut eq = None;
    let mut j = let_idx + 1;
    while j < limit {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return;
            }
        } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        } else if depth == 0 {
            if colon.is_none()
                && t.is_punct(':')
                && !glued_to_prev(tokens, j, ':')
                && !glued_to_next(tokens, j, ':')
            {
                colon = Some(j);
            }
            if is_assign_eq(tokens, j) {
                eq = Some(j);
                break;
            }
        }
        j += 1;
    }
    let Some(eq) = eq else {
        return; // `let pat;` declares without a value: taint state unknown, leave as-is
    };
    let pattern_end = colon.unwrap_or(eq);
    let names = pattern_idents(tokens, let_idx + 1, pattern_end);
    let stop = if in_condition {
        Stop::Brace
    } else {
        Stop::Semi
    };
    let rhs_end = scan_extent(tokens, eq + 1, limit, stop);
    let value = eval(tokens, eq + 1, rhs_end, spec, env);
    let at = &tokens[let_idx];
    rebind(tokens, &names, value, at.line, at.col, spec, env);
}

/// Handles `for pat in expr {` at token `for_idx`.
fn bind_for(tokens: &[Token], for_idx: usize, limit: usize, spec: &TaintSpec<'_>, env: &mut Env) {
    let mut j = for_idx + 1;
    let mut depth = 0isize;
    let mut in_idx = None;
    while j < limit {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') || t.is_punct(';') {
            break;
        } else if t.is_ident("in") && depth == 0 {
            in_idx = Some(j);
            break;
        }
        j += 1;
    }
    let Some(in_idx) = in_idx else {
        return;
    };
    let names = pattern_idents(tokens, for_idx + 1, in_idx);
    let rhs_end = scan_extent(tokens, in_idx + 1, limit, Stop::Brace);
    let value = eval(tokens, in_idx + 1, rhs_end, spec, env);
    let at = &tokens[for_idx];
    rebind(tokens, &names, value, at.line, at.col, spec, env);
}

/// Binding names in a pattern range: identifiers that are not pattern
/// keywords and not type/variant names (uppercase-initial) — `Some(x)`
/// binds `x`, `(a, b)` binds both.
fn pattern_idents(tokens: &[Token], start: usize, end: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, t) in tokens
        .iter()
        .enumerate()
        .take(end.min(tokens.len()))
        .skip(start)
    {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "mut" | "ref" | "box" | "_") {
            continue;
        }
        if t.text
            .chars()
            .next()
            .map(char::is_uppercase)
            .unwrap_or(true)
        {
            continue;
        }
        out.push((t.text.clone(), i));
    }
    out
}

/// Evaluates an expression range against the current environment:
/// `Some((ident, its token index, its provenance))` when a tainted value
/// flows out of it, `None` when clean (constant, sanitized, or only
/// measurement projections of tainted values).
fn eval(
    tokens: &[Token],
    start: usize,
    end: usize,
    spec: &TaintSpec<'_>,
    env: &Env,
) -> Option<(String, usize, Vec<TraceStep>)> {
    let end = end.min(tokens.len());
    // A sanitizer call anywhere in the expression makes the whole value
    // clean: the sanitizer's contract is a checked, bounded length.
    for i in start..end {
        if tokens[i].kind == TokenKind::Ident
            && spec.sanitizers.contains(&tokens[i].text.as_str())
            && next_is(tokens, i + 1, '(')
        {
            return None;
        }
    }
    for i in start..end {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let Some(chain) = env.get(&t.text) else {
            continue;
        };
        // Measurement projection: `tainted.len()` etc. is clean.
        let measured = next_is(tokens, i + 1, '.')
            && tokens
                .get(i + 2)
                .map(|m| m.kind == TokenKind::Ident && MEASUREMENTS.contains(&m.text.as_str()))
                .unwrap_or(false)
            && next_is(tokens, i + 3, '(');
        if measured {
            continue;
        }
        return Some((t.text.clone(), i, chain.clone()));
    }
    None
}

/// Applies a binding result to the environment: tainted values extend
/// their provenance chain with this binding, clean values clear it.
fn rebind(
    tokens: &[Token],
    names: &[(String, usize)],
    value: Option<(String, usize, Vec<TraceStep>)>,
    line: u32,
    col: u32,
    spec: &TaintSpec<'_>,
    env: &mut Env,
) {
    match value {
        Some((src_ident, src_idx, mut chain)) => {
            let at = &tokens[src_idx];
            for (name, _) in names {
                if *name != src_ident || chain.is_empty() {
                    chain.push(TraceStep {
                        file: spec.file.to_owned(),
                        line,
                        col,
                        note: format!("`{name}` derives from tainted `{src_ident}`"),
                    });
                } else {
                    // Self-rebind (`let n = n + 1;`): note the position
                    // but keep the chain single-headed.
                    chain.push(step(spec, at, format!("`{name}` rebound, still tainted")));
                }
                env.insert(name.clone(), chain.clone());
            }
        }
        None => {
            for (name, _) in names {
                env.remove(name);
            }
        }
    }
}

/// Records a flow when the sink's size operand evaluates tainted.
#[allow(clippy::too_many_arguments)]
fn record_flow(
    tokens: &[Token],
    sink_idx: usize,
    sink_kind: &'static str,
    size_start: usize,
    size_end: usize,
    spec: &TaintSpec<'_>,
    env: &Env,
    flows: &mut Vec<Flow>,
) {
    let Some((ident, _, mut chain)) = eval(tokens, size_start, size_end, spec, env) else {
        return;
    };
    let at = &tokens[sink_idx];
    chain.push(step(
        spec,
        at,
        format!("tainted `{ident}` sizes `{sink_kind}` without a bound check"),
    ));
    flows.push(Flow {
        sink_idx,
        sink_kind,
        ident,
        trace: chain,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::{matching, parse};

    /// Runs the engine over the first fn of `src`, with its byte-slice
    /// params as sources and `checked_len` as the sanitizer.
    fn flows_of(src: &str) -> Vec<Flow> {
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let (_, name, params, body) = parsed.fns().next().expect("one fn");
        let open = body.expect("body");
        let close = matching(&lexed.tokens, open, '{', '}') - 1;
        let spec = TaintSpec {
            file: "test.rs",
            fn_name: name,
            sources: params
                .iter()
                .filter(|p| p.is_byte_slice)
                .map(|p| (p.name.clone(), p.name_idx))
                .collect(),
            sanitizers: &["checked_len"],
        };
        taint_fn(&lexed.tokens, open, close, &spec)
    }

    #[test]
    fn direct_tainted_capacity_flows() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let n = data[0] as usize; let v: Vec<u8> = Vec::with_capacity(n); }",
        );
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].ident, "n");
        assert_eq!(flows[0].sink_kind, "with_capacity");
        assert!(flows[0].trace.len() >= 3, "{:?}", flows[0].trace);
        assert!(flows[0].trace[0].note.contains("parameter `data`"));
    }

    #[test]
    fn sanitizer_rebind_clears_taint() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let n = data[0] as usize; \
             let n = checked_len(n, 8, data.len()).ok().unwrap_or(0); \
             let v: Vec<u8> = Vec::with_capacity(n); }",
        );
        assert!(flows.is_empty(), "{flows:?}");
    }

    #[test]
    fn laundering_rebind_keeps_taint() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let len = data[0] as usize; let n = len; let v = vec![0u8; n]; }",
        );
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].sink_kind, "vec![_; n]");
        let notes: Vec<_> = flows[0].trace.iter().map(|s| s.note.as_str()).collect();
        assert!(
            notes
                .iter()
                .any(|n| n.contains("`n` derives from tainted `len`")),
            "{notes:?}"
        );
    }

    #[test]
    fn measurement_projection_is_clean() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let n = data.len(); let v: Vec<u8> = Vec::with_capacity(n); }",
        );
        assert!(flows.is_empty(), "{flows:?}");
    }

    #[test]
    fn constant_rebind_is_clean() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let fixed = 64usize; let n = fixed; let v = vec![0u8; n]; }",
        );
        assert!(flows.is_empty(), "{flows:?}");
    }

    #[test]
    fn alias_binding_propagates_taint() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let mut buf = data; let k = buf[0] as usize; \
             let v: Vec<u8> = Vec::with_capacity(k); }",
        );
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].ident, "k");
    }

    #[test]
    fn resize_first_argument_is_a_sink() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let n = data[0] as usize; let mut v: Vec<u8> = Vec::new(); v.resize(n, 0); }",
        );
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].sink_kind, ".resize");
    }

    #[test]
    fn resize_fill_argument_is_not_a_sink() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let b = data[0]; let mut v: Vec<u8> = Vec::new(); v.resize(4, b); }",
        );
        assert!(flows.is_empty(), "{flows:?}");
    }

    #[test]
    fn plain_assignment_launders_and_clears() {
        // Assignment of a clean value clears taint; of a tainted one sets it.
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let mut n = data[0] as usize; n = 4; let v = vec![0u8; n]; }",
        );
        assert!(flows.is_empty(), "{flows:?}");
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let mut n = 4usize; n = data[1] as usize; let v = vec![0u8; n]; }",
        );
        assert_eq!(flows.len(), 1);
    }

    #[test]
    fn if_let_scrutinee_taints_binding() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { if let Some(first) = data.first() { \
             let n = *first as usize; let v: Vec<u8> = Vec::with_capacity(n); } }",
        );
        assert_eq!(flows.len(), 1, "{flows:?}");
    }

    #[test]
    fn for_loop_binding_taints() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { for b in data { let v: Vec<u8> = Vec::with_capacity(*b as usize); } }",
        );
        assert_eq!(flows.len(), 1, "{flows:?}");
    }

    #[test]
    fn comparison_is_not_an_assignment() {
        let flows = flows_of(
            "fn from_bytes(data: &[u8]) { let mut n = 1usize; let t = data[0] as usize; \
             if n == t { n = 2; } let v = vec![0u8; n]; }",
        );
        assert!(flows.is_empty(), "{flows:?}");
    }
}
