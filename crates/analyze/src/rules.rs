//! The rule catalog and the per-file rule implementations.
//!
//! Each per-file rule walks one file's classified token stream (plus, for
//! the dataflow rules, its parsed structure) and emits [`Finding`]s.
//! Rules never see comment or string-literal text — the lexer already
//! classified those — so, unlike the grep gates these rules replaced, a
//! banned construct mentioned in documentation is not a violation.
//!
//! Two rules need a whole-workspace view (`lock-order`,
//! `atomic-pairing`); their implementations live in [`crate::locks`] and
//! run during [`crate::analyze::resolve`] over the merged facts.

use crate::dataflow::{self, TaintSpec, TraceStep};
use crate::lexer::{Token, TokenKind};
use crate::parse::{matching, ParseFile};
use crate::scope::{FileClass, Scopes};

/// One diagnostic: a rule violated at a source position.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// Machine-readable dataflow trace (source → steps → sink); empty
    /// for purely lexical findings.
    pub trace: Vec<TraceStep>,
}

/// `unsafe` is confined to `crates/core/src/kernel.rs`.
pub const UNSAFE_CONFINEMENT: &str = "unsafe-confinement";
/// Architecture intrinsics are confined to the kernel module.
pub const INTRINSICS_CONFINEMENT: &str = "intrinsics-confinement";
/// Library surfaces are panic-free outside `#[cfg(test)]`.
pub const PANIC_FREE_LIBRARY: &str = "panic-free-library";
/// Taint-tracked decoded lengths must be sanitized before sizing allocations.
pub const UNTRUSTED_LENGTH_FLOW: &str = "untrusted-length-flow";
/// The global lock-ordering graph is acyclic.
pub const LOCK_ORDER: &str = "lock-order";
/// Release/Acquire atomics pair up; Relaxed carries a reasoned suppression.
pub const ATOMIC_PAIRING: &str = "atomic-pairing";
/// The 0.2 deprecation cycle stays closed.
pub const DEPRECATED_SURFACE: &str = "deprecated-surface";
/// Suppression directives must be well-formed and in use.
pub const SUPPRESSION_HYGIENE: &str = "suppression-hygiene";

/// Catalog entry: a rule id and what it enforces.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id (used in diagnostics and `allow(...)` directives).
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Whether `rlc-analyze: allow(...)` directives can discharge it.
    pub suppressible: bool,
}

/// The rule catalog, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: UNSAFE_CONFINEMENT,
        summary: "`unsafe` appears only in crates/core/src/kernel.rs",
        suppressible: false,
    },
    RuleInfo {
        id: INTRINSICS_CONFINEMENT,
        summary: "core::arch/std::arch, feature detection, and #[target_feature] appear only in \
                  crates/core/src/kernel.rs",
        suppressible: false,
    },
    RuleInfo {
        id: PANIC_FREE_LIBRARY,
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in non-test library code",
        suppressible: true,
    },
    RuleInfo {
        id: UNTRUSTED_LENGTH_FLOW,
        summary: "forward taint dataflow in binary decode functions (from_bytes/from_binary_* \
                  and any fn taking a Reader): no allocation sized by a value derived from the \
                  input unless it flowed through checked_len",
        suppressible: true,
    },
    RuleInfo {
        id: LOCK_ORDER,
        summary: "the workspace-global lock-ordering graph (per-function nesting plus one \
                  call-graph hop, over static lock identities) has no cycles",
        suppressible: true,
    },
    RuleInfo {
        id: ATOMIC_PAIRING,
        summary: "every Release write pairs with an Acquire/SeqCst read of the same identity \
                  somewhere in the workspace (and vice versa); Relaxed requires a reasoned \
                  suppression",
        suppressible: true,
    },
    RuleInfo {
        id: DEPRECATED_SURFACE,
        summary: "the retired 0.2 API surface (evaluate_rlc/evaluate_concat, #[deprecated]) \
                  stays deleted",
        suppressible: false,
    },
    RuleInfo {
        id: SUPPRESSION_HYGIENE,
        summary: "suppression directives parse, name a known rule, state a reason, and discharge \
                  a real finding",
        suppressible: false,
    },
];

/// The ids of all suppressible rules.
pub fn suppressible_rules() -> Vec<&'static str> {
    RULES
        .iter()
        .filter(|r| r.suppressible)
        .map(|r| r.id)
        .collect()
}

/// Everything a per-file rule needs to know about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Path-derived classification.
    pub class: FileClass,
    /// The token stream.
    pub tokens: &'a [Token],
    /// Test and function spans.
    pub scopes: &'a Scopes,
    /// Token tree and extracted items.
    pub parsed: &'a ParseFile,
}

impl FileContext<'_> {
    fn finding(&self, token: &Token, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.path.to_owned(),
            line: token.line,
            col: token.col,
            rule,
            message,
            trace: Vec::new(),
        }
    }
}

/// Runs every per-file rule over one file.
pub fn run_rules(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    unsafe_confinement(ctx, &mut findings);
    intrinsics_confinement(ctx, &mut findings);
    panic_free_library(ctx, &mut findings);
    untrusted_length_flow(ctx, &mut findings);
    deprecated_surface(ctx, &mut findings);
    findings
}

fn unsafe_confinement(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.class.is_kernel {
        return;
    }
    for token in ctx.tokens {
        if token.is_ident("unsafe") {
            out.push(
                ctx.finding(
                    token,
                    UNSAFE_CONFINEMENT,
                    "`unsafe` outside crates/core/src/kernel.rs; unsafe code is confined to the \
                 kernel module"
                        .to_owned(),
                ),
            );
        }
    }
}

fn intrinsics_confinement(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.class.is_kernel {
        return;
    }
    let tokens = ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let arch_path = token.is_ident("arch")
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && (tokens[i - 3].is_ident("core") || tokens[i - 3].is_ident("std"));
        if arch_path {
            out.push(
                ctx.finding(
                    token,
                    INTRINSICS_CONFINEMENT,
                    "architecture intrinsics path outside the kernel module; use the portable \
                 rlc_core::kernel::FrontierSet word ops instead"
                        .to_owned(),
                ),
            );
        } else if token.is_ident("is_x86_feature_detected") {
            out.push(
                ctx.finding(
                    token,
                    INTRINSICS_CONFINEMENT,
                    "feature detection outside the kernel module; kernel_name in \
                 crates/core/src/kernel.rs owns CPU feature decisions"
                        .to_owned(),
                ),
            );
        } else if token.is_ident("target_feature") {
            out.push(
                ctx.finding(
                    token,
                    INTRINSICS_CONFINEMENT,
                    "#[target_feature] outside the kernel module; frontier word ops live in \
                 crates/core/src/kernel.rs"
                        .to_owned(),
                ),
            );
        }
    }
}

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

fn panic_free_library(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.class.is_library {
        return;
    }
    let tokens = ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident || ctx.scopes.in_test(i) {
            continue;
        }
        let next_is = |ch: char| tokens.get(i + 1).map(|t| t.is_punct(ch)).unwrap_or(false);
        if PANIC_MACROS.contains(&token.text.as_str()) && next_is('!') {
            out.push(ctx.finding(
                token,
                PANIC_FREE_LIBRARY,
                format!(
                    "`{}!` in non-test library code; return a Result (QueryError or the \
                     module's error type) instead",
                    token.text
                ),
            ));
        } else if PANIC_METHODS.contains(&token.text.as_str())
            && i > 0
            && tokens[i - 1].is_punct('.')
            && next_is('(')
        {
            out.push(ctx.finding(
                token,
                PANIC_FREE_LIBRARY,
                format!(
                    "`.{}(...)` in non-test library code; propagate the error, or suppress \
                     with a stated reason if the call is genuinely infallible",
                    token.text
                ),
            ));
        }
    }
}

/// True for the loaders of untrusted binary formats: the `from_bytes`
/// loaders of RLC3/ETC1/RSH1 and the `from_binary_*` RLG1 loader, whose
/// byte-slice parameters are taint sources.
fn is_decode_fn(name: &str) -> bool {
    name == "from_bytes" || name.starts_with("from_binary")
}

/// The shared bound-check helper every decoded length must flow through.
const BOUND_HELPER: &str = "checked_len";

/// Forward taint dataflow from a decoder's untrusted input to
/// allocation-size sinks, sanitized only by `checked_len`.
///
/// The sources are the byte-slice parameters of a loader and every
/// parameter of a function taking a `Reader`: such a decode helper gets
/// its counts from the loader that read them off the same input, so a
/// helper split out of a loader stays covered.
fn untrusted_length_flow(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for (item, name, params, body) in ctx.parsed.fns() {
        if ctx.scopes.in_test(item.start) {
            continue;
        }
        let Some(open) = body else { continue };
        let takes_reader = params.iter().any(|p| p.is_reader);
        let sources: Vec<(String, usize)> = params
            .iter()
            .filter(|p| {
                if takes_reader {
                    p.name != "self"
                } else {
                    p.is_byte_slice && is_decode_fn(name)
                }
            })
            .map(|p| (p.name.clone(), p.name_idx))
            .collect();
        if sources.is_empty() {
            continue;
        }
        let close = matching(ctx.tokens, open, '{', '}') - 1;
        let spec = TaintSpec {
            file: ctx.path,
            fn_name: name,
            sources,
            sanitizers: &[BOUND_HELPER],
        };
        for flow in dataflow::taint_fn(ctx.tokens, open, close, &spec) {
            let sink = &ctx.tokens[flow.sink_idx];
            out.push(Finding {
                file: ctx.path.to_owned(),
                line: sink.line,
                col: sink.col,
                rule: UNTRUSTED_LENGTH_FLOW,
                message: format!(
                    "`{}` sized by `{}`, which derives from the untrusted input of `{name}` \
                     without flowing through {BOUND_HELPER}(); sanitize the length first",
                    flow.sink_kind, flow.ident
                ),
                trace: flow.trace,
            });
        }
    }
}

/// The retired API names from the 0.2 deprecation cycle.
const RETIRED_IDENTS: &[&str] = &["evaluate_rlc", "evaluate_concat"];

fn deprecated_surface(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let tokens = ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.kind == TokenKind::Ident && RETIRED_IDENTS.contains(&token.text.as_str()) {
            out.push(ctx.finding(
                token,
                DEPRECATED_SURFACE,
                format!(
                    "`{}` reintroduces the retired 0.2 evaluator surface; the replacement is \
                     ReachabilityEngine::prepare/evaluate_prepared",
                    token.text
                ),
            ));
        }
        // `#[deprecated]` / `#![deprecated]`: the deprecation cycle is
        // closed, shims must not come back.
        if token.is_ident("deprecated") && i >= 1 {
            let attr = tokens[i - 1].is_punct('[')
                && (i >= 2 && (tokens[i - 2].is_punct('#') || tokens[i - 2].is_punct('!')));
            if attr {
                out.push(
                    ctx.finding(
                        token,
                        DEPRECATED_SURFACE,
                        "`#[deprecated]` reintroduced; the workspace ships no transitional shims"
                            .to_owned(),
                    ),
                );
            }
        }
    }
}
