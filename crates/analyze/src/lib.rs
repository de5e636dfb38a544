//! # rlc-analyze
//!
//! Workspace-aware static analysis enforcing the repo's safety
//! invariants. Six PRs of hardening discipline — `unsafe` confined to
//! `crates/core/src/kernel.rs`, panic-free library surfaces,
//! division-form bound checks on every untrusted length, atomics with
//! documented orderings, a closed deprecation cycle — were enforced by
//! grep gates and reviewer memory; this crate turns them into checked
//! tooling.
//!
//! The analyzer is a three-layer pipeline:
//!
//! 1. a hand-rolled Rust **lexer** ([`lexer`]) — comments, nested block
//!    comments, string/char/raw-string literals, lifetimes — so a banned
//!    construct in documentation is *not* a violation;
//! 2. a **token-tree parser** ([`parse`]) — balanced `{}/()/[]` nesting,
//!    fn/impl/mod item extraction with spans, statement segmentation,
//!    and a by-name call-graph approximation;
//! 3. the **rules** — lexical rules plus an intra-procedural taint
//!    engine ([`dataflow`]) behind `untrusted-length-flow`, and the
//!    workspace-global `lock-order` / `atomic-pairing` rules
//!    ([`locks`]), which run over concurrency facts merged from every
//!    file.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p rlc-analyze -- check --stats
//! cargo run -p rlc-analyze -- check --json
//! cargo run -p rlc-analyze -- rules
//! ```
//!
//! The rule catalog lives in [`rules::RULES`]; findings can be
//! acknowledged in place with `rlc-analyze: allow(<rule>) — <reason>`
//! suppression directives (see [`suppress`]), which are themselves
//! counted, reported, and flagged when stale. Dataflow findings carry
//! machine-readable traces (JSON schema version 3).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod dataflow;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scope;
pub mod suppress;
pub mod walk;

use std::io;
use std::path::Path;

pub use analyze::{analyze_file, analyze_source, resolve, FileAnalysis, FileReport};
pub use report::{CheckOutcome, SuppressionRecord};
pub use rules::{Finding, RULES};

/// Analyzes every workspace source file under `root`.
///
/// I/O errors (unreadable file, missing root) surface as `Err`; rule
/// findings are data, not errors. Phase one runs per file, phase two
/// resolves the workspace-global rules and suppressions over all of
/// them.
pub fn run_check(root: &Path) -> io::Result<CheckOutcome> {
    let files = walk::workspace_files(root)?;
    let mut analyses = Vec::with_capacity(files.len());
    for (rel, abs) in &files {
        let source = std::fs::read_to_string(abs)?;
        analyses.push(analyze::analyze_file(rel, &source));
    }
    let report = analyze::resolve(analyses);
    Ok(CheckOutcome {
        files_scanned: files.len(),
        findings: report.findings,
        suppressions: report
            .suppressions
            .into_iter()
            .map(|(file, s)| SuppressionRecord {
                file,
                line: s.line,
                rule: s.rule,
                reason: s.reason,
                used: s.used,
            })
            .collect(),
    })
}
