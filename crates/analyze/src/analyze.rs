//! Two-phase analysis: per-file rules + fact extraction, then a
//! workspace-level resolve that runs the global rules and discharges
//! suppressions.
//!
//! Phase one ([`analyze_file`]) lexes, parses, and classifies one file,
//! runs every per-file rule, extracts its concurrency facts, and scans
//! its comments for suppression directives. Phase two ([`resolve`]) runs
//! the workspace-global rules ([`crate::locks::lock_order`],
//! [`crate::locks::atomic_pairing`]) over the merged facts, then
//! discharges findings against suppressions per file and flags stale
//! directives. [`analyze_source`] is the single-file convenience wrapper
//! (a one-file workspace), which keeps fixture tests hermetic.

use crate::lexer::{lex, Token};
use crate::locks::{self, FileFacts};
use crate::parse;
use crate::rules::{self, FileContext, Finding, SUPPRESSION_HYGIENE};
use crate::scope::{classify, Scopes};
use crate::suppress::{scan_comment, Scan, Suppression};

/// Phase-one output for one file: findings not yet suppression-resolved.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub path: String,
    /// Per-file rule findings (pre-suppression).
    pub findings: Vec<Finding>,
    /// Well-formed suppression directives found in the file.
    pub suppressions: Vec<Suppression>,
    /// Hygiene findings from malformed/unsuppressible directives.
    pub hygiene: Vec<Finding>,
    /// Concurrency facts for the workspace-global rules.
    pub facts: FileFacts,
}

/// The suppression-resolved outcome of analyzing one file (or, via
/// [`resolve`], the concatenation over a whole workspace).
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived suppression, in source order.
    pub findings: Vec<Finding>,
    /// Every well-formed suppression directive (used or not), paired
    /// with the path holding it.
    pub suppressions: Vec<(String, Suppression)>,
}

/// Resolves the code line a directive on `line` applies to: the same line
/// when code shares it (trailing comment), otherwise the next line that
/// holds a token.
fn target_line(tokens: &[Token], line: u32) -> u32 {
    if tokens.iter().any(|t| t.line == line) {
        return line;
    }
    tokens
        .iter()
        .map(|t| t.line)
        .filter(|&l| l > line)
        .min()
        .unwrap_or(line)
}

/// Phase one: analyzes one file's source under its workspace-relative
/// path.
///
/// The path drives classification (library vs test vs kernel), so tests
/// can exercise any rule by choosing a virtual path for fixture content.
pub fn analyze_file(path: &str, source: &str) -> FileAnalysis {
    let lexed = lex(source);
    let scopes = Scopes::compute(&lexed.tokens);
    let parsed = parse::parse(&lexed.tokens);
    let class = classify(path);
    let ctx = FileContext {
        path,
        class,
        tokens: &lexed.tokens,
        scopes: &scopes,
        parsed: &parsed,
    };
    let mut findings = rules::run_rules(&ctx);
    findings.sort();
    findings.dedup();
    let facts = locks::extract(path, class, &lexed.tokens, &scopes, &parsed);

    // Collect directives, reporting malformed ones as hygiene findings.
    let known: Vec<&str> = rules::RULES.iter().map(|r| r.id).collect();
    let suppressible = rules::suppressible_rules();
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut hygiene: Vec<Finding> = Vec::new();
    for comment in &lexed.comments {
        match scan_comment(comment, &known) {
            Scan::NotDirective => {}
            Scan::Malformed(problem) => hygiene.push(Finding {
                file: path.to_owned(),
                line: comment.line,
                col: comment.col,
                rule: SUPPRESSION_HYGIENE,
                message: problem,
                trace: Vec::new(),
            }),
            Scan::Directive { rule, reason } => {
                if !suppressible.contains(&rule.as_str()) {
                    hygiene.push(Finding {
                        file: path.to_owned(),
                        line: comment.line,
                        col: comment.col,
                        rule: SUPPRESSION_HYGIENE,
                        message: format!(
                            "rule `{rule}` cannot be suppressed; fix the violation instead"
                        ),
                        trace: Vec::new(),
                    });
                    continue;
                }
                suppressions.push(Suppression {
                    target_line: target_line(&lexed.tokens, comment.line),
                    rule,
                    reason,
                    line: comment.line,
                    col: comment.col,
                    used: false,
                });
            }
        }
    }

    FileAnalysis {
        path: path.to_owned(),
        findings,
        suppressions,
        hygiene,
        facts,
    }
}

/// Phase two: runs the workspace-global rules over the merged facts,
/// then discharges findings against suppressions per file.
pub fn resolve(mut files: Vec<FileAnalysis>) -> FileReport {
    // Global rules over the merged fact base.
    let facts: Vec<FileFacts> = files.iter().map(|f| f.facts.clone()).collect();
    let mut global = locks::lock_order(&facts);
    global.extend(locks::atomic_pairing(&facts));
    for finding in global {
        if let Some(file) = files.iter_mut().find(|f| f.path == finding.file) {
            file.findings.push(finding);
        }
    }

    let mut report = FileReport::default();
    for file in &mut files {
        file.findings.sort();
        file.findings.dedup();

        // Discharge findings against suppressions.
        let mut kept: Vec<Finding> = Vec::new();
        for finding in file.findings.drain(..) {
            let slot = file
                .suppressions
                .iter_mut()
                .find(|s| s.rule == finding.rule && s.target_line == finding.line);
            match slot {
                Some(suppression) => suppression.used = true,
                None => kept.push(finding),
            }
        }

        // A directive that discharged nothing is stale and must go.
        let mut hygiene = std::mem::take(&mut file.hygiene);
        for suppression in &file.suppressions {
            if !suppression.used {
                hygiene.push(Finding {
                    file: file.path.clone(),
                    line: suppression.line,
                    col: suppression.col,
                    rule: SUPPRESSION_HYGIENE,
                    message: format!(
                        "suppression of `{}` does not match any finding on line {}; remove the \
                         stale directive",
                        suppression.rule, suppression.target_line
                    ),
                    trace: Vec::new(),
                });
            }
        }

        kept.extend(hygiene);
        kept.sort();
        report.findings.extend(kept);
        report
            .suppressions
            .extend(file.suppressions.drain(..).map(|s| (file.path.clone(), s)));
    }
    report.findings.sort();
    report
}

/// Analyzes one file as a one-file workspace: per-file rules, the global
/// rules restricted to this file's facts, and suppression resolution.
pub fn analyze_source(path: &str, source: &str) -> FileReport {
    resolve(vec![analyze_file(path, source)])
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    #[test]
    fn trailing_suppression_discharges_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"set\") \
                   // rlc-analyze: allow(panic-free-library) — checked by caller\n}\n";
        let report = analyze_source(LIB, src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressions.len(), 1);
        assert!(report.suppressions[0].1.used);
    }

    #[test]
    fn preceding_line_suppression_discharges_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // rlc-analyze: allow(panic-free-library) — checked by caller\n    \
                   x.unwrap()\n}\n";
        let report = analyze_source(LIB, src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.suppressions[0].1.used);
    }

    #[test]
    fn stale_suppression_is_reported() {
        let src = "// rlc-analyze: allow(panic-free-library) — nothing here\nfn f() {}\n";
        let report = analyze_source(LIB, src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, SUPPRESSION_HYGIENE);
    }

    #[test]
    fn unsuppressible_rule_rejects_directive() {
        let src = "// rlc-analyze: allow(unsafe-confinement) — trust me\nfn f() {}\n";
        let report = analyze_source(LIB, src);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("cannot be suppressed"));
    }

    #[test]
    fn retired_rule_directive_is_rejected() {
        // The v1 `untrusted-length` heuristic is gone; a directive naming
        // it names no rule.
        let src = "// rlc-analyze: allow(untrusted-length) — v1 heuristic\nfn f() {}\n";
        let report = analyze_source(LIB, src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, SUPPRESSION_HYGIENE);
    }

    #[test]
    fn wrong_rule_does_not_discharge() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // rlc-analyze: allow(atomic-pairing) — wrong rule\n    x.unwrap()\n}\n";
        let report = analyze_source(LIB, src);
        // The unwrap finding stays, and the directive is stale: two findings.
        assert_eq!(report.findings.len(), 2);
    }

    #[test]
    fn global_atomic_finding_is_suppressible_per_line() {
        let src = "fn bump(&self) {\n    \
                   // rlc-analyze: allow(atomic-pairing) — observational counter, no ordering needed\n    \
                   self.hits.fetch_add(1, Ordering::Relaxed);\n}\n";
        let report = analyze_source(LIB, src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.suppressions[0].1.used);
    }
}
