//! Workspace-level check outcome and its human/JSON renderings.
//!
//! The JSON schema is **version 3**: findings carry a machine-readable
//! `trace` array (source → steps → sink spans) for the dataflow rules.
//! Version 3 drops version 2's `shadow` rule flag and `shadow_findings`
//! channel together with the one shadow rule they reported.

use crate::rules::{Finding, RULES};

/// A suppression directive in force somewhere in the workspace.
#[derive(Clone, Debug)]
pub struct SuppressionRecord {
    /// Workspace-relative path of the file holding the directive.
    pub file: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// The suppressed rule id.
    pub rule: String,
    /// The stated justification.
    pub reason: String,
    /// Whether the directive discharged a finding.
    pub used: bool,
}

/// The outcome of a whole-workspace check.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Surviving findings across all files, sorted by file/line/col.
    pub findings: Vec<Finding>,
    /// Every suppression directive encountered.
    pub suppressions: Vec<SuppressionRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl CheckOutcome {
    /// Suppressions that discharged a finding.
    pub fn suppressions_in_force(&self) -> usize {
        self.suppressions.iter().filter(|s| s.used).count()
    }

    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One human line per finding: `file:line:col: rule: message`, with
    /// indented trace steps for dataflow findings.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: {}: {}\n",
                f.file, f.line, f.col, f.rule, f.message
            ));
            for step in &f.trace {
                out.push_str(&format!(
                    "    trace: {}:{}:{}: {}\n",
                    step.file, step.line, step.col, step.note
                ));
            }
        }
        out
    }

    /// The `--stats` summary line CI logs show even on a clean tree.
    pub fn render_stats(&self) -> String {
        format!(
            "rlc-analyze: {} files scanned, {} rules run, {} finding{}, {} suppression{} in force",
            self.files_scanned,
            RULES.len(),
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressions_in_force(),
            if self.suppressions_in_force() == 1 {
                ""
            } else {
                "s"
            },
        )
    }

    /// Machine-readable rendering of the whole outcome (schema version 3).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"version\":3,");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str("\"rules\":[");
        for (i, rule) in RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"summary\":{},\"suppressible\":{}}}",
                json_str(rule.id),
                json_str(rule.summary),
                rule.suppressible
            ));
        }
        out.push_str("],\"findings\":[");
        render_findings(&mut out, &self.findings);
        out.push_str("],\"suppressions\":[");
        for (i, s) in self.suppressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"reason\":{},\"used\":{}}}",
                json_str(&s.file),
                s.line,
                json_str(&s.rule),
                json_str(&s.reason),
                s.used
            ));
        }
        out.push_str(&format!(
            "],\"summary\":{{\"findings\":{},\"suppressions_in_force\":{}}}}}",
            self.findings.len(),
            self.suppressions_in_force()
        ));
        out
    }
}

fn render_findings(out: &mut String, findings: &[Finding]) {
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{},\"trace\":[",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message)
        ));
        for (j, step) in f.trace.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"note\":{},\"file\":{},\"line\":{},\"col\":{}}}",
                json_str(&step.note),
                json_str(&step.file),
                step.line,
                step.col
            ));
        }
        out.push_str("]}");
    }
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::TraceStep;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn stats_line_shape() {
        let outcome = CheckOutcome {
            files_scanned: 3,
            ..Default::default()
        };
        let line = outcome.render_stats();
        assert!(line.contains("3 files scanned"));
        assert!(line.contains("0 findings"));
        assert!(line.contains("0 suppressions in force"));
    }

    #[test]
    fn json_is_parseable_shape() {
        let outcome = CheckOutcome {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".to_owned(),
                line: 3,
                col: 7,
                rule: crate::rules::UNTRUSTED_LENGTH_FLOW,
                message: "msg with \"quotes\"".to_owned(),
                trace: vec![TraceStep {
                    file: "crates/x/src/lib.rs".to_owned(),
                    line: 2,
                    col: 5,
                    note: "untrusted input parameter `data`".to_owned(),
                }],
            }],
            suppressions: vec![SuppressionRecord {
                file: "crates/x/src/lib.rs".to_owned(),
                line: 9,
                rule: "atomic-pairing".to_owned(),
                reason: "stats counter".to_owned(),
                used: true,
            }],
            files_scanned: 1,
        };
        let json = outcome.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"version\":3,"));
        assert!(json.contains("\"findings\":["));
        assert!(!json.contains("shadow"));
        assert!(json.contains("\"trace\":[{\"note\":"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"suppressions_in_force\":1"));
    }

    #[test]
    fn human_rendering_indents_trace_steps() {
        let outcome = CheckOutcome {
            findings: vec![Finding {
                file: "a.rs".to_owned(),
                line: 1,
                col: 1,
                rule: crate::rules::UNTRUSTED_LENGTH_FLOW,
                message: "m".to_owned(),
                trace: vec![TraceStep {
                    file: "a.rs".to_owned(),
                    line: 1,
                    col: 2,
                    note: "n".to_owned(),
                }],
            }],
            ..Default::default()
        };
        let human = outcome.render_human();
        assert!(human.contains("a.rs:1:1: untrusted-length-flow: m"));
        assert!(human.contains("    trace: a.rs:1:2: n"));
    }
}
