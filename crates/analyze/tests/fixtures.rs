//! Fixture corpus: known-good and known-bad files per rule, checked
//! under virtual paths and asserted against exact diagnostic spans.
//! The `fixtures/` directory is excluded from `check`'s walk, so the
//! deliberately bad files never pollute a real run.
//!
//! The `flow_launder_bad` / `flow_const_good` pair pins the two cases
//! the retired v1 identifier-sharing heuristic got wrong: a laundered
//! length it missed and a constant rebind it flagged. The
//! `reader_helper_*` pair pins that a function taking a `Reader` is a
//! decoder whatever its name.

use rlc_analyze::analyze::analyze_source;
use rlc_analyze::rules;

/// Virtual path of ordinary library code.
const LIB: &str = "crates/demo/src/lib.rs";
/// Virtual path of the one module where unsafe and intrinsics live.
const KERNEL: &str = "crates/core/src/kernel.rs";

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the full analysis and returns `(line, col, rule)` finding spans.
fn spans(name: &str, virtual_path: &str) -> Vec<(u32, u32, &'static str)> {
    analyze_source(virtual_path, &fixture(name))
        .findings
        .into_iter()
        .map(|f| (f.line, f.col, f.rule))
        .collect()
}

#[test]
fn unsafe_good_kernel_path_is_clean() {
    assert_eq!(spans("unsafe_good.rs", KERNEL), vec![]);
}

#[test]
fn unsafe_bad_is_flagged_at_the_block() {
    assert_eq!(
        spans("unsafe_bad.rs", LIB),
        vec![(5, 5, rules::UNSAFE_CONFINEMENT)]
    );
}

#[test]
fn intrinsics_good_docs_may_mention_arch() {
    assert_eq!(spans("intrinsics_good.rs", LIB), vec![]);
}

#[test]
fn intrinsics_bad_flags_arch_path_and_feature_detection() {
    assert_eq!(
        spans("intrinsics_bad.rs", LIB),
        vec![
            (4, 11, rules::INTRINSICS_CONFINEMENT),
            (7, 5, rules::INTRINSICS_CONFINEMENT),
        ]
    );
}

#[test]
fn panic_good_tests_may_unwrap() {
    assert_eq!(spans("panic_good.rs", LIB), vec![]);
}

#[test]
fn panic_bad_flags_unwrap_and_todo() {
    assert_eq!(
        spans("panic_bad.rs", LIB),
        vec![
            (5, 31, rules::PANIC_FREE_LIBRARY),
            (10, 5, rules::PANIC_FREE_LIBRARY),
        ]
    );
}

#[test]
fn untrusted_good_checked_len_flow_is_clean_in_both_engines() {
    assert_eq!(spans("untrusted_good.rs", LIB), vec![]);
}

#[test]
fn untrusted_bad_flags_every_sink_form() {
    assert_eq!(
        spans("untrusted_bad.rs", LIB),
        vec![
            (6, 24, rules::UNTRUSTED_LENGTH_FLOW),
            (7, 9, rules::UNTRUSTED_LENGTH_FLOW),
            (13, 5, rules::UNTRUSTED_LENGTH_FLOW),
        ]
    );
}

#[test]
fn laundered_length_is_a_v1_false_negative_v2_catches() {
    // `n` appears inside a checked_len call, so v1's identifier sharing
    // called the sink sanitized; the dataflow sees the final `n` rebound
    // from the unchecked `declared`, and reports the provenance chain.
    let report = analyze_source(LIB, &fixture("flow_launder_bad.rs"));
    let flow: Vec<(u32, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.col, f.rule))
        .collect();
    assert_eq!(flow, vec![(13, 5, rules::UNTRUSTED_LENGTH_FLOW)]);
    let trace = &report.findings[0].trace;
    assert!(
        trace.len() >= 2,
        "expected a multi-step provenance trace, got {trace:?}"
    );
    assert!(
        trace
            .iter()
            .any(|s| s.note.contains("`n` derives from tainted `declared`")),
        "trace must name the laundering rebind: {trace:?}"
    );
}

#[test]
fn constant_rebind_is_a_v1_false_positive_v2_accepts() {
    // `count` shares no identifier with a checked_len call, so v1 flagged
    // it; the binding is rebound to a constant before the sink.
    assert_eq!(spans("flow_const_good.rs", LIB), vec![]);
}

#[test]
fn reader_helper_bad_is_a_decoder_by_its_parameter() {
    let report = analyze_source(LIB, &fixture("reader_helper_bad.rs"));
    let flow: Vec<(u32, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.col, f.rule))
        .collect();
    assert_eq!(
        flow,
        vec![
            (10, 26, rules::UNTRUSTED_LENGTH_FLOW),
            (18, 24, rules::UNTRUSTED_LENGTH_FLOW),
        ]
    );
    let sources: Vec<&str> = report
        .findings
        .iter()
        .map(|f| f.trace[0].note.as_str())
        .collect();
    assert!(
        sources[0].contains("parameter `r` enters `read_table`")
            && sources[1].contains("parameter `rows` enters `read_rows`"),
        "{sources:?}"
    );
}

#[test]
fn reader_helper_good_checked_len_on_the_reader_sanitizes() {
    assert_eq!(spans("reader_helper_good.rs", LIB), vec![]);
}

#[test]
fn lock_order_good_consistent_order_is_clean() {
    assert_eq!(spans("lock_order_good.rs", LIB), vec![]);
}

#[test]
fn lock_order_bad_reports_the_cycle_with_both_witnesses() {
    let report = analyze_source(LIB, &fixture("lock_order_bad.rs"));
    let got: Vec<(u32, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.col, f.rule))
        .collect();
    assert_eq!(got, vec![(14, 20, rules::LOCK_ORDER)]);
    let f = &report.findings[0];
    assert!(
        f.message.contains("cycle `left` -> `right` -> `left`"),
        "{}",
        f.message
    );
    assert!(f.message.contains("witness 1:"), "{}", f.message);
    assert!(f.message.contains("witness 2:"), "{}", f.message);
    // The forward witness goes through the one-hop call edge.
    assert!(
        f.trace.iter().any(|s| s
            .note
            .contains("`forward` calls `take_right` while holding `left`")),
        "{:?}",
        f.trace
    );
    // The backward witness is the direct nesting.
    assert!(
        f.trace.iter().any(|s| s
            .note
            .contains("`backward` then acquires `left` while holding `right`")),
        "{:?}",
        f.trace
    );
}

#[test]
fn pairing_good_acqrel_seqcst_and_matched_pairs_are_clean() {
    assert_eq!(spans("pairing_good.rs", LIB), vec![]);
}

#[test]
fn pairing_bad_flags_unpaired_release_acquire_and_relaxed() {
    assert_eq!(
        spans("pairing_bad.rs", LIB),
        vec![
            (7, 29, rules::ATOMIC_PAIRING),
            (11, 26, rules::ATOMIC_PAIRING),
            (15, 26, rules::ATOMIC_PAIRING),
        ]
    );
}

#[test]
fn atomic_good_paired_orderings_and_justified_relaxed() {
    let report = analyze_source(LIB, &fixture("atomic_good.rs"));
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.suppressions.len(), 1);
    let (file, s) = &report.suppressions[0];
    assert_eq!(file, LIB);
    assert!(s.used);
    assert_eq!(s.rule, rules::ATOMIC_PAIRING);
}

#[test]
fn atomic_bad_flags_unjustified_relaxed() {
    assert_eq!(
        spans("atomic_bad.rs", LIB),
        vec![(7, 28, rules::ATOMIC_PAIRING)]
    );
}

#[test]
fn deprecated_good_docs_may_name_retired_api() {
    assert_eq!(spans("deprecated_good.rs", LIB), vec![]);
}

#[test]
fn deprecated_bad_flags_attribute_and_retired_name() {
    assert_eq!(
        spans("deprecated_bad.rs", LIB),
        vec![
            (4, 3, rules::DEPRECATED_SURFACE),
            (5, 8, rules::DEPRECATED_SURFACE),
        ]
    );
}

#[test]
fn hygiene_good_directive_discharges_and_is_counted() {
    let report = analyze_source(LIB, &fixture("hygiene_good.rs"));
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.suppressions.len(), 1);
    let (_, s) = &report.suppressions[0];
    assert!(s.used);
    assert_eq!(s.rule, rules::PANIC_FREE_LIBRARY);
    assert_eq!((s.line, s.target_line), (6, 7));
}

#[test]
fn hygiene_bad_flags_typo_missing_reason_unsuppressible_and_stale() {
    assert_eq!(
        spans("hygiene_bad.rs", LIB),
        vec![
            (5, 1, rules::SUPPRESSION_HYGIENE),
            (8, 1, rules::SUPPRESSION_HYGIENE),
            (11, 1, rules::SUPPRESSION_HYGIENE),
            (14, 1, rules::SUPPRESSION_HYGIENE),
        ]
    );
}

#[test]
fn confinement_is_a_property_of_the_path_not_the_text() {
    // The same source that is clean under the kernel path is a violation
    // everywhere else.
    let report = analyze_source(LIB, &fixture("unsafe_good.rs"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == rules::UNSAFE_CONFINEMENT));
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == rules::INTRINSICS_CONFINEMENT));
}

/// The corpus-wide contract CI pins: every known-bad fixture produces
/// exactly this many findings, every known-good fixture none.
#[test]
fn corpus_exact_finding_counts() {
    let bad: &[(&str, usize)] = &[
        ("unsafe_bad.rs", 1),
        ("intrinsics_bad.rs", 2),
        ("panic_bad.rs", 2),
        ("untrusted_bad.rs", 3),
        ("flow_launder_bad.rs", 1),
        ("reader_helper_bad.rs", 2),
        ("lock_order_bad.rs", 1),
        ("pairing_bad.rs", 3),
        ("atomic_bad.rs", 1),
        ("deprecated_bad.rs", 2),
        ("hygiene_bad.rs", 4),
    ];
    for (name, expect) in bad {
        let got = spans(name, LIB).len();
        assert_eq!(
            got, *expect,
            "{name}: expected {expect} findings, got {got}"
        );
    }
    let good: &[&str] = &[
        "intrinsics_good.rs",
        "panic_good.rs",
        "untrusted_good.rs",
        "flow_const_good.rs",
        "reader_helper_good.rs",
        "lock_order_good.rs",
        "pairing_good.rs",
        "atomic_good.rs",
        "deprecated_good.rs",
        "hygiene_good.rs",
    ];
    for name in good {
        assert_eq!(spans(name, LIB), vec![], "{name} must be clean");
    }
}
