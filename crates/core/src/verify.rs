//! Index verification against an online oracle.
//!
//! Theorem 3 guarantees the index built by Algorithm 2 is sound and complete;
//! this module provides the operational counterpart: given a graph and an
//! index, re-check (exhaustively or on a sample) that every query the index
//! answers matches what a constrained online traversal finds, and that no
//! entry is redundant (Theorem 2). It is used by the test suite, by the
//! pruning ablation, and is exposed publicly so downstream users can validate
//! indexes they load from disk against the graph they pair them with.

use crate::index::RlcIndex;
use crate::query::RlcQuery;
use crate::repeats::enumerate_minimum_repeats;
use rlc_graph::{Label, LabeledGraph, VertexId};
use std::collections::{HashSet, VecDeque};

/// How much of the query space to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerificationMode {
    /// Check every `(s, t, L)` combination — exponential in `k`, intended for
    /// small graphs (tests, debugging).
    Exhaustive,
    /// Check a deterministic pseudo-random sample of vertex pairs (every
    /// valid constraint is still checked for each sampled pair).
    Sampled {
        /// Number of vertex pairs to sample.
        pairs: usize,
        /// Seed for the deterministic sampler.
        seed: u64,
    },
}

/// One disagreement between the index and the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Source vertex of the failing query.
    pub source: VertexId,
    /// Target vertex of the failing query.
    pub target: VertexId,
    /// Constraint of the failing query.
    pub constraint: Vec<Label>,
    /// The answer the index gave.
    pub index_answer: bool,
    /// The answer the online oracle gave.
    pub oracle_answer: bool,
}

/// Result of verifying an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// Number of vertex pairs examined.
    pub pairs_checked: usize,
    /// Number of queries evaluated (pairs × constraints).
    pub queries_checked: usize,
    /// All disagreements found (empty for a correct index).
    pub mismatches: Vec<Mismatch>,
    /// Number of redundant entries (non-zero means not condensed).
    pub redundant_entries: usize,
}

impl VerificationReport {
    /// Whether the index passed: no mismatches.
    ///
    /// Redundant entries are reported but do not fail verification — an index
    /// built with pruning disabled is still correct, only larger.
    pub fn is_sound_and_complete(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Verifies `index` against `graph` with the given mode.
pub fn verify_index(
    graph: &LabeledGraph,
    index: &RlcIndex,
    mode: VerificationMode,
) -> VerificationReport {
    let constraints = enumerate_minimum_repeats(graph.label_count(), index.k());
    let pairs: Vec<(VertexId, VertexId)> = match mode {
        VerificationMode::Exhaustive => graph
            .vertices()
            .flat_map(|s| graph.vertices().map(move |t| (s, t)))
            .collect(),
        VerificationMode::Sampled { pairs, seed } => {
            let n = graph.vertex_count() as u64;
            if n == 0 {
                Vec::new()
            } else {
                (0..pairs as u64)
                    .map(|i| {
                        let h = splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)));
                        ((h % n) as VertexId, ((h >> 32) % n) as VertexId)
                    })
                    .collect()
            }
        }
    };

    let mut mismatches = Vec::new();
    let mut queries_checked = 0usize;
    for &(s, t) in &pairs {
        for constraint in &constraints {
            queries_checked += 1;
            let query = RlcQuery::new(s, t, constraint.clone())
                // rlc-analyze: allow(panic-free-library) — the constraint enumerator above yields only non-empty minimum repeats, which RlcQuery::new accepts by definition
                .expect("enumerated constraints are minimum repeats");
            let index_answer = index.query(&query);
            let oracle_answer = oracle_reaches(graph, s, t, constraint);
            if index_answer != oracle_answer {
                mismatches.push(Mismatch {
                    source: s,
                    target: t,
                    constraint: constraint.clone(),
                    index_answer,
                    oracle_answer,
                });
            }
        }
    }

    VerificationReport {
        pairs_checked: pairs.len(),
        queries_checked,
        mismatches,
        redundant_entries: index.redundant_entries(),
    }
}

/// Reference oracle: BFS over `(vertex, offset within the constraint)` pairs.
///
/// Kept internal to `rlc-core` (independent of the baselines crate) so the
/// index can be verified without any other dependency.
pub fn oracle_reaches(
    graph: &LabeledGraph,
    source: VertexId,
    target: VertexId,
    constraint: &[Label],
) -> bool {
    assert!(!constraint.is_empty(), "constraint must not be empty");
    let klen = constraint.len();
    let mut visited: HashSet<(VertexId, usize)> = HashSet::new();
    let mut queue: VecDeque<(VertexId, usize)> = VecDeque::new();
    visited.insert((source, 0));
    queue.push_back((source, 0));
    while let Some((v, offset)) = queue.pop_front() {
        let expected = constraint[offset];
        for (w, label) in graph.out_edges(v) {
            if label != expected {
                continue;
            }
            let next = (offset + 1) % klen;
            // Accept before the visited check: when `source == target` the
            // start state `(target, 0)` is already marked visited, but a
            // cycle arriving back at it must still be accepted.
            if next == 0 && w == target {
                return true;
            }
            if !visited.insert((w, next)) {
                continue;
            }
            queue.push_back((w, next));
        }
    }
    false
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::index::IndexEntry;
    use rlc_graph::examples::{fig1_graph, fig2_graph};
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};

    #[test]
    fn correct_index_passes_exhaustive_verification() {
        for graph in [fig1_graph(), fig2_graph()] {
            let (index, _) = build_index(&graph, &BuildConfig::new(2));
            let report = verify_index(&graph, &index, VerificationMode::Exhaustive);
            assert!(report.is_sound_and_complete(), "{:?}", report.mismatches);
            assert_eq!(report.redundant_entries, 0);
            assert_eq!(report.pairs_checked, graph.vertex_count().pow(2));
            assert!(report.queries_checked > report.pairs_checked);
        }
    }

    #[test]
    fn sampled_verification_on_synthetic_graph() {
        let graph = erdos_renyi(&SyntheticConfig::new(300, 3.0, 4, 5));
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let report = verify_index(
            &graph,
            &index,
            VerificationMode::Sampled {
                pairs: 200,
                seed: 1,
            },
        );
        assert!(report.is_sound_and_complete());
        assert_eq!(report.pairs_checked, 200);
    }

    #[test]
    fn unpruned_index_is_correct_but_not_condensed() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2).without_pruning());
        let report = verify_index(&graph, &index, VerificationMode::Exhaustive);
        assert!(report.is_sound_and_complete());
        assert!(
            report.redundant_entries > 0,
            "unpruned index should carry redundancy"
        );
    }

    #[test]
    fn corrupted_index_is_detected() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        // Forge an entry claiming v6 reaches v1 under (l3)+, which is false.
        let l3 = graph.labels().resolve("l3").unwrap();
        let mut catalog = index.catalog().clone();
        let fake_mr = catalog.intern(&[l3]);
        let v1 = graph.vertex_id("v1").unwrap();
        let v6 = graph.vertex_id("v6").unwrap();
        let forged = IndexEntry {
            hub: v1,
            mr: fake_mr,
        };
        let index = RlcIndex::from_entry_rows(
            index.k(),
            index.order().clone(),
            catalog,
            graph
                .vertices()
                .map(|v| index.lout(v).iter().chain((v == v6).then_some(forged))),
            graph.vertices().map(|v| index.lin(v)),
        );
        let report = verify_index(&graph, &index, VerificationMode::Exhaustive);
        assert!(!report.is_sound_and_complete());
        assert!(report
            .mismatches
            .iter()
            .any(|m| m.source == v6 && m.target == v1 && m.index_answer && !m.oracle_answer));
    }

    #[test]
    fn truncated_index_is_detected_as_incomplete() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        // Drop every Lin entry: many true queries become unanswerable.
        let index = RlcIndex::from_entry_rows(
            index.k(),
            index.order().clone(),
            index.catalog().clone(),
            graph.vertices().map(|v| index.lout(v)),
            graph.vertices().map(|_| None),
        );
        let report = verify_index(&graph, &index, VerificationMode::Exhaustive);
        assert!(!report.is_sound_and_complete());
        assert!(report
            .mismatches
            .iter()
            .all(|m| !m.index_answer && m.oracle_answer));
    }

    #[test]
    fn oracle_matches_simple_facts() {
        let graph = fig1_graph();
        let debits = graph.labels().resolve("debits").unwrap();
        let credits = graph.labels().resolve("credits").unwrap();
        let a14 = graph.vertex_id("A14").unwrap();
        let a19 = graph.vertex_id("A19").unwrap();
        assert!(oracle_reaches(&graph, a14, a19, &[debits, credits]));
        assert!(!oracle_reaches(&graph, a19, a14, &[debits, credits]));
        assert!(!oracle_reaches(&graph, a14, a19, &[debits]));
    }

    #[test]
    fn empty_graph_report() {
        let graph = rlc_graph::GraphBuilder::with_capacity(0, 1).build();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let report = verify_index(
            &graph,
            &index,
            VerificationMode::Sampled { pairs: 10, seed: 3 },
        );
        assert_eq!(report.pairs_checked, 0);
        assert!(report.is_sound_and_complete());
    }
}
