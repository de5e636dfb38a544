//! Measurement helpers shared by the experiments.
//!
//! Every helper takes the evaluator as a `&dyn ReachabilityEngine`, so the
//! experiments time BFS, BiBFS, DFS, ETC, the RLC index and the simulated
//! engines through one code path instead of hand-rolled per-evaluator
//! closures.

use rlc_core::engine::ReachabilityEngine;
use rlc_core::{Query, RlcQuery};
use rlc_workloads::QuerySet;
use std::time::{Duration, Instant};

/// Timing of a full query set under one evaluator, in the form the paper
/// reports (total execution time of 1000 queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySetTiming {
    /// Total wall-clock time over the true-query set.
    pub true_total: Duration,
    /// Total wall-clock time over the false-query set.
    pub false_total: Duration,
    /// Number of wrong answers (should always be zero; counted as a safety
    /// net so that a broken evaluator cannot silently report a fast time).
    pub wrong_answers: usize,
}

impl QuerySetTiming {
    /// Total time over both sets.
    pub fn total(&self) -> Duration {
        self.true_total + self.false_total
    }

    /// Mean time per query across both sets.
    pub fn per_query(&self, set: &QuerySet) -> Duration {
        if set.is_empty() {
            Duration::ZERO
        } else {
            self.total() / set.len() as u32
        }
    }
}

/// Runs `engine` over every query of `set` one at a time, checking answers
/// and timing the true and false subsets separately (as Fig. 3 reports them
/// separately). Evaluation errors count as wrong answers (workload queries
/// are always valid, so a correct engine reports zero).
///
/// The conversion into the unified [`Query`] model happens before the timer
/// starts, so the measured loop is pure evaluation.
pub fn evaluate_query_set(set: &QuerySet, engine: &dyn ReachabilityEngine) -> QuerySetTiming {
    let mut wrong_answers = 0;
    let true_queries: Vec<Query> = set.true_queries.iter().map(Query::from).collect();
    let false_queries: Vec<Query> = set.false_queries.iter().map(Query::from).collect();

    let start = Instant::now();
    for q in &true_queries {
        if engine.evaluate(q) != Ok(true) {
            wrong_answers += 1;
        }
    }
    let true_total = start.elapsed();

    let start = Instant::now();
    for q in &false_queries {
        if engine.evaluate(q) != Ok(false) {
            wrong_answers += 1;
        }
    }
    let false_total = start.elapsed();

    QuerySetTiming {
        true_total,
        false_total,
        wrong_answers,
    }
}

/// Result of evaluating a query list under a wall-clock cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CappedTiming {
    /// Time spent on the queries that were actually evaluated.
    pub elapsed: Duration,
    /// Number of queries evaluated before the cap was hit.
    pub evaluated: usize,
    /// Total number of queries in the list.
    pub total: usize,
    /// Wrong answers among the evaluated queries.
    pub wrong_answers: usize,
}

impl CappedTiming {
    /// Whether the cap stopped the evaluation early.
    pub fn truncated(&self) -> bool {
        self.evaluated < self.total
    }

    /// Total time, linearly extrapolated to the full list when truncated —
    /// the paper marks such entries as timeouts ("X"); the extrapolation is
    /// only used to place them on the right order of magnitude.
    pub fn extrapolated_total(&self) -> Duration {
        if self.evaluated == 0 {
            Duration::ZERO
        } else if self.truncated() {
            self.elapsed
                .mul_f64(self.total as f64 / self.evaluated as f64)
        } else {
            self.elapsed
        }
    }
}

/// Evaluates `queries` (all sharing the same expected answer) under a
/// wall-clock cap, stopping once `budget` is exceeded. Evaluation errors
/// count as wrong answers.
pub fn evaluate_capped(
    queries: &[RlcQuery],
    expected: bool,
    budget: Duration,
    engine: &dyn ReachabilityEngine,
) -> CappedTiming {
    let unified: Vec<Query> = queries.iter().map(Query::from).collect();
    let start = Instant::now();
    let mut evaluated = 0usize;
    let mut wrong_answers = 0usize;
    for q in &unified {
        if start.elapsed() > budget {
            break;
        }
        if engine.evaluate(q) != Ok(expected) {
            wrong_answers += 1;
        }
        evaluated += 1;
    }
    CappedTiming {
        elapsed: start.elapsed(),
        evaluated,
        total: queries.len(),
        wrong_answers,
    }
}

/// Median of a set of durations (the paper reports medians over 20 runs for
/// Table V).
pub fn median_duration(mut samples: Vec<Duration>) -> Duration {
    assert!(!samples.is_empty(), "median of an empty sample set");
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_core::engine::IndexEngine;
    use rlc_core::{build_index, BuildConfig};
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
    use rlc_workloads::{generate_query_set, QueryGenConfig};

    /// An engine that ignores the query — used to exercise the wrong-answer
    /// counters.
    struct ConstEngine(bool);

    impl ReachabilityEngine for ConstEngine {
        fn name(&self) -> &str {
            "const"
        }

        fn prepare(
            &self,
            constraint: &rlc_core::Constraint,
        ) -> Result<rlc_core::Prepared, rlc_core::QueryError> {
            Ok(rlc_core::Prepared::new(constraint.clone(), self.name(), ()))
        }

        fn evaluate_prepared(
            &self,
            _source: u32,
            _target: u32,
            _prepared: &rlc_core::Prepared,
        ) -> Result<bool, rlc_core::QueryError> {
            Ok(self.0)
        }
    }

    #[test]
    fn evaluate_query_set_detects_wrong_answers() {
        let g = erdos_renyi(&SyntheticConfig::new(100, 3.0, 3, 1));
        let set = generate_query_set(&g, &QueryGenConfig::small(10, 10, 2, 1));
        let always_true = evaluate_query_set(&set, &ConstEngine(true));
        assert_eq!(always_true.wrong_answers, 10);
        let always_false = evaluate_query_set(&set, &ConstEngine(false));
        assert_eq!(always_false.wrong_answers, 10);
    }

    #[test]
    fn correct_evaluator_has_no_wrong_answers() {
        let g = erdos_renyi(&SyntheticConfig::new(120, 3.0, 3, 2));
        let set = generate_query_set(&g, &QueryGenConfig::small(15, 15, 2, 3));
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let engine = IndexEngine::new(&g, &index);
        let timing = evaluate_query_set(&set, &engine);
        assert_eq!(timing.wrong_answers, 0);
        assert!(timing.total() >= timing.true_total);
        assert!(timing.per_query(&set) <= timing.total());
    }

    #[test]
    fn capped_evaluation_reports_progress() {
        let g = erdos_renyi(&SyntheticConfig::new(100, 3.0, 3, 5));
        let set = generate_query_set(&g, &QueryGenConfig::small(8, 8, 2, 7));
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let engine = IndexEngine::new(&g, &index);
        let timing = evaluate_capped(&set.true_queries, true, Duration::from_secs(60), &engine);
        assert_eq!(timing.evaluated, 8);
        assert_eq!(timing.wrong_answers, 0);
        assert!(!timing.truncated());
        assert_eq!(timing.extrapolated_total(), timing.elapsed);
    }

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        let ms = |n| Duration::from_millis(n);
        assert_eq!(median_duration(vec![ms(3), ms(1), ms(2)]), ms(2));
        assert_eq!(
            median_duration(vec![ms(4), ms(1), ms(2), ms(3)]),
            ms(2) + ms(1) / 2
        );
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn median_of_empty_panics() {
        let _ = median_duration(vec![]);
    }
}
