//! The timed section shared by the in-process query workloads.
//!
//! One round is three passes over the fixed operation list: a single-caller
//! closed loop timed as a whole (`ops_per_s`), the same list through the
//! system's parallel path (`par_ops_per_s`), and a single-caller pass over
//! every `latency_stride`-th operation timed one by one (`op_p50_us`,
//! `op_tail_us`). A discarded warm-up round comes first and fixes the
//! reference answers every later pass must repeat.

use crate::fixture::BATCH;
use crate::gen::QuerySet;
use crate::stats;
use crate::trace::Tracer;
use rlc_core::{Query, QueryError};
use std::hint::black_box;
use std::time::Instant;

/// One engine answer.
pub type Answer = Result<bool, QueryError>;

/// How a workload reaches the system.
pub struct Paths<'a> {
    /// One operation by one caller.
    pub single: &'a dyn Fn(&Query) -> Answer,
    /// A chunk of at most [`BATCH`] operations through the parallel path.
    pub batch: &'a dyn Fn(&[Query]) -> Vec<Answer>,
}

/// What the timed rounds measured.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Seconds of each single-caller pass.
    pub single_s: Vec<f64>,
    /// Seconds of each parallel pass.
    pub parallel_s: Vec<f64>,
    /// Per-operation latencies, pooled over the rounds, ascending.
    pub latencies_ns: Vec<u64>,
    /// Operations issued in timed passes.
    pub attempted: u64,
    /// Operations that erred or answered wrongly.
    pub failed: u64,
    /// The answers every pass agreed on (`true` = reachable).
    pub reference: Vec<bool>,
}

impl Rounds {
    /// Operations per second of the median pass.
    pub fn ops_per_s(&self, ops: usize) -> f64 {
        ops as f64 / stats::median(&self.single_s)
    }

    /// Operations per second of the median parallel pass.
    pub fn par_ops_per_s(&self, ops: usize) -> f64 {
        ops as f64 / stats::median(&self.parallel_s)
    }
}

/// Compares one pass's answers with the truths known beforehand and with the
/// reference pass; returns how many operations failed.
fn failures(answers: &[Answer], truth: &[Option<bool>], reference: Option<&[bool]>) -> u64 {
    let mut failed = 0;
    for (i, answer) in answers.iter().enumerate() {
        let ok = match answer {
            Err(_) => false,
            Ok(a) => truth[i].is_none_or(|t| t == *a) && reference.is_none_or(|r| r[i] == *a),
        };
        failed += u64::from(!ok);
    }
    failed
}

fn single_pass(queries: &[Query], paths: &Paths<'_>, answers: &mut Vec<Answer>) -> f64 {
    answers.clear();
    let started = Instant::now();
    for query in queries {
        answers.push((paths.single)(black_box(query)));
    }
    started.elapsed().as_secs_f64()
}

fn parallel_pass(queries: &[Query], paths: &Paths<'_>, answers: &mut Vec<Answer>) -> f64 {
    answers.clear();
    let started = Instant::now();
    for chunk in queries.chunks(BATCH) {
        answers.extend((paths.batch)(black_box(chunk)));
    }
    started.elapsed().as_secs_f64()
}

/// Runs one warm-up round and `rounds` timed rounds of `set` through `paths`,
/// calling `between` after every timed round (the workloads time their loads
/// there, so that loads are spread over the whole run and not one moment of it).
pub fn run(
    set: &QuerySet,
    paths: &Paths<'_>,
    rounds: usize,
    latency_stride: usize,
    between: &mut dyn FnMut(),
) -> Rounds {
    let queries = &set.queries;
    let mut out = Rounds::default();
    let mut answers: Vec<Answer> = Vec::with_capacity(queries.len());

    // Warm-up: fills caches and lazy state, and fixes the reference answers.
    single_pass(queries, paths, &mut answers);
    out.failed += failures(&answers, &set.truth, None);
    out.reference = answers
        .iter()
        .map(|a| *a.as_ref().unwrap_or(&false))
        .collect();
    parallel_pass(queries, paths, &mut answers);
    out.failed += failures(&answers, &set.truth, Some(&out.reference));
    out.attempted += 2 * queries.len() as u64;

    let sampled: Vec<usize> = (0..queries.len()).step_by(latency_stride).collect();
    out.latencies_ns.reserve(rounds * sampled.len());
    for _ in 0..rounds {
        out.single_s.push(single_pass(queries, paths, &mut answers));
        out.failed += failures(&answers, &set.truth, Some(&out.reference));
        out.parallel_s
            .push(parallel_pass(queries, paths, &mut answers));
        out.failed += failures(&answers, &set.truth, Some(&out.reference));
        for &i in &sampled {
            let started = Instant::now();
            let answer = (paths.single)(black_box(&queries[i]));
            out.latencies_ns.push(started.elapsed().as_nanos() as u64);
            out.failed += u64::from(answer != Ok(out.reference[i]));
        }
        out.attempted += (2 * queries.len() + sampled.len()) as u64;
        between();
    }
    out.latencies_ns.sort_unstable();
    out
}

/// One operation of the traced pass: the system call inside spans, returning
/// its answer.
pub type TracedOp<'a> = &'a dyn Fn(&Query, u32, &mut Tracer) -> Answer;

/// What the traced rounds measured.
#[derive(Debug, Default)]
pub struct TracedRounds {
    /// Seconds of each untraced single-caller pass.
    pub untraced_s: Vec<f64>,
    /// Seconds of each pass with spans around every `stride`-th operation.
    pub traced_s: Vec<f64>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that erred or answered wrongly.
    pub failed: u64,
}

impl TracedRounds {
    /// Traced over untraced throughput: 1.0 means spans are free.
    pub fn overhead_ratio(&self) -> f64 {
        stats::median(&self.untraced_s) / stats::median(&self.traced_s)
    }
}

/// Alternates untraced and traced single-caller passes, then runs `attribute`
/// (the layer-by-layer re-enactment) over the same sampled operations.
pub fn run_traced(
    set: &QuerySet,
    paths: &Paths<'_>,
    traced: TracedOp<'_>,
    attribute: TracedOp<'_>,
    rounds: usize,
    stride: usize,
    tracer: &mut Tracer,
) -> TracedRounds {
    let queries = &set.queries;
    let mut out = TracedRounds::default();
    let mut answers: Vec<Answer> = Vec::with_capacity(queries.len());
    single_pass(queries, paths, &mut answers);
    out.failed += failures(&answers, &set.truth, None);
    let reference: Vec<bool> = answers
        .iter()
        .map(|a| *a.as_ref().unwrap_or(&false))
        .collect();
    out.attempted += queries.len() as u64;
    for _ in 0..rounds {
        out.untraced_s
            .push(single_pass(queries, paths, &mut answers));
        out.failed += failures(&answers, &set.truth, Some(&reference));

        answers.clear();
        let started = Instant::now();
        for (i, query) in queries.iter().enumerate() {
            answers.push(if i % stride == 0 {
                traced(black_box(query), i as u32, tracer)
            } else {
                (paths.single)(black_box(query))
            });
        }
        out.traced_s.push(started.elapsed().as_secs_f64());
        out.failed += failures(&answers, &set.truth, Some(&reference));
        out.attempted += 2 * queries.len() as u64;
    }
    for i in (0..queries.len()).step_by(stride) {
        let answer = attribute(&queries[i], i as u32, tracer);
        out.failed += u64::from(answer != Ok(reference[i]));
        out.attempted += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_graph::Label;

    fn set(pairs: &[(u32, u32, Option<bool>)]) -> QuerySet {
        QuerySet {
            queries: pairs
                .iter()
                .map(|&(s, t, _)| Query::rlc(s, t, vec![Label(0)]).unwrap())
                .collect(),
            truth: pairs.iter().map(|p| p.2).collect(),
        }
    }

    #[test]
    fn a_correct_system_fails_nothing_and_counts_every_operation() {
        let set = set(&[
            (0, 1, Some(true)),
            (1, 0, Some(false)),
            (2, 3, None),
            (4, 5, None),
        ]);
        let paths = Paths {
            single: &|q| Ok(q.source < q.target),
            batch: &|chunk| chunk.iter().map(|q| Ok(q.source < q.target)).collect(),
        };
        let mut loads = 0;
        let rounds = run(&set, &paths, 7, 2, &mut || loads += 1);
        assert_eq!(loads, 7);
        assert_eq!(rounds.failed, 0);
        assert_eq!(rounds.single_s.len(), 7);
        assert_eq!(rounds.parallel_s.len(), 7);
        assert_eq!(rounds.latencies_ns.len(), 7 * 2);
        assert_eq!(rounds.attempted, 8 + 7 * (8 + 2));
        assert_eq!(rounds.reference, vec![true, false, true, true]);
    }

    #[test]
    fn wrong_answers_errors_and_disagreeing_paths_all_count_as_failed() {
        let set = set(&[(0, 1, Some(false)), (2, 3, None)]);
        // The single path contradicts the known truth of query 0; the batch
        // path contradicts the single path on query 1 and errs on query 0.
        let paths = Paths {
            single: &|_| Ok(true),
            batch: &|chunk| {
                chunk
                    .iter()
                    .map(|q| {
                        if q.source == 0 {
                            Err(QueryError::EmptyConstraint)
                        } else {
                            Ok(false)
                        }
                    })
                    .collect()
            },
        };
        let rounds = run(&set, &paths, 7, 1, &mut || ());
        // Per round: 1 (single, q0) + 2 (batch) + 1 (latency, none: it matches
        // the reference) = 3 failures; the warm-up adds 1 + 2.
        assert_eq!(rounds.failed, 3 + 7 * 3);
    }
}
