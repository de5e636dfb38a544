//! Constraint-grouping batch planner.
//!
//! A production query mix exhibits heavy constraint reuse: many users ask
//! about different vertex pairs under the same few path constraints. The
//! naive batch path ([`ReachabilityEngine::evaluate_batch`]) pays
//! per-query preparation — NFA construction, block validation, catalog
//! resolution — for every single query. [`BatchPlan`] removes that waste:
//!
//! 1. the batch is grouped by [`Constraint`] (first-seen order, equal
//!    constraints hash together) into one flat pair array, each group a
//!    contiguous segment of it;
//! 2. each group's constraint is prepared **exactly once** via
//!    [`ReachabilityEngine::prepare`], inline on the calling thread;
//! 3. the flat array is cut into one contiguous range per rayon worker and
//!    the ranges fan out once; a range hands each group segment it covers to
//!    the engine's [`ReachabilityEngine::evaluate_prepared_group`], whose
//!    traversal overrides answer all pairs sharing a source with one
//!    product-graph search;
//! 4. answers are scattered back in submission order.

use crate::cache::PlanCache;
use crate::engine::{Prepared, ReachabilityEngine};
use crate::query::{Constraint, Query, QueryError};
use rayon::prelude::*;
use rlc_graph::VertexId;
use rlc_obs::TraceNode;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One group of the plan: every query of the batch sharing `constraint`,
/// stored at `start..end` of the plan's flat arrays.
struct PlanGroup<'q> {
    constraint: &'q Constraint,
    start: usize,
    end: usize,
}

/// An execution plan for a mixed query batch: queries grouped by constraint
/// so each distinct constraint is prepared once per execution.
///
/// ```
/// use rlc_core::{build_index, BuildConfig, BatchPlan, IndexEngine, Query};
/// use rlc_graph::examples::fig2_graph;
/// use rlc_graph::Label;
///
/// let graph = fig2_graph();
/// let (index, _) = build_index(&graph, &BuildConfig::new(2));
/// let engine = IndexEngine::new(&graph, &index);
/// let queries = vec![
///     Query::rlc(0, 5, vec![Label(1)]).unwrap(),
///     Query::rlc(1, 4, vec![Label(1)]).unwrap(), // same constraint: one group
///     Query::concat(0, 4, vec![vec![Label(1)], vec![Label(0)]]).unwrap(),
/// ];
/// let plan = BatchPlan::new(&queries);
/// assert_eq!(plan.group_count(), 2);
/// let answers = plan.execute(&engine);
/// assert_eq!(answers.len(), 3); // submission order
/// ```
pub struct BatchPlan<'q> {
    groups: Vec<PlanGroup<'q>>,
    /// Every query's `(source, target)` in plan order: groups in first-seen
    /// order, sources ascending within a group, and submission order among
    /// equal sources. Pairs sharing a source stay contiguous when a range
    /// cut splits a group, so the traversal engines' multi-target search
    /// still sees whole source runs.
    pairs: Vec<(VertexId, VertexId)>,
    /// The submission index of each entry of `pairs`.
    positions: Vec<u32>,
}

impl<'q> BatchPlan<'q> {
    /// Plans a batch: groups queries by constraint, preserving first-seen
    /// group order and remembering each query's submission position.
    ///
    /// # Panics
    ///
    /// If the batch holds more than `u32::MAX` queries: positions are
    /// stored as `u32`.
    pub fn new(queries: &'q [Query]) -> Self {
        assert!(
            u32::try_from(queries.len()).is_ok(),
            "a batch holds at most u32::MAX queries"
        );
        // Pass 1: a group slot per query, first-seen order; `end` counts.
        let mut lookup: HashMap<&'q Constraint, usize> = HashMap::new();
        let mut groups: Vec<PlanGroup<'q>> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(queries.len());
        for query in queries {
            let fresh = groups.len();
            let slot = *lookup.entry(query.constraint()).or_insert(fresh);
            if slot == fresh {
                groups.push(PlanGroup {
                    constraint: query.constraint(),
                    start: 0,
                    end: 0,
                });
            }
            groups[slot].end += 1;
            slots.push(slot);
        }
        // Counting sort into flat segments: `end` becomes the fill cursor.
        let mut offset = 0;
        for group in &mut groups {
            let size = group.end;
            group.start = offset;
            group.end = offset;
            offset += size;
        }
        let mut keys = vec![0u64; queries.len()];
        for (position, (query, &slot)) in queries.iter().zip(&slots).enumerate() {
            let group = &mut groups[slot];
            keys[group.end] = (u64::from(query.source) << 32) | position as u64;
            group.end += 1;
        }
        // One key orders a segment by source, then by submission position.
        for group in &groups {
            keys[group.start..group.end].sort_unstable();
        }
        let positions: Vec<u32> = keys.iter().map(|&key| key as u32).collect();
        let pairs = positions
            .iter()
            .map(|&position| {
                let query = &queries[position as usize];
                (query.source, query.target)
            })
            .collect();
        BatchPlan {
            groups,
            pairs,
            positions,
        }
    }

    /// Number of distinct constraints in the batch — the number of
    /// [`ReachabilityEngine::prepare`] calls one [`BatchPlan::execute`]
    /// performs.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of queries in the planned batch.
    pub fn query_count(&self) -> usize {
        self.pairs.len()
    }

    /// Sizes of the constraint groups, in first-seen order.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.end - g.start).collect()
    }

    /// Executes the plan on `engine`: prepares each group's constraint once,
    /// fans the evaluation out across rayon workers, and returns the answers
    /// in submission order.
    ///
    /// The prepares run inline, then parallelism is one flat fan-out: the
    /// plan's pair array is cut into one equal contiguous range per worker
    /// ([`rayon::workers_for`]: the thread count, at most one per query),
    /// regardless of group boundaries, so a skewed batch dominated by one
    /// constraint still keeps every core busy. The calling thread evaluates
    /// the last range itself, and a batch of one query, or one worker, runs
    /// entirely on the calling thread. A range evaluates each group segment
    /// it covers with one [`ReachabilityEngine::evaluate_prepared_group`]
    /// call. The cuts keep the source-sorted order established by
    /// [`BatchPlan::new`], so the traversal engines' same-source sharing
    /// survives the split.
    ///
    /// A constraint the engine rejects (e.g. a block longer than its
    /// recursive `k`) yields that error for every query of its group; the
    /// other groups still evaluate.
    pub fn execute(&self, engine: &dyn ReachabilityEngine) -> Vec<Result<bool, QueryError>> {
        self.execute_with(
            engine,
            |constraint| engine.prepare(constraint).map(Arc::new),
            rayon::workers_for(self.query_count()),
        )
    }

    /// Executes the plan with preparations drawn from (and inserted into) a
    /// cross-batch [`PlanCache`]: a constraint already resident for this
    /// engine's identity costs no [`ReachabilityEngine::prepare`] call at
    /// all, so repeated batches prepare each distinct constraint once per
    /// *process* rather than once per execution. Answers — including
    /// per-group errors, which the cache also retains — are identical to
    /// [`BatchPlan::execute`].
    pub fn execute_cached(
        &self,
        engine: &dyn ReachabilityEngine,
        cache: &PlanCache,
    ) -> Vec<Result<bool, QueryError>> {
        self.execute_with(
            engine,
            |constraint| cache.prepare(engine, constraint),
            rayon::workers_for(self.query_count()),
        )
    }

    /// Executes the plan **and explains it**: returns the submission-order
    /// answers together with a machine-readable [`TraceNode`] tree — one
    /// `batch` root carrying plan-level decisions (group count, per-phase
    /// wall-clock) with one `query` child per submitted
    /// query, produced by the engine's
    /// [`ReachabilityEngine::explain_prepared`].
    ///
    /// This is a diagnosis path, not a throughput path: each group's
    /// constraint is prepared once, as in [`BatchPlan::execute`], and the
    /// queries evaluate sequentially so each trace reflects one uncontended
    /// evaluation. The answers are the contract: they are identical —
    /// including errors — to [`BatchPlan::execute`].
    pub fn execute_explained(
        &self,
        engine: &dyn ReachabilityEngine,
    ) -> (Vec<Result<bool, QueryError>>, TraceNode) {
        let mut root = TraceNode::new("batch");
        root.attr("engine", engine.name())
            .attr("queries", self.query_count())
            .attr("groups", self.groups.len());

        // Phase 1: prepare each group once.
        let prepare_started = Instant::now();
        let prepared: Vec<Result<Prepared, QueryError>> = self
            .groups
            .iter()
            .map(|group| engine.prepare(group.constraint))
            .collect();
        let prepare_ns = prepare_started.elapsed().as_nanos();

        // Phase 2: sequential per-query explained evaluation.
        let execute_started = Instant::now();
        let mut answers: Vec<Result<bool, QueryError>> = vec![Ok(false); self.query_count()];
        let mut children: Vec<(usize, TraceNode)> = Vec::with_capacity(self.query_count());
        for (slot, (group, plan)) in self.groups.iter().zip(&prepared).enumerate() {
            for at in group.start..group.end {
                let index = self.positions[at] as usize;
                let (source, target) = self.pairs[at];
                let (answer, mut node) = match plan {
                    Ok(artifact) => engine.explain_prepared(source, target, artifact),
                    Err(error) => {
                        let mut node = TraceNode::new("query");
                        node.attr("engine", engine.name())
                            .attr("source", source)
                            .attr("target", target)
                            .attr("error", error);
                        (Err(error.clone()), node)
                    }
                };
                node.attr("batch_index", index)
                    .attr("group", slot)
                    .attr("group_size", group.end - group.start);
                answers[index] = answer;
                children.push((index, node));
            }
        }
        let execute_ns = execute_started.elapsed().as_nanos();

        // Phase 3: scatter trace children back into submission order.
        let scatter_started = Instant::now();
        children.sort_by_key(|&(index, _)| index);
        for (_, node) in children {
            root.child(node);
        }
        root.attr("prepare_ns", prepare_ns)
            .attr("execute_ns", execute_ns)
            .attr("scatter_ns", scatter_started.elapsed().as_nanos());
        (answers, root)
    }

    /// Shared execute skeleton over a pluggable preparation source, cutting
    /// the plan into at most `workers` ranges.
    fn execute_with(
        &self,
        engine: &dyn ReachabilityEngine,
        prepare: impl Fn(&Constraint) -> Result<Arc<Prepared>, QueryError>,
        workers: usize,
    ) -> Vec<Result<bool, QueryError>> {
        // Phase 1: one prepare per distinct constraint, inline.
        let prepared: Vec<Result<Arc<Prepared>, QueryError>> = {
            let _span = rlc_obs::span!("rlc_plan_prepare_seconds");
            self.groups
                .iter()
                .map(|group| prepare(group.constraint))
                .collect()
        };

        // Phase 2: equal contiguous ranges of the flat array, one fan-out.
        let execute_span = rlc_obs::span!("rlc_plan_execute_seconds");
        let n = self.pairs.len();
        let ranges = workers.max(1).min(n);
        let cuts: Vec<(usize, usize)> = (0..ranges)
            .map(|i| (cut(n, ranges, i), cut(n, ranges, i + 1)))
            .collect();
        let evaluate_range = |&(start, end): &(usize, usize)| {
            let mut out: Vec<Result<bool, QueryError>> = Vec::with_capacity(end - start);
            let mut slot = self.groups.partition_point(|group| group.end <= start);
            let mut at = start;
            while at < end {
                let stop = self.groups[slot].end.min(end);
                let pairs = &self.pairs[at..stop];
                match &prepared[slot] {
                    Ok(artifact) => {
                        let results = engine.evaluate_prepared_group(pairs, artifact);
                        // Hard contract, not a debug assert: a third-party
                        // engine whose grouped override returns the wrong
                        // number of results must not shift every later
                        // answer onto another query.
                        assert_eq!(
                            pairs.len(),
                            results.len(),
                            "evaluate_prepared_group must return one result per pair"
                        );
                        out.extend(results);
                    }
                    Err(error) => out.extend(pairs.iter().map(|_| Err(error.clone()))),
                }
                at = stop;
                slot += 1;
            }
            out
        };
        let ranged: Vec<Vec<Result<bool, QueryError>>> = cuts
            .par_iter()
            .with_max_len(1)
            .map(evaluate_range)
            .collect();
        drop(execute_span);

        // Phase 3: scatter back in submission order.
        let _span = rlc_obs::span!("rlc_plan_scatter_seconds");
        let mut answers: Vec<Result<bool, QueryError>> = vec![Ok(false); n];
        for (&position, answer) in self.positions.iter().zip(ranged.into_iter().flatten()) {
            answers[position as usize] = answer;
        }
        answers
    }
}

/// The `i`-th of the `ranges + 1` cut points that split `0..n` into
/// `ranges` equal contiguous ranges (sizes differ by at most one).
fn cut(n: usize, ranges: usize, i: usize) -> usize {
    i * n / ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::engine::{IndexEngine, PrepareCounting};
    use rlc_graph::examples::fig2_graph;
    use rlc_graph::Label;

    fn mixed_batch() -> Vec<Query> {
        let mut queries = Vec::new();
        for i in 0..6u32 {
            // Two interleaved constraints plus one concatenation.
            queries.push(Query::rlc(i % 6, (i + 1) % 6, vec![Label(1)]).unwrap());
            queries.push(Query::rlc((i + 2) % 6, i % 6, vec![Label(0), Label(1)]).unwrap());
            queries.push(
                Query::concat(i % 6, (i + 3) % 6, vec![vec![Label(1)], vec![Label(0)]]).unwrap(),
            );
        }
        queries
    }

    #[test]
    fn grouping_preserves_counts_and_order() {
        let queries = mixed_batch();
        let plan = BatchPlan::new(&queries);
        assert_eq!(plan.group_count(), 3);
        assert_eq!(plan.query_count(), queries.len());
        assert_eq!(plan.group_sizes(), vec![6, 6, 6]);
    }

    #[test]
    fn execute_matches_one_shot_in_submission_order() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let queries = mixed_batch();
        let planned = BatchPlan::new(&queries).execute(&engine);
        let one_shot: Vec<_> = queries.iter().map(|q| engine.evaluate(q)).collect();
        assert_eq!(planned, one_shot);
    }

    #[test]
    fn each_distinct_constraint_is_prepared_once() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let counting = PrepareCounting::new(&engine);
        let queries = mixed_batch();
        let plan = BatchPlan::new(&queries);
        let _ = plan.execute(&counting);
        assert_eq!(counting.prepare_count(), plan.group_count());
    }

    #[test]
    fn rejected_groups_error_without_poisoning_others() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let queries = vec![
            Query::rlc(0, 5, vec![Label(1)]).unwrap(),
            // Valid MR, but longer than the index's k = 2.
            Query::rlc(0, 5, vec![Label(0), Label(1), Label(2)]).unwrap(),
            Query::rlc(1, 4, vec![Label(1)]).unwrap(),
        ];
        let answers = BatchPlan::new(&queries).execute(&engine);
        assert!(answers[0].is_ok());
        assert_eq!(
            answers[1],
            Err(QueryError::BlockTooLong {
                block: 0,
                len: 3,
                k: 2
            })
        );
        assert!(answers[2].is_ok());
    }

    #[test]
    fn single_constraint_batch_still_prepares_once_and_orders_answers() {
        // A batch dominated by one constraint is cut into ranges inside
        // the group (so multi-core hosts keep every worker busy), but the
        // cuts must not change the one-prepare contract or the
        // submission-order scatter.
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let queries: Vec<Query> = (0..60u32)
            .map(|i| Query::rlc((i * 5) % 6, (i * 7 + 1) % 6, vec![Label(1)]).unwrap())
            .collect();
        let counting = PrepareCounting::new(&engine);
        let plan = BatchPlan::new(&queries);
        assert_eq!(plan.group_count(), 1);
        let planned = plan.execute(&counting);
        assert_eq!(counting.prepare_count(), 1);
        let one_shot: Vec<_> = queries.iter().map(|q| engine.evaluate(q)).collect();
        assert_eq!(planned, one_shot);
    }

    #[test]
    fn cached_execution_prepares_once_per_process_not_per_batch() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let counting = PrepareCounting::new(&engine);
        let cache = crate::cache::PlanCache::new();
        let queries = mixed_batch();
        let plan = BatchPlan::new(&queries);
        let uncached = plan.execute(&engine);
        for _ in 0..3 {
            assert_eq!(plan.execute_cached(&counting, &cache), uncached);
        }
        // Without the cache this would be 3 × group_count.
        assert_eq!(counting.prepare_count(), plan.group_count());
        assert_eq!(cache.stats().misses, plan.group_count() as u64);
        assert_eq!(cache.stats().hits, 2 * plan.group_count() as u64);
    }

    #[test]
    fn empty_batch_executes_to_nothing() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let queries: Vec<Query> = Vec::new();
        let plan = BatchPlan::new(&queries);
        assert_eq!(plan.group_count(), 0);
        assert!(plan.execute(&engine).is_empty());
    }

    /// Four groups, interleaved in submission order, whose flat segments are
    /// `0..3` (one block), `3..53` (one block, large), `53..63` (rejected:
    /// a block longer than `k = 2`) and `63..70` (a concatenation that
    /// closes backward on `fig2_graph`).
    fn range_cut_batch() -> Vec<Query> {
        let l1 = vec![Label(0)];
        let l2 = vec![Label(1)];
        let groups: Vec<Vec<Query>> = vec![
            (0..3u32)
                .map(|i| Query::rlc(5 - i, i, l1.clone()).unwrap())
                .collect(),
            (0..50u32)
                .map(|i| Query::rlc((i * 5) % 6, (i * 7 + 1) % 6, l2.clone()).unwrap())
                .collect(),
            (0..10u32)
                .map(|i| {
                    Query::rlc(i % 6, (i + 2) % 6, vec![Label(0), Label(1), Label(2)]).unwrap()
                })
                .collect(),
            (0..7u32)
                .map(|i| {
                    Query::concat((i * 4) % 6, (i * 5 + 3) % 6, vec![l1.clone(), l2.clone()])
                        .unwrap()
                })
                .collect(),
        ];
        let mut queries = Vec::new();
        for round in 0..50 {
            queries.extend(groups.iter().filter_map(|group| group.get(round).cloned()));
        }
        queries
    }

    #[test]
    fn range_cuts_across_groups_match_the_one_shot_loop() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let queries = range_cut_batch();
        let plan = BatchPlan::new(&queries);
        let n = plan.query_count();
        let segments: Vec<(usize, usize)> = plan.groups.iter().map(|g| (g.start, g.end)).collect();
        assert_eq!(segments, vec![(0, 3), (3, 53), (53, 63), (63, 70)]);

        // The premises: the large group straddles every cut at 2 and 3
        // workers and five of the six at 7, where the rejected group
        // straddles the sixth; the concatenation closes backward.
        let cuts = |ranges: usize| (1..ranges).map(move |i| cut(n, ranges, i));
        let inside = |slot: usize, at: usize| segments[slot].0 < at && at < segments[slot].1;
        assert!(cuts(2).chain(cuts(3)).all(|at| inside(1, at)));
        assert_eq!(cuts(7).filter(|&at| inside(1, at)).count(), 5);
        assert_eq!(cuts(7).filter(|&at| inside(2, at)).count(), 1);
        assert_eq!(
            crate::hybrid::closure_direction(&graph, plan.groups[3].constraint.blocks()),
            crate::kernel::Direction::Backward
        );

        let one_shot: Vec<_> = queries.iter().map(|q| engine.evaluate(q)).collect();
        assert!(one_shot
            .iter()
            .any(|a| matches!(a, Err(QueryError::BlockTooLong { .. }))));
        for workers in [1, 2, 3, 7] {
            let counting = PrepareCounting::new(&engine);
            let planned = plan.execute_with(
                &counting,
                |constraint| counting.prepare(constraint).map(Arc::new),
                workers,
            );
            assert_eq!(planned, one_shot, "{workers} workers");
            assert_eq!(
                counting.prepare_count(),
                plan.group_count(),
                "{workers} workers"
            );
        }
    }

    /// Forwards to an engine but returns one result too few for any group
    /// segment without source 5.
    struct ShortGroups<'e>(&'e dyn ReachabilityEngine);

    impl ReachabilityEngine for ShortGroups<'_> {
        fn name(&self) -> &str {
            "short-groups"
        }

        fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError> {
            self.0.prepare(constraint)
        }

        fn evaluate_prepared(
            &self,
            source: VertexId,
            target: VertexId,
            prepared: &Prepared,
        ) -> Result<bool, QueryError> {
            self.0.evaluate_prepared(source, target, prepared)
        }

        fn evaluate_prepared_group(
            &self,
            pairs: &[(VertexId, VertexId)],
            prepared: &Prepared,
        ) -> Vec<Result<bool, QueryError>> {
            let mut results = self.0.evaluate_prepared_group(pairs, prepared);
            if pairs.iter().all(|&(source, _)| source != 5) {
                results.pop();
            }
            results
        }
    }

    #[test]
    #[should_panic(expected = "evaluate_prepared_group must return one result per pair")]
    fn a_short_grouped_result_panics_inside_the_worker() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let short = ShortGroups(&engine);
        // One group; the first of two ranges (sources 0-2) comes back short
        // and runs on a spawned worker whenever rayon has two threads.
        let queries: Vec<Query> = [0, 5, 0, 5, 1, 5, 1, 5, 2, 5]
            .iter()
            .map(|&s| Query::rlc(s, 1, vec![Label(1)]).unwrap())
            .collect();
        let plan = BatchPlan::new(&queries);
        let _ = plan.execute_with(&short, |c| short.prepare(c).map(Arc::new), 2);
    }

    #[test]
    fn plan_order_is_sources_ascending_then_submission_order() {
        let a = vec![Label(0)];
        let b = vec![Label(1)];
        let queries: Vec<Query> = [
            (3, 0, &a),
            (1, 2, &b),
            (3, 1, &a),
            (0, 4, &a),
            (1, 5, &b),
            (3, 2, &a),
            (0, 0, &b),
            (u32::MAX, 0, &a),
        ]
        .iter()
        .map(|&(s, t, block)| Query::rlc(s, t, block.clone()).unwrap())
        .collect();
        let plan = BatchPlan::new(&queries);
        let segments: Vec<(usize, usize)> = plan.groups.iter().map(|g| (g.start, g.end)).collect();
        assert_eq!(segments, vec![(0, 5), (5, 8)]);
        assert_eq!(plan.positions, vec![3, 0, 2, 5, 7, 6, 1, 4]);
        assert_eq!(
            plan.pairs,
            vec![
                (0, 4),
                (3, 0),
                (3, 1),
                (3, 2),
                (u32::MAX, 0),
                (0, 0),
                (1, 2),
                (1, 5)
            ]
        );
    }
}
