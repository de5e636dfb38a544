//! Constraint-grouping batch planner.
//!
//! A production query mix exhibits heavy constraint reuse: many users ask
//! about different vertex pairs under the same few path constraints. The
//! naive batch path ([`ReachabilityEngine::evaluate_batch`]) pays
//! per-query preparation — NFA construction, block validation, catalog
//! resolution — for every single query. [`BatchPlan`] removes that waste:
//!
//! 1. the batch is grouped by [`Constraint`] (first-seen order, equal
//!    constraints hash together);
//! 2. each group's constraint is prepared **exactly once** via
//!    [`ReachabilityEngine::prepare`];
//! 3. groups fan out across CPU cores with rayon, and inside a group the
//!    engine's [`ReachabilityEngine::evaluate_prepared_group`] override can
//!    answer all pairs sharing a source with one product-graph search;
//! 4. answers are scattered back in submission order.

use crate::cache::{PlanCache, PrepareOutcome};
use crate::engine::{Prepared, ReachabilityEngine};
use crate::query::{Constraint, Query, QueryError};
use rayon::prelude::*;
use rlc_graph::VertexId;
use rlc_obs::TraceNode;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One group of the plan: every query of the batch sharing `constraint`.
struct PlanGroup<'q> {
    constraint: &'q Constraint,
    /// Positions of the group's queries in the submitted batch.
    indices: Vec<usize>,
    /// The `(source, target)` pairs, parallel to `indices`.
    pairs: Vec<(VertexId, VertexId)>,
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
    query_count: usize,
    groups: Vec<PlanGroup<'q>>,
}

impl<'q> BatchPlan<'q> {
    /// Plans a batch: groups queries by constraint, preserving first-seen
    /// group order and remembering each query's submission position.
    pub fn new(queries: &'q [Query]) -> Self {
        let mut lookup: HashMap<&'q Constraint, usize> = HashMap::new();
        let mut groups: Vec<PlanGroup<'q>> = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let slot = *lookup.entry(query.constraint()).or_insert_with(|| {
                groups.push(PlanGroup {
                    constraint: query.constraint(),
                    indices: Vec::new(),
                    pairs: Vec::new(),
                });
                groups.len() - 1
            });
            groups[slot].indices.push(i);
            groups[slot].pairs.push((query.source, query.target));
        }
        // Sort each group's pairs by source (stably, carrying the submission
        // positions along) so pairs sharing a source stay contiguous when
        // `execute` chunks a large group across workers — the traversal
        // engines' multi-target search then still sees whole source runs.
        for group in &mut groups {
            let mut order: Vec<usize> = (0..group.pairs.len()).collect();
            order.sort_by_key(|&i| group.pairs[i].0);
            group.indices = order.iter().map(|&i| group.indices[i]).collect();
            group.pairs = order.iter().map(|&i| group.pairs[i]).collect();
        }
        BatchPlan {
            query_count: queries.len(),
            groups,
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
        self.query_count
    }

    /// Sizes of the constraint groups, in first-seen order.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.pairs.len()).collect()
    }

    /// Executes the plan on `engine`: prepares each group's constraint once,
    /// fans the evaluation out across rayon workers, and returns the answers
    /// in submission order.
    ///
    /// Parallelism is two-level: the prepares run one-per-group in parallel,
    /// and every group is then split into at most `worker_count` chunks that
    /// all fan out together — a skewed batch dominated by one constraint
    /// still keeps every core busy instead of collapsing to one worker per
    /// group. Chunking respects the source-sorted pair order established by
    /// [`BatchPlan::new`], so the traversal engines' same-source sharing
    /// survives the split.
    ///
    /// A constraint the engine rejects (e.g. a block longer than its
    /// recursive `k`) yields that error for every query of its group; the
    /// other groups still evaluate.
    pub fn execute(&self, engine: &dyn ReachabilityEngine) -> Vec<Result<bool, QueryError>> {
        self.execute_with(engine, |constraint| {
            engine.prepare(constraint).map(Arc::new)
        })
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
        self.execute_with(engine, |constraint| cache.prepare(engine, constraint))
    }

    /// Executes the plan **and explains it**: returns the submission-order
    /// answers together with a machine-readable [`TraceNode`] tree — one
    /// `batch` root carrying plan-level decisions (group count, per-phase
    /// wall-clock) with one `query` child per submitted
    /// query, produced by the engine's
    /// [`ReachabilityEngine::explain_prepared`].
    ///
    /// This is a diagnosis path, not a throughput path: queries evaluate
    /// sequentially so each trace reflects one uncontended evaluation. The
    /// answers are the contract: they are identical — including errors —
    /// to [`BatchPlan::execute`] (or [`BatchPlan::execute_cached`] when
    /// `cache` is `Some`, whose hit/coalesced outcome is recorded on each
    /// query node).
    pub fn execute_explained(
        &self,
        engine: &dyn ReachabilityEngine,
        cache: Option<&PlanCache>,
    ) -> (Vec<Result<bool, QueryError>>, TraceNode) {
        let mut root = TraceNode::new("batch");
        root.attr("engine", engine.name())
            .attr("queries", self.query_count)
            .attr("groups", self.groups.len());

        // Phase 1: prepare each group once, through the cache when given.
        type ExplainedPrepare = (Result<Arc<Prepared>, QueryError>, Option<PrepareOutcome>);
        let prepare_started = Instant::now();
        let prepared: Vec<ExplainedPrepare> = self
            .groups
            .iter()
            .map(|group| match cache {
                Some(cache) => {
                    let (plan, outcome) = cache.prepare_outcome(engine, group.constraint);
                    (plan, Some(outcome))
                }
                None => (engine.prepare(group.constraint).map(Arc::new), None),
            })
            .collect();
        let prepare_ns = prepare_started.elapsed().as_nanos();

        // Phase 2: sequential per-query explained evaluation.
        let execute_started = Instant::now();
        let mut answers: Vec<Result<bool, QueryError>> = vec![Ok(false); self.query_count];
        let mut children: Vec<(usize, TraceNode)> = Vec::with_capacity(self.query_count);
        for (slot, group) in self.groups.iter().enumerate() {
            let (plan, outcome) = &prepared[slot];
            for (&index, &(source, target)) in group.indices.iter().zip(&group.pairs) {
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
                    .attr("group_size", group.pairs.len());
                if let Some(outcome) = outcome {
                    node.attr("cache_hit", outcome.hit)
                        .attr("cache_coalesced", outcome.coalesced)
                        .attr("cache_stale_drop", outcome.stale_drop);
                }
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

    /// Shared execute skeleton over a pluggable preparation source.
    fn execute_with(
        &self,
        engine: &dyn ReachabilityEngine,
        prepare: impl Fn(&Constraint) -> Result<Arc<Prepared>, QueryError> + Sync,
    ) -> Vec<Result<bool, QueryError>> {
        // Phase 1: one prepare per distinct constraint.
        let prepared: Vec<Result<Arc<Prepared>, QueryError>> = {
            let _span = rlc_obs::span!("rlc_plan_prepare_seconds");
            self.groups
                .par_iter()
                .map(|group| prepare(group.constraint))
                .collect()
        };

        // Phase 2: chunk every successfully prepared group and evaluate all
        // chunks in one parallel wave.
        let execute_span = rlc_obs::span!("rlc_plan_execute_seconds");
        let workers = crate::engine::batch_threads().max(1);
        // Each chunk carries the preparation it evaluates under.
        let mut chunks: Vec<(usize, usize, usize, &Arc<Prepared>)> = Vec::new();
        for (slot, (group, artifact)) in self.groups.iter().zip(&prepared).enumerate() {
            let Ok(artifact) = artifact else {
                continue;
            };
            let len = group.pairs.len();
            let chunk_len = len.div_ceil(workers).max(1);
            let mut start = 0;
            while start < len {
                let end = (start + chunk_len).min(len);
                chunks.push((slot, start, end, artifact));
                start = end;
            }
        }
        let chunk_answers: Vec<Vec<Result<bool, QueryError>>> = chunks
            .par_iter()
            .map(|&(slot, start, end, artifact)| {
                engine.evaluate_prepared_group(&self.groups[slot].pairs[start..end], artifact)
            })
            .collect();
        drop(execute_span);

        // Scatter back in submission order.
        let _span = rlc_obs::span!("rlc_plan_scatter_seconds");
        let mut answers: Vec<Result<bool, QueryError>> = vec![Ok(false); self.query_count];
        for (slot, group) in self.groups.iter().enumerate() {
            if let Err(error) = &prepared[slot] {
                for &index in &group.indices {
                    answers[index] = Err(error.clone());
                }
            }
        }
        for (&(slot, start, end, _), results) in chunks.iter().zip(chunk_answers) {
            // Hard contract, not a debug assert: a third-party engine whose
            // grouped override returns the wrong number of results must not
            // silently leave queries at the Ok(false) placeholder.
            assert_eq!(
                end - start,
                results.len(),
                "evaluate_prepared_group must return one result per pair"
            );
            for (&index, result) in self.groups[slot].indices[start..end].iter().zip(results) {
                answers[index] = result;
            }
        }
        answers
    }
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
        // A batch dominated by one constraint is split into chunks inside
        // the group (so multi-core hosts keep every worker busy), but the
        // chunking must not change the one-prepare contract or the
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
}
