//! Hybrid evaluation of extended constraints (§VI-C, query Q4).
//!
//! The paper demonstrates the generality of the RLC index by also answering
//! reachability queries whose constraint is a *concatenation of Kleene-plus
//! blocks*, e.g. `a+ ∘ b+`: the index alone cannot answer these, but an
//! online traversal over all blocks except the last, combined with an index
//! lookup for the last block, can. This module implements that strategy for
//! an arbitrary number of blocks; the entry points are the engine layer's
//! [`crate::engine::IndexEngine`] / [`crate::engine::HybridEngine`] over the
//! unified [`crate::query::Query`] model (the legacy `ConcatQuery` type and
//! its `evaluate_hybrid` entry point are gone — `Query::concat` constructs
//! the same queries with validation at construction).

use crate::catalog::MrId;
use crate::index::RlcIndex;
use crate::kernel::with_kernel_scratch;
use rlc_graph::{Label, LabeledGraph, VertexId};

/// The shared skeleton of hybrid evaluation over pre-validated blocks: runs
/// the online repetition closure for every block except the last
/// ([`prefix_frontier`]), then reports whether `last_block_reaches` holds
/// for any frontier vertex.
///
/// This is the one frontier loop behind both the RLC-index engines (last
/// block answered by [`RlcIndex`] lookup) and the ETC engine in
/// `rlc-baselines` (last block answered by a closure lookup) — the lookup
/// is the only difference, so it is the parameter.
pub fn evaluate_blocks_with(
    graph: &LabeledGraph,
    source: VertexId,
    blocks: &[Vec<Label>],
    last_block_reaches: impl Fn(VertexId) -> bool,
) -> bool {
    if blocks.len() == 1 {
        // No prefix to close over: the frontier is the source itself.
        return last_block_reaches(source);
    }
    prefix_frontier(graph, source, blocks)
        .iter()
        .any(|&v| last_block_reaches(v))
}

/// Hybrid evaluation over a pre-validated block structure with the final
/// block's minimum repeat already resolved against the index catalog — the
/// execute half of the prepare/execute split
/// ([`crate::engine::ReachabilityEngine::evaluate_prepared`]).
///
/// `last_mr` is `None` when the final block's MR does not occur in the
/// catalog, in which case no path can satisfy the constraint and the answer
/// is `false` without touching the graph.
pub(crate) fn evaluate_hybrid_prepared(
    graph: &LabeledGraph,
    index: &RlcIndex,
    source: VertexId,
    target: VertexId,
    blocks: &[Vec<Label>],
    last_mr: Option<MrId>,
) -> bool {
    let Some(mr_id) = last_mr else {
        return false;
    };
    // Lin(target)'s run is resolved once, not once per frontier vertex.
    let probe = index.target_probe(target, mr_id);
    evaluate_blocks_with(graph, source, blocks, |v| probe.reached_from(v))
}

/// Grouped evaluation over pre-validated blocks, shared by every engine
/// whose final block is answered by a pair lookup (the RLC index engines,
/// ETC): the one grouped skeleton behind their `evaluate_prepared_group`
/// overrides, parameterized over the lookup the way [`evaluate_blocks_with`]
/// parameterizes the per-pair path.
///
/// `resolved` is the outcome of resolving the final block for the engine:
/// an error makes every in-range pair report it (the constraint is invalid
/// for the engine), `Ok(None)` means the block is absent from the engine's
/// catalog (no path can satisfy the constraint — every in-range pair is
/// `false`), and `Ok(Some(probe_for))` supplies the lookup in two stages:
/// `probe_for(target)` resolves whatever depends on the target alone, and
/// the predicate it returns answers one frontier vertex. Pairs are
/// range-checked first, exactly like the per-pair paths, so an out-of-range
/// pair reports `VertexOutOfRange` even when the constraint is also
/// invalid. For multi-block constraints the prefix-block repetition closure
/// is computed **once per distinct source** ([`prefix_frontier`]) and
/// shared by every pair of the group with that source; single-block
/// constraints are per-pair lookups in a plain loop, with no grouping.
pub fn evaluate_blocks_grouped_with<F, P>(
    graph: &LabeledGraph,
    pairs: &[(VertexId, VertexId)],
    blocks: &[Vec<Label>],
    resolved: Result<Option<F>, crate::query::QueryError>,
) -> Vec<Result<bool, crate::query::QueryError>>
where
    F: Fn(VertexId) -> P,
    P: Fn(VertexId) -> bool,
{
    let in_range = |&(s, t): &(VertexId, VertexId)| {
        crate::engine::check_vertex_range(s, t, graph.vertex_count())
    };
    let probe_for = match resolved {
        Ok(Some(probe_for)) => probe_for,
        Ok(None) => return pairs.iter().map(|p| in_range(p).map(|()| false)).collect(),
        Err(error) => {
            return pairs
                .iter()
                .map(|p| in_range(p).and(Err(error.clone())))
                .collect()
        }
    };
    if blocks.len() == 1 {
        return pairs
            .iter()
            .map(|p| in_range(p).map(|()| probe_for(p.1)(p.0)))
            .collect();
    }
    let mut answers: Vec<Result<bool, crate::query::QueryError>> = Vec::with_capacity(pairs.len());
    let mut by_source: std::collections::HashMap<VertexId, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, pair) in pairs.iter().enumerate() {
        answers.push(in_range(pair).map(|()| false));
        if answers[i].is_ok() {
            by_source.entry(pair.0).or_default().push(i);
        }
    }
    for (source, indices) in by_source {
        // One repetition-closure pass over the prefix blocks serves every
        // target sharing this source.
        let frontier = prefix_frontier(graph, source, blocks);
        for i in indices {
            let reaches = probe_for(pairs[i].1);
            answers[i] = Ok(frontier.iter().any(|&v| reaches(v)));
        }
    }
    answers
}

/// The frontier after running the online repetition closure over every
/// block except the last: all vertices from which the final block's index
/// (or closure) lookup has to be answered. Computed **once per source** by
/// the grouped hybrid path, so same-source pairs of a constraint group share
/// the online traversal instead of re-running it per pair. Public because
/// the ETC engine's grouped path (`rlc-baselines`) and the sharded stitcher
/// (`rlc-shard`) share the same once-per-source structure.
pub fn prefix_frontier(
    graph: &LabeledGraph,
    source: VertexId,
    blocks: &[Vec<Label>],
) -> Vec<VertexId> {
    let mut frontier: Vec<VertexId> = vec![source];
    for block in &blocks[..blocks.len() - 1] {
        frontier = repetition_closure(graph, &frontier, block);
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// All vertices reachable from `sources` by a path whose label sequence is
/// one or more repetitions of `block`, in ascending vertex order.
///
/// This is the online half of hybrid evaluation, exposed so other engines
/// (e.g. the ETC adapter in `rlc-baselines`) can reuse it for the prefix
/// blocks of a concatenated constraint. The visited and boundary sets are
/// bit-parallel [`crate::kernel::FrontierSet`]s from the thread-local
/// kernel-scratch pool, so batch evaluation allocates nothing per query
/// beyond the returned vector (pre-sized by a dispatched popcount).
pub fn repetition_closure(
    graph: &LabeledGraph,
    sources: &[VertexId],
    block: &[Label],
) -> Vec<VertexId> {
    let klen = block.len();
    with_kernel_scratch(|scratch| {
        // Visited ranges over `(vertex, position-within-block)` product
        // slots; the boundary accumulator over plain vertices.
        scratch.visited.begin(graph.vertex_count() * klen);
        scratch.boundary.begin(graph.vertex_count());
        scratch.queue.clear();
        let slot = |v: VertexId, state: usize| v as usize * klen + state;
        for &s in sources {
            if !scratch.visited.test_and_set(slot(s, 0)) {
                scratch.queue.push_back((s, 0));
            }
        }
        while let Some((x, state)) = scratch.queue.pop_front() {
            let expected = block[state as usize];
            for (y, label) in graph.out_edges(x) {
                if label != expected {
                    continue;
                }
                let next = (state as usize + 1) % klen;
                // Record the repetition boundary before the visited check:
                // a source vertex has `(source, 0)` pre-visited, but a
                // cycle that returns to it still makes it reachable under
                // `block+`.
                if next == 0 {
                    scratch.boundary.test_and_set(y as usize);
                }
                if !scratch.visited.test_and_set(slot(y, next)) {
                    scratch.queue.push_back((y, next as u32));
                }
            }
        }
        let mut out = Vec::with_capacity(scratch.boundary.count());
        scratch.boundary.for_each_set(|v| out.push(v as VertexId));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::engine::{IndexEngine, ReachabilityEngine};
    use crate::query::{Query, QueryError};
    use rlc_graph::examples::fig1_graph;
    use rlc_graph::GraphBuilder;

    fn label(graph: &LabeledGraph, name: &str) -> Label {
        graph.labels().resolve(name).unwrap()
    }

    #[test]
    fn single_block_matches_plain_query() {
        let g = fig1_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let engine = IndexEngine::new(&g, &index);
        let q = Query::concat(
            g.vertex_id("A14").unwrap(),
            g.vertex_id("A19").unwrap(),
            vec![vec![label(&g, "debits"), label(&g, "credits")]],
        )
        .unwrap();
        assert_eq!(engine.evaluate(&q), Ok(true));
    }

    #[test]
    fn two_blocks_knows_then_holds() {
        // P10 -knows+-> P11/P12/P13/P16, then -holds+-> an account.
        let g = fig1_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let engine = IndexEngine::new(&g, &index);
        let q = Query::concat(
            g.vertex_id("P10").unwrap(),
            g.vertex_id("A19").unwrap(),
            vec![vec![label(&g, "knows")], vec![label(&g, "holds")]],
        )
        .unwrap();
        assert_eq!(engine.evaluate(&q), Ok(true));
        // There is no knows+ ∘ debits+ path from P10 (debits leaves accounts,
        // which knows+ never reaches).
        let q2 = Query::concat(
            g.vertex_id("P10").unwrap(),
            g.vertex_id("E15").unwrap(),
            vec![vec![label(&g, "knows")], vec![label(&g, "debits")]],
        )
        .unwrap();
        assert_eq!(engine.evaluate(&q2), Ok(false));
    }

    #[test]
    fn three_blocks_chain() {
        // a -x-> b -x-> c -y-> d -z-> e : x+ ∘ y+ ∘ z+ from a to e.
        let mut builder = GraphBuilder::new();
        builder.add_edge_named("a", "x", "b");
        builder.add_edge_named("b", "x", "c");
        builder.add_edge_named("c", "y", "d");
        builder.add_edge_named("d", "z", "e");
        let g = builder.build();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let engine = IndexEngine::new(&g, &index);
        let q = Query::concat(
            g.vertex_id("a").unwrap(),
            g.vertex_id("e").unwrap(),
            vec![
                vec![label(&g, "x")],
                vec![label(&g, "y")],
                vec![label(&g, "z")],
            ],
        )
        .unwrap();
        assert_eq!(engine.evaluate(&q), Ok(true));
        // Wrong order of blocks must fail.
        let q_bad = Query::concat(
            g.vertex_id("a").unwrap(),
            g.vertex_id("e").unwrap(),
            vec![
                vec![label(&g, "y")],
                vec![label(&g, "x")],
                vec![label(&g, "z")],
            ],
        )
        .unwrap();
        assert_eq!(engine.evaluate(&q_bad), Ok(false));
    }

    #[test]
    fn cycle_back_to_source_counts_as_first_block() {
        // a -x-> b -x-> a -y-> c : the only x+ path ending where the y block
        // can start is the cycle back to a itself.
        let mut builder = GraphBuilder::new();
        builder.add_edge_named("a", "x", "b");
        builder.add_edge_named("b", "x", "a");
        builder.add_edge_named("a", "y", "c");
        let g = builder.build();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let engine = IndexEngine::new(&g, &index);
        let q = Query::concat(
            g.vertex_id("a").unwrap(),
            g.vertex_id("c").unwrap(),
            vec![vec![label(&g, "x")], vec![label(&g, "y")]],
        )
        .unwrap();
        assert_eq!(engine.evaluate(&q), Ok(true));
    }

    #[test]
    fn invalid_shapes_are_unconstructible_and_overlong_blocks_error() {
        // The legacy ConcatQuery deferred structural validation to
        // evaluation; the unified model rejects the same shapes at
        // construction, and the only evaluation-time error left is the
        // engine-specific k bound.
        assert_eq!(
            Query::concat(0, 1, vec![]).unwrap_err(),
            QueryError::EmptyConstraint
        );
        assert_eq!(
            Query::concat(0, 1, vec![vec![Label(0)], vec![]]).unwrap_err(),
            QueryError::EmptyBlock(1)
        );
        assert_eq!(
            Query::concat(0, 1, vec![vec![Label(0), Label(0)]]).unwrap_err(),
            QueryError::BlockNotMinimumRepeat(0)
        );
        let g = fig1_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let engine = IndexEngine::new(&g, &index);
        let too_long = Query::concat(0, 1, vec![vec![Label(0), Label(1), Label(2)]]).unwrap();
        assert_eq!(
            engine.evaluate(&too_long),
            Err(QueryError::BlockTooLong {
                block: 0,
                len: 3,
                k: 2
            })
        );
    }

    #[test]
    fn prefix_frontier_matches_manual_closure_chaining() {
        let g = fig1_graph();
        let knows = label(&g, "knows");
        let holds = label(&g, "holds");
        let p10 = g.vertex_id("P10").unwrap();
        let blocks = vec![vec![knows], vec![holds]];
        let mut expected = repetition_closure(&g, &[p10], &[knows]);
        expected.sort_unstable();
        let mut got = prefix_frontier(&g, p10, &blocks);
        got.sort_unstable();
        assert_eq!(got, expected);
        // A single block has no prefix: the frontier is the source itself.
        assert_eq!(prefix_frontier(&g, p10, &blocks[..1]), vec![p10]);
        // A dead prefix yields an empty frontier (knows+ only reaches
        // persons, and no person has an outgoing debits edge).
        let debits = label(&g, "debits");
        let blocks = vec![vec![knows], vec![debits], vec![holds]];
        assert!(prefix_frontier(&g, p10, &blocks).is_empty());
    }
}
