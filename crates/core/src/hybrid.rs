//! Hybrid evaluation of extended constraints (§VI-C, query Q4).
//!
//! The paper demonstrates the generality of the RLC index by also answering
//! reachability queries whose constraint is a *concatenation of Kleene-plus
//! blocks*, e.g. `a+ ∘ b+`: the index alone cannot answer these, but an
//! online repetition closure over every block except one *end* block,
//! combined with an index lookup for that end block, can. The paper closes
//! from the source and looks the last block up; Definition 4 is symmetric,
//! so the index answers the first block just as well while the closure
//! walks in-edges backward from the target. Which end is closed online only
//! changes the cost, never the answer (the index is complete for every
//! block of length ≤ k), so the index-backed engines pick the end whose
//! block grows more slowly (`closure_direction`): a block whose labels
//! are common can cover most of the graph when closed online, and one
//! index lookup per frontier vertex is all it costs when the index answers
//! it instead.
//!
//! The entry points are the engine layer's [`crate::engine::IndexEngine`] /
//! [`crate::engine::HybridEngine`] over the unified
//! [`crate::query::Query`] model. The public forward skeletons
//! ([`evaluate_blocks_with`], [`evaluate_blocks_grouped_with`],
//! [`prefix_frontier`], [`repetition_closure`]) keep the paper's
//! source-side strategy for the ETC adapter in `rlc-baselines` and the
//! sharded stitcher in `rlc-shard`.

use crate::catalog::MrId;
use crate::index::RlcIndex;
use crate::kernel::{with_kernel_scratch, Direction};
use rlc_graph::{Label, LabeledGraph, VertexId};

/// The shared skeleton of forward hybrid evaluation over pre-validated
/// blocks: runs the online repetition closure from `source` over every
/// block except the last ([`prefix_frontier`]), then reports whether
/// `last_block_reaches` holds for any frontier vertex.
///
/// This is the frontier loop behind the ETC engine in `rlc-baselines` (last
/// block answered by a closure lookup), the sharded stitcher's local fast
/// path, and the RLC-index engines when they close forward (last block
/// answered by [`RlcIndex`] lookup; closing backward, they run the same
/// skeleton from the target) — the lookup is the only difference, so it is
/// the parameter.
pub fn evaluate_blocks_with(
    graph: &LabeledGraph,
    source: VertexId,
    blocks: &[Vec<Label>],
    last_block_reaches: impl Fn(VertexId) -> bool,
) -> bool {
    evaluate_blocks_toward(
        graph,
        source,
        blocks,
        Direction::Forward,
        last_block_reaches,
    )
}

/// [`evaluate_blocks_with`] in either direction: `anchor` is the source
/// when closing forward and the target when closing backward, and
/// `end_block_reaches` answers the block left open (the last forward, the
/// first backward) between a frontier vertex and the other end of the
/// query.
fn evaluate_blocks_toward(
    graph: &LabeledGraph,
    anchor: VertexId,
    blocks: &[Vec<Label>],
    closure: Direction,
    end_block_reaches: impl Fn(VertexId) -> bool,
) -> bool {
    if blocks.len() == 1 {
        // Nothing to close over: the frontier is the anchor itself.
        return end_block_reaches(anchor);
    }
    frontier_toward(graph, anchor, blocks, closure)
        .iter()
        .any(|&v| end_block_reaches(v))
}

/// The end of a concatenation the index-backed engines close online:
/// [`Direction::Backward`] (from the target, leaving the first block to the
/// index) when the first block grows faster than the last, and
/// [`Direction::Forward`] (the paper's strategy) otherwise — always for a
/// single block, and on a tie.
///
/// A block's growth is `∏_{l ∈ B} |E_l| / |V|`, the expected number of
/// vertices one repetition of `B` leads to from a vertex, where `|E_l|` is
/// [`LabeledGraph::label_edge_count`]. It is a comparison, not a threshold:
/// both directions answer the same, so no setting can make it wrong.
pub(crate) fn closure_direction(graph: &LabeledGraph, blocks: &[Vec<Label>]) -> Direction {
    let vertices = graph.vertex_count().max(1) as f64;
    let growth = |block: &[Label]| -> f64 {
        block
            .iter()
            .map(|&l| graph.label_edge_count(l) as f64 / vertices)
            .product()
    };
    match (blocks.first(), blocks.last()) {
        (Some(first), Some(last)) if growth(first) > growth(last) => Direction::Backward,
        _ => Direction::Forward,
    }
}

/// Hybrid evaluation over a pre-validated block structure with one end
/// block's minimum repeat already resolved against the index catalog — the
/// execute half of the prepare/execute split
/// ([`crate::engine::ReachabilityEngine::evaluate_prepared`]).
///
/// `closure` says which end the online closure starts from: forward, the
/// index answers the last block (`end_mr` is its MR) between each frontier
/// vertex and `target`; backward, it answers the first block between
/// `source` and each frontier vertex of the target. `end_mr` is `None` when
/// the constraint is known unsatisfiable (an end block's MR does not occur
/// in the catalog), and the answer is then `false` without touching the
/// graph.
pub(crate) fn evaluate_hybrid_prepared(
    graph: &LabeledGraph,
    index: &RlcIndex,
    source: VertexId,
    target: VertexId,
    blocks: &[Vec<Label>],
    end_mr: Option<MrId>,
    closure: Direction,
) -> bool {
    let Some(mr_id) = end_mr else {
        return false;
    };
    match closure {
        Direction::Forward => {
            // Lin(target)'s run is resolved once, not once per frontier
            // vertex.
            let probe = index.target_probe(target, mr_id);
            evaluate_blocks_with(graph, source, blocks, |v| probe.reached_from(v))
        }
        Direction::Backward => evaluate_blocks_toward(graph, target, blocks, closure, |w| {
            index.query_mr(source, w, mr_id)
        }),
    }
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
    let probe_for = match resolved {
        Ok(Some(probe_for)) => probe_for,
        Ok(None) => {
            return pairs
                .iter()
                .map(|p| in_range(graph, p).map(|()| false))
                .collect()
        }
        Err(error) => {
            return pairs
                .iter()
                .map(|p| in_range(graph, p).and(Err(error.clone())))
                .collect()
        }
    };
    if blocks.len() == 1 {
        return pairs
            .iter()
            .map(|p| in_range(graph, p).map(|()| probe_for(p.1)(p.0)))
            .collect();
    }
    evaluate_concat_grouped(graph, pairs, blocks, Direction::Forward, probe_for)
}

/// The grouped path of a concatenation (two or more blocks) in either
/// direction. Closing forward, pairs are grouped by source — one prefix
/// closure per distinct source — and `probe_for` takes the target; closing
/// backward, pairs are grouped by target — one suffix closure per distinct
/// target — and `probe_for` takes the source, its predicate answering the
/// first block between that source and one frontier vertex. Out-of-range
/// pairs report `VertexOutOfRange`.
pub(crate) fn evaluate_concat_grouped<F, P>(
    graph: &LabeledGraph,
    pairs: &[(VertexId, VertexId)],
    blocks: &[Vec<Label>],
    closure: Direction,
    probe_for: F,
) -> Vec<Result<bool, crate::query::QueryError>>
where
    F: Fn(VertexId) -> P,
    P: Fn(VertexId) -> bool,
{
    // The end the closure starts from, and the end the probe is built for.
    let ends = |&(s, t): &(VertexId, VertexId)| match closure {
        Direction::Forward => (s, t),
        Direction::Backward => (t, s),
    };
    let mut answers: Vec<Result<bool, crate::query::QueryError>> = Vec::with_capacity(pairs.len());
    let mut by_anchor: std::collections::HashMap<VertexId, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, pair) in pairs.iter().enumerate() {
        answers.push(in_range(graph, pair).map(|()| false));
        if answers[i].is_ok() {
            by_anchor.entry(ends(pair).0).or_default().push(i);
        }
    }
    for (anchor, indices) in by_anchor {
        // One repetition-closure pass over the closed blocks serves every
        // pair sharing this anchor.
        let frontier = frontier_toward(graph, anchor, blocks, closure);
        for i in indices {
            let reaches = probe_for(ends(&pairs[i]).1);
            answers[i] = Ok(frontier.iter().any(|&v| reaches(v)));
        }
    }
    answers
}

/// Range-checks one pair against the graph, as the per-pair paths do.
fn in_range(
    graph: &LabeledGraph,
    &(s, t): &(VertexId, VertexId),
) -> Result<(), crate::query::QueryError> {
    crate::engine::check_vertex_range(s, t, graph.vertex_count())
}

/// The frontier after running the online repetition closure from `source`
/// over every block except the last: all vertices from which the final
/// block's index (or closure) lookup has to be answered. Computed **once
/// per source** by the grouped hybrid path, so same-source pairs of a
/// constraint group share the online traversal instead of re-running it per
/// pair. Public because the ETC engine's grouped path (`rlc-baselines`) and
/// the sharded stitcher (`rlc-shard`) share the same once-per-source
/// structure.
pub fn prefix_frontier(
    graph: &LabeledGraph,
    source: VertexId,
    blocks: &[Vec<Label>],
) -> Vec<VertexId> {
    frontier_toward(graph, source, blocks, Direction::Forward)
}

/// [`prefix_frontier`] in either direction. Backward, `anchor` is the
/// target and the closure runs over every block except the first, last
/// block first: the result is every `w` with a path `w ⇝ anchor` spelling
/// `B2+ ∘ … ∘ Bn+`, from which the first block's lookup has to be answered.
pub(crate) fn frontier_toward(
    graph: &LabeledGraph,
    anchor: VertexId,
    blocks: &[Vec<Label>],
    closure: Direction,
) -> Vec<VertexId> {
    let closed = blocks.len() - 1;
    let mut frontier: Vec<VertexId> = vec![anchor];
    for step in 0..closed {
        let block = match closure {
            Direction::Forward => &blocks[step],
            Direction::Backward => &blocks[closed - step],
        };
        frontier = closure_toward(graph, &frontier, block, closure);
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
    closure_toward(graph, sources, block, Direction::Forward)
}

/// [`repetition_closure`] in either direction. Backward, it walks in-edges
/// and reads `block` right to left, exactly as the index builder's backward
/// kernel BFS does: the result is every `w` with a path from `w` to some
/// vertex of `sources` spelling `block` one or more times.
pub(crate) fn closure_toward(
    graph: &LabeledGraph,
    sources: &[VertexId],
    block: &[Label],
    walk: Direction,
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
            let expected = block[walk.block_offset(state, klen as u32) as usize];
            for (y, label) in walk.edges(graph, x) {
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

    /// Deterministic case generator (splitmix64).
    struct CaseRng(u64);

    impl CaseRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            ((self.next_u64() as u128 * bound as u128) >> 64) as usize
        }
    }

    /// A seeded random labelled digraph of 2–8 vertices over 1–3 labels with
    /// up to `3n` edges (self loops and parallel edges included), and a `k`
    /// in 1..=3 — the family of the packed-layout differential.
    fn random_case(seed: u64) -> (LabeledGraph, usize) {
        let mut rng = CaseRng(seed);
        let n = 2 + rng.below(7);
        let labels = 1 + rng.below(3);
        let k = 1 + rng.below(3);
        let mut builder = GraphBuilder::with_capacity(n, labels);
        for _ in 0..rng.below(3 * n + 1) {
            let (s, l, t) = (rng.below(n), rng.below(labels), rng.below(n));
            builder.add_edge(s as VertexId, Label::from_index(l), t as VertexId);
        }
        (builder.build(), k)
    }

    #[test]
    fn both_closure_directions_answer_every_concatenation_alike() {
        for seed in 0..48u64 {
            let (g, k) = random_case(seed);
            let index = &build_index(&g, &BuildConfig::new(k)).0;
            let blocks_pool = crate::repeats::enumerate_minimum_repeats(g.label_count().max(1), k);
            // The backward closure of every block is the converse of the
            // forward one: w is in it iff t is in the forward closure of w.
            for block in &blocks_pool {
                let forward: Vec<Vec<VertexId>> = g
                    .vertices()
                    .map(|w| repetition_closure(&g, &[w], block))
                    .collect();
                for t in g.vertices() {
                    let expected: Vec<VertexId> = g
                        .vertices()
                        .filter(|&w| forward[w as usize].contains(&t))
                        .collect();
                    assert_eq!(
                        closure_toward(&g, &[t], block, Direction::Backward),
                        expected,
                        "seed {seed}: backward closure of {t} under {block:?}"
                    );
                }
            }
            let mut rng = CaseRng(seed ^ 0xD1CE);
            let pairs: Vec<(VertexId, VertexId)> = g
                .vertices()
                .flat_map(|s| g.vertices().map(move |t| (s, t)))
                .collect();
            for _ in 0..24 {
                let blocks: Vec<Vec<Label>> = (0..2 + rng.below(2))
                    .map(|_| blocks_pool[rng.below(blocks_pool.len())].clone())
                    .collect();
                let resolve = |block: &Vec<Label>| index.catalog().resolve(block);
                let forced = |closure| match closure {
                    Direction::Forward => resolve(&blocks[blocks.len() - 1]),
                    Direction::Backward => resolve(&blocks[0]),
                };
                let answer = |s, t, closure| {
                    evaluate_hybrid_prepared(&g, index, s, t, &blocks, forced(closure), closure)
                };
                let grouped = |closure| {
                    let Some(mr) = forced(closure) else {
                        return vec![Ok(false); pairs.len()];
                    };
                    evaluate_concat_grouped(&g, &pairs, &blocks, closure, |far| {
                        // Forward, `far` is the target; backward, the source.
                        move |v: VertexId| match closure {
                            Direction::Forward => index.query_mr(v, far, mr),
                            Direction::Backward => index.query_mr(far, v, mr),
                        }
                    })
                };
                let (grouped_forward, grouped_backward) =
                    (grouped(Direction::Forward), grouped(Direction::Backward));
                for (i, &(s, t)) in pairs.iter().enumerate() {
                    let forward = answer(s, t, Direction::Forward);
                    assert_eq!(
                        answer(s, t, Direction::Backward),
                        forward,
                        "seed {seed}: ({s}, {t}) under {blocks:?}"
                    );
                    assert_eq!(grouped_forward[i], Ok(forward));
                    assert_eq!(grouped_backward[i], Ok(forward));
                }
            }
        }
    }
}
