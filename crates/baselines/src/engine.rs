//! [`ReachabilityEngine`] adapters for the baseline evaluators.
//!
//! Each traversal adapter borrows the graph and routes the prepare/execute
//! surface through the scratch-backed traversal functions; ETC is the core
//! index engine over the closure ([`EtcEngine`]).
//! The prepared artifact of the traversal engines is the constraint's
//! [`Nfa`], compiled once per [`ReachabilityEngine::prepare`] instead of once
//! per query; their [`ReachabilityEngine::evaluate_prepared_group`] override
//! answers every pair of a constraint group that shares a source with one
//! multi-target product search ([`bfs_product_multi`]).

use crate::bfs::{bfs_product, bfs_product_multi};
use crate::bibfs::bibfs_product;
use crate::dfs::dfs_product;
use crate::etc::EtcIndex;
use crate::nfa::Nfa;
use rlc_core::catalog::{MrCatalog, MrId};
use rlc_core::engine::{
    check_vertex_range, BlockIndex, Generation, IndexEngine, Prepared, ReachabilityEngine,
};
use rlc_core::{Constraint, Query, QueryError};
use rlc_graph::{LabeledGraph, VertexId};
use std::collections::HashMap;

/// Compiles the NFA artifact shared by the traversal engines, priced at its
/// real footprint so plan-cache byte budgets stay honest.
fn prepare_nfa(engine_name: &str, constraint: &Constraint) -> Prepared {
    let nfa = Nfa::concatenation(constraint.blocks());
    let bytes = nfa.memory_bytes();
    Prepared::new(constraint.clone(), engine_name, nfa).with_approx_bytes(bytes)
}

/// Runs `eval` with the prepared NFA, re-compiling from the constraint when
/// the preparation came from an engine with a different artifact type — the
/// shared foreign-`Prepared` fallback of every NFA-driven engine (the
/// traversal baselines here and the simulated engines in `rlc-engine-sim`).
pub fn with_prepared_nfa<R>(prepared: &Prepared, eval: impl FnOnce(&Nfa) -> R) -> R {
    match prepared.artifact::<Nfa>() {
        Some(nfa) => eval(nfa),
        None => eval(&Nfa::concatenation(prepared.constraint().blocks())),
    }
}

/// Grouped evaluation shared by the forward traversal engines: pairs are
/// bucketed by source and each bucket is answered by one multi-target
/// product search.
fn grouped_forward_search(
    graph: &LabeledGraph,
    prepared: &Prepared,
    pairs: &[(VertexId, VertexId)],
) -> Vec<Result<bool, QueryError>> {
    with_prepared_nfa(prepared, |nfa| {
        let mut by_source: HashMap<VertexId, Vec<usize>> = HashMap::new();
        let mut answers: Vec<Result<bool, QueryError>> = Vec::with_capacity(pairs.len());
        for (i, &(s, t)) in pairs.iter().enumerate() {
            match check_vertex_range(s, t, graph.vertex_count()) {
                Ok(()) => {
                    answers.push(Ok(false));
                    by_source.entry(s).or_default().push(i);
                }
                Err(error) => answers.push(Err(error)),
            }
        }
        for (source, indices) in by_source {
            let targets: Vec<VertexId> = indices.iter().map(|&i| pairs[i].1).collect();
            let hits = bfs_product_multi(graph, nfa, source, &targets);
            for (&i, hit) in indices.iter().zip(hits) {
                answers[i] = Ok(hit);
            }
        }
        answers
    })
}

/// The online breadth-first baseline as a [`ReachabilityEngine`].
pub struct BfsEngine<'g> {
    graph: &'g LabeledGraph,
}

impl<'g> BfsEngine<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g LabeledGraph) -> Self {
        BfsEngine { graph }
    }
}

impl ReachabilityEngine for BfsEngine<'_> {
    fn name(&self) -> &str {
        "BFS"
    }

    fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError> {
        Ok(prepare_nfa(self.name(), constraint))
    }

    fn evaluate_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> Result<bool, QueryError> {
        check_vertex_range(source, target, self.graph.vertex_count())?;
        Ok(with_prepared_nfa(prepared, |nfa| {
            bfs_product(self.graph, nfa, source, target)
        }))
    }

    fn evaluate(&self, query: &Query) -> Result<bool, QueryError> {
        // One-shot fast path: compile the automaton on the spot without
        // boxing a `Prepared` (same result order as prepare-then-execute;
        // preparation never fails for a traversal engine).
        check_vertex_range(query.source, query.target, self.graph.vertex_count())?;
        let nfa = Nfa::concatenation(query.constraint().blocks());
        Ok(bfs_product(self.graph, &nfa, query.source, query.target))
    }

    fn evaluate_prepared_group(
        &self,
        pairs: &[(VertexId, VertexId)],
        prepared: &Prepared,
    ) -> Vec<Result<bool, QueryError>> {
        grouped_forward_search(self.graph, prepared, pairs)
    }
}

/// The bidirectional-search baseline as a [`ReachabilityEngine`].
pub struct BiBfsEngine<'g> {
    graph: &'g LabeledGraph,
}

impl<'g> BiBfsEngine<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g LabeledGraph) -> Self {
        BiBfsEngine { graph }
    }
}

impl ReachabilityEngine for BiBfsEngine<'_> {
    fn name(&self) -> &str {
        "BiBFS"
    }

    fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError> {
        Ok(prepare_nfa(self.name(), constraint))
    }

    fn evaluate_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> Result<bool, QueryError> {
        check_vertex_range(source, target, self.graph.vertex_count())?;
        Ok(with_prepared_nfa(prepared, |nfa| {
            bibfs_product(self.graph, nfa, source, target)
        }))
    }

    fn evaluate(&self, query: &Query) -> Result<bool, QueryError> {
        // One-shot fast path: compile the automaton on the spot without
        // boxing a `Prepared` (same result order as prepare-then-execute;
        // preparation never fails for a traversal engine).
        check_vertex_range(query.source, query.target, self.graph.vertex_count())?;
        let nfa = Nfa::concatenation(query.constraint().blocks());
        Ok(bibfs_product(self.graph, &nfa, query.source, query.target))
    }

    // No grouped override: measured on ER graphs, one bidirectional search
    // per pair (meeting in the middle, early exit) beats a shared forward
    // multi-target exploration even when dozens of pairs share a source —
    // the full accepting-reachable set costs more than many tiny meets.
    // BiBFS still gains the planner's one-prepare-per-group amortization
    // through the default per-pair implementation.
}

/// The depth-first baseline as a [`ReachabilityEngine`].
pub struct DfsEngine<'g> {
    graph: &'g LabeledGraph,
}

impl<'g> DfsEngine<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g LabeledGraph) -> Self {
        DfsEngine { graph }
    }
}

impl ReachabilityEngine for DfsEngine<'_> {
    fn name(&self) -> &str {
        "DFS"
    }

    fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError> {
        Ok(prepare_nfa(self.name(), constraint))
    }

    fn evaluate_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> Result<bool, QueryError> {
        check_vertex_range(source, target, self.graph.vertex_count())?;
        Ok(with_prepared_nfa(prepared, |nfa| {
            dfs_product(self.graph, nfa, source, target)
        }))
    }

    fn evaluate(&self, query: &Query) -> Result<bool, QueryError> {
        // One-shot fast path: compile the automaton on the spot without
        // boxing a `Prepared` (same result order as prepare-then-execute;
        // preparation never fails for a traversal engine).
        check_vertex_range(query.source, query.target, self.graph.vertex_count())?;
        let nfa = Nfa::concatenation(query.constraint().blocks());
        Ok(dfs_product(self.graph, &nfa, query.source, query.target))
    }

    fn evaluate_prepared_group(
        &self,
        pairs: &[(VertexId, VertexId)],
        prepared: &Prepared,
    ) -> Vec<Result<bool, QueryError>> {
        // Reachability is order-independent, so the grouped path shares the
        // breadth-first multi-target search.
        grouped_forward_search(self.graph, prepared, pairs)
    }
}

impl BlockIndex for EtcIndex {
    const ENGINE_NAME: &'static str = "ETC";

    fn k(&self) -> usize {
        EtcIndex::k(self)
    }

    fn generation(&self) -> Generation {
        EtcIndex::generation(self)
    }

    fn catalog(&self) -> &MrCatalog {
        EtcIndex::catalog(self)
    }

    fn query_mr(&self, s: VertexId, t: VertexId, mr: MrId) -> bool {
        EtcIndex::query_mr(self, s, t, mr)
    }
}

/// The extended transitive closure as a [`ReachabilityEngine`]: the index
/// engine with the closure's hash lookup answering the end block.
///
/// Single-block constraints are answered by the lookup alone; concatenated
/// constraints close online from whichever end grows more slowly and look
/// the other end block up per frontier vertex, as over the RLC index.
pub type EtcEngine<'g> = IndexEngine<'g, EtcIndex>;

/// The three purely online traversal engines over `graph`, boxed for uniform
/// iteration (BFS, BiBFS, DFS).
pub fn online_engines(graph: &LabeledGraph) -> Vec<Box<dyn ReachabilityEngine + '_>> {
    vec![
        Box::new(BfsEngine::new(graph)),
        Box::new(BiBfsEngine::new(graph)),
        Box::new(DfsEngine::new(graph)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etc::EtcBuildConfig;
    use rlc_core::kernel::Direction;
    use rlc_core::{Query, RlcQuery};
    use rlc_graph::examples::fig1_graph;
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
    use rlc_graph::Label;

    #[test]
    fn online_engines_have_distinct_names() {
        let g = fig1_graph();
        let engines = online_engines(&g);
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["BFS", "BiBFS", "DFS"]);
    }

    #[test]
    fn adapters_agree_with_each_other_on_rlc_queries() {
        let g = erdos_renyi(&SyntheticConfig::new(70, 3.0, 3, 13));
        let engines = online_engines(&g);
        for s in (0..g.vertex_count() as u32).step_by(7) {
            for t in (0..g.vertex_count() as u32).step_by(9) {
                for constraint in [vec![Label(0)], vec![Label(0), Label(1)]] {
                    let q = Query::rlc(s, t, constraint).unwrap();
                    let answers: Vec<bool> =
                        engines.iter().map(|e| e.evaluate(&q).unwrap()).collect();
                    assert_eq!(answers[0], answers[1], "BFS vs BiBFS on ({s},{t})");
                    assert_eq!(answers[0], answers[2], "BFS vs DFS on ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn prepared_evaluation_matches_one_shot_for_all_adapters() {
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 31));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let mut engines = online_engines(&g);
        engines.push(Box::new(EtcEngine::new(&g, &etc)));
        let constraint = Constraint::new(vec![vec![Label(1)], vec![Label(0), Label(1)]]).unwrap();
        for engine in &engines {
            let prepared = engine.prepare(&constraint).unwrap();
            for s in (0..g.vertex_count() as u32).step_by(5) {
                for t in (0..g.vertex_count() as u32).step_by(7) {
                    let q = Query::new(s, t, constraint.clone());
                    assert_eq!(
                        engine.evaluate_prepared(s, t, &prepared),
                        engine.evaluate(&q),
                        "{} on ({s},{t})",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_evaluation_matches_per_pair_evaluation() {
        let g = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 3));
        let engines = online_engines(&g);
        let constraint = Constraint::single(vec![Label(0), Label(1)]).unwrap();
        // A pair mix heavy on repeated sources (the case the multi-target
        // search accelerates), plus unique-source pairs.
        let mut pairs: Vec<(u32, u32)> = (0..40u32).map(|t| (7, (t * 3) % 50)).collect();
        pairs.extend((0..10u32).map(|s| (s, (s * 11 + 1) % 50)));
        for engine in &engines {
            let prepared = engine.prepare(&constraint).unwrap();
            let grouped = engine.evaluate_prepared_group(&pairs, &prepared);
            for (&(s, t), grouped_answer) in pairs.iter().zip(&grouped) {
                assert_eq!(
                    *grouped_answer,
                    engine.evaluate_prepared(s, t, &prepared),
                    "{} on ({s},{t})",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn etc_grouped_evaluation_matches_per_pair_evaluation() {
        // The PR 4 grouped override, now on ETC: heavy source reuse across
        // single-block and multi-block constraints, plus out-of-range pairs
        // and a last block absent from the closure's catalog — answers AND
        // errors must be indistinguishable from the per-pair path.
        let g = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 17));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let engine = EtcEngine::new(&g, &etc);
        let n = g.vertex_count() as u32;
        let mut pairs: Vec<(u32, u32)> = (0..40u32).map(|t| (7, (t * 3) % n)).collect();
        pairs.extend((0..10u32).map(|s| (s, (s * 11 + 1) % n)));
        pairs.push((n + 3, 0));
        pairs.push((0, n + 4));
        let constraints = [
            Constraint::single(vec![Label(1)]).unwrap(),
            Constraint::new(vec![vec![Label(1)], vec![Label(0)]]).unwrap(),
            Constraint::new(vec![vec![Label(0)], vec![Label(1)], vec![Label(2)]]).unwrap(),
            // A final block no closure record carries: everything false.
            Constraint::new(vec![vec![Label(1)], vec![Label(9)]]).unwrap(),
        ];
        for constraint in &constraints {
            let prepared = engine.prepare(constraint).unwrap();
            let grouped = engine.evaluate_prepared_group(&pairs, &prepared);
            assert_eq!(grouped.len(), pairs.len());
            for (&(s, t), grouped_answer) in pairs.iter().zip(&grouped) {
                assert_eq!(
                    *grouped_answer,
                    engine.evaluate_prepared(s, t, &prepared),
                    "ETC grouped vs per-pair on ({s},{t}) under {constraint:?}"
                );
            }
        }
    }

    #[test]
    fn etc_grouped_evaluation_with_a_foreign_preparation_errors_like_per_pair() {
        // A constraint too long for this closure, prepared against another:
        // the grouped path must yield the same error for every in-range
        // pair and the range error for out-of-range ones.
        let g = fig1_graph();
        let etc_k2 = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let etc_k3 = EtcIndex::build(&g, &EtcBuildConfig::new(3));
        let engine_k2 = EtcEngine::new(&g, &etc_k2);
        let engine_k3 = EtcEngine::new(&g, &etc_k3);
        let long =
            Constraint::new(vec![vec![Label(0)], vec![Label(0), Label(1), Label(2)]]).unwrap();
        let prepared_k3 = engine_k3.prepare(&long).unwrap();
        let n = g.vertex_count() as u32;
        let pairs = [(0, 1), (0, 2), (3, 4), (n + 5, 0)];
        let grouped = engine_k2.evaluate_prepared_group(&pairs, &prepared_k3);
        let per_pair: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| engine_k2.evaluate_prepared(s, t, &prepared_k3))
            .collect();
        assert_eq!(grouped, per_pair);
        let expected = Err(QueryError::BlockTooLong {
            block: 1,
            len: 3,
            k: 2,
        });
        assert_eq!(
            grouped,
            vec![
                expected.clone(),
                expected.clone(),
                expected,
                Err(QueryError::VertexOutOfRange {
                    vertex: n + 5,
                    vertices: g.vertex_count(),
                }),
            ]
        );
    }

    #[test]
    fn prepared_nfa_prices_its_real_footprint() {
        // The honest-byte-pricing satellite: a bigger automaton must report
        // a bigger preparation, and the figure must cover the NFA tables.
        let small = Constraint::single(vec![Label(0)]).unwrap();
        let big = Constraint::new(vec![
            vec![Label(0), Label(1)],
            vec![Label(2)],
            vec![Label(0), Label(2), Label(1)],
        ])
        .unwrap();
        let g = fig1_graph();
        let engine = BfsEngine::new(&g);
        let small_plan = engine.prepare(&small).unwrap();
        let big_plan = engine.prepare(&big).unwrap();
        assert!(big_plan.approx_bytes() > small_plan.approx_bytes());
        let nfa = Nfa::concatenation(big.blocks());
        assert!(big_plan.approx_bytes() >= nfa.memory_bytes());
    }

    #[test]
    fn etc_engine_answers_rlc_and_concat_queries() {
        let g = fig1_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let engine = EtcEngine::new(&g, &etc);
        assert_eq!(engine.name(), "ETC");
        let rlc = RlcQuery::from_names(&g, "A14", "A19", &["debits", "credits"]).unwrap();
        assert_eq!(engine.evaluate(&Query::from(&rlc)), Ok(true));

        let knows = g.labels().resolve("knows").unwrap();
        let holds = g.labels().resolve("holds").unwrap();
        let concat = Query::concat(
            g.vertex_id("P10").unwrap(),
            g.vertex_id("A19").unwrap(),
            vec![vec![knows], vec![holds]],
        )
        .unwrap();
        assert_eq!(engine.evaluate(&concat), Ok(true));
        assert_eq!(
            engine.evaluate(&concat),
            BfsEngine::new(&g).evaluate(&concat)
        );
    }

    #[test]
    fn etc_engine_concat_agrees_with_bfs_everywhere() {
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 31));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let engine = EtcEngine::new(&g, &etc);
        let bfs = BfsEngine::new(&g);
        let l0 = Label(0);
        let l1 = Label(1);
        for s in (0..g.vertex_count() as u32).step_by(5) {
            for t in (0..g.vertex_count() as u32).step_by(7) {
                for blocks in [
                    vec![vec![l0]],
                    vec![vec![l0, l1]],
                    vec![vec![l0], vec![l1]],
                    vec![vec![l1], vec![l0, l1]],
                ] {
                    let q = Query::concat(s, t, blocks).unwrap();
                    assert_eq!(engine.evaluate(&q), bfs.evaluate(&q), "({s},{t})");
                }
            }
        }
    }

    #[test]
    fn etc_closes_concatenations_from_the_end_that_grows_slower() {
        // The graph of the RLC engine's direction test: four x edges and one
        // y edge, so x+ grows faster. ETC closes x+ ∘ y+ backward from the
        // target and looks x+ up, and y+ ∘ x+ forward, as the paper does.
        let mut builder = rlc_graph::GraphBuilder::new();
        for (from, to) in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")] {
            builder.add_edge_named(from, "x", to);
        }
        builder.add_edge_named("d", "y", "e");
        let g = builder.build();
        let (x, y) = (
            g.labels().resolve("x").unwrap(),
            g.labels().resolve("y").unwrap(),
        );
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let engine = EtcEngine::new(&g, &etc);
        let direction =
            |blocks: Vec<Vec<Label>>| engine.closure_direction(&Constraint::new(blocks).unwrap());
        assert_eq!(direction(vec![vec![x], vec![y]]), Ok(Direction::Backward));
        assert_eq!(direction(vec![vec![y], vec![x]]), Ok(Direction::Forward));
        assert_eq!(direction(vec![vec![x]]), Ok(Direction::Forward));
        let bfs = BfsEngine::new(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                for blocks in [vec![vec![x], vec![y]], vec![vec![y], vec![x]]] {
                    let q = Query::concat(s, t, blocks).unwrap();
                    assert_eq!(engine.evaluate(&q), bfs.evaluate(&q), "({s}, {t})");
                }
            }
        }
    }

    #[test]
    fn batch_evaluation_matches_single_for_all_adapters() {
        let g = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 3));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let queries: Vec<Query> = (0..g.vertex_count() as u32)
            .flat_map(|s| {
                [vec![Label(0)], vec![Label(1), Label(0)]]
                    .into_iter()
                    .map(move |c| Query::rlc(s, (s * 7 + 3) % 50, c).unwrap())
            })
            .collect();
        let mut engines = online_engines(&g);
        engines.push(Box::new(EtcEngine::new(&g, &etc)));
        for engine in &engines {
            let batch = engine.evaluate_batch(&queries);
            for (query, answer) in queries.iter().zip(&batch) {
                assert_eq!(*answer, engine.evaluate(query), "{}", engine.name());
            }
        }
    }

    #[test]
    fn etc_engine_rejects_overlong_blocks_with_an_error() {
        let g = fig1_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let engine = EtcEngine::new(&g, &etc);
        let q = Query::rlc(0, 1, vec![Label(0), Label(1), Label(2)]).unwrap();
        assert_eq!(
            engine.evaluate(&q),
            Err(QueryError::BlockTooLong {
                block: 0,
                len: 3,
                k: 2
            })
        );
        // Traversal engines have no k and accept the same constraint.
        assert!(BfsEngine::new(&g).evaluate(&q).is_ok());
    }
}
