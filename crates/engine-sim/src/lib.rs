//! # rlc-engine-sim
//!
//! Simulated mainstream graph engines, standing in for the three systems of
//! the paper's Table V (two anonymized commercial engines and Virtuoso).
//! None of those systems has an RLC-specific reachability index; they
//! evaluate recursive property paths with generic machinery. The three
//! archetypes implemented here cover the evaluation strategies those systems
//! use:
//!
//! * [`InterpretedEngine`] — tuple-at-a-time interpretation of the query
//!   automaton over a dictionary-encoded adjacency store (Sys1-like);
//! * [`MaterializingEngine`] — breadth-wise evaluation that materializes the
//!   full binding table of every expansion step before deduplicating
//!   (Sys2-like);
//! * [`TripleStoreEngine`] — a sorted SPO/POS triple store evaluating the
//!   path by per-block transitive closure with index nested-loop joins
//!   (Virtuoso-like).
//!
//! All three implement [`ReachabilityEngine`] — the evaluator abstraction of
//! `rlc_core::engine` that this crate's private `GraphEngine` trait grew
//! into — and return exactly the same answers as the RLC index (they are
//! correct evaluators); they are only slower, which is what Table V measures.
//! Because answers are equal by construction, only the evaluation strategy
//! differs, which is what keeps the shape of the paper's comparison.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod interpreted;
pub mod materializing;
pub mod triple_store;

use rlc_graph::LabeledGraph;

pub use interpreted::InterpretedEngine;
pub use materializing::MaterializingEngine;
pub use rlc_core::engine::ReachabilityEngine;
pub use triple_store::TripleStoreEngine;

/// Instantiates all three simulated engines loaded with `graph`.
///
/// The engines copy the graph into their own storage models, so the returned
/// boxes do not borrow `graph`.
pub fn all_engines(graph: &LabeledGraph) -> Vec<Box<dyn ReachabilityEngine>> {
    vec![
        Box::new(InterpretedEngine::load(graph)),
        Box::new(MaterializingEngine::load(graph)),
        Box::new(TripleStoreEngine::load(graph)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_baselines::BfsEngine;
    use rlc_core::Query;
    use rlc_graph::examples::fig1_graph;
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};

    #[test]
    fn all_engines_agree_with_online_oracle() {
        let g = erdos_renyi(&SyntheticConfig::new(80, 3.0, 3, 4));
        let engines = all_engines(&g);
        let l0 = rlc_graph::Label(0);
        let l1 = rlc_graph::Label(1);
        for s in (0..g.vertex_count() as u32).step_by(9) {
            for t in (0..g.vertex_count() as u32).step_by(11) {
                for blocks in [vec![vec![l0]], vec![vec![l0, l1]], vec![vec![l0], vec![l1]]] {
                    let q = Query::concat(s, t, blocks).unwrap();
                    let expected = BfsEngine::new(&g).evaluate(&q);
                    for engine in &engines {
                        assert_eq!(
                            engine.evaluate(&q),
                            expected,
                            "engine {} disagrees on ({s},{t})",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_engines_answer_plain_rlc_queries() {
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 17));
        let engines = all_engines(&g);
        let l0 = rlc_graph::Label(0);
        let l1 = rlc_graph::Label(1);
        for s in (0..g.vertex_count() as u32).step_by(7) {
            for t in (0..g.vertex_count() as u32).step_by(5) {
                for constraint in [vec![l0], vec![l1, l0]] {
                    let q = Query::rlc(s, t, constraint).unwrap();
                    let expected = BfsEngine::new(&g).evaluate(&q);
                    for engine in &engines {
                        assert_eq!(
                            engine.evaluate(&q),
                            expected,
                            "engine {} disagrees on ({s},{t})",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engines_have_distinct_names() {
        let g = fig1_graph();
        let engines = all_engines(&g);
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"Sys1 (interpreted)"));
        assert!(names.contains(&"Sys2 (materializing)"));
        assert!(names.contains(&"Virtuoso-like (triple store)"));
    }

    #[test]
    fn sim_engines_share_plans_across_instances_by_kind() {
        // The simulated engines are index-free: their prepared artifacts
        // depend only on the constraint (an NFA, or nothing at all for the
        // triple store), so they report kind-level plan identities and a
        // cross-batch PlanCache can reuse one plan across instances — even
        // instances loaded with different graphs.
        use rlc_core::engine::PlanIdentity;
        use rlc_core::{Constraint, PlanCache, PrepareCounting};

        let g1 = erdos_renyi(&SyntheticConfig::new(40, 3.0, 3, 5));
        let g2 = erdos_renyi(&SyntheticConfig::new(30, 3.0, 3, 6));
        let constraint =
            Constraint::new(vec![vec![rlc_graph::Label(0)], vec![rlc_graph::Label(1)]]).unwrap();
        for (a, b) in all_engines(&g1).iter().zip(all_engines(&g2).iter()) {
            assert_eq!(a.plan_identity(), b.plan_identity(), "{}", a.name());
            assert!(
                matches!(a.plan_identity(), PlanIdentity::Kind(_)),
                "index-free engines key by kind"
            );
            let cache = PlanCache::new();
            let counting_a = PrepareCounting::new(a.as_ref());
            let counting_b = PrepareCounting::new(b.as_ref());
            let plan = cache.prepare(&counting_a, &constraint).unwrap();
            let shared = cache.prepare(&counting_b, &constraint).unwrap();
            assert_eq!(counting_a.prepare_count(), 1);
            assert_eq!(counting_b.prepare_count(), 0, "{}: cache hit", b.name());
            // The shared plan evaluates correctly on both instances.
            let q = rlc_core::Query::new(0, 1, constraint.clone());
            assert_eq!(a.evaluate_prepared(0, 1, &plan), a.evaluate(&q));
            assert_eq!(b.evaluate_prepared(0, 1, &shared), b.evaluate(&q));
        }
    }

    #[test]
    fn batch_evaluation_matches_single() {
        let g = erdos_renyi(&SyntheticConfig::new(40, 3.0, 3, 23));
        let engines = all_engines(&g);
        let queries: Vec<Query> = (0..40u32)
            .map(|s| Query::rlc(s, (s + 13) % 40, vec![rlc_graph::Label(0)]).unwrap())
            .collect();
        for engine in &engines {
            let batch = engine.evaluate_batch(&queries);
            for (query, answer) in queries.iter().zip(&batch) {
                assert_eq!(*answer, engine.evaluate(query), "{}", engine.name());
            }
        }
    }
}
