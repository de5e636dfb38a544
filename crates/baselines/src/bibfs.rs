//! Bidirectional NFA-guided search (the "BiBFS" baseline of §VI).
//!
//! The forward search explores the graph–automaton product from
//! `(source, start state)`; the backward search explores the reversed product
//! from every `(target, accepting state)`. The two meet when they share a
//! product state. At every round the smaller frontier is expanded, which is
//! what makes BiBFS markedly faster than plain BFS on the large, high-degree
//! graphs of the paper (Fig. 3) while remaining orders of magnitude slower
//! than the RLC index.
//!
//! Both visited sets and all frontier buffers live in the per-thread
//! [`crate::scratch::ProductScratch`], so batch evaluation performs no
//! per-query allocation in the steady state. The visited sets are
//! bit-parallel ([`rlc_core::kernel::FrontierSet`]): instead of probing
//! the opposite side once per generated product state, each level is
//! expanded bit-wise and the meet test is a single word-parallel
//! intersection of the two visited sets — 64 product states per word op.

use crate::nfa::Nfa;
use crate::scratch::{with_scratch, ProductScratch};
use rlc_core::{Query, RlcQuery};
use rlc_graph::{LabeledGraph, VertexId};

/// Answers an RLC query by bidirectional product search.
pub fn bibfs_query(graph: &LabeledGraph, query: &RlcQuery) -> bool {
    let nfa = Nfa::kleene_plus(&query.constraint);
    bibfs_product(graph, &nfa, query.source, query.target)
}

/// Answers an extended concatenation query by bidirectional product search.
pub fn bibfs_concat_query(graph: &LabeledGraph, query: &Query) -> bool {
    let nfa = Nfa::concatenation(query.constraint().blocks());
    bibfs_product(graph, &nfa, query.source, query.target)
}

/// Bidirectional BFS over the graph–automaton product.
pub fn bibfs_product(graph: &LabeledGraph, nfa: &Nfa, source: VertexId, target: VertexId) -> bool {
    with_scratch(|scratch| bibfs_product_scratch(graph, nfa, source, target, scratch))
}

/// Bidirectional product search over explicit scratch state.
fn bibfs_product_scratch(
    graph: &LabeledGraph,
    nfa: &Nfa,
    source: VertexId,
    target: VertexId,
    scratch: &mut ProductScratch,
) -> bool {
    let states = nfa.state_count();
    scratch.begin(graph.vertex_count() * states);
    scratch.ensure_backward(graph.vertex_count() * states);
    let slot = |v: VertexId, q: usize| v as usize * states + q;

    let mut forward = scratch.take_frontier();
    let mut backward = scratch.take_frontier();
    let mut next = scratch.take_frontier();

    let result = 'search: {
        scratch.mark_forward(slot(source, nfa.start));
        forward.push((source, nfa.start as u32));
        for q in nfa.accepting_states() {
            if !scratch.mark_backward(slot(target, q)) {
                backward.push((target, q as u32));
            }
        }
        if backward.is_empty() {
            break 'search false;
        }
        if scratch.frontiers_meet() {
            break 'search true;
        }

        while !forward.is_empty() && !backward.is_empty() {
            // Expand the cheaper side: estimate by frontier size. The
            // searches meet iff the visited sets intersect, so the meet
            // test is hoisted out of the inner loop: expand one whole
            // level bit-wise, then run a single word-parallel
            // intersection over the two bitsets.
            if forward.len() <= backward.len() {
                next.clear();
                for &(v, q) in forward.iter() {
                    for (w, label) in graph.out_edges(v) {
                        for q_next in nfa.next(q as usize, label) {
                            if !scratch.mark_forward(slot(w, q_next)) {
                                next.push((w, q_next as u32));
                            }
                        }
                    }
                }
                std::mem::swap(&mut forward, &mut next);
            } else {
                next.clear();
                for &(v, q) in backward.iter() {
                    for (u, label) in graph.in_edges(v) {
                        for q_prev in nfa.prev(q as usize, label) {
                            if !scratch.mark_backward(slot(u, q_prev)) {
                                next.push((u, q_prev as u32));
                            }
                        }
                    }
                }
                std::mem::swap(&mut backward, &mut next);
            }
            if scratch.frontiers_meet() {
                break 'search true;
            }
        }
        false
    };

    scratch.recycle_frontier(forward);
    scratch.recycle_frontier(backward);
    scratch.recycle_frontier(next);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_query;
    use rlc_core::repeats::enumerate_minimum_repeats;
    use rlc_graph::examples::{fig1_graph, fig2_graph};
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};

    #[test]
    fn fig2_example_queries() {
        let g = fig2_graph();
        let q1 = RlcQuery::from_names(&g, "v3", "v6", &["l2", "l1"]).unwrap();
        assert!(bibfs_query(&g, &q1));
        let q3 = RlcQuery::from_names(&g, "v1", "v3", &["l1"]).unwrap();
        assert!(!bibfs_query(&g, &q3));
    }

    #[test]
    fn agrees_with_bfs_on_fig1() {
        let g = fig1_graph();
        let all_mrs = enumerate_minimum_repeats(g.label_count(), 2);
        for s in g.vertices() {
            for t in g.vertices() {
                for mr in &all_mrs {
                    let q = RlcQuery::new(s, t, mr.clone()).unwrap();
                    assert_eq!(
                        bfs_query(&g, &q),
                        bibfs_query(&g, &q),
                        "mismatch at ({s}, {t}, {mr:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_bfs_on_random_graph() {
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 99));
        let all_mrs = enumerate_minimum_repeats(2, 2);
        for s in (0..g.vertex_count() as u32).step_by(7) {
            for t in (0..g.vertex_count() as u32).step_by(11) {
                for mr in &all_mrs {
                    let q = RlcQuery::new(s, t, mr.clone()).unwrap();
                    assert_eq!(
                        bfs_query(&g, &q),
                        bibfs_query(&g, &q),
                        "mismatch at ({s}, {t}, {mr:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn concat_query_agrees_with_bfs() {
        let g = fig1_graph();
        let knows = g.labels().resolve("knows").unwrap();
        let holds = g.labels().resolve("holds").unwrap();
        for s in g.vertices() {
            for t in g.vertices() {
                let q = Query::concat(s, t, vec![vec![knows], vec![holds]]).unwrap();
                assert_eq!(
                    crate::bfs::bfs_concat_query(&g, &q),
                    bibfs_concat_query(&g, &q)
                );
            }
        }
    }
}
