//! Vertex processing orders for the indexing algorithm.
//!
//! The order in which kernel-based searches are launched determines which
//! vertices become "hubs" of the 2-hop labelling and therefore how much
//! redundancy the pruning rules can remove. The paper uses the IN-OUT
//! strategy — descending `(|out(v)| + 1) × (|in(v)| + 1)` — and notes it is
//! the established choice for 2-hop-style reachability indexes. The other
//! strategies are provided for the ordering ablation study.

use rlc_graph::{LabeledGraph, VertexId};

/// Strategy for ordering vertices before indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingStrategy {
    /// Descending `(|out(v)| + 1) × (|in(v)| + 1)` — the paper's choice.
    #[default]
    InOutDegree,
    /// Descending out-degree.
    OutDegree,
    /// Descending in-degree.
    InDegree,
    /// Descending total degree.
    TotalDegree,
    /// Vertex-id order (no reordering); the weakest baseline.
    VertexId,
    /// Deterministic pseudo-random order derived from the given seed.
    Random(u64),
}

/// A computed vertex order: the processing sequence and the inverse map
/// from vertex to *access id* (`aid`), the position at which the vertex is
/// processed (0-based; smaller means earlier / higher priority).
#[derive(Debug, Clone)]
pub struct VertexOrder {
    /// Vertices in processing order.
    pub sequence: Vec<VertexId>,
    /// `aid[v]` = position of `v` in `sequence`.
    pub aid: Vec<u32>,
}

impl VertexOrder {
    /// Access id of `v`.
    #[inline]
    pub fn aid(&self, v: VertexId) -> u32 {
        self.aid[v as usize]
    }

    /// Number of vertices ordered.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Computes the processing order of `graph` under `strategy`.
///
/// Ties are broken by ascending vertex id so that orders are deterministic.
pub fn compute_order(graph: &LabeledGraph, strategy: OrderingStrategy) -> VertexOrder {
    let n = graph.vertex_count();
    let mut sequence: Vec<VertexId> = (0..n as VertexId).collect();
    match strategy {
        OrderingStrategy::InOutDegree => {
            sequence.sort_by_key(|&v| {
                let score = (graph.out_degree(v) as u64 + 1) * (graph.in_degree(v) as u64 + 1);
                (std::cmp::Reverse(score), v)
            });
        }
        OrderingStrategy::OutDegree => {
            sequence.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
        }
        OrderingStrategy::InDegree => {
            sequence.sort_by_key(|&v| (std::cmp::Reverse(graph.in_degree(v)), v));
        }
        OrderingStrategy::TotalDegree => {
            sequence.sort_by_key(|&v| {
                (
                    std::cmp::Reverse(graph.out_degree(v) + graph.in_degree(v)),
                    v,
                )
            });
        }
        OrderingStrategy::VertexId => {}
        OrderingStrategy::Random(seed) => {
            // Deterministic pseudo-shuffle: sort by a splitmix64 hash of the
            // vertex id, which avoids pulling an RNG dependency into the hot
            // path and is reproducible across platforms.
            sequence.sort_by_key(|&v| (splitmix64(seed ^ v as u64), v));
        }
    }
    let mut aid = vec![0u32; n];
    for (pos, &v) in sequence.iter().enumerate() {
        aid[v as usize] = pos as u32;
    }
    VertexOrder { sequence, aid }
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
    use rlc_graph::examples::fig2_graph;
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};

    #[test]
    fn fig2_in_out_order_matches_paper() {
        // §V-B: the sorted list for Fig. 2 is (v1, v3, v2, v4, v5, v6).
        let g = fig2_graph();
        let order = compute_order(&g, OrderingStrategy::InOutDegree);
        let names: Vec<&str> = order
            .sequence
            .iter()
            .map(|&v| g.vertex_name(v).unwrap())
            .collect();
        assert_eq!(names, vec!["v1", "v3", "v2", "v4", "v5", "v6"]);
        assert_eq!(order.aid(g.vertex_id("v3").unwrap()), 1);
    }

    #[test]
    fn aid_is_inverse_of_sequence() {
        let g = erdos_renyi(&SyntheticConfig::new(200, 3.0, 4, 3));
        for strategy in [
            OrderingStrategy::InOutDegree,
            OrderingStrategy::OutDegree,
            OrderingStrategy::InDegree,
            OrderingStrategy::TotalDegree,
            OrderingStrategy::VertexId,
            OrderingStrategy::Random(7),
        ] {
            let order = compute_order(&g, strategy);
            assert_eq!(order.len(), g.vertex_count());
            for (pos, &v) in order.sequence.iter().enumerate() {
                assert_eq!(order.aid(v), pos as u32);
            }
            // The order is a permutation.
            let mut sorted = order.sequence.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..g.vertex_count() as VertexId).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn vertex_id_order_is_identity() {
        let g = fig2_graph();
        let order = compute_order(&g, OrderingStrategy::VertexId);
        assert_eq!(order.sequence, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn random_orders_differ_across_seeds_but_not_within() {
        let g = erdos_renyi(&SyntheticConfig::new(100, 2.0, 4, 1));
        let a = compute_order(&g, OrderingStrategy::Random(1));
        let b = compute_order(&g, OrderingStrategy::Random(1));
        let c = compute_order(&g, OrderingStrategy::Random(2));
        assert_eq!(a.sequence, b.sequence);
        assert_ne!(a.sequence, c.sequence);
    }
}
