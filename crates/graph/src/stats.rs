//! Graph statistics reported in Table III of the paper.
//!
//! For every dataset the paper reports `|V|`, `|E|`, `|L|`, the *loop count*
//! (cycles of length 1, i.e. self loops) and the *triangle count* (cycles of
//! length 3). These drive the discussion of indexing cost: dense, highly
//! cyclic graphs (StackOverflow, Wiki-link-fr) are the hardest to index.

use crate::graph::{LabeledGraph, VertexId};
use crate::scc::strongly_connected_components;
use std::collections::HashSet;

/// Summary statistics of an edge-labeled graph (the columns of Table III plus
/// a few derived quantities used elsewhere in the harness).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of distinct labels.
    pub labels: usize,
    /// Number of self loops (cycles of length 1).
    pub self_loops: usize,
    /// Number of directed triangles (cycles of length 3).
    pub triangles: usize,
    /// Average degree `|E| / |V|`.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of strongly connected components.
    pub scc_count: usize,
    /// Size of the largest strongly connected component.
    pub largest_scc: usize,
}

impl GraphStats {
    /// Computes all statistics for `graph`.
    ///
    /// Triangle counting is `O(sum over edges of min-degree)` via hashed
    /// adjacency intersection, which is fine for the laptop-scale stand-in
    /// graphs used in this reproduction.
    pub fn compute(graph: &LabeledGraph) -> Self {
        let scc = strongly_connected_components(graph);
        GraphStats {
            vertices: graph.vertex_count(),
            edges: graph.edge_count(),
            labels: graph.label_count(),
            self_loops: self_loop_count(graph),
            triangles: directed_triangle_count(graph),
            avg_degree: graph.average_degree(),
            max_out_degree: graph
                .vertices()
                .map(|v| graph.out_degree(v))
                .max()
                .unwrap_or(0),
            max_in_degree: graph
                .vertices()
                .map(|v| graph.in_degree(v))
                .max()
                .unwrap_or(0),
            scc_count: scc.count,
            largest_scc: scc.largest(),
        }
    }
}

/// Counts self loops (edges `v → v`), the paper's "Loop Count".
pub fn self_loop_count(graph: &LabeledGraph) -> usize {
    graph.edges().filter(|e| e.source == e.target).count()
}

/// Counts directed triangles, i.e. directed cycles `u → v → w → u` with three
/// distinct vertices — the paper's "Triangle Count" (cycles of length 3).
///
/// Each cyclic triangle is counted exactly once (not once per rotation), and
/// parallel edges between the same ordered pair do not inflate the count.
pub fn directed_triangle_count(graph: &LabeledGraph) -> usize {
    let n = graph.vertex_count();
    // Deduplicated structural adjacency (ignore labels and parallel edges).
    let mut out: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::new();
    for e in graph.edges() {
        if e.source != e.target && seen.insert((e.source, e.target)) {
            out[e.source as usize].push(e.target);
        }
    }
    let out_sets: Vec<HashSet<VertexId>> = out
        .iter()
        .map(|targets| targets.iter().copied().collect())
        .collect();

    let mut count = 0usize;
    for u in 0..n as VertexId {
        for &v in &out[u as usize] {
            if v == u {
                continue;
            }
            for &w in &out[v as usize] {
                if w == u || w == v {
                    continue;
                }
                if out_sets[w as usize].contains(&u) {
                    count += 1;
                }
            }
        }
    }
    // Each directed 3-cycle u→v→w→u is discovered three times (once per
    // starting vertex).
    count / 3
}

/// Per-label edge counts (`histogram[label] = number of edges`).
pub fn label_histogram(graph: &LabeledGraph) -> Vec<usize> {
    let mut histogram = vec![0usize; graph.label_count()];
    for e in graph.edges() {
        histogram[e.label.index()] += 1;
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generate::{erdos_renyi, SyntheticConfig};

    #[test]
    fn self_loops_are_counted() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "a");
        b.add_edge_named("a", "y", "a");
        b.add_edge_named("a", "x", "b");
        let g = b.build();
        assert_eq!(self_loop_count(&g), 2);
    }

    #[test]
    fn triangle_counting_single_cycle() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("b", "x", "c");
        b.add_edge_named("c", "x", "a");
        let g = b.build();
        assert_eq!(directed_triangle_count(&g), 1);
    }

    #[test]
    fn triangle_counting_ignores_non_cyclic_triangles() {
        // a -> b, b -> c, a -> c is a transitive triangle, not a cycle.
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("b", "x", "c");
        b.add_edge_named("a", "x", "c");
        let g = b.build();
        assert_eq!(directed_triangle_count(&g), 0);
    }

    #[test]
    fn triangle_counting_ignores_parallel_edges_and_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("a", "y", "b");
        b.add_edge_named("b", "x", "c");
        b.add_edge_named("c", "x", "a");
        b.add_edge_named("a", "x", "a");
        let g = b.build();
        assert_eq!(directed_triangle_count(&g), 1);
    }

    #[test]
    fn two_disjoint_triangles() {
        let mut b = GraphBuilder::new();
        for (x, y, z) in [("a", "b", "c"), ("d", "e", "f")] {
            b.add_edge_named(x, "x", y);
            b.add_edge_named(y, "x", z);
            b.add_edge_named(z, "x", x);
        }
        let g = b.build();
        assert_eq!(directed_triangle_count(&g), 2);
    }

    #[test]
    fn stats_on_synthetic_graph_are_consistent() {
        let g = erdos_renyi(&SyntheticConfig::new(300, 4.0, 8, 17));
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.vertices, 300);
        assert_eq!(stats.edges, 1200);
        assert_eq!(stats.labels, 8);
        assert_eq!(stats.self_loops, 0);
        assert!((stats.avg_degree - 4.0).abs() < 1e-9);
        assert!(stats.max_out_degree >= 4);
        assert!(stats.scc_count >= 1);
        assert!(stats.largest_scc <= stats.vertices);
    }

    #[test]
    fn label_histogram_sums_to_edge_count() {
        let g = erdos_renyi(&SyntheticConfig::new(200, 3.0, 8, 5));
        let hist = label_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), g.edge_count());
        // Zipf exponent 2: the first label dominates.
        assert!(hist[0] > hist[4]);
    }
}
