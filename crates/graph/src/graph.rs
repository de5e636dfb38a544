//! The immutable CSR-backed edge-labeled directed graph.

use crate::label::{Label, LabelInterner};
use std::collections::HashMap;

/// Dense vertex identifier, `0..vertex_count()`.
pub type VertexId = u32;

/// A labeled directed edge `(source, label, target)`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Source vertex.
    pub source: VertexId,
    /// Edge label.
    pub label: Label,
    /// Target vertex.
    pub target: VertexId,
}

impl Edge {
    /// Creates an edge.
    pub fn new(source: VertexId, label: Label, target: VertexId) -> Self {
        Edge {
            source,
            label,
            target,
        }
    }
}

/// An immutable edge-labeled directed multigraph `G = (V, E, L)` stored in
/// compressed sparse row (CSR) form for both directions.
///
/// Vertices are dense `u32` ids. Both the out-adjacency (`v → (target,
/// label)`) and the in-adjacency (`v → (source, label)`) are materialized
/// because the RLC indexing algorithm performs forward *and* backward
/// kernel-based searches from every vertex.
///
/// Construct instances with [`crate::GraphBuilder`] or the generators in
/// [`crate::generate`]; the persistent form is the `RLG1` edge list of
/// [`crate::io`].
#[derive(Debug, Clone)]
pub struct LabeledGraph {
    vertex_count: usize,
    /// CSR offsets into `out_targets`/`out_labels`, length `vertex_count + 1`.
    out_offsets: Vec<u32>,
    out_targets: Vec<VertexId>,
    out_labels: Vec<Label>,
    /// CSR offsets into `in_sources`/`in_labels`, length `vertex_count + 1`.
    in_offsets: Vec<u32>,
    in_sources: Vec<VertexId>,
    in_labels: Vec<Label>,
    /// Edges per label, indexed by [`Label::index`].
    label_edges: Vec<u32>,
    labels: LabelInterner,
    /// Optional vertex names (present when built from named input).
    vertex_names: Option<Vec<String>>,
    name_lookup: HashMap<String, VertexId>,
}

impl LabeledGraph {
    /// Builds a graph from an edge list over `vertex_count` vertices.
    ///
    /// Parallel edges and self loops are kept (the datasets of the paper
    /// contain both). Edges referring to vertices `>= vertex_count` panic.
    pub fn from_edges(
        vertex_count: usize,
        edges: &[Edge],
        labels: LabelInterner,
        vertex_names: Option<Vec<String>>,
    ) -> Self {
        assert!(
            vertex_count <= u32::MAX as usize,
            "vertex count exceeds u32 range"
        );
        if let Some(names) = &vertex_names {
            assert_eq!(names.len(), vertex_count, "one name per vertex required");
        }
        let mut out_degree = vec![0u32; vertex_count];
        let mut in_degree = vec![0u32; vertex_count];
        let mut label_edges = vec![0u32; labels.len()];
        for e in edges {
            assert!(
                (e.source as usize) < vertex_count,
                "edge source out of range"
            );
            assert!(
                (e.target as usize) < vertex_count,
                "edge target out of range"
            );
            out_degree[e.source as usize] += 1;
            in_degree[e.target as usize] += 1;
            if e.label.index() >= label_edges.len() {
                label_edges.resize(e.label.index() + 1, 0);
            }
            label_edges[e.label.index()] += 1;
        }
        let out_offsets = prefix_sum(&out_degree);
        let in_offsets = prefix_sum(&in_degree);

        let edge_count = edges.len();
        let mut out_targets = vec![0 as VertexId; edge_count];
        let mut out_labels = vec![Label(0); edge_count];
        let mut in_sources = vec![0 as VertexId; edge_count];
        let mut in_labels = vec![Label(0); edge_count];
        let mut out_cursor: Vec<u32> = out_offsets[..vertex_count].to_vec();
        let mut in_cursor: Vec<u32> = in_offsets[..vertex_count].to_vec();
        for e in edges {
            let oc = &mut out_cursor[e.source as usize];
            out_targets[*oc as usize] = e.target;
            out_labels[*oc as usize] = e.label;
            *oc += 1;
            let ic = &mut in_cursor[e.target as usize];
            in_sources[*ic as usize] = e.source;
            in_labels[*ic as usize] = e.label;
            *ic += 1;
        }

        let name_lookup = vertex_names
            .as_ref()
            .map(|names| {
                names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), i as VertexId))
                    .collect()
            })
            .unwrap_or_default();

        LabeledGraph {
            vertex_count,
            out_offsets,
            out_targets,
            out_labels,
            in_offsets,
            in_sources,
            in_labels,
            label_edges,
            labels,
            vertex_names,
            name_lookup,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of edges `|E|` (parallel edges counted individually).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Number of distinct edge labels `|L|`.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges carrying `label` (0 for a label no edge carries).
    /// Counted while the CSR is built, so the lookup is O(1).
    #[inline]
    pub fn label_edge_count(&self, label: Label) -> usize {
        self.label_edges
            .get(label.index())
            .map_or(0, |&c| c as usize)
    }

    /// The label interner of this graph.
    #[inline]
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.vertex_count as VertexId
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |v| {
            self.out_edges(v)
                .iter()
                .map(move |(target, label)| Edge::new(v, label, target))
        })
    }

    /// Outgoing edges of `v` as `(target, label)` pairs.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> OutEdges<'_> {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        OutEdges {
            targets: &self.out_targets[lo..hi],
            labels: &self.out_labels[lo..hi],
        }
    }

    /// Incoming edges of `v` as `(source, label)` pairs.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> OutEdges<'_> {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        OutEdges {
            targets: &self.in_sources[lo..hi],
            labels: &self.in_labels[lo..hi],
        }
    }

    /// Out-degree of `v` (the paper's `|out(v)|` counts edges).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Whether the graph contains the exact edge `(source, label, target)`.
    pub fn has_edge(&self, source: VertexId, label: Label, target: VertexId) -> bool {
        self.out_edges(source)
            .iter()
            .any(|(t, l)| t == target && l == label)
    }

    /// Resolves a vertex name to its id, when the graph was built with names.
    pub fn vertex_id(&self, name: &str) -> Option<VertexId> {
        self.name_lookup.get(name).copied()
    }

    /// Returns the name of vertex `v`, when the graph was built with names.
    pub fn vertex_name(&self, v: VertexId) -> Option<&str> {
        self.vertex_names
            .as_ref()
            .and_then(|names| names.get(v as usize))
            .map(String::as_str)
    }

    /// Approximate in-memory size of the adjacency structures in bytes.
    ///
    /// Used when reporting the footprint of graphs and baseline indexes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.out_offsets.len() * size_of::<u32>()
            + self.in_offsets.len() * size_of::<u32>()
            + self.out_targets.len() * (size_of::<VertexId>() + size_of::<Label>())
            + self.in_sources.len() * (size_of::<VertexId>() + size_of::<Label>())
    }

    /// Average degree `|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        if self.vertex_count == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.vertex_count as f64
        }
    }
}

/// Borrowed view over the adjacency of one vertex in one direction.
///
/// Yields `(neighbour, label)` pairs; for [`LabeledGraph::out_edges`] the
/// neighbour is the edge target, for [`LabeledGraph::in_edges`] it is the
/// edge source.
#[derive(Copy, Clone, Debug)]
pub struct OutEdges<'a> {
    targets: &'a [VertexId],
    labels: &'a [Label],
}

impl<'a> OutEdges<'a> {
    /// Number of edges in this adjacency list.
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the adjacency list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterates over `(neighbour, label)` pairs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Label)> + 'a {
        self.targets
            .iter()
            .copied()
            .zip(self.labels.iter().copied())
    }

    /// Random access to the `i`-th `(neighbour, label)` pair.
    #[inline]
    pub fn get(&self, i: usize) -> Option<(VertexId, Label)> {
        match (self.targets.get(i), self.labels.get(i)) {
            (Some(&t), Some(&l)) => Some((t, l)),
            _ => None,
        }
    }
}

impl<'a> IntoIterator for OutEdges<'a> {
    type Item = (VertexId, Label);
    type IntoIter = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, VertexId>>,
        std::iter::Copied<std::slice::Iter<'a, Label>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.targets
            .iter()
            .copied()
            .zip(self.labels.iter().copied())
    }
}

fn prefix_sum(degrees: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &d in degrees {
        acc = acc
            .checked_add(d)
            // rlc-analyze: allow(panic-free-library) — the CSR format caps offsets at u32 by design; a graph with more than 2^32 edges is unrepresentable and must fail loudly at build time
            .expect("edge count exceeds u32 range in CSR offsets");
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> LabeledGraph {
        // a -x-> b -y-> d, a -y-> c -x-> d, plus a self loop d -x-> d
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("b", "y", "d");
        b.add_edge_named("a", "y", "c");
        b.add_edge_named("c", "x", "d");
        b.add_edge_named("d", "x", "d");
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.label_count(), 2);
        assert!((g.average_degree() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn label_edge_counts_match_the_edges() {
        let g = diamond();
        let x = g.labels().resolve("x").unwrap();
        let y = g.labels().resolve("y").unwrap();
        assert_eq!(g.label_edge_count(x), 3);
        assert_eq!(g.label_edge_count(y), 2);
        // A label no edge carries, inside and past the interner's range.
        assert_eq!(g.label_edge_count(Label(7)), 0);
        let idle = LabeledGraph::from_edges(2, &[], LabelInterner::anonymous(3), None);
        assert_eq!(idle.label_edge_count(Label(2)), 0);
    }

    #[test]
    fn adjacency_is_consistent_between_directions() {
        let g = diamond();
        for e in g.edges() {
            assert!(g.has_edge(e.source, e.label, e.target));
            assert!(g
                .in_edges(e.target)
                .iter()
                .any(|(s, l)| s == e.source && l == e.label));
        }
        let total_in: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        let total_out: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        assert_eq!(total_in, g.edge_count());
        assert_eq!(total_out, g.edge_count());
    }

    #[test]
    fn degrees_and_names() {
        let g = diamond();
        let a = g.vertex_id("a").unwrap();
        let d = g.vertex_id("d").unwrap();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.in_degree(d), 3);
        assert_eq!(g.out_degree(d), 1);
        assert_eq!(g.vertex_name(a), Some("a"));
        assert_eq!(g.vertex_id("zz"), None);
    }

    #[test]
    fn self_loops_and_parallel_edges_are_preserved() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("u", "x", "v");
        b.add_edge_named("u", "x", "v");
        b.add_edge_named("u", "y", "u");
        let g = b.build();
        assert_eq!(g.edge_count(), 3);
        let u = g.vertex_id("u").unwrap();
        assert_eq!(g.out_degree(u), 3);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = LabeledGraph::from_edges(0, &[], LabelInterner::new(), None);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertices().count(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn vertex_without_edges_has_empty_adjacency() {
        let g = LabeledGraph::from_edges(3, &[], LabelInterner::anonymous(1), None);
        for v in g.vertices() {
            assert!(g.out_edges(v).is_empty());
            assert!(g.in_edges(v).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_out_of_range_panics() {
        let edges = [Edge::new(0, Label(0), 5)];
        let _ = LabeledGraph::from_edges(2, &edges, LabelInterner::anonymous(1), None);
    }

    #[test]
    fn memory_bytes_is_positive_for_nonempty_graph() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }
}
