//! The dataset catalog of Table III and its synthetic stand-ins.
//!
//! The paper evaluates on thirteen real-world graphs from SNAP and KONECT.
//! Those graphs cannot be redistributed with this reproduction and several
//! are too large for a laptop, so each catalog entry records the paper's
//! statistics (|V|, |E|, |L|, loop count, triangle count) and knows how to
//! generate a *structure-matched stand-in*: a synthetic graph with the same
//! label-set size, the same average degree, the paper's Zipfian(2) label
//! skew, a matching self-loop density, and a degree distribution chosen to
//! match the original's character (preferential attachment for social/web
//! graphs, uniform for the near-uniform ones). The stand-in is generated at
//! a configurable scale factor so the whole Table IV / Fig. 3 pipeline runs
//! in minutes instead of days.

use rand::prelude::*;
use rand::rngs::StdRng;
use rlc_graph::generate::{barabasi_albert, erdos_renyi, zipfian_labels, SyntheticConfig};
use rlc_graph::{GraphBuilder, LabeledGraph, VertexId};

/// Which synthetic generator approximates the original graph's topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// Barabási–Albert: skewed degree distribution (social networks, web
    /// graphs, hyperlink graphs).
    PreferentialAttachment,
    /// Erdős–Rényi: near-uniform degree distribution.
    Uniform,
}

/// One row of Table III: the paper's statistics for a real-world graph plus
/// the recipe for its synthetic stand-in.
///
/// Not serializable: the catalog is a compile-time constant (`&'static str`
/// names), regenerated by [`table3_catalog`] rather than persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Short code used in the paper's tables (e.g. "AD", "WN").
    pub code: &'static str,
    /// Full dataset name.
    pub name: &'static str,
    /// Paper's vertex count.
    pub vertices: usize,
    /// Paper's edge count.
    pub edges: usize,
    /// Paper's label count.
    pub labels: usize,
    /// Whether the paper assigned synthetic (Zipfian) labels to this graph.
    pub synthetic_labels: bool,
    /// Paper's self-loop count.
    pub loops: usize,
    /// Paper's triangle count.
    pub triangles: usize,
    /// Topology of the stand-in generator.
    pub generator: GeneratorKind,
    /// Paper's indexing time in seconds for the RLC index with k = 2
    /// (Table IV), kept for the paper-vs-measured comparison in
    /// EXPERIMENTS.md.
    pub paper_indexing_seconds: f64,
    /// Paper's index size in megabytes (Table IV).
    pub paper_index_megabytes: f64,
}

impl DatasetSpec {
    /// Average degree `|E| / |V|` of the original graph.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }

    /// Self-loop density `loops / |V|` of the original graph.
    pub fn loop_density(&self) -> f64 {
        self.loops as f64 / self.vertices as f64
    }

    /// Generates the synthetic stand-in at `scale` (fraction of the original
    /// vertex count, e.g. `1.0 / 64.0`).
    ///
    /// The stand-in preserves |L|, the average degree, the Zipfian label skew
    /// and the self-loop density; the degree distribution follows
    /// [`GeneratorKind`].
    pub fn generate(&self, scale: f64, seed: u64) -> LabeledGraph {
        assert!(scale > 0.0, "scale must be positive");
        let vertices = ((self.vertices as f64 * scale).round() as usize).max(64);
        let config = SyntheticConfig::new(vertices, self.avg_degree(), self.labels, seed);
        let base = match self.generator {
            GeneratorKind::PreferentialAttachment => barabasi_albert(&config),
            GeneratorKind::Uniform => erdos_renyi(&config),
        };
        self.inject_self_loops(base, seed ^ 0x5EED)
    }

    /// Adds self loops to match the original's loop density (many Table III
    /// graphs have none; Advogato and StackOverflow have a lot, and loops are
    /// the worst case for recursive constraints, so preserving their density
    /// matters for indexing-cost fidelity).
    fn inject_self_loops(&self, graph: LabeledGraph, seed: u64) -> LabeledGraph {
        let density = self.loop_density();
        if density <= 0.0 {
            return graph;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let loop_count = ((graph.vertex_count() as f64) * density).round() as usize;
        let mut builder = GraphBuilder::with_capacity(graph.vertex_count(), graph.label_count());
        for e in graph.edges() {
            builder.add_edge(e.source, e.label, e.target);
        }
        let labels = zipfian_labels(loop_count, graph.label_count(), 2.0, &mut rng);
        for label in labels {
            let v = rng.gen_range(0..graph.vertex_count()) as VertexId;
            builder.add_edge(v, label, v);
        }
        builder.build()
    }
}

/// The thirteen datasets of Table III, in the paper's order (sorted by |E|).
pub fn table3_catalog() -> Vec<DatasetSpec> {
    use GeneratorKind::*;
    vec![
        DatasetSpec {
            code: "AD",
            name: "Advogato",
            vertices: 6_000,
            edges: 51_000,
            labels: 3,
            synthetic_labels: false,
            loops: 4_000,
            triangles: 98_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 0.7,
            paper_index_megabytes: 1.9,
        },
        DatasetSpec {
            code: "EP",
            name: "Soc-Epinions",
            vertices: 75_000,
            edges: 508_000,
            labels: 8,
            synthetic_labels: true,
            loops: 0,
            triangles: 1_600_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 22.6,
            paper_index_megabytes: 29.3,
        },
        DatasetSpec {
            code: "TW",
            name: "Twitter-ICWSM",
            vertices: 465_000,
            edges: 834_000,
            labels: 8,
            synthetic_labels: true,
            loops: 0,
            triangles: 38_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 8.1,
            paper_index_megabytes: 93.5,
        },
        DatasetSpec {
            code: "WN",
            name: "Web-NotreDame",
            vertices: 325_000,
            edges: 1_400_000,
            labels: 8,
            synthetic_labels: true,
            loops: 27_000,
            triangles: 8_900_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 33.1,
            paper_index_megabytes: 122.6,
        },
        DatasetSpec {
            code: "WS",
            name: "Web-Stanford",
            vertices: 281_000,
            edges: 2_000_000,
            labels: 8,
            synthetic_labels: true,
            loops: 0,
            triangles: 11_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 53.5,
            paper_index_megabytes: 173.9,
        },
        DatasetSpec {
            code: "WG",
            name: "Web-Google",
            vertices: 875_000,
            edges: 5_000_000,
            labels: 8,
            synthetic_labels: true,
            loops: 0,
            triangles: 13_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 101.3,
            paper_index_megabytes: 403.6,
        },
        DatasetSpec {
            code: "WT",
            name: "Wiki-Talk",
            vertices: 2_300_000,
            edges: 5_000_000,
            labels: 8,
            synthetic_labels: true,
            loops: 0,
            triangles: 9_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 812.9,
            paper_index_megabytes: 607.1,
        },
        DatasetSpec {
            code: "WB",
            name: "Web-BerkStan",
            vertices: 685_000,
            edges: 7_000_000,
            labels: 8,
            synthetic_labels: true,
            loops: 0,
            triangles: 64_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 167.1,
            paper_index_megabytes: 474.2,
        },
        DatasetSpec {
            code: "WH",
            name: "Wiki-hyperlink",
            vertices: 1_700_000,
            edges: 28_500_000,
            labels: 8,
            synthetic_labels: true,
            loops: 4_000,
            triangles: 52_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 3_707.2,
            paper_index_megabytes: 1_319.1,
        },
        DatasetSpec {
            code: "PR",
            name: "Pokec",
            vertices: 1_600_000,
            edges: 30_600_000,
            labels: 8,
            synthetic_labels: true,
            loops: 0,
            triangles: 32_000_000,
            generator: Uniform,
            paper_indexing_seconds: 3_104.1,
            paper_index_megabytes: 1_212.6,
        },
        DatasetSpec {
            code: "SO",
            name: "StackOverflow",
            vertices: 2_600_000,
            edges: 63_400_000,
            labels: 3,
            synthetic_labels: false,
            loops: 15_000_000,
            triangles: 114_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 57_072.5,
            paper_index_megabytes: 844.2,
        },
        DatasetSpec {
            code: "LJ",
            name: "LiveJournal",
            vertices: 4_800_000,
            edges: 68_900_000,
            labels: 50,
            synthetic_labels: true,
            loops: 0,
            triangles: 285_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 18_240.9,
            paper_index_megabytes: 6_248.1,
        },
        DatasetSpec {
            code: "WF",
            name: "Wiki-link-fr",
            vertices: 3_300_000,
            edges: 123_700_000,
            labels: 25,
            synthetic_labels: true,
            loops: 19_000,
            triangles: 30_000_000_000,
            generator: PreferentialAttachment,
            paper_indexing_seconds: 51_338.7,
            paper_index_megabytes: 6_467.9,
        },
    ]
}

/// Looks a dataset up by its two-letter code.
pub fn dataset_by_code(code: &str) -> Option<DatasetSpec> {
    table3_catalog().into_iter().find(|d| d.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_graph::stats::{self_loop_count, GraphStats};

    #[test]
    fn catalog_matches_paper_shape() {
        let catalog = table3_catalog();
        assert_eq!(catalog.len(), 13);
        // Sorted by |E| as in the paper.
        for pair in catalog.windows(2) {
            assert!(pair[0].edges <= pair[1].edges);
        }
        assert_eq!(catalog[0].code, "AD");
        assert_eq!(catalog.last().unwrap().code, "WF");
        // Spot-check a few rows against Table III.
        let wn = dataset_by_code("WN").unwrap();
        assert_eq!(wn.labels, 8);
        assert_eq!(wn.loops, 27_000);
        let lj = dataset_by_code("LJ").unwrap();
        assert_eq!(lj.labels, 50);
    }

    #[test]
    fn stand_in_preserves_label_count_and_degree() {
        let spec = dataset_by_code("EP").unwrap();
        let g = spec.generate(1.0 / 128.0, 42);
        assert_eq!(g.label_count(), spec.labels);
        let got_degree = g.average_degree();
        let want_degree = spec.avg_degree();
        assert!(
            (got_degree - want_degree).abs() / want_degree < 0.25,
            "degree {got_degree} too far from {want_degree}"
        );
    }

    #[test]
    fn stand_in_preserves_loop_density() {
        let spec = dataset_by_code("AD").unwrap();
        let g = spec.generate(0.25, 7);
        let density = self_loop_count(&g) as f64 / g.vertex_count() as f64;
        let want = spec.loop_density();
        assert!(
            (density - want).abs() < 0.15,
            "loop density {density} too far from {want}"
        );
    }

    #[test]
    fn loop_free_datasets_stay_loop_free() {
        let spec = dataset_by_code("EP").unwrap();
        let g = spec.generate(1.0 / 256.0, 7);
        assert_eq!(self_loop_count(&g), 0);
    }

    #[test]
    fn preferential_attachment_stand_in_is_skewed() {
        let spec = dataset_by_code("WG").unwrap();
        let g = spec.generate(1.0 / 512.0, 3);
        let stats = GraphStats::compute(&g);
        assert!(stats.max_out_degree + stats.max_in_degree > 4 * stats.avg_degree as usize);
    }

    #[test]
    fn generation_is_reproducible() {
        let spec = dataset_by_code("TW").unwrap();
        let a = spec.generate(1.0 / 256.0, 11);
        let b = spec.generate(1.0 / 256.0, 11);
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn unknown_code_returns_none() {
        assert!(dataset_by_code("XX").is_none());
    }

    #[test]
    fn minimum_size_floor_applies() {
        let spec = dataset_by_code("AD").unwrap();
        let g = spec.generate(1e-9, 1);
        assert!(g.vertex_count() >= 64);
    }
}
