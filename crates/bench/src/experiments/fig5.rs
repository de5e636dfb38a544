//! Fig. 5 — impact of label-set size and average degree on ER- and BA-graphs.
//!
//! The paper sweeps 1M-vertex graphs over d ∈ {2,3,4,5} and |L| ∈ {8,…,36};
//! this reproduction sweeps the same grid over a scaled-down vertex count
//! (default 20 000) so the 64-cell grid completes on a laptop. Reported per
//! cell: indexing time, index size, and true/false query-set time.

use crate::measure::evaluate_query_set;
use crate::CommonArgs;
use rlc_core::engine::IndexEngine;
use rlc_core::{build_index, BuildConfig};
use rlc_graph::generate::{barabasi_albert, erdos_renyi, SyntheticConfig};
use rlc_graph::LabeledGraph;
use rlc_workloads::{format_bytes, format_duration, generate_query_set, QueryGenConfig, Table};

/// Default vertex count of the scaled-down sweep.
pub const DEFAULT_VERTICES: usize = 20_000;

/// Runs the experiment with the paper's parameter grid on scaled-down graphs.
pub fn run(args: &CommonArgs) -> String {
    let vertices = if args.quick { 2_000 } else { DEFAULT_VERTICES };
    run_with(
        args,
        vertices,
        &[2, 3, 4, 5],
        &[8, 12, 16, 20, 24, 28, 32, 36],
    )
}

/// Runs the experiment over a custom grid.
pub fn run_with(
    args: &CommonArgs,
    vertices: usize,
    degrees: &[usize],
    label_sizes: &[usize],
) -> String {
    // Query sets per cell are capped: with 64 cells, generating the paper's
    // 2×1000 queries per cell would dominate the run without adding signal.
    let queries_per_set = args.queries.min(200);
    let mut out = String::new();
    type GeneratorFn = fn(&SyntheticConfig) -> LabeledGraph;
    let families: [(&str, GeneratorFn); 2] = [("ER", erdos_renyi), ("BA", barabasi_albert)];
    for (family, generate) in families {
        let mut table = Table::new(
            &format!(
                "Fig. 5 ({family}): |V| = {vertices}, varying d and |L| (k = 2, {queries_per_set} queries per set)"
            ),
            &[
                "d",
                "|L|",
                "indexing time",
                "index size",
                "entries",
                "true-query time",
                "false-query time",
            ],
        );
        for &d in degrees {
            for &labels in label_sizes {
                let config = SyntheticConfig::new(vertices, d as f64, labels, args.seed);
                let graph = generate(&config);
                let (index, stats) = build_index(&graph, &BuildConfig::new(2));
                let mut qconfig =
                    QueryGenConfig::paper(2, args.seed ^ (d as u64) << 8 ^ labels as u64);
                qconfig.true_queries = queries_per_set;
                qconfig.false_queries = queries_per_set;
                let queries = generate_query_set(&graph, &qconfig);
                let timing = evaluate_query_set(&queries, &IndexEngine::new(&graph, &index));
                assert_eq!(timing.wrong_answers, 0, "index returned a wrong answer");
                table.add_row(vec![
                    d.to_string(),
                    labels.to_string(),
                    format_duration(stats.duration),
                    format_bytes(index.csr_memory_bytes()),
                    index.entry_count().to_string(),
                    format_duration(timing.true_total),
                    format_duration(timing.false_total),
                ]);
            }
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs() {
        let args = CommonArgs {
            scale: 1.0,
            seed: 3,
            queries: 3,
            quick: true,
        };
        let report = run_with(&args, 300, &[2], &[4]);
        assert!(report.contains("Fig. 5 (ER)"));
        assert!(report.contains("Fig. 5 (BA)"));
    }
}
