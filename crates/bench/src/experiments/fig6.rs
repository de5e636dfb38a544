//! Fig. 6 — scalability in the number of vertices (d = 5, |L| = 16).
//!
//! The paper varies |V| over {125K, 250K, 500K, 1M, 2M}; this reproduction
//! uses the same geometric progression scaled down by 32 (≈ 3.9K … 62.5K) so
//! the five builds per family finish on a laptop while preserving the growth
//! rates the figure is about.

use crate::measure::evaluate_query_set;
use crate::CommonArgs;
use rlc_core::engine::IndexEngine;
use rlc_core::{build_index, BuildConfig};
use rlc_graph::generate::{barabasi_albert, erdos_renyi, SyntheticConfig};
use rlc_graph::LabeledGraph;
use rlc_workloads::{format_bytes, format_duration, generate_query_set, QueryGenConfig, Table};

/// The paper's vertex counts scaled down by 32.
pub const DEFAULT_SIZES: [usize; 5] = [3_906, 7_812, 15_625, 31_250, 62_500];

/// Runs the experiment with the default size progression.
pub fn run(args: &CommonArgs) -> String {
    if args.quick {
        run_with(args, &[500, 1_000, 2_000])
    } else {
        run_with(args, &DEFAULT_SIZES)
    }
}

/// Runs the experiment over custom vertex counts.
pub fn run_with(args: &CommonArgs, sizes: &[usize]) -> String {
    let queries_per_set = args.queries.min(500);
    let mut out = String::new();
    type GeneratorFn = fn(&SyntheticConfig) -> LabeledGraph;
    let families: [(&str, GeneratorFn); 2] = [("ER", erdos_renyi), ("BA", barabasi_albert)];
    for (family, generate) in families {
        let mut table = Table::new(
            &format!(
                "Fig. 6 ({family}): d = 5, |L| = 16, varying |V| (k = 2, {queries_per_set} queries per set)"
            ),
            &[
                "|V|",
                "|E|",
                "indexing time",
                "index size",
                "entries",
                "true-query time",
                "false-query time",
            ],
        );
        for &n in sizes {
            let config = SyntheticConfig::new(n, 5.0, 16, args.seed);
            let graph = generate(&config);
            let (index, stats) = build_index(&graph, &BuildConfig::new(2));
            let mut qconfig = QueryGenConfig::paper(2, args.seed ^ n as u64);
            qconfig.true_queries = queries_per_set;
            qconfig.false_queries = queries_per_set;
            let queries = generate_query_set(&graph, &qconfig);
            let timing = evaluate_query_set(&queries, &IndexEngine::new(&graph, &index));
            assert_eq!(timing.wrong_answers, 0, "index returned a wrong answer");
            table.add_row(vec![
                n.to_string(),
                graph.edge_count().to_string(),
                format_duration(stats.duration),
                format_bytes(index.csr_memory_bytes()),
                index.entry_count().to_string(),
                format_duration(timing.true_total),
                format_duration(timing.false_total),
            ]);
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
    fn tiny_sizes_run() {
        let args = CommonArgs {
            scale: 1.0,
            seed: 4,
            queries: 3,
            quick: true,
        };
        let report = run_with(&args, &[200, 400]);
        assert!(report.contains("Fig. 6 (ER)"));
        assert!(report.contains("400"));
    }
}
