//! Fig. 7 (Appendix C) — impact of the recursive k on synthetic graphs.
//!
//! The paper indexes a 125K-vertex ER-graph and BA-graph (d = 5, |L| = 16)
//! with k ∈ {2, 3, 4} and evaluates 1000 true / 1000 false queries per k.
//! This reproduction uses the same structure at a scaled-down vertex count.

use crate::measure::evaluate_query_set;
use crate::CommonArgs;
use rlc_core::engine::IndexEngine;
use rlc_core::{build_index, BuildConfig};
use rlc_graph::generate::{barabasi_albert, erdos_renyi, SyntheticConfig};
use rlc_graph::LabeledGraph;
use rlc_workloads::{format_bytes, format_duration, generate_query_set, QueryGenConfig, Table};
use std::time::Duration;

/// Default vertex count (the paper's 125K scaled down by 32).
pub const DEFAULT_VERTICES: usize = 3_906;

/// Runs the experiment with the default parameters.
pub fn run(args: &CommonArgs) -> String {
    let vertices = if args.quick { 800 } else { DEFAULT_VERTICES };
    run_with(args, vertices, &[2, 3, 4])
}

/// Runs the experiment with a custom vertex count and set of k values.
pub fn run_with(args: &CommonArgs, vertices: usize, ks: &[usize]) -> String {
    let budget = if args.quick {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(1200)
    };
    let queries_per_set = args.queries.min(500);
    let mut out = String::new();
    type GeneratorFn = fn(&SyntheticConfig) -> LabeledGraph;
    let families: [(&str, GeneratorFn); 2] = [("ER", erdos_renyi), ("BA", barabasi_albert)];
    for (family, generate) in families {
        let mut table = Table::new(
            &format!(
                "Fig. 7 ({family}): |V| = {vertices}, d = 5, |L| = 16, varying k ({queries_per_set} queries per set)"
            ),
            &[
                "k",
                "indexing time",
                "index size",
                "entries",
                "true-query time",
                "false-query time",
            ],
        );
        let config = SyntheticConfig::new(vertices, 5.0, 16, args.seed);
        let graph = generate(&config);
        for &k in ks {
            let build_config = BuildConfig::new(k).with_time_budget(budget);
            let (index, stats) = build_index(&graph, &build_config);
            if stats.timed_out {
                table.add_row(vec![
                    k.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let mut qconfig = QueryGenConfig::paper(k, args.seed ^ (k as u64) << 17);
            qconfig.true_queries = queries_per_set;
            qconfig.false_queries = queries_per_set;
            let queries = generate_query_set(&graph, &qconfig);
            let timing = evaluate_query_set(&queries, &IndexEngine::new(&graph, &index));
            assert_eq!(timing.wrong_answers, 0, "index returned a wrong answer");
            table.add_row(vec![
                k.to_string(),
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
    fn tiny_run_covers_both_families() {
        let args = CommonArgs {
            scale: 1.0,
            seed: 9,
            queries: 3,
            quick: true,
        };
        let report = run_with(&args, 300, &[2]);
        assert!(report.contains("Fig. 7 (ER)"));
        assert!(report.contains("Fig. 7 (BA)"));
    }
}
