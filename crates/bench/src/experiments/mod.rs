//! Implementations of every experiment of the paper's evaluation (§VI).
//!
//! Each submodule regenerates one table or figure and returns its report as a
//! plain-text string; `run_all [experiment]` prints the reports of the
//! experiments listed in [`ALL`]. Keeping the logic in the library makes the
//! experiments testable with shrunken parameters.
//!
//! | `run_all` name | module | regenerates |
//! |---|---|---|
//! | `table3` | [`table3`] | Table III — dataset overview |
//! | `table4` | [`table4`] | Table IV — indexing time and index size, RLC vs ETC |
//! | `fig3` | [`fig3`] | Fig. 3 — query time of 1000 true / 1000 false queries |
//! | `fig4` | [`fig4`] | Fig. 4 — impact of recursive k on real-graph stand-ins |
//! | `fig5` | [`fig5`] | Fig. 5 — label-set size × average degree sweep |
//! | `fig6` | [`fig6`] | Fig. 6 — scalability in the number of vertices |
//! | `fig7` | [`fig7`] | Fig. 7 (App. C) — impact of k on synthetic graphs |
//! | `table5` | [`table5`] | Table V — speed-ups and break-even points vs graph engines |
//! | `ablation_pruning` | [`ablation`] | pruning-rule ablation (A1) |
//! | `ablation_strategy` | [`ablation`] | strategy and ordering ablation (A2) |

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table3;
pub mod table4;
pub mod table5;

use crate::CommonArgs;
use rlc_graph::LabeledGraph;
use rlc_workloads::datasets::DatasetSpec;
use rlc_workloads::{generate_query_set, QueryGenConfig, QuerySet};

/// An experiment `run_all` can run: its command-line name and its entry
/// point, which returns the report.
pub type Experiment = (&'static str, fn(&CommonArgs) -> String);

/// Every experiment, in the order `run_all` without a name runs them.
pub const ALL: [Experiment; 10] = [
    ("table3", table3::run),
    ("table4", table4::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("table5", table5::run),
    ("ablation_pruning", ablation::run_pruning_default),
    ("ablation_strategy", ablation::run_strategy_default),
];

/// Generates the stand-in graph and its query workload for one dataset.
pub fn prepare_dataset(
    spec: &DatasetSpec,
    args: &CommonArgs,
    constraint_len: usize,
) -> (LabeledGraph, QuerySet) {
    let graph = spec.generate(args.scale, args.seed);
    let mut config = QueryGenConfig::paper(constraint_len, args.seed ^ 0xC0FFEE);
    config.true_queries = args.queries;
    config.false_queries = args.queries;
    let queries = generate_query_set(&graph, &config);
    (graph, queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_workloads::datasets::dataset_by_code;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            scale: 1.0 / 1024.0,
            seed: 1,
            queries: 5,
            quick: true,
        }
    }

    #[test]
    fn prepare_dataset_produces_graph_and_queries() {
        let spec = dataset_by_code("AD").unwrap();
        let (graph, queries) = prepare_dataset(&spec, &tiny_args(), 2);
        assert!(graph.vertex_count() >= 64);
        assert_eq!(queries.true_queries.len(), 5);
        assert_eq!(queries.false_queries.len(), 5);
    }

    #[test]
    fn every_experiment_runs_in_quick_mode() {
        let args = tiny_args();
        for report in [
            table3::run_subset(&args, &["AD", "EP"]),
            table4::run_subset(&args, &["AD"]),
            fig3::run_subset(&args, &["AD"]),
            fig4::run_subset(&args, &["TW"], &[2, 3]),
            fig5::run_with(&args, 400, &[2, 3], &[4, 8]),
            fig6::run_with(&args, &[300, 600]),
            fig7::run_with(&args, 400, &[2, 3]),
            table5::run_with(&args, 8),
            ablation::run_pruning(&args, 400),
            ablation::run_strategy(&args, 400),
        ] {
            assert!(!report.is_empty());
            assert!(
                report.contains("=="),
                "report should contain a table: {report}"
            );
        }
    }
}
