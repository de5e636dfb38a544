//! Fig. 4 — impact of the recursive k value on real-graph stand-ins.
//!
//! As in the paper, the TW (Twitter) and WG (Web-Google) stand-ins are
//! indexed with k = 2, 3 and 4, and for every k a workload whose constraints
//! have exactly k labels is evaluated. Reported: indexing time, index size,
//! and query-set execution time for the true and false sets.

use crate::experiments::prepare_dataset;
use crate::measure::evaluate_query_set;
use crate::CommonArgs;
use rlc_core::engine::IndexEngine;
use rlc_core::{build_index, BuildConfig};
use rlc_workloads::datasets::table3_catalog;
use rlc_workloads::{format_bytes, format_duration, Table};
use std::time::Duration;

/// Runs the experiment with the paper's datasets (TW, WG) and k ∈ {2, 3, 4}.
pub fn run(args: &CommonArgs) -> String {
    run_subset(args, &["TW", "WG"], &[2, 3, 4])
}

/// Runs the experiment over the given dataset codes and k values.
pub fn run_subset(args: &CommonArgs, codes: &[&str], ks: &[usize]) -> String {
    let budget = if args.quick {
        Duration::from_secs(15)
    } else {
        Duration::from_secs(900)
    };
    let mut table = Table::new(
        &format!(
            "Fig. 4: RLC index performance for different recursive k (scale 1/{:.0})",
            1.0 / args.scale
        ),
        &[
            "graph",
            "k",
            "indexing time",
            "index size",
            "entries",
            "true-query time",
            "false-query time",
        ],
    );
    for spec in table3_catalog() {
        if !codes.contains(&spec.code) {
            continue;
        }
        for &k in ks {
            let (graph, queries) = prepare_dataset(&spec, args, k);
            let config = BuildConfig::new(k).with_time_budget(budget);
            let (index, stats) = build_index(&graph, &config);
            if stats.timed_out {
                table.add_row(vec![
                    spec.code.to_string(),
                    k.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let timing = evaluate_query_set(&queries, &IndexEngine::new(&graph, &index));
            assert_eq!(timing.wrong_answers, 0, "index returned a wrong answer");
            table.add_row(vec![
                spec.code.to_string(),
                k.to_string(),
                format_duration(stats.duration),
                format_bytes(index.csr_memory_bytes()),
                index.entry_count().to_string(),
                format_duration(timing.true_total),
                format_duration(timing.false_total),
            ]);
        }
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_requested_ks() {
        let args = CommonArgs {
            scale: 1.0 / 2048.0,
            seed: 2,
            queries: 3,
            quick: true,
        };
        let report = run_subset(&args, &["TW"], &[2, 3]);
        assert!(report.contains("TW"));
        assert!(report.contains("indexing time"));
    }
}
