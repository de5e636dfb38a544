//! Ablation studies of the design choices discussed in the paper:
//!
//! * **Pruning rules** — §VI attributes the four-orders-of-magnitude indexing
//!   speed-up over ETC mainly to PR1–PR3; this ablation disables them one at
//!   a time and reports indexing cost, index size and whether the result is
//!   still condensed (Theorem 2 only applies with all rules enabled).
//! * **Kernel-search strategy and vertex ordering** — §IV argues the eager
//!   strategy beats the lazy one, and §V-B adopts the IN-OUT ordering; this
//!   ablation measures both choices.

use crate::measure::evaluate_query_set;
use crate::CommonArgs;
use rlc_core::engine::IndexEngine;
use rlc_core::{build_index, BuildConfig, KbsStrategy, OrderingStrategy};
use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
use rlc_workloads::{format_bytes, format_duration, generate_query_set, QueryGenConfig, Table};

/// Default vertex count of the ablation graphs.
pub const DEFAULT_VERTICES: usize = 5_000;

/// Runs the pruning-rule ablation with the default graph size.
pub fn run_pruning_default(args: &CommonArgs) -> String {
    let vertices = if args.quick { 800 } else { DEFAULT_VERTICES };
    run_pruning(args, vertices)
}

/// Runs the strategy/ordering ablation with the default graph size.
pub fn run_strategy_default(args: &CommonArgs) -> String {
    let vertices = if args.quick { 800 } else { DEFAULT_VERTICES };
    run_strategy(args, vertices)
}

/// Pruning-rule ablation on an ER graph with the given vertex count.
pub fn run_pruning(args: &CommonArgs, vertices: usize) -> String {
    let graph = erdos_renyi(&SyntheticConfig::new(vertices, 3.0, 8, args.seed));
    let mut qconfig = QueryGenConfig::paper(2, args.seed ^ 0xAB1);
    qconfig.true_queries = args.queries.min(200);
    qconfig.false_queries = args.queries.min(200);
    let queries = generate_query_set(&graph, &qconfig);

    let variants: Vec<(&str, BuildConfig)> = vec![
        ("all pruning rules (paper)", BuildConfig::new(2)),
        (
            "without PR1",
            BuildConfig {
                use_pr1: false,
                ..BuildConfig::new(2)
            },
        ),
        (
            "without PR2",
            BuildConfig {
                use_pr2: false,
                ..BuildConfig::new(2)
            },
        ),
        (
            "without PR3",
            BuildConfig {
                use_pr3: false,
                ..BuildConfig::new(2)
            },
        ),
        ("no pruning at all", BuildConfig::new(2).without_pruning()),
    ];
    let mut table = Table::new(
        &format!("Ablation A1: pruning rules (ER graph, |V| = {vertices}, d = 3, |L| = 8, k = 2)"),
        &[
            "configuration",
            "indexing time",
            "entries",
            "index size",
            "redundant entries",
            "condensed",
            "query time (T+F)",
        ],
    );
    for (name, config) in variants {
        let (index, stats) = build_index(&graph, &config);
        let timing = evaluate_query_set(&queries, &IndexEngine::new(&graph, &index));
        assert_eq!(timing.wrong_answers, 0, "{name}: wrong answer");
        let redundant = index.redundant_entries();
        table.add_row(vec![
            name.to_string(),
            format_duration(stats.duration),
            index.entry_count().to_string(),
            format_bytes(index.csr_memory_bytes()),
            redundant.to_string(),
            (redundant == 0).to_string(),
            format_duration(timing.total()),
        ]);
    }
    table.render()
}

/// Kernel-search strategy and vertex-ordering ablation on an ER graph.
pub fn run_strategy(args: &CommonArgs, vertices: usize) -> String {
    let graph = erdos_renyi(&SyntheticConfig::new(vertices, 3.0, 8, args.seed));

    let mut out = String::new();
    let mut strategy_table = Table::new(
        &format!(
            "Ablation A2a: eager vs lazy kernel-based search (ER graph, |V| = {vertices}, d = 3, |L| = 8, k = 2)"
        ),
        &["strategy", "indexing time", "entries", "insert attempts"],
    );
    for (name, strategy) in [
        ("eager (paper)", KbsStrategy::Eager),
        ("lazy", KbsStrategy::Lazy),
    ] {
        let config = BuildConfig::new(2).with_strategy(strategy);
        let (index, stats) = build_index(&graph, &config);
        strategy_table.add_row(vec![
            name.to_string(),
            format_duration(stats.duration),
            index.entry_count().to_string(),
            stats.insert_attempts.to_string(),
        ]);
    }
    out.push_str(&strategy_table.render());
    out.push('\n');

    let mut ordering_table = Table::new(
        &format!(
            "Ablation A2b: vertex processing order (ER graph, |V| = {vertices}, d = 3, |L| = 8, k = 2)"
        ),
        &["ordering", "indexing time", "entries", "index size"],
    );
    let orderings: Vec<(&str, OrderingStrategy)> = vec![
        ("IN-OUT degree (paper)", OrderingStrategy::InOutDegree),
        ("out-degree", OrderingStrategy::OutDegree),
        ("in-degree", OrderingStrategy::InDegree),
        ("total degree", OrderingStrategy::TotalDegree),
        ("vertex id", OrderingStrategy::VertexId),
        ("random", OrderingStrategy::Random(args.seed)),
    ];
    for (name, ordering) in orderings {
        let config = BuildConfig::new(2).with_ordering(ordering);
        let (index, stats) = build_index(&graph, &config);
        ordering_table.add_row(vec![
            name.to_string(),
            format_duration(stats.duration),
            index.entry_count().to_string(),
            format_bytes(index.csr_memory_bytes()),
        ]);
    }
    out.push_str(&ordering_table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            scale: 1.0,
            seed: 6,
            queries: 3,
            quick: true,
        }
    }

    #[test]
    fn pruning_ablation_reports_all_variants() {
        let report = run_pruning(&tiny_args(), 300);
        assert!(report.contains("all pruning rules"));
        assert!(report.contains("no pruning at all"));
        assert!(report.contains("without PR2"));
    }

    #[test]
    fn strategy_ablation_reports_both_tables() {
        let report = run_strategy(&tiny_args(), 300);
        assert!(report.contains("eager (paper)"));
        assert!(report.contains("IN-OUT degree (paper)"));
        assert!(report.contains("random"));
    }
}
