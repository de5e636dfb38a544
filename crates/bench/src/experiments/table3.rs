//! Table III — overview of the real-world graphs and their stand-ins.
//!
//! For every dataset the report shows the statistics the paper gives for the
//! original graph next to the measured statistics of the generated stand-in,
//! so the fidelity of the substitution (label count, degree, loop density,
//! cyclicity) can be inspected directly.

use crate::CommonArgs;
use rlc_graph::stats::GraphStats;
use rlc_workloads::datasets::table3_catalog;
use rlc_workloads::Table;

/// Runs the experiment over all thirteen datasets.
pub fn run(args: &CommonArgs) -> String {
    let codes: Vec<&str> = table3_catalog().iter().map(|d| d.code).collect();
    run_subset(args, &codes)
}

/// Runs the experiment over the named dataset codes.
pub fn run_subset(args: &CommonArgs, codes: &[&str]) -> String {
    let mut table = Table::new(
        &format!(
            "Table III: dataset overview (stand-ins at scale 1/{:.0})",
            1.0 / args.scale
        ),
        &[
            "graph",
            "|V| paper",
            "|V| ours",
            "|E| paper",
            "|E| ours",
            "|L|",
            "loops paper",
            "loops ours",
            "triangles paper",
            "triangles ours",
            "SCCs ours",
        ],
    );
    for spec in table3_catalog() {
        if !codes.contains(&spec.code) {
            continue;
        }
        let graph = spec.generate(args.scale, args.seed);
        let stats = GraphStats::compute(&graph);
        table.add_row(vec![
            spec.code.to_string(),
            spec.vertices.to_string(),
            stats.vertices.to_string(),
            spec.edges.to_string(),
            stats.edges.to_string(),
            stats.labels.to_string(),
            spec.loops.to_string(),
            stats.self_loops.to_string(),
            spec.triangles.to_string(),
            stats.triangles.to_string(),
            stats.scc_count.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_requested_rows() {
        let args = CommonArgs {
            scale: 1.0 / 1024.0,
            seed: 3,
            queries: 1,
            quick: true,
        };
        let report = run_subset(&args, &["AD", "TW"]);
        assert!(report.contains("AD"));
        assert!(report.contains("TW"));
        assert!(!report.contains("\nWF"));
    }
}
