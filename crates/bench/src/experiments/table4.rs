//! Table IV — indexing time and index size of the RLC index versus the
//! extended transitive closure (ETC), with recursive k = 2.
//!
//! As in the paper, ETC construction is capped by a wall-clock budget; a "-"
//! entry means the budget was exhausted (the paper uses a 24-hour cap on the
//! real graphs, this reproduction defaults to a per-graph cap appropriate for
//! the stand-in scale).

use crate::CommonArgs;
use rlc_baselines::{EtcBuildConfig, EtcIndex};
use rlc_core::{build_index, BuildConfig};
use rlc_workloads::datasets::table3_catalog;
use rlc_workloads::{format_bytes, format_duration, Table};
use std::time::Duration;

/// Wall-clock budgets used for the two builds.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Budget for the RLC index build.
    pub rlc: Duration,
    /// Budget for the ETC build.
    pub etc: Duration,
}

impl Budgets {
    fn for_args(args: &CommonArgs) -> Self {
        if args.quick {
            Budgets {
                rlc: Duration::from_secs(10),
                etc: Duration::from_secs(2),
            }
        } else {
            Budgets {
                rlc: Duration::from_secs(600),
                etc: Duration::from_secs(60),
            }
        }
    }
}

/// Runs the experiment over all thirteen datasets.
pub fn run(args: &CommonArgs) -> String {
    let codes: Vec<&str> = table3_catalog().iter().map(|d| d.code).collect();
    run_subset(args, &codes)
}

/// Runs the experiment over the named dataset codes.
pub fn run_subset(args: &CommonArgs, codes: &[&str]) -> String {
    let budgets = Budgets::for_args(args);
    let mut table = Table::new(
        &format!(
            "Table IV: indexing time (IT) and index size (IS), k = 2, scale 1/{:.0}",
            1.0 / args.scale
        ),
        &[
            "graph",
            "RLC IT",
            "RLC IS",
            "RLC entries",
            "ETC IT",
            "ETC IS",
            "ETC records",
            "paper RLC IT (s)",
            "paper RLC IS (MB)",
        ],
    );
    for spec in table3_catalog() {
        if !codes.contains(&spec.code) {
            continue;
        }
        let graph = spec.generate(args.scale, args.seed);

        let config = BuildConfig::new(2).with_time_budget(budgets.rlc);
        let (index, stats) = build_index(&graph, &config);
        let (rlc_it, rlc_is, rlc_entries) = if stats.timed_out {
            ("-".to_string(), "-".to_string(), "-".to_string())
        } else {
            (
                format_duration(stats.duration),
                format_bytes(index.csr_memory_bytes()),
                index.entry_count().to_string(),
            )
        };

        let etc_config = EtcBuildConfig::new(2).with_time_budget(budgets.etc);
        let etc = EtcIndex::build(&graph, &etc_config);
        let (etc_it, etc_is, etc_records) = if etc.stats().timed_out {
            ("-".to_string(), "-".to_string(), "-".to_string())
        } else {
            (
                format_duration(etc.stats().duration),
                format_bytes(etc.memory_bytes()),
                etc.record_count().to_string(),
            )
        };

        table.add_row(vec![
            spec.code.to_string(),
            rlc_it,
            rlc_is,
            rlc_entries,
            etc_it,
            etc_is,
            etc_records,
            format!("{:.1}", spec.paper_indexing_seconds),
            format!("{:.1}", spec.paper_index_megabytes),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_rows() {
        let args = CommonArgs {
            scale: 1.0 / 1024.0,
            seed: 7,
            queries: 1,
            quick: true,
        };
        let report = run_subset(&args, &["AD"]);
        assert!(report.contains("AD"));
        assert!(report.contains("RLC IT"));
    }
}
