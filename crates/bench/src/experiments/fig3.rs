//! Fig. 3 — execution time of 1000 true-queries and 1000 false-queries on
//! the real-world graph stand-ins, comparing BFS, BiBFS, ETC and the RLC
//! index (recursive k = 2).
//!
//! Every evaluator is driven through the [`ReachabilityEngine`] trait, so
//! this experiment contains no per-evaluator dispatch code. Slow evaluators
//! are capped per query set; a value prefixed with `~` is the linear
//! extrapolation of a truncated run (the paper marks those entries with an
//! "X" for timeout), and "-" means the ETC could not be built within its
//! budget on this graph.

use crate::experiments::prepare_dataset;
use crate::measure::evaluate_capped;
use crate::CommonArgs;
use rlc_baselines::{BfsEngine, BiBfsEngine, EtcBuildConfig, EtcEngine, EtcIndex};
use rlc_core::engine::{IndexEngine, ReachabilityEngine};
use rlc_core::{build_index, BuildConfig};
use rlc_workloads::datasets::table3_catalog;
use rlc_workloads::{format_duration, QuerySet, Table};
use std::time::Duration;

/// Runs the experiment over all thirteen datasets.
pub fn run(args: &CommonArgs) -> String {
    let codes: Vec<&str> = table3_catalog().iter().map(|d| d.code).collect();
    run_subset(args, &codes)
}

/// Runs the experiment over the named dataset codes.
pub fn run_subset(args: &CommonArgs, codes: &[&str]) -> String {
    let per_set_budget = if args.quick {
        Duration::from_secs(2)
    } else {
        Duration::from_secs(30)
    };
    let etc_budget = if args.quick {
        Duration::from_secs(2)
    } else {
        Duration::from_secs(60)
    };
    let mut table = Table::new(
        &format!(
            "Fig. 3: query-set execution time (true / false), {} queries per set, k = 2, scale 1/{:.0}",
            args.queries,
            1.0 / args.scale
        ),
        &[
            "graph", "BFS true", "BFS false", "BiBFS true", "BiBFS false", "ETC true",
            "ETC false", "RLC true", "RLC false",
        ],
    );
    for spec in table3_catalog() {
        if !codes.contains(&spec.code) {
            continue;
        }
        // Progress to stderr: the dense stand-ins (SO, WH) dominate the
        // run via their index builds, and the table only prints at the end.
        eprintln!(">>> fig3: {} ({})", spec.code, spec.name);
        let (graph, queries) = prepare_dataset(&spec, args, 2);
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2).with_time_budget(etc_budget));

        let mut row = vec![spec.code.to_string()];
        row.extend(run_evaluator(
            &queries,
            per_set_budget,
            &BfsEngine::new(&graph),
        ));
        row.extend(run_evaluator(
            &queries,
            per_set_budget,
            &BiBfsEngine::new(&graph),
        ));
        if etc.stats().timed_out {
            row.push("-".to_string());
            row.push("-".to_string());
        } else {
            row.extend(run_evaluator(
                &queries,
                per_set_budget,
                &EtcEngine::new(&graph, &etc),
            ));
        }
        row.extend(run_evaluator(
            &queries,
            per_set_budget,
            &IndexEngine::new(&graph, &index),
        ));
        table.add_row(row);
    }
    table.render()
}

/// Times one engine on the true set and the false set, formatting each as
/// the paper does (total time over the set).
fn run_evaluator(
    queries: &QuerySet,
    budget: Duration,
    engine: &dyn ReachabilityEngine,
) -> Vec<String> {
    let true_timing = evaluate_capped(&queries.true_queries, true, budget, engine);
    let false_timing = evaluate_capped(&queries.false_queries, false, budget, engine);
    debug_assert_eq!(
        true_timing.wrong_answers,
        0,
        "{} returned a wrong answer",
        engine.name()
    );
    debug_assert_eq!(
        false_timing.wrong_answers,
        0,
        "{} returned a wrong answer",
        engine.name()
    );
    let fmt = |t: crate::measure::CappedTiming| {
        let rendered = format_duration(t.extrapolated_total());
        if t.truncated() {
            format!("~{rendered}")
        } else {
            rendered
        }
    };
    vec![fmt(true_timing), fmt(false_timing)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_contains_all_evaluators() {
        let args = CommonArgs {
            scale: 1.0 / 1024.0,
            seed: 5,
            queries: 5,
            quick: true,
        };
        let report = run_subset(&args, &["AD"]);
        assert!(report.contains("BFS true"));
        assert!(report.contains("RLC false"));
        assert!(report.contains("AD"));
    }
}
