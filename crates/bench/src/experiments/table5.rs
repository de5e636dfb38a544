//! Table V — speed-ups (SU) and workload-size break-even points (BEP) of the
//! RLC index over graph engines.
//!
//! As in the paper, the WN (Web-NotreDame) stand-in is indexed once with
//! k = 3 and four query shapes are evaluated on every engine:
//!
//! * Q1 — `a+` (single label under the Kleene plus),
//! * Q2 — `(a ∘ b)+` (concatenation of length 2),
//! * Q3 — `(a ∘ b ∘ c)+` (concatenation of length 3),
//! * Q4 — `a+ ∘ b+` (an extended query evaluated by the RLC index combined
//!   with an online traversal).
//!
//! The engines are the three simulated archetypes of `rlc-engine-sim` (its
//! crate docs give the substitution rationale). For every engine and query
//! shape the report gives the median per-query speed-up of the RLC index and
//! the number of queries after which building the index pays off
//! (`BEP = indexing time / (engine time − RLC time)` per query).

use crate::measure::median_duration;
use crate::CommonArgs;
use rand::prelude::*;
use rand::rngs::StdRng;
use rlc_core::engine::{IndexEngine, ReachabilityEngine};
use rlc_core::{build_index, BuildConfig, Query};
use rlc_engine_sim::all_engines;
use rlc_graph::{Label, LabeledGraph, VertexId};
use rlc_workloads::datasets::dataset_by_code;
use rlc_workloads::{format_duration, Table};
use std::time::{Duration, Instant};

/// Runs the experiment with the paper's setup (20 query instances per shape).
pub fn run(args: &CommonArgs) -> String {
    run_with(args, 20)
}

/// Runs the experiment with a custom number of query instances per shape.
pub fn run_with(args: &CommonArgs, instances_per_shape: usize) -> String {
    // rlc-analyze: allow(panic-free-library) — "WN" is a literal code of the static dataset catalog; a miss is a broken catalog, not an input error
    let spec = dataset_by_code("WN").expect("WN is part of the catalog");
    let graph = spec.generate(args.scale, args.seed);

    let build_started = Instant::now();
    let (index, build_stats) = build_index(&graph, &BuildConfig::new(3));
    let indexing_time = build_started.elapsed().max(build_stats.duration);
    let rlc = IndexEngine::new(&graph, &index);

    // The three most frequent labels play the roles of a, b, c (frequent
    // labels make the online engines do the most work, matching the paper's
    // choice of labels that occur on real property paths).
    let (a, b, c) = top_labels(&graph);
    let shapes: Vec<(&str, Vec<Vec<Label>>)> = vec![
        ("Q1: a+", vec![vec![a]]),
        ("Q2: (a.b)+", vec![vec![a, b]]),
        ("Q3: (a.b.c)+", vec![vec![a, b, c]]),
        ("Q4: a+ . b+", vec![vec![a], vec![b]]),
    ];

    let engines = all_engines(&graph);
    let mut table = Table::new(
        &format!(
            "Table V: speed-ups (SU) and break-even points (BEP) on the WN stand-in (k = 3, scale 1/{:.0}, indexing time {})",
            1.0 / args.scale,
            format_duration(indexing_time)
        ),
        &[
            "engine", "Q1 SU", "Q1 BEP", "Q2 SU", "Q2 BEP", "Q3 SU", "Q3 BEP", "Q4 SU", "Q4 BEP",
        ],
    );

    // Pre-draw the (source, target) instances once and pre-build the unified
    // queries per shape, so that every engine answers exactly the same
    // queries and the timed sections measure evaluation only.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7AB1E5);
    let n = graph.vertex_count() as u32;
    let instances: Vec<(VertexId, VertexId)> = (0..instances_per_shape)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let shape_queries: Vec<Vec<Query>> = shapes
        .iter()
        .map(|(_, blocks)| {
            instances
                .iter()
                .map(|&(s, t)| {
                    // rlc-analyze: allow(panic-free-library) — the Table V shape list is hardcoded; validity is static, not data-dependent
                    Query::concat(s, t, blocks.clone()).expect("Table V shapes are valid")
                })
                .collect()
        })
        .collect();

    // Median per-query time of the RLC index (hybrid evaluation handles both
    // the single-block and the concatenated shapes uniformly).
    let rlc_medians: Vec<Duration> = shape_queries
        .iter()
        .map(|queries| {
            median_duration(
                queries
                    .iter()
                    .map(|q| {
                        let start = Instant::now();
                        // rlc-analyze: allow(panic-free-library) — every Table V shape has blocks of length <= the k the index was just built with
                        let _ = rlc.evaluate(q).expect("Table V shapes fit the index");
                        start.elapsed()
                    })
                    .collect(),
            )
        })
        .collect();

    for engine in &engines {
        let mut row = vec![engine.name().to_string()];
        for (shape_idx, queries) in shape_queries.iter().enumerate() {
            let engine_median = median_duration(
                queries
                    .iter()
                    .map(|q| {
                        let start = Instant::now();
                        let engine_answer = engine.evaluate(q);
                        let elapsed = start.elapsed();
                        // Safety net: the simulated engines must agree with
                        // the index, otherwise the speed-up is meaningless.
                        let index_answer = rlc.evaluate(q);
                        assert_eq!(
                            engine_answer,
                            index_answer,
                            "{} disagrees with the RLC index on ({}, {})",
                            engine.name(),
                            q.source,
                            q.target
                        );
                        elapsed
                    })
                    .collect(),
            );
            let rlc_median = rlc_medians[shape_idx];
            row.push(format_speedup(engine_median, rlc_median));
            row.push(format_bep(indexing_time, engine_median, rlc_median));
        }
        table.add_row(row);
    }
    table.render()
}

/// The three most frequent labels of the graph, by descending edge count.
fn top_labels(graph: &LabeledGraph) -> (Label, Label, Label) {
    let histogram = rlc_graph::stats::label_histogram(graph);
    let mut ranked: Vec<usize> = (0..histogram.len()).collect();
    ranked.sort_by_key(|&i| std::cmp::Reverse(histogram[i]));
    assert!(
        ranked.len() >= 3,
        "Table V needs at least three labels in the graph"
    );
    (
        Label::from_index(ranked[0]),
        Label::from_index(ranked[1]),
        Label::from_index(ranked[2]),
    )
}

fn format_speedup(engine: Duration, rlc: Duration) -> String {
    let rlc_secs = rlc.as_secs_f64().max(1e-9);
    format!("{:.0}x", engine.as_secs_f64() / rlc_secs)
}

fn format_bep(indexing: Duration, engine: Duration, rlc: Duration) -> String {
    let gain = engine.as_secs_f64() - rlc.as_secs_f64();
    if gain <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.0}", (indexing.as_secs_f64() / gain).ceil())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_all_engines_and_shapes() {
        let args = CommonArgs {
            scale: 1.0 / 2048.0,
            seed: 11,
            queries: 1,
            quick: true,
        };
        let report = run_with(&args, 4);
        assert!(report.contains("Sys1"));
        assert!(report.contains("Sys2"));
        assert!(report.contains("Virtuoso"));
        assert!(report.contains("Q4 BEP"));
    }

    #[test]
    fn speedup_and_bep_formatting() {
        let ms = Duration::from_millis(10);
        let us = Duration::from_micros(10);
        assert_eq!(format_speedup(ms, us), "1000x");
        assert_eq!(format_bep(Duration::from_secs(1), ms, us), "101");
        assert_eq!(format_bep(Duration::from_secs(1), us, ms), "-");
    }
}
