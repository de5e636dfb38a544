//! End-to-end benchmark on a synthetic social-network-like graph: generate a
//! Barabási–Albert graph, build the RLC index, generate a verified query
//! workload, and compare the index against online traversals through the
//! uniform `ReachabilityEngine` interface — a miniature version of the
//! paper's Fig. 3 experiment, plus the rayon-parallel batch path.
//!
//! Run with: `cargo run --release --example synthetic_benchmark`

use rlc::graph::generate::{barabasi_albert, SyntheticConfig};
use rlc::prelude::*;
use std::time::Instant;

fn main() {
    // A 50K-vertex preferential-attachment graph with 8 Zipfian labels —
    // about the shape of the paper's smaller real-world datasets.
    let config = SyntheticConfig::new(50_000, 4.0, 8, 42);
    let graph = barabasi_albert(&config);
    println!(
        "generated BA graph: {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // Build the index (recursive k = 2, the practical value observed in
    // real-world query logs).
    let (index, build_stats) = build_index(&graph, &BuildConfig::new(2));
    println!(
        "built RLC index in {:.2?}: {} entries, {:.1} MB ({} attempts pruned by PR1/PR2)",
        build_stats.duration,
        index.entry_count(),
        index.stats().memory_megabytes(),
        build_stats.pruned_pr1 + build_stats.pruned_pr2,
    );

    // A verified workload of 200 true and 200 false queries with 2-label
    // constraints (the paper uses 1000 + 1000).
    let workload = generate_query_set(&graph, &QueryGenConfig::small(200, 200, 2, 7));
    println!("generated {} verified queries", workload.len());
    let queries: Vec<RlcQuery> = workload.iter().map(|(q, _)| q.clone()).collect();
    let expected: Vec<bool> = workload.iter().map(|(_, e)| e).collect();

    // The index and the strongest online baseline of the paper, behind the
    // same trait.
    let engines: Vec<Box<dyn ReachabilityEngine + '_>> = vec![
        Box::new(IndexEngine::new(&graph, &index)),
        Box::new(BiBfsEngine::new(&graph)),
    ];
    let unified: Vec<Query> = queries.iter().map(Query::from).collect();
    let mut totals = Vec::new();
    for engine in &engines {
        let start = Instant::now();
        for (query, expected) in unified.iter().zip(&expected) {
            assert_eq!(engine.evaluate(query), Ok(*expected));
        }
        let elapsed = start.elapsed();
        println!(
            "{:<10}: {elapsed:.2?} for {} queries (sequential)",
            engine.name(),
            queries.len()
        );
        totals.push(elapsed);
    }
    println!(
        "speed-up  : {:.0}x",
        totals[1].as_secs_f64() / totals[0].as_secs_f64().max(1e-9)
    );

    // The same workload through the rayon batch path: answers must agree,
    // and on a multi-core machine the traversal baseline scales with cores.
    for engine in &engines {
        let start = Instant::now();
        let answers = engine.evaluate_batch(&unified);
        let elapsed = start.elapsed();
        let answers: Vec<bool> = answers.into_iter().map(|a| a.unwrap()).collect();
        assert_eq!(answers, expected);
        println!(
            "{:<10}: {elapsed:.2?} for {} queries (batch, {} threads)",
            engine.name(),
            queries.len(),
            rlc::index::engine::batch_threads()
        );
    }

    // The workload shares a handful of constraints across many pairs — the
    // case the constraint-grouping batch planner exists for: each distinct
    // constraint is prepared once, and the traversal engines answer all
    // same-source pairs of a group with one product search.
    let plan = BatchPlan::new(&unified);
    println!(
        "\nbatch planner: {} queries in {} constraint groups",
        plan.query_count(),
        plan.group_count()
    );
    for engine in &engines {
        let start = Instant::now();
        let answers = plan.execute(engine.as_ref());
        let elapsed = start.elapsed();
        let answers: Vec<bool> = answers.into_iter().map(|a| a.unwrap()).collect();
        assert_eq!(answers, expected);
        println!(
            "{:<10}: {elapsed:.2?} for {} queries (planned batch)",
            engine.name(),
            plan.query_count()
        );
    }
}
