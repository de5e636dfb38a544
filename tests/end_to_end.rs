//! End-to-end integration tests spanning every crate of the workspace:
//! dataset stand-in generation → index construction → workload generation →
//! agreement of every evaluator (RLC index, online traversals, ETC, simulated
//! engines, hybrid evaluation), all driven through the `ReachabilityEngine`
//! trait.

use rlc::engines::all_engines;
use rlc::prelude::*;
use rlc::workloads::datasets::dataset_by_code;
use rlc::workloads::{generate_query_set, QueryGenConfig};

#[test]
fn dataset_standin_pipeline_all_evaluators_agree() {
    // A small Advogato stand-in: dense, with self loops — the stress case
    // for recursive constraints.
    let spec = dataset_by_code("AD").unwrap();
    let graph = spec.generate(1.0 / 64.0, 11);
    let (index, stats) = build_index(&graph, &BuildConfig::new(2));
    assert!(!stats.timed_out);
    assert!(index.entry_count() > 0);

    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let queries = generate_query_set(&graph, &QueryGenConfig::small(40, 40, 2, 5));
    assert_eq!(queries.true_queries.len(), 40);
    assert_eq!(queries.false_queries.len(), 40);

    let engines: Vec<Box<dyn ReachabilityEngine + '_>> = vec![
        Box::new(IndexEngine::new(&graph, &index)),
        Box::new(BfsEngine::new(&graph)),
        Box::new(BiBfsEngine::new(&graph)),
        Box::new(DfsEngine::new(&graph)),
        Box::new(EtcEngine::new(&graph, &etc)),
    ];
    for (q, expected) in queries.iter() {
        let q = Query::from(q);
        for engine in &engines {
            assert_eq!(
                engine.evaluate(&q),
                Ok(expected),
                "{} wrong on {q:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn simulated_engines_agree_with_index_on_standin() {
    let spec = dataset_by_code("TW").unwrap();
    let graph = spec.generate(1.0 / 512.0, 3);
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let engines = all_engines(&graph);
    let queries = generate_query_set(&graph, &QueryGenConfig::small(15, 15, 2, 9));
    for (q, expected) in queries.iter() {
        let unified = Query::from(q);
        for engine in &engines {
            assert_eq!(
                engine.evaluate(&unified),
                Ok(expected),
                "{} wrong on {unified:?}",
                engine.name()
            );
        }
        assert_eq!(index.query(q), expected);
    }
}

#[test]
fn hybrid_evaluation_agrees_with_automaton_baseline() {
    let spec = dataset_by_code("EP").unwrap();
    let graph = spec.generate(1.0 / 256.0, 17);
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let engine = IndexEngine::new(&graph, &index);
    let oracle = BfsEngine::new(&graph);
    let labels: Vec<Label> = (0..graph.label_count().min(3))
        .map(Label::from_index)
        .collect();
    let mut checked = 0usize;
    for s in (0..graph.vertex_count() as u32).step_by(37) {
        for t in (0..graph.vertex_count() as u32).step_by(41) {
            for blocks in [
                vec![vec![labels[0]]],
                vec![vec![labels[0]], vec![labels[1]]],
                vec![vec![labels[0], labels[1]], vec![labels[2]]],
            ] {
                let q = Query::concat(s, t, blocks).unwrap();
                assert_eq!(
                    engine.evaluate(&q),
                    oracle.evaluate(&q),
                    "hybrid disagrees on ({s},{t})"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 50, "the sweep should cover a meaningful sample");
}

#[test]
fn graph_io_round_trip_preserves_index_answers() {
    let graph = rlc::graph::examples::fig1_graph();
    let text = rlc::graph::io::to_edge_list(&graph);
    let reloaded = rlc::graph::io::parse_edge_list(&text).unwrap();
    let index_a = RlcIndex::build(&graph, 2);
    let index_b = RlcIndex::build(&reloaded, 2);
    // Compare answers through the name mapping, which must be preserved.
    for (s, t) in [("A14", "A19"), ("P10", "P16"), ("P10", "P13")] {
        for labels in [vec!["debits", "credits"], vec!["knows"], vec!["holds"]] {
            let qa = RlcQuery::from_names(&graph, s, t, &labels).unwrap();
            let qb = RlcQuery::from_names(&reloaded, s, t, &labels).unwrap();
            assert_eq!(index_a.query(&qa), index_b.query(&qb));
        }
    }
}

#[test]
fn query_workloads_are_balanced_and_verified_on_ba_graphs() {
    let graph = rlc::graph::generate::barabasi_albert(&rlc::graph::generate::SyntheticConfig::new(
        2_000, 4.0, 8, 23,
    ));
    let set = generate_query_set(&graph, &QueryGenConfig::small(60, 60, 2, 2));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let mut true_count = 0;
    for (q, expected) in set.iter() {
        assert_eq!(index.query(q), expected);
        true_count += expected as usize;
    }
    assert_eq!(true_count, 60);
}

#[test]
fn batch_evaluation_agrees_with_single_across_the_facade() {
    let graph = rlc::graph::generate::erdos_renyi(&rlc::graph::generate::SyntheticConfig::new(
        500, 3.0, 4, 31,
    ));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let set = generate_query_set(&graph, &QueryGenConfig::small(50, 50, 2, 13));
    let queries: Vec<Query> = set.iter().map(|(q, _)| Query::from(q)).collect();
    let engine = IndexEngine::new(&graph, &index);
    let batch = engine.evaluate_batch(&queries);
    let singles: Vec<Result<bool, QueryError>> =
        queries.iter().map(|q| engine.evaluate(q)).collect();
    assert_eq!(batch, singles);
    // The planned path agrees and groups the workload's few constraints.
    let plan = BatchPlan::new(&queries);
    assert!(plan.group_count() < queries.len());
    assert_eq!(plan.execute(&engine), singles);
}

#[test]
fn facade_prelude_exposes_the_whole_pipeline() {
    // Compile-time check that the facade's prelude covers the common flow.
    let mut builder = GraphBuilder::new();
    builder.add_edge_named("a", "x", "b");
    builder.add_edge_named("b", "y", "a");
    let graph: LabeledGraph = builder.build();
    let index: RlcIndex = RlcIndex::build(&graph, 2);
    let x = graph.labels().resolve("x").unwrap();
    let y = graph.labels().resolve("y").unwrap();
    let a: VertexId = graph.vertex_id("a").unwrap();
    let q = RlcQuery::new(a, a, vec![x, y]).unwrap();
    assert!(index.query(&q));
    let unified = Query::from(&q);
    let bfs = BfsEngine::new(&graph);
    let bibfs = BiBfsEngine::new(&graph);
    assert_eq!(bfs.evaluate(&unified), Ok(true));
    assert_eq!(bibfs.evaluate(&unified), Ok(true));
}
