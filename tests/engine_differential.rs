//! Cross-engine differential test: every `ReachabilityEngine` implementation
//! in the workspace — the index engine over the RLC index and over the
//! extended transitive closure, the three online traversals, the three
//! simulated mainstream engines, and the sharded engine — must return
//! identical answers over seeded Erdős–Rényi graphs, on plain RLC
//! constraints, on concatenated constraints, and through every evaluation
//! mode the redesigned API offers: one-shot `evaluate`, the prepare/execute
//! split, the naive parallel batch path, and the constraint-grouping
//! `BatchPlan`.
//! Invalid queries must produce identical *errors* across the modes of each
//! engine (error parity), and the planner must prepare each distinct
//! constraint exactly once while returning answers in submission order.
//!
//! One test here flips process-global state: the tracing differential turns
//! the global `rlc_obs` registry on. It holds [`PROCESS_GLOBALS`] for its
//! whole run and restores the flag before releasing it, so a test that
//! flips process state must take the same lock: Cargo runs a binary's tests
//! on parallel threads. It is the workspace's only integration test that
//! writes process state; the serve crate's counting-allocator proof is a
//! single-test binary of its own.

use rlc::engines::all_engines;
use rlc::graph::generate::{erdos_renyi, SyntheticConfig};
use rlc::index::repeats::enumerate_minimum_repeats;
use rlc::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Held by every test that flips process-global state (see the module docs).
static PROCESS_GLOBALS: Mutex<()> = Mutex::new(());

fn lock_process_globals() -> MutexGuard<'static, ()> {
    // A holder that panicked has already failed its own test, and a flag it
    // left flipped changes no answer (which is what the holder asserts), so
    // later holders proceed.
    PROCESS_GLOBALS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Collects all nine evaluators over one graph.
fn full_roster<'g>(
    graph: &'g LabeledGraph,
    index: &'g RlcIndex,
    etc: &'g EtcIndex,
    sharded: &'g ShardedIndex,
) -> Vec<Box<dyn ReachabilityEngine + 'g>> {
    let mut engines: Vec<Box<dyn ReachabilityEngine + 'g>> = vec![
        Box::new(IndexEngine::new(graph, index)),
        Box::new(BfsEngine::new(graph)),
        Box::new(BiBfsEngine::new(graph)),
        Box::new(DfsEngine::new(graph)),
        Box::new(EtcEngine::new(graph, etc)),
        Box::new(ShardedEngine::new(graph, sharded)),
    ];
    engines.extend(all_engines(graph));
    engines
}

/// Builds the sharded index for the roster: two hash-partitioned shards, so
/// cross-shard pairs genuinely exercise the boundary-hub stitcher.
fn build_sharded(graph: &LabeledGraph) -> ShardedIndex {
    let config = ShardBuildConfig::new(2, 2).with_strategy(PartitionStrategy::Hash { seed: 5 });
    let (sharded, _) = ShardedIndex::build(graph, &config).expect("shard count is valid");
    sharded
}

/// A shared query set covering every vertex-pair sample and every minimum
/// repeat of length at most `k`.
fn shared_queries(graph: &LabeledGraph, k: usize, stride: usize) -> Vec<Query> {
    let constraints = enumerate_minimum_repeats(graph.label_count(), k);
    let n = graph.vertex_count() as u32;
    let mut queries = Vec::new();
    for s in (0..n).step_by(stride) {
        for t in (0..n).step_by(stride + 2) {
            for constraint in &constraints {
                queries.push(Query::rlc(s, t, constraint.clone()).unwrap());
            }
        }
    }
    queries
}

/// A mixed batch: interleaved single-block and multi-block constraints with
/// heavy reuse, repeated sources, plus one constraint that is valid for the
/// traversal engines but exceeds the index-backed engines' k = 2.
fn mixed_batch(graph: &LabeledGraph) -> Vec<Query> {
    let n = graph.vertex_count() as u32;
    let l0 = Label(0);
    let l1 = Label(1);
    let l2 = Label(2);
    let mut queries = Vec::new();
    for i in 0..n / 2 {
        let s = i % n;
        let t = (i * 7 + 3) % n;
        match i % 5 {
            0 => queries.push(Query::rlc(s, t, vec![l0]).unwrap()),
            1 => queries.push(Query::rlc(s, t, vec![l0, l1]).unwrap()),
            2 => queries.push(Query::concat(s, t, vec![vec![l0], vec![l1]]).unwrap()),
            3 => queries.push(Query::concat(s, t, vec![vec![l2], vec![l0, l1]]).unwrap()),
            // Valid MR of length 3: errors on k = 2 RLC/ETC/sharded
            // engines, succeeds on the traversals — error parity across
            // evaluation modes is what matters.
            _ => queries.push(Query::rlc(s, t, vec![l0, l1, l2]).unwrap()),
        }
    }
    // Repeated sources stress the grouped multi-target search.
    for t in 0..n / 4 {
        queries.push(Query::rlc(1 % n, (t * 3 + 1) % n, vec![l0, l1]).unwrap());
    }
    // Out-of-range vertex ids: queries are constructed without a graph, so
    // these are well-formed and must error (never panic) at evaluation,
    // identically in every mode.
    queries.push(Query::rlc(n + 7, 0, vec![l0]).unwrap());
    queries.push(Query::concat(0, n + 9, vec![vec![l0], vec![l1]]).unwrap());
    queries
}

#[test]
fn all_nine_engines_agree_on_rlc_queries() {
    for seed in [3u64, 17, 42] {
        let graph = erdos_renyi(&SyntheticConfig::new(90, 3.0, 3, seed));
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
        let sharded = build_sharded(&graph);
        let engines = full_roster(&graph, &index, &etc, &sharded);
        assert_eq!(engines.len(), 9, "the differential roster must be complete");

        let queries = shared_queries(&graph, 2, 7);
        assert!(queries.len() > 100, "sample must be meaningful");
        for query in &queries {
            let reference = engines[0].evaluate(query);
            assert!(reference.is_ok(), "valid query must evaluate");
            for engine in &engines[1..] {
                assert_eq!(
                    engine.evaluate(query),
                    reference,
                    "seed {seed}: {} disagrees with {} on {query:?}",
                    engine.name(),
                    engines[0].name()
                );
            }
        }
    }
}

#[test]
fn all_nine_engines_agree_on_concatenated_queries() {
    let graph = erdos_renyi(&SyntheticConfig::new(70, 3.0, 3, 99));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let sharded = build_sharded(&graph);
    let engines = full_roster(&graph, &index, &etc, &sharded);

    let l0 = Label(0);
    let l1 = Label(1);
    let l2 = Label(2);
    let n = graph.vertex_count() as u32;
    for s in (0..n).step_by(9) {
        for t in (0..n).step_by(11) {
            for blocks in [
                vec![vec![l0]],
                vec![vec![l0, l1]],
                vec![vec![l0], vec![l1]],
                vec![vec![l2], vec![l0, l1]],
            ] {
                let query = Query::concat(s, t, blocks).unwrap();
                let reference = engines[0].evaluate(&query);
                for engine in &engines[1..] {
                    assert_eq!(
                        engine.evaluate(&query),
                        reference,
                        "{} disagrees with {} on {query:?}",
                        engine.name(),
                        engines[0].name()
                    );
                }
            }
        }
    }
}

#[test]
fn batch_answers_equal_single_answers_for_every_engine() {
    let graph = erdos_renyi(&SyntheticConfig::new(80, 3.0, 3, 7));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let sharded = build_sharded(&graph);
    let engines = full_roster(&graph, &index, &etc, &sharded);

    let queries = shared_queries(&graph, 2, 5);
    for engine in &engines {
        let batch = engine.evaluate_batch(&queries);
        let singles: Vec<Result<bool, QueryError>> =
            queries.iter().map(|q| engine.evaluate(q)).collect();
        assert_eq!(batch, singles, "{}: batch != single", engine.name());
    }
}

#[test]
fn prepared_and_planned_evaluation_match_one_shot_for_every_engine() {
    // The central differential of the prepare/execute redesign: for every
    // engine, a mixed batch (shared constraints, repeated sources, and a
    // constraint invalid for the k-bounded engines) must produce identical
    // results — including identical errors — through all four evaluation
    // modes, on two graphs.
    for seed in [23u64, 77] {
        prepared_and_planned_match_one_shot(seed);
    }
}

fn prepared_and_planned_match_one_shot(seed: u64) {
    let graph = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, seed));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let sharded = build_sharded(&graph);
    let engines = full_roster(&graph, &index, &etc, &sharded);

    let queries = mixed_batch(&graph);
    let plan = BatchPlan::new(&queries);
    assert!(plan.group_count() >= 5, "the batch must be truly mixed");

    for engine in &engines {
        let one_shot: Vec<Result<bool, QueryError>> =
            queries.iter().map(|q| engine.evaluate(q)).collect();
        let prepared: Vec<Result<bool, QueryError>> = queries
            .iter()
            .map(|q| {
                engine
                    .prepare(q.constraint())
                    .and_then(|p| engine.evaluate_prepared(q.source, q.target, &p))
            })
            .collect();
        let naive_batch = engine.evaluate_batch(&queries);
        let planned = plan.execute(engine.as_ref());

        assert_eq!(
            prepared,
            one_shot,
            "seed {seed}, {}: prepare/execute != one-shot",
            engine.name()
        );
        assert_eq!(
            naive_batch,
            one_shot,
            "seed {seed}, {}: naive batch != one-shot",
            engine.name()
        );
        assert_eq!(
            planned,
            one_shot,
            "seed {seed}, {}: planned batch != one-shot (submission order violated?)",
            engine.name()
        );
    }

    // Error parity is real, not vacuous: the k-bounded engines must have
    // errored on the over-long constraint while the traversals answered it.
    let index_engine = IndexEngine::new(&graph, &index);
    let bfs = BfsEngine::new(&graph);
    let too_long = queries
        .iter()
        .find(|q| q.constraint().max_block_len() > 2)
        .expect("the mixed batch contains an over-long constraint");
    assert_eq!(
        index_engine.evaluate(too_long),
        Err(QueryError::BlockTooLong {
            block: 0,
            len: 3,
            k: 2
        })
    );
    assert!(bfs.evaluate(too_long).is_ok());

    // Out-of-range vertex ids error identically on every engine (the graph
    // is shared, so the reported vertex count matches too).
    let n = graph.vertex_count() as u32;
    let out_of_range = queries
        .iter()
        .find(|q| q.source >= n || q.target >= n)
        .expect("the mixed batch contains an out-of-range query");
    let expected = Err(QueryError::VertexOutOfRange {
        vertex: out_of_range.source.max(out_of_range.target),
        vertices: graph.vertex_count(),
    });
    for engine in &engines {
        assert_eq!(
            engine.evaluate(out_of_range),
            expected,
            "{} must reject out-of-range ids with the shared error",
            engine.name()
        );
    }
}

#[test]
fn cached_and_uncached_planned_batches_are_identical_for_every_engine() {
    // The cross-batch face of the differential: for every engine, three
    // repeated executions of a mixed batch through one shared PlanCache
    // must return exactly the uncached answers — including identical errors
    // (the cache retains rejections too) — while preparing each distinct
    // constraint once per process instead of once per batch.
    let graph = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 31));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let sharded = build_sharded(&graph);
    let engines = full_roster(&graph, &index, &etc, &sharded);

    let queries = mixed_batch(&graph);
    let plan = BatchPlan::new(&queries);
    let cache = PlanCache::new();
    for engine in &engines {
        let uncached = plan.execute(engine.as_ref());
        let counting = PrepareCounting::new(engine.as_ref());
        for round in 0..3 {
            assert_eq!(
                plan.execute_cached(&counting, &cache),
                uncached,
                "{}: cached round {round} != uncached",
                engine.name()
            );
        }
        assert_eq!(
            counting.prepare_count(),
            plan.group_count(),
            "{}: the cache must collapse three batches to one prepare per constraint",
            engine.name()
        );
    }
    // Every engine kind keeps its own entries in the one shared cache.
    assert_eq!(
        cache.stats().entries,
        engines.len() * plan.group_count(),
        "per-kind keying must not let engines clobber each other"
    );
}

#[test]
fn a_rebuilt_index_invalidates_cached_plans_instead_of_misreading_them() {
    // ABA at the cache layer: plans cached against one index must be
    // dropped — not silently re-served — once an engine over a rebuilt
    // index (same kind, same k) consults the cache. A k = 3 rebuild makes
    // any misread observable: the old index rejected 3-label constraints,
    // the new one answers them.
    let graph = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 41));
    let queries = mixed_batch(&graph);
    let plan = BatchPlan::new(&queries);
    let cache = PlanCache::new();

    let (index_a, _) = build_index(&graph, &BuildConfig::new(2));
    let answers_a = {
        let engine_a = IndexEngine::new(&graph, &index_a);
        plan.execute_cached(&engine_a, &cache)
    };
    drop(index_a);

    let (index_b, _) = build_index(&graph, &BuildConfig::new(3));
    let engine_b = IndexEngine::new(&graph, &index_b);
    let cached_b = plan.execute_cached(&engine_b, &cache);
    assert_eq!(
        cached_b,
        plan.execute(&engine_b),
        "B's cached answers must be B's own answers, not A's"
    );
    assert_ne!(
        cached_b, answers_a,
        "k = 3 answers the constraint k = 2 rejected, so the batches differ"
    );
    assert_eq!(
        cache.stats().stale_drops,
        plan.group_count() as u64,
        "every one of A's entries was dropped on B's lookups"
    );
}

#[test]
fn batch_plan_prepares_each_constraint_once_for_every_engine() {
    let graph = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 11));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let sharded = build_sharded(&graph);
    let engines = full_roster(&graph, &index, &etc, &sharded);

    let queries = mixed_batch(&graph);
    let plan = BatchPlan::new(&queries);
    for engine in &engines {
        let counting = PrepareCounting::new(engine.as_ref());
        let _ = plan.execute(&counting);
        assert_eq!(
            counting.prepare_count(),
            plan.group_count(),
            "{}: BatchPlan must prepare each distinct constraint exactly once",
            engine.name()
        );
        // The naive path, by contrast, prepares once per query.
        counting.reset();
        let _ = counting.evaluate_batch(&queries);
        assert_eq!(counting.prepare_count(), queries.len());
    }
}

#[test]
fn sharded_engines_match_unsharded_answers_and_errors() {
    // The PR 5 differential: for shard counts 1, 2 and 8 (and two
    // partition strategies), a ShardedEngine over per-shard indexes with
    // boundary-hub stitching must be indistinguishable from the unsharded
    // reference on a mixed batch — identical answers AND identical errors
    // (over-long blocks, out-of-range ids), through one-shot, prepared,
    // grouped-planned, and cached evaluation.
    use rlc::graph::PartitionStrategy;
    use rlc::shard::{ShardBuildConfig, ShardedEngine, ShardedIndex};

    let graph = erdos_renyi(&SyntheticConfig::new(70, 3.0, 3, 57));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let reference = IndexEngine::new(&graph, &index);
    let queries = mixed_batch(&graph);
    let plan = BatchPlan::new(&queries);
    let expected: Vec<Result<bool, QueryError>> =
        queries.iter().map(|q| reference.evaluate(q)).collect();

    for strategy in [
        PartitionStrategy::Contiguous,
        PartitionStrategy::Hash { seed: 8 },
    ] {
        for shards in [1usize, 2, 8] {
            let config = ShardBuildConfig::new(2, shards).with_strategy(strategy);
            let (sharded, _) = ShardedIndex::build(&graph, &config).unwrap();
            if shards > 1 && matches!(strategy, PartitionStrategy::Hash { .. }) {
                assert!(
                    !sharded.cut_edges().is_empty(),
                    "the hash split must produce genuinely cross-shard pairs"
                );
            }
            let engine = ShardedEngine::new(&graph, &sharded);
            let one_shot: Vec<Result<bool, QueryError>> =
                queries.iter().map(|q| engine.evaluate(q)).collect();
            assert_eq!(
                one_shot, expected,
                "{strategy:?} x{shards}: sharded one-shot != unsharded"
            );
            let prepared: Vec<Result<bool, QueryError>> = queries
                .iter()
                .map(|q| {
                    engine
                        .prepare(q.constraint())
                        .and_then(|p| engine.evaluate_prepared(q.source, q.target, &p))
                })
                .collect();
            assert_eq!(
                prepared, expected,
                "{strategy:?} x{shards}: sharded prepare/execute != unsharded"
            );
            assert_eq!(
                plan.execute(&engine),
                expected,
                "{strategy:?} x{shards}: sharded planned batch != unsharded"
            );
            let cache = PlanCache::new();
            let counting = PrepareCounting::new(&engine);
            for round in 0..2 {
                assert_eq!(
                    plan.execute_cached(&counting, &cache),
                    expected,
                    "{strategy:?} x{shards}: sharded cached round {round} != unsharded"
                );
            }
            assert_eq!(
                counting.prepare_count(),
                plan.group_count(),
                "{strategy:?} x{shards}: the cache must hold sharded plans too"
            );
        }
    }
}

#[test]
fn engine_differential_holds_with_tracing_enabled() {
    // The PR 10 differential: observation must never change answers. With
    // the global metrics registry *enabled* — every span site live, stitch
    // counters flushing, phase histograms recording — the explained
    // evaluation paths (`BatchPlan::execute_explained`, per-query
    // `explain_prepared`) must return exactly the plain results for every
    // engine: same answers AND same errors. And the traces must be real, not
    // decorative: the batch trace carries one child per query with its
    // constraint group, and the sharded engine's per-query trace names its
    // route.
    let _globals = lock_process_globals();
    let graph = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 63));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let sharded = build_sharded(&graph);
    let engines = full_roster(&graph, &index, &etc, &sharded);
    assert_eq!(engines.len(), 9, "the differential roster must be complete");

    let queries = mixed_batch(&graph);
    let plan = BatchPlan::new(&queries);

    let was_enabled = rlc::obs::global_enabled();
    rlc::obs::set_global_enabled(true);
    for engine in &engines {
        let expected = plan.execute(engine.as_ref());

        // Explained: identical result vector, one trace child per query,
        // every child stamped with its constraint group.
        let (explained, trace) = plan.execute_explained(engine.as_ref());
        assert_eq!(
            explained,
            expected,
            "{}: explained batch != plain batch",
            engine.name()
        );
        assert_eq!(trace.name(), "batch");
        assert_eq!(
            trace.children().len(),
            queries.len(),
            "{}: one trace child per query",
            engine.name()
        );
        assert!(
            trace
                .children()
                .iter()
                .all(|child| child.find_attr("group").is_some()),
            "{}: every per-query trace names its constraint group",
            engine.name()
        );

        // Per-query explained evaluation matches one-shot, errors included.
        for query in &queries {
            let one_shot = engine.evaluate(query);
            let explained = engine
                .prepare(query.constraint())
                .map(|p| engine.explain_prepared(query.source, query.target, &p).0)
                .unwrap_or_else(Err);
            assert_eq!(
                explained,
                one_shot,
                "{}: explain_prepared != evaluate on {query:?}",
                engine.name()
            );
        }
    }

    // The sharded engine's trace names its route, and a two-shard hash
    // split genuinely exercises both routes.
    let shard_engine = ShardedEngine::new(&graph, &sharded);
    let mut routes_seen = std::collections::BTreeSet::new();
    for query in &queries {
        if let Ok(prepared) = shard_engine.prepare(query.constraint()) {
            let (_, trace) = shard_engine.explain_prepared(query.source, query.target, &prepared);
            if let Some(route) = trace.find_attr_deep("route") {
                routes_seen.insert(route.to_owned());
            }
        }
    }
    assert!(
        routes_seen.contains("local") && routes_seen.contains("stitched"),
        "the mixed batch must exercise both shard routes, saw {routes_seen:?}"
    );
    rlc::obs::set_global_enabled(was_enabled);
}

#[test]
fn batch_answers_match_the_verified_workload() {
    // Batch evaluation against ground truth (not just self-consistency).
    let graph = erdos_renyi(&SyntheticConfig::new(200, 3.0, 4, 21));
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let etc = EtcIndex::build(&graph, &EtcBuildConfig::new(2));
    let sharded = build_sharded(&graph);
    let workload = generate_query_set(&graph, &QueryGenConfig::small(30, 30, 2, 4));
    let queries: Vec<Query> = workload.iter().map(|(q, _)| Query::from(q)).collect();
    let expected: Vec<Result<bool, QueryError>> = workload.iter().map(|(_, e)| Ok(e)).collect();
    let plan = BatchPlan::new(&queries);
    for engine in full_roster(&graph, &index, &etc, &sharded) {
        assert_eq!(
            engine.evaluate_batch(&queries),
            expected,
            "{} failed the verified workload (naive batch)",
            engine.name()
        );
        assert_eq!(
            plan.execute(engine.as_ref()),
            expected,
            "{} failed the verified workload (planned batch)",
            engine.name()
        );
    }
}
