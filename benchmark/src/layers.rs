//! Per-layer metrics, timed from outside.
//!
//! A layer is a module of the workspace. Its metrics come from timing calls
//! into its public functions over the workload's own inputs (its graph, its
//! reference index, its operation list), or from its public counters
//! (`BuildStats`, `CacheStats`, `IndexStats`, `ShardedStats`, `GET /metrics`,
//! the global `rlc_obs` registry). Every traced run measures every layer, so
//! the same name means the same measurement on every workload and only the
//! inputs differ. Nothing inside the crates is instrumented.

use crate::fixture::{Fixture, BATCH, K, SHARDS};
use crate::harness::{Answer, Paths};
use crate::host::Host;
use crate::http::{self, Sample, ServerMetrics};
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use rlc_baselines::BiBfsEngine;
use rlc_core::{
    build_index, compute_order, prefix_frontier, repetition_closure, BatchPlan, BuildConfig,
    FrontierSet, IndexEngine, MrId, OrderingStrategy, PlanCache, Prepared, Query,
    ReachabilityEngine, RlcIndex,
};
use rlc_graph::{LabeledGraph, Partition, PartitionStrategy};
use rlc_serve::{Epoch, ServeConfig, Server};
use rlc_shard::{ShardBuildConfig, ShardedEngine, ShardedIndex};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// What the probes run over.
pub struct Probe<'a> {
    /// The workload's inputs.
    pub fixture: &'a Fixture,
    /// The host, for the pinned thread count.
    pub host: &'a Host,
    /// Smoke-test tier: shorter probes.
    pub quick: bool,
    /// The engine the workload's operations go through.
    pub engine: &'a dyn ReachabilityEngine,
    /// The workload's single-caller and parallel paths.
    pub paths: &'a Paths<'a>,
    /// The `shard` workload's own sharded index and its build seconds; other
    /// workloads leave this empty and the shard probe builds one.
    pub sharded: Option<(&'a ShardedIndex, f64)>,
    /// Name of the spans that wrap one whole operation in the traced pass.
    pub op_span: &'static str,
    /// How many times the traced pass ran over the operations the
    /// re-enactment ran over once.
    pub op_passes: usize,
}

/// What the probes measured and checked.
#[derive(Default)]
pub struct Probed {
    /// The per-layer metrics (all but `bench.*`).
    pub values: Values,
    /// Answers checked along the way.
    pub attempted: u64,
    /// Answers that were wrong.
    pub failed: u64,
}

impl Probed {
    /// Counts one checked answer; a wrong one is named on standard error.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED check: {what}");
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Items per second: repeats `pass` (which handles `items` items) until
/// `budget_s` has gone by, at least once.
fn rate(items: usize, budget_s: f64, mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut passes = 0u64;
    loop {
        pass();
        passes += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= budget_s {
            return items.max(1) as f64 * passes as f64 / elapsed;
        }
    }
}

fn median_seconds(times: usize, mut f: impl FnMut()) -> f64 {
    let seconds: Vec<f64> = (0..times).map(|_| timed(&mut f).1).collect();
    stats::median(&seconds)
}

/// Re-enacts one query layer by layer on the unsharded index, each layer's
/// public function inside its own span: catalog resolution, the hybrid
/// prefix closures, then the index merge-joins over the frontier. This is
/// what `IndexEngine`/`HybridEngine` do inside one `evaluate`, taken apart
/// from outside so that the trace can say whose time it is.
pub fn reenact(
    graph: &LabeledGraph,
    index: &RlcIndex,
    query: &Query,
    op: u32,
    tracer: &mut Tracer,
) -> bool {
    tracer.span("reenact", op, |tracer| {
        let blocks = query.constraint().blocks();
        let resolved = tracer.span("index.catalog_resolve", op, |_| {
            index.catalog().resolve(query.constraint().last_block())
        });
        let Some(mr) = resolved else {
            return false;
        };
        let frontier = if blocks.len() == 1 {
            vec![query.source]
        } else {
            tracer.span("hybrid.prefix_frontier", op, |tracer| {
                let mut frontier = vec![query.source];
                for block in &blocks[..blocks.len() - 1] {
                    frontier = tracer.span("hybrid.repetition_closure", op, |_| {
                        repetition_closure(graph, &frontier, block)
                    });
                    if frontier.is_empty() {
                        break;
                    }
                }
                frontier
            })
        };
        tracer.span("index.query_mr", op, |_| {
            frontier
                .iter()
                .any(|&v| index.query_mr(v, query.target, mr))
        })
    })
}

/// Runs every layer's probe over `probe`'s inputs. Sets every per-layer
/// metric except `bench.*`, which belong to the workload's own traced pass.
pub fn probe(probe: &Probe<'_>, tracer: &mut Tracer) -> Probed {
    let mut out = Probed::default();
    let budget = if probe.quick { 0.01 } else { 0.1 };
    let rlc = probe
        .fixture
        .probe_rlc(if probe.quick { 200 } else { 2_000 });
    let concat = probe
        .fixture
        .probe_concat(if probe.quick { 40 } else { 200 });
    tracer.span("probe.graph", crate::trace::NONE, |_| {
        graph_layer(probe, &mut out)
    });
    tracer.span("probe.kernel", crate::trace::NONE, |_| {
        kernel_layer(budget, &mut out)
    });
    tracer.span("probe.build", crate::trace::NONE, |_| {
        build_layer(probe, &mut out)
    });
    tracer.span("probe.index", crate::trace::NONE, |_| {
        index_layer(probe, &rlc.queries, &rlc.truth, budget, &mut out)
    });
    tracer.span("probe.engine", crate::trace::NONE, |_| {
        engine_layer(probe, &rlc.queries, budget, &mut out)
    });
    tracer.span("probe.hybrid", crate::trace::NONE, |_| {
        hybrid_layer(probe, &concat.queries, &concat.truth, budget, &mut out)
    });
    tracer.span("probe.plan", crate::trace::NONE, |_| {
        plan_layer(probe, budget, &mut out)
    });
    tracer.span("probe.cache", crate::trace::NONE, |_| {
        cache_layer(probe, budget, &mut out)
    });
    tracer.span("probe.baselines", crate::trace::NONE, |_| {
        baselines_layer(probe, &rlc.queries, &rlc.truth, &mut out)
    });
    tracer.span("probe.obs", crate::trace::NONE, |_| {
        obs_layer(probe, budget, &mut out)
    });
    tracer.span("probe.shard", crate::trace::NONE, |_| {
        shard_layer(probe, budget, &mut out)
    });
    tracer.span("probe.serve", crate::trace::NONE, |_| {
        serve_layer(probe, &mut out)
    });
    time_shares(probe, tracer, &mut out.values);
    out
}

/// `index.time_share` and `hybrid.time_share`: the part of one operation's
/// time that the layer's public functions account for when the operation is
/// re-enacted, from the spans of the traced pass and the re-enactment.
fn time_shares(probe: &Probe<'_>, tracer: &Tracer, values: &mut Values) {
    let op_ns = tracer.total_ns(probe.op_span) as f64 / probe.op_passes.max(1) as f64;
    let share = |name: &str| {
        if op_ns > 0.0 {
            tracer.total_ns(name) as f64 / op_ns
        } else {
            0.0
        }
    };
    values.set("index.time_share", share("index.query_mr"));
    values.set("hybrid.time_share", share("hybrid.prefix_frontier"));
}

fn graph_layer(probe: &Probe<'_>, out: &mut Probed) {
    let graph = &probe.fixture.graph;
    out.values.set("graph.generate_s", probe.fixture.generate_s);
    let (partition, seconds) = timed(|| {
        Partition::new(graph, PartitionStrategy::Contiguous, SHARDS).expect("four shards")
    });
    out.values.set("graph.partition_s", seconds);
    let cut = partition.cut_edges(graph).len();
    out.values.set(
        "graph.cut_edge_ratio",
        cut as f64 / graph.edge_count().max(1) as f64,
    );
}

/// Words per `FrontierSet` in the kernel probes: 128 KiB of bits, larger
/// than L1 and within L2.
const KERNEL_WORDS: usize = 16_384;

fn kernel_layer(budget: f64, out: &mut Probed) {
    let slots = KERNEL_WORDS * 64;
    let filled = |offset: usize, step: usize| {
        let mut set = FrontierSet::new();
        set.begin(slots);
        for slot in (offset..slots).step_by(step) {
            set.test_and_set(slot);
        }
        set
    };
    // Disjoint operands, so that `intersects` cannot exit early.
    let (even, odd, sparse) = (filled(0, 2), filled(1, 2), filled(0, 8));
    let mut target = FrontierSet::new();
    out.values.set(
        "kernel.union_words_per_s",
        rate(KERNEL_WORDS, budget, || {
            target.begin(slots);
            black_box(target.union_from(black_box(&even)));
        }),
    );
    out.values.set(
        "kernel.intersect_words_per_s",
        rate(KERNEL_WORDS, budget, || {
            assert!(!black_box(&even).intersects(black_box(&odd)));
        }),
    );
    out.values.set(
        "kernel.for_each_set_per_s",
        rate(slots / 8, budget, || {
            let mut sum = 0usize;
            black_box(&sparse).for_each_set(|slot| sum += slot);
            black_box(sum);
        }),
    );
    // A fixed pseudo-random slot sequence: visited-set traffic of a search.
    let mut rng = crate::rng::Rng::new(0x5E7, 0);
    let sequence: Vec<usize> = (0..1 << 18).map(|_| rng.below(slots)).collect();
    out.values.set(
        "kernel.test_and_set_per_s",
        rate(sequence.len(), budget, || {
            target.begin(slots);
            let mut fresh = 0usize;
            for &slot in &sequence {
                fresh += usize::from(!target.test_and_set(slot));
            }
            black_box(fresh);
        }),
    );
}

fn build_layer(probe: &Probe<'_>, out: &mut Probed) {
    let fixture = probe.fixture;
    let stats = &fixture.build_stats;
    let v = &mut out.values;
    v.set("build.seq_s", fixture.build_s);
    v.set(
        "build.order_s",
        timed(|| black_box(compute_order(&fixture.graph, OrderingStrategy::InOutDegree))).1,
    );
    v.set(
        "build.entries_per_s",
        stats.inserted as f64 / fixture.build_s,
    );
    let ((parallel, _), par_s) = timed(|| {
        build_index(
            &fixture.graph,
            &BuildConfig::new(K).with_threads(probe.host.pinned),
        )
    });
    v.set("build.par_s", par_s);
    v.set("build.par_speedup", fixture.build_s / par_s);
    v.set("build.kernel_searches", stats.kernel_searches as f64);
    v.set("build.kernel_bfs_runs", stats.kernel_bfs_runs as f64);
    v.set("build.insert_attempts", stats.insert_attempts as f64);
    v.set("build.inserted", stats.inserted as f64);
    v.set("build.duplicates", stats.duplicates as f64);
    v.set("build.pruned_pr1", stats.pruned_pr1 as f64);
    v.set("build.pruned_pr2", stats.pruned_pr2 as f64);
    v.set("build.pr3_cutoffs", stats.pr3_cutoffs as f64);
    v.set(
        "build.useful_insert_ratio",
        stats.inserted as f64 / stats.insert_attempts.max(1) as f64,
    );
    // The parallel build must produce the sequential build's bytes.
    out.check(
        "parallel build bytes equal sequential",
        parallel.to_bytes() == fixture.index.to_bytes(),
    );
}

fn index_layer(
    probe: &Probe<'_>,
    queries: &[Query],
    truth: &[Option<bool>],
    budget: f64,
    out: &mut Probed,
) {
    let index = &probe.fixture.index;
    let mut reachable: Vec<(u32, u32, MrId)> = Vec::new();
    let mut unreachable: Vec<(u32, u32, MrId)> = Vec::new();
    let mut probed_entries = 0usize;
    for (query, truth) in queries.iter().zip(truth) {
        probed_entries += index.lout(query.source).len() + index.lin(query.target).len();
        let resolved = index.catalog().resolve(query.constraint().last_block());
        let answer = resolved.is_some_and(|mr| index.query_mr(query.source, query.target, mr));
        out.check("index.query_mr equals the oracle", Some(answer) == *truth);
        if let Some(mr) = resolved {
            let list = if answer {
                &mut reachable
            } else {
                &mut unreachable
            };
            list.push((query.source, query.target, mr));
        }
    }
    let join_rate = |list: &[(u32, u32, MrId)]| {
        rate(list.len(), budget, || {
            for &(s, t, mr) in list {
                black_box(index.query_mr(s, t, mr));
            }
        })
    };
    let v = &mut out.values;
    v.set("index.query_mr_true_per_s", join_rate(&reachable));
    v.set("index.query_mr_false_per_s", join_rate(&unreachable));
    v.set(
        "index.probe_entries_per_query",
        probed_entries as f64 / queries.len().max(1) as f64,
    );
    let stats = index.stats();
    v.set("index.entries", stats.total_entries() as f64);
    v.set(
        "index.entries_per_vertex",
        stats.total_entries() as f64 / stats.vertices.max(1) as f64,
    );
    v.set("index.memory_bytes", stats.memory_bytes as f64);
    v.set("index.csr_bytes", stats.csr_memory_bytes as f64);
    let blob = index.to_bytes();
    v.set("index.blob_bytes", blob.len() as f64);
    v.set(
        "index.to_bytes_s",
        median_seconds(5, || drop(black_box(index.to_bytes()))),
    );
    v.set(
        "index.from_bytes_s",
        median_seconds(5, || {
            drop(black_box(
                RlcIndex::from_bytes(&blob).expect("own blob loads"),
            ))
        }),
    );
    let reloaded = RlcIndex::from_bytes(&blob).expect("own blob loads");
    out.check(
        "from_bytes(to_bytes(index)) re-serialises identically",
        reloaded.to_bytes() == blob,
    );
}

fn engine_layer(probe: &Probe<'_>, queries: &[Query], budget: f64, out: &mut Probed) {
    let engine = IndexEngine::new(&probe.fixture.graph, &probe.fixture.index);
    let prepares_per_s = rate(queries.len(), budget, || {
        for query in queries {
            black_box(engine.prepare(black_box(query.constraint())).ok());
        }
    });
    out.values.set("engine.prepare_us", 1e6 / prepares_per_s);
    let mut by_constraint: HashMap<&rlc_core::Constraint, Arc<Prepared>> = HashMap::new();
    let prepared: Vec<Arc<Prepared>> = queries
        .iter()
        .map(|query| {
            Arc::clone(by_constraint.entry(query.constraint()).or_insert_with(|| {
                Arc::new(
                    engine
                        .prepare(query.constraint())
                        .expect("blocks are within k"),
                )
            }))
        })
        .collect();
    out.values.set(
        "engine.evaluate_prepared_per_s",
        rate(queries.len(), budget, || {
            for (query, prepared) in queries.iter().zip(&prepared) {
                black_box(
                    engine
                        .evaluate_prepared(query.source, query.target, prepared)
                        .ok(),
                );
            }
        }),
    );
}

fn hybrid_layer(
    probe: &Probe<'_>,
    queries: &[Query],
    truth: &[Option<bool>],
    budget: f64,
    out: &mut Probed,
) {
    let graph = &probe.fixture.graph;
    let engine = rlc_core::HybridEngine::new(graph, &probe.fixture.index);
    let mut closure_vertices = 0usize;
    for (query, truth) in queries.iter().zip(truth) {
        let first = &query.constraint().blocks()[0];
        closure_vertices += repetition_closure(graph, &[query.source], first).len();
        out.check(
            "HybridEngine equals the oracle",
            engine.evaluate(query).ok() == *truth,
        );
    }
    let v = &mut out.values;
    v.set(
        "hybrid.closure_vertices_mean",
        closure_vertices as f64 / queries.len().max(1) as f64,
    );
    v.set(
        "hybrid.closure_per_s",
        rate(queries.len(), budget, || {
            for query in queries {
                black_box(repetition_closure(
                    graph,
                    &[query.source],
                    &query.constraint().blocks()[0],
                ));
            }
        }),
    );
    v.set(
        "hybrid.prefix_frontier_per_s",
        rate(queries.len(), budget, || {
            for query in queries {
                black_box(prefix_frontier(
                    graph,
                    query.source,
                    query.constraint().blocks(),
                ));
            }
        }),
    );
}

/// The first `cap` operations of the workload's own list (a fifth of that in
/// the smoke-test tier): what the plan, cache, obs and shard probes run over.
fn own_queries<'a>(probe: &Probe<'a>, cap: usize) -> &'a [Query] {
    let queries = &probe.fixture.queries.queries;
    &queries[..queries.len().min(if probe.quick { cap / 5 } else { cap })]
}

fn plan_layer(probe: &Probe<'_>, budget: f64, out: &mut Probed) {
    let queries = own_queries(probe, BATCH);
    let plans_per_s = rate(queries.len(), budget, || {
        for chunk in queries.chunks(BATCH) {
            black_box(BatchPlan::new(black_box(chunk)).group_count());
        }
    });
    out.values.set("plan.new_ns_per_query", 1e9 / plans_per_s);
    let chunks = queries.chunks(BATCH).count().max(1);
    let groups: usize = queries
        .chunks(BATCH)
        .map(|c| BatchPlan::new(c).group_count())
        .sum();
    out.values
        .set("plan.groups_per_batch", groups as f64 / chunks as f64);
    let single = rate(queries.len(), budget, || {
        for query in queries {
            black_box((probe.paths.single)(query).ok());
        }
    });
    let batched = rate(queries.len(), budget, || {
        for chunk in queries.chunks(BATCH) {
            black_box((probe.paths.batch)(chunk));
        }
    });
    out.values.set("plan.batch_vs_seq", batched / single);
}

fn cache_layer(probe: &Probe<'_>, budget: f64, out: &mut Probed) {
    // Long enough to hold more distinct constraints than the cache does,
    // where the workload has that many.
    let queries = own_queries(probe, 20_000);
    let engine = probe.engine;
    // One cold pass, then the counters of one steady pass: exact, because a
    // single caller makes them and the list is fixed.
    let cache = PlanCache::new();
    let pass = |cache: &PlanCache| {
        for query in queries {
            black_box(cache.prepare(engine, query.constraint()).ok());
        }
    };
    pass(&cache);
    let before = cache.stats();
    pass(&cache);
    let after = cache.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let v = &mut out.values;
    v.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    v.set(
        "cache.coalesced",
        (after.coalesced - before.coalesced) as f64,
    );
    v.set(
        "cache.stale_drops",
        (after.stale_drops - before.stale_drops) as f64,
    );

    // Hit and miss cost, each timed in bulk: the resident constraints of a
    // warm cache, and first touches of fresh caches.
    let mut distinct: Vec<&rlc_core::Constraint> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for query in queries {
        if distinct.len() < 64 && seen.insert(query.constraint()) {
            distinct.push(query.constraint());
        }
    }
    let warm = PlanCache::new();
    distinct.iter().for_each(|c| drop(warm.prepare(engine, c)));
    let hits_per_s = rate(distinct.len(), budget, || {
        for constraint in &distinct {
            black_box(warm.prepare(engine, constraint).ok());
        }
    });
    v.set("cache.hit_ns", 1e9 / hits_per_s);
    let mut miss_seconds = 0.0;
    let mut missed = 0usize;
    while miss_seconds < budget {
        let fresh = PlanCache::new();
        miss_seconds += timed(|| {
            for constraint in &distinct {
                black_box(fresh.prepare(engine, constraint).ok());
            }
        })
        .1;
        missed += distinct.len();
    }
    v.set("cache.miss_us", 1e6 * miss_seconds / missed.max(1) as f64);
}

fn baselines_layer(probe: &Probe<'_>, queries: &[Query], truth: &[Option<bool>], out: &mut Probed) {
    let graph = &probe.fixture.graph;
    let sample = &queries[..queries.len().min(if probe.quick { 50 } else { 400 })];
    let bibfs = BiBfsEngine::new(graph);
    let index = IndexEngine::new(graph, &probe.fixture.index);
    let (answers, bibfs_s) = timed(|| {
        sample
            .iter()
            .map(|q| bibfs.evaluate(q))
            .collect::<Vec<Answer>>()
    });
    for (answer, truth) in answers.iter().zip(truth) {
        out.check(
            "BiBFS equals the oracle",
            answer.as_ref().ok().copied() == *truth,
        );
    }
    let index_rate = rate(sample.len(), 0.02, || {
        for query in sample {
            black_box(index.evaluate(query).ok());
        }
    });
    let bibfs_rate = sample.len() as f64 / bibfs_s;
    out.values.set("baselines.bibfs_queries_per_s", bibfs_rate);
    out.values
        .set("baselines.index_vs_bibfs", index_rate / bibfs_rate);
}

fn obs_layer(probe: &Probe<'_>, budget: f64, out: &mut Probed) {
    let queries = own_queries(probe, BATCH);
    let was_enabled = rlc_obs::global_enabled();
    let measure = |enabled: bool| {
        rlc_obs::set_global_enabled(enabled);
        rate(queries.len(), budget, || {
            for query in queries {
                black_box((probe.paths.single)(query).ok());
            }
        })
    };
    let off = measure(false);
    let on = measure(true);
    rlc_obs::set_global_enabled(was_enabled);
    out.values.set("obs.registry_on_ratio", on / off);
}

fn stitch_counters() -> [u64; 4] {
    let registry = rlc_obs::global();
    [
        registry.counter("rlc_stitch_hops_total").get(),
        registry.counter("rlc_stitch_expander_calls_total").get(),
        registry.counter("rlc_stitch_expansions_total").get(),
        registry.counter("rlc_stitch_cut_crossings_total").get(),
    ]
}

fn shard_layer(probe: &Probe<'_>, budget: f64, out: &mut Probed) {
    let graph = &probe.fixture.graph;
    let built;
    let (sharded, build_s) = match probe.sharded {
        Some(own) => own,
        None => {
            let ((index, _), seconds) = timed(|| {
                ShardedIndex::build(graph, &ShardBuildConfig::new(K, SHARDS)).expect("four shards")
            });
            built = index;
            (&built, seconds)
        }
    };
    let stats = sharded.stats();
    let blob = sharded.to_bytes();
    {
        let v = &mut out.values;
        v.set("shard.build_s", build_s);
        v.set("shard.memory_bytes", sharded.memory_bytes() as f64);
        v.set("shard.blob_bytes", blob.len() as f64);
        v.set(
            "shard.from_bytes_s",
            median_seconds(5, || {
                drop(black_box(
                    ShardedIndex::from_bytes(&blob, graph).expect("own blob loads"),
                ))
            }),
        );
        v.set("shard.cut_edges", sharded.cut_edges().len() as f64);
        let portals: usize = stats
            .shards
            .iter()
            .map(|s| s.entry_portals + s.exit_portals)
            .sum();
        v.set("shard.portals", portals as f64);
    }
    let reloaded = ShardedIndex::from_bytes(&blob, graph).expect("own blob loads");
    out.check(
        "from_bytes(to_bytes(sharded)) re-serialises identically",
        reloaded.to_bytes() == blob,
    );

    // On a graph without locality one stitched query costs a millisecond.
    let queries = own_queries(probe, 600);
    let engine = ShardedEngine::new(graph, sharded);
    let unsharded = IndexEngine::new(graph, &probe.fixture.index);
    let partition = sharded.partition();
    let (cross, intra): (Vec<&Query>, Vec<&Query>) = queries
        .iter()
        .partition(|q| partition.shard_of(q.source) != partition.shard_of(q.target));
    for query in queries {
        out.check(
            "ShardedEngine equals IndexEngine",
            engine.evaluate(query) == unsharded.evaluate(query),
        );
    }
    let evaluate_rate = |list: &[&Query], engine: &dyn ReachabilityEngine| {
        rate(list.len(), budget, || {
            for query in list {
                black_box(engine.evaluate(query).ok());
            }
        })
    };
    let all: Vec<&Query> = queries.iter().collect();
    // Per-query stitch counts: one pass with the global registry enabled.
    let was_enabled = rlc_obs::global_enabled();
    rlc_obs::set_global_enabled(true);
    let before = stitch_counters();
    for query in queries {
        black_box(engine.evaluate(query).ok());
    }
    let after = stitch_counters();
    rlc_obs::set_global_enabled(was_enabled);
    let per_query = |i: usize| (after[i] - before[i]) as f64 / queries.len().max(1) as f64;
    let v = &mut out.values;
    v.set(
        "shard.cross_query_ratio",
        cross.len() as f64 / queries.len().max(1) as f64,
    );
    v.set("shard.intra_queries_per_s", evaluate_rate(&intra, &engine));
    v.set("shard.cross_queries_per_s", evaluate_rate(&cross, &engine));
    v.set("shard.hops_per_query", per_query(0));
    v.set("shard.expander_calls_per_query", per_query(1));
    v.set("shard.expansions_per_query", per_query(2));
    v.set("shard.cut_crossings_per_query", per_query(3));
    v.set(
        "shard.vs_unsharded",
        evaluate_rate(&all, &unsharded) / evaluate_rate(&all, &engine),
    );
}

/// Requests per step of the open-loop ladder, as seconds of offered load.
const LADDER_SECONDS: f64 = 0.5;
/// The ladder's rates, requests per second.
pub const LADDER: [u64; 4] = [250, 500, 1_000, 2_000];
/// A ladder rate is "ok" when its tail latency is at most this, nothing was
/// shed, and the generator itself was at most [`LATE_LIMIT_NS`] late at p99.
const TAIL_LIMIT_NS: u64 = 5_000_000;
/// The tail of the ladder's and the reload stream's latencies is at most p95,
/// as `op_tail_us` of the `serve` workload is.
const LADDER_TAIL: f64 = 0.95;
const LATE_LIMIT_NS: u64 = 1_000_000;

/// A booted server with what is needed to check its answers.
pub struct Served {
    /// The server.
    pub server: Server,
    /// `POST /query` bodies, one per query.
    pub bodies: Vec<Vec<u8>>,
    /// Direct in-process answers, one per query.
    pub direct: Vec<bool>,
    /// Generations an answer may carry: the booted index's, then one more
    /// per reload.
    pub generations: Vec<u64>,
}

impl Served {
    /// Boots `ServeConfig { threads, ..default }` over `index`'s bytes and
    /// evaluates `queries` directly for the expected envelopes.
    pub fn boot(
        graph: &Arc<LabeledGraph>,
        index: &RlcIndex,
        queries: &[Query],
        threads: usize,
    ) -> Served {
        let blob = index.to_bytes();
        let epoch = Epoch::from_blob(graph, &blob).expect("own blob loads");
        let defaults = ServeConfig::default();
        let config = ServeConfig {
            threads,
            // A deployment sizes the body cap to its index: `POST
            // /admin/reload` carries the whole blob. Only the 60 000-vertex
            // index of `query-rlc` is larger than the default 4 MiB.
            max_body_bytes: defaults.max_body_bytes.max(blob.len() + 1024),
            ..defaults
        };
        let server = Server::start(config, epoch).expect("a loopback server boots");
        let engine = IndexEngine::new(graph, index);
        Served {
            generations: vec![server.slot().generation_value()],
            bodies: queries.iter().map(http::encode_query).collect(),
            direct: queries
                .iter()
                .map(|q| engine.evaluate(q).expect("generated queries are within k"))
                .collect(),
            server,
        }
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Whether `sample` is a `200` whose body equals the envelope rebuilt
    /// from direct evaluation under a generation the server has had.
    pub fn is_correct(&self, sample: &Sample) -> bool {
        sample.status == 200
            && self
                .generations
                .iter()
                .any(|&g| sample.body == http::query_envelope(self.direct[sample.index], g))
    }

    /// How many of `samples` are not correct.
    pub fn failures(&self, samples: &[Sample]) -> u64 {
        samples.iter().filter(|s| !self.is_correct(s)).count() as u64
    }
}

fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

fn p50_us(values: Vec<u64>) -> f64 {
    stats::percentile(&sorted(values), 0.5) as f64 / 1e3
}

fn serve_layer(probe: &Probe<'_>, out: &mut Probed) {
    let fixture = probe.fixture;
    let queries = &fixture.queries.queries;
    let queries = &queries[..queries.len().min(4_096)];
    let clients = probe.host.pinned;
    let mut served = Served::boot(&fixture.graph, &fixture.index, queries, clients);
    let addr = served.addr();
    let all: Vec<usize> = (0..queries.len()).collect();
    let take = |count: usize, skip: usize| -> Vec<usize> {
        all.iter().cycle().skip(skip).take(count).copied().collect()
    };
    let scale = if probe.quick { 0.2 } else { 1.0 };
    let tally = |served: &Served, samples: &[Sample], out: &mut Probed| {
        out.attempted += samples.len() as u64;
        out.failed += served.failures(samples);
    };

    // One connection at a time: what one request costs the client.
    let closed =
        http::closed_loop(addr, &served.bodies, &take((200.0 * scale) as usize, 0), 1).samples;
    tally(&served, &closed, out);
    out.values.set(
        "serve.connect_p50_us",
        p50_us(
            closed
                .iter()
                .map(|s| s.connected_ns.saturating_sub(s.sent_ns))
                .collect(),
        ),
    );
    out.values.set(
        "serve.first_byte_p50_us",
        p50_us(
            closed
                .iter()
                .map(|s| s.first_byte_ns.saturating_sub(s.sent_ns))
                .collect(),
        ),
    );

    // The ladder. The 500/s step is also where the server's own phase
    // histograms are read, as the difference between two `GET /metrics`.
    let mut max_rate_ok = 0u64;
    for (step, &rate_per_s) in LADDER.iter().enumerate() {
        let count = (rate_per_s as f64 * LADDER_SECONDS * scale) as usize;
        let before = ServerMetrics::fetch(addr).expect("GET /metrics");
        let samples = http::open_loop(
            addr,
            &served.bodies,
            &take(count, step * 97),
            rate_per_s,
            clients,
        )
        .samples;
        let after = ServerMetrics::fetch(addr).expect("GET /metrics");
        tally(&served, &samples, out);
        let latencies = sorted(samples.iter().map(Sample::latency_ns).collect());
        let lateness = sorted(samples.iter().map(Sample::late_ns).collect());
        let tail = stats::tail(&latencies, LADDER_TAIL);
        let late_p99 = stats::percentile(&lateness, 0.99);
        let delta = |name: &str| after.value(name) - before.value(name);
        let shed = delta("rlc_serve_shed_total");
        let name = match rate_per_s {
            250 => "serve.rate250_tail_us",
            500 => "serve.rate500_tail_us",
            1_000 => "serve.rate1000_tail_us",
            _ => "serve.rate2000_tail_us",
        };
        out.values.set(name, tail.value as f64 / 1e3);
        let all_ok = samples.iter().all(|s| s.status == 200);
        if all_ok && shed == 0.0 && tail.value <= TAIL_LIMIT_NS && late_p99 <= LATE_LIMIT_NS {
            max_rate_ok = max_rate_ok.max(rate_per_s);
        }
        if rate_per_s == 500 {
            let v = &mut out.values;
            // Means, not medians: `GET /metrics` renders buckets four times
            // wide, so a percentile read from it can only take a handful of
            // values, while sum over count is exact.
            let phase = |family: &str| {
                let (sum, count) = (format!("{family}_sum"), format!("{family}_count"));
                1e6 * delta(&sum) / delta(&count).max(1.0)
            };
            v.set(
                "serve.queue_wait_mean_us",
                phase("rlc_serve_queue_wait_seconds"),
            );
            v.set("serve.parse_mean_us", phase("rlc_serve_parse_seconds"));
            v.set(
                "serve.batch_window_mean_us",
                phase("rlc_serve_batch_window_seconds"),
            );
            v.set("serve.execute_mean_us", phase("rlc_serve_execute_seconds"));
            v.set("serve.write_mean_us", phase("rlc_serve_write_seconds"));
            v.set(
                "serve.microbatch_size_mean",
                delta("rlc_serve_microbatched_queries_total")
                    / delta("rlc_serve_microbatches_total").max(1.0),
            );
            // Both metrics fetches are connections too; leave them out.
            let accepted = delta("rlc_serve_accepted_total") - 1.0;
            v.set("serve.shed_ratio", shed / accepted.max(1.0));
            v.set(
                "serve.connections_per_request",
                accepted / samples.len().max(1) as f64,
            );
            v.set("serve.generator_late_p99_us", late_p99 as f64 / 1e3);
            // What HTTP adds: the request's median minus the median of
            // evaluating the same queries in process.
            let engine = IndexEngine::new(&fixture.graph, &fixture.index);
            let direct_ns = sorted(
                samples
                    .iter()
                    .map(|s| {
                        let started = Instant::now();
                        black_box(engine.evaluate(&queries[s.index]).ok());
                        started.elapsed().as_nanos() as u64
                    })
                    .collect(),
            );
            let request_p50 = stats::percentile(&latencies, 0.5);
            v.set(
                "serve.http_overhead_us",
                request_p50.saturating_sub(stats::percentile(&direct_ns, 0.5)) as f64 / 1e3,
            );
        }
    }
    out.values.set("serve.max_rate_ok", max_rate_ok as f64);
    out.values.set(
        "serve.queue_depth_max",
        served.server.metrics().queue_depth_max() as f64,
    );

    // The same layer used for bulk: one POST /batch of 64, repeated.
    let batch_queries = &queries[..queries.len().min(64)];
    let batch_body = http::encode_batch(batch_queries);
    let repeats = (40.0 * scale).max(3.0) as usize;
    let origin = Instant::now();
    for i in 0..repeats {
        let sample = http::exchange(addr, "POST", "/batch", &batch_body, origin, i, None);
        let expected: Vec<String> = served.direct[..batch_queries.len()]
            .iter()
            .map(bool::to_string)
            .collect();
        let body = format!(
            "{{\"ok\":true,\"answers\":[{}],\"generation\":{}}}",
            expected.join(","),
            served.generations[0]
        );
        out.check(
            "POST /batch body equals direct evaluation",
            sample.status == 200 && sample.body == body,
        );
    }
    out.values.set(
        "serve.batch64_requests_per_s",
        repeats as f64 / origin.elapsed().as_secs_f64(),
    );

    // Writes beside reads: one reload in the middle of a 250/s query stream.
    let blob = fixture.index.to_bytes();
    let stream = take((250.0 * scale) as usize, 11);
    let (samples, reload) = std::thread::scope(|scope| {
        let bodies = &served.bodies;
        let readers = scope.spawn(|| http::open_loop(addr, bodies, &stream, 250, 1).samples);
        std::thread::sleep(std::time::Duration::from_secs_f64(0.3 * scale));
        let reload = http::exchange(
            addr,
            "POST",
            "/admin/reload",
            &blob,
            Instant::now(),
            0,
            None,
        );
        (
            readers.join().expect("the reader thread does not panic"),
            reload,
        )
    });
    out.check("POST /admin/reload answered 200", reload.status == 200);
    served
        .generations
        .push(served.server.slot().generation_value());
    tally(&served, &samples, out);
    out.values
        .set("serve.reload_ms", reload.latency_ns() as f64 / 1e6);
    let during = sorted(samples.iter().map(Sample::latency_ns).collect());
    out.values.set(
        "serve.reload_query_tail_us",
        stats::tail(&during, LADDER_TAIL).value as f64 / 1e3,
    );
    served.server.shutdown();
}
