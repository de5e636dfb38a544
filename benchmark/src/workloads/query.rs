//! The three in-process query workloads: `query-rlc`, `query-concat`, `shard`.
//!
//! They differ in the graph, the operation list and the engine an operation
//! goes through; the timed section, the checks and the reporting are shared.
//!
//! | workload | one operation | parallel path |
//! |---|---|---|
//! | `query-rlc` | `IndexEngine::evaluate` (one-shot: a prepare per call) | `BatchPlan::new(chunk).execute_cached` |
//! | `query-concat` | `PlanCache::prepare` + `HybridEngine::evaluate_prepared` | the same, over `HybridEngine` |
//! | `shard` | `ShardedEngine::evaluate` | the same, over `ShardedEngine` |

use super::{finish_traced, instance_seed, note_traced, time_loads, traced_rounds, Measured};
use crate::fixture::{Fixture, Workload, K, SHARDS};
use crate::harness::{self, Answer, Paths};
use crate::host::Host;
use crate::layers::{self, Probe};
use crate::report::{Outcome, RunArgs};
use crate::trace::Tracer;
use rlc_core::{
    BatchPlan, HybridEngine, IndexEngine, PlanCache, Query, ReachabilityEngine, RlcIndex,
};
use rlc_shard::{ShardBuildConfig, ShardedEngine, ShardedIndex};
use serde::Value;
use std::time::Instant;

/// Everything set up before the first timed operation.
struct System {
    fixture: Fixture,
    /// The `shard` workload's served artefact, with its build seconds.
    sharded: Option<(ShardedIndex, f64)>,
}

impl System {
    fn new(workload: Workload, seed: u64, quick: bool) -> System {
        let fixture = Fixture::new(workload, seed, quick);
        let sharded = (workload == Workload::Shard).then(|| {
            let started = Instant::now();
            let (sharded, _) =
                ShardedIndex::build(&fixture.graph, &ShardBuildConfig::new(K, SHARDS))
                    .expect("four shards of a non-empty graph build");
            (sharded, started.elapsed().as_secs_f64())
        });
        System { fixture, sharded }
    }
}

/// What `load_s` loads: the workload's served artefact.
enum Loaded {
    Index(RlcIndex),
    Sharded(ShardedIndex),
}

impl Loaded {
    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Loaded::Index(index) => index.to_bytes(),
            Loaded::Sharded(sharded) => sharded.to_bytes(),
        }
    }
}

/// Every how-manieth operation the latency pass times one by one. Timing an
/// operation costs two clock reads, so the sub-microsecond operations of
/// `query-rlc` are sampled more thinly.
fn latency_stride(workload: Workload) -> usize {
    match workload {
        Workload::QueryRlc => 16,
        Workload::QueryConcat => 4,
        // A short list of slow operations: every other one, for a pool of two
        // thousand.
        _ => 2,
    }
}

/// Every how-manieth operation of the traced pass gets spans.
fn trace_stride(workload: Workload) -> usize {
    match workload {
        Workload::QueryRlc => 64,
        _ => 1,
    }
}

/// The span name of the workload's evaluation call.
fn evaluate_span(workload: Workload) -> &'static str {
    match workload {
        Workload::QueryRlc => "engine.evaluate",
        Workload::QueryConcat => "engine.evaluate_prepared",
        _ => "shard.evaluate",
    }
}

/// The paths of one workload over one set-up system: the engine an operation
/// goes through, and the two caches (default configurations; one per path,
/// so that the single-caller pass's cache counters are exact).
struct Engines<'a> {
    workload: Workload,
    index: IndexEngine<'a>,
    hybrid: HybridEngine<'a>,
    sharded: Option<ShardedEngine<'a>>,
    single_cache: PlanCache,
    batch_cache: PlanCache,
}

impl<'a> Engines<'a> {
    fn new(workload: Workload, system: &'a System) -> Engines<'a> {
        let fixture = &system.fixture;
        Engines {
            workload,
            index: IndexEngine::new(&fixture.graph, &fixture.index),
            hybrid: HybridEngine::new(&fixture.graph, &fixture.index),
            sharded: system
                .sharded
                .as_ref()
                .map(|(sharded, _)| ShardedEngine::new(&fixture.graph, sharded)),
            single_cache: PlanCache::new(),
            batch_cache: PlanCache::new(),
        }
    }

    fn engine(&self) -> &dyn ReachabilityEngine {
        match (self.workload, &self.sharded) {
            (Workload::QueryRlc, _) => &self.index,
            (Workload::QueryConcat, _) => &self.hybrid,
            (_, Some(sharded)) => sharded,
            (_, None) => unreachable!("the shard workload builds its sharded index"),
        }
    }

    fn single(&self, query: &Query) -> Answer {
        let engine = self.engine();
        if self.workload == Workload::QueryConcat {
            let prepared = self.single_cache.prepare(engine, query.constraint())?;
            engine.evaluate_prepared(query.source, query.target, &prepared)
        } else {
            engine.evaluate(query)
        }
    }

    fn batch(&self, chunk: &[Query]) -> Vec<Answer> {
        BatchPlan::new(chunk).execute_cached(self.engine(), &self.batch_cache)
    }
}

/// Sets one instance up and measures it, untraced.
pub fn measure(args: &RunArgs, seed: u64, rounds: usize) -> Measured {
    let workload = args.workload;
    let started = Instant::now();
    let system = System::new(workload, seed, args.quick);
    let mut out = Measured::of(&system.fixture, started.elapsed().as_secs_f64());
    let fixture = &system.fixture;
    let engines = Engines::new(workload, &system);
    let (single, batch) = (
        |q: &Query| engines.single(q),
        |c: &[Query]| engines.batch(c),
    );
    let paths = Paths {
        single: &single,
        batch: &batch,
    };
    // load_s: serialised bytes to a queryable artefact, timed after every
    // round; the artefact must also re-serialise to the very same bytes.
    let blob = match &system.sharded {
        Some((sharded, _)) => sharded.to_bytes(),
        None => fixture.index.to_bytes(),
    };
    let load = || match &system.sharded {
        Some(_) => Loaded::Sharded(
            ShardedIndex::from_bytes(&blob, &fixture.graph).expect("own blob loads"),
        ),
        None => Loaded::Index(RlcIndex::from_bytes(&blob).expect("own blob loads")),
    };
    out.check(load().to_bytes() == blob);
    let mut loads_s = Vec::new();
    let measured = harness::run(
        &fixture.queries,
        &paths,
        rounds,
        latency_stride(workload),
        &mut || time_loads(&mut loads_s, || drop(load())),
    );
    out.loads_s = loads_s;
    let ops = fixture.queries.queries.len();
    out.ops_per_s = measured.ops_per_s(ops);
    out.par_ops_per_s = measured.par_ops_per_s(ops);
    out.attempted += measured.attempted;
    out.failed += measured.failed;
    if workload == Workload::Shard {
        // Sharded answers must equal unsharded answers on every query.
        for (query, &sharded) in fixture.queries.queries.iter().zip(&measured.reference) {
            out.check(engines.index.evaluate(query) == Ok(sharded));
        }
    }
    out.latencies_ns = measured.latencies_ns;
    out.index_bytes = match &system.sharded {
        Some((sharded, _)) => sharded.memory_bytes() as f64,
        None => fixture.index.memory_bytes() as f64,
    };
    out
}

/// The traced run: spans around the system calls on the single-caller path,
/// then the layer-by-layer re-enactment of the same operations, then every
/// layer's probe over this workload's inputs.
pub fn trace(args: &RunArgs, host: &Host) -> Outcome {
    let workload = args.workload;
    let system = System::new(workload, instance_seed(args.seed, 0), args.quick);
    let fixture = &system.fixture;
    let engines = Engines::new(workload, &system);
    let (single, batch) = (
        |q: &Query| engines.single(q),
        |c: &[Query]| engines.batch(c),
    );
    let paths = Paths {
        single: &single,
        batch: &batch,
    };
    let mut outcome = Outcome::default();
    let traced_rounds = traced_rounds(args);
    note_traced(&mut outcome, fixture, traced_rounds);
    outcome.note("trace_stride", Value::UInt(trace_stride(workload) as u64));

    let mut tracer = Tracer::new();
    let span = evaluate_span(workload);
    let engine = engines.engine();
    let traced = |query: &Query, op: u32, tracer: &mut Tracer| -> Answer {
        tracer.span("op", op, |tracer| {
            if workload == Workload::QueryConcat {
                let prepared = tracer.span("cache.prepare", op, |_| {
                    engines.single_cache.prepare(engine, query.constraint())
                })?;
                tracer.span(span, op, |_| {
                    engine.evaluate_prepared(query.source, query.target, &prepared)
                })
            } else {
                tracer.span(span, op, |_| engine.evaluate(query))
            }
        })
    };
    let attribute = |query: &Query, op: u32, tracer: &mut Tracer| -> Answer {
        if workload == Workload::Shard {
            tracer.span("unsharded.evaluate", op, |_| engines.index.evaluate(query))?;
        }
        Ok(layers::reenact(
            &fixture.graph,
            &fixture.index,
            query,
            op,
            tracer,
        ))
    };
    let measured = harness::run_traced(
        &fixture.queries,
        &paths,
        &traced,
        &attribute,
        traced_rounds,
        trace_stride(workload),
        &mut tracer,
    );
    outcome.attempted += measured.attempted;
    outcome.failed += measured.failed;

    let probe = Probe {
        fixture,
        host,
        quick: args.quick,
        engine,
        paths: &paths,
        sharded: system
            .sharded
            .as_ref()
            .map(|(sharded, seconds)| (sharded, *seconds)),
        op_span: "op",
        // The re-enactment ran once over the sampled operations, the traced
        // pass `traced_rounds` times.
        op_passes: traced_rounds,
    };
    finish_traced(
        outcome,
        &probe,
        tracer,
        measured.overhead_ratio(),
        traced_rounds,
    )
}
