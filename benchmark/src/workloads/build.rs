//! The `build` workload: the write side.
//!
//! One operation is one `build_index(BuildConfig::new(K))` over a
//! Barabási–Albert graph; the parallel path is the same build
//! `with_threads(pinned)`. Every built index must serialise to the reference
//! index's bytes, the reference index must answer a query sample as the
//! oracle does, and `from_bytes(to_bytes(x))` must serialise identically.

use super::{
    finish_traced_over_index, instance_seed, note_traced, time_loads, traced_rounds, Measured,
};
use crate::fixture::{Fixture, K};
use crate::host::Host;
use crate::report::{Outcome, RunArgs};
use crate::stats;
use crate::trace::{Tracer, NONE};
use rlc_core::{
    build_index, compute_order, BuildConfig, IndexEngine, OrderingStrategy, ReachabilityEngine,
    RlcIndex,
};
use std::hint::black_box;
use std::time::Instant;

/// Builds once under `config`; returns the seconds and whether the result
/// serialises to `reference`.
fn build_once(fixture: &Fixture, config: &BuildConfig, reference: &[u8]) -> (f64, bool) {
    let started = Instant::now();
    let (index, _) = build_index(black_box(&fixture.graph), config);
    let seconds = started.elapsed().as_secs_f64();
    (seconds, index.to_bytes() == reference)
}

/// The reference index against the oracle, on every sampled query.
fn check_reference(fixture: &Fixture, mut check: impl FnMut(bool)) {
    let engine = IndexEngine::new(&fixture.graph, &fixture.index);
    for (query, truth) in fixture.queries.queries.iter().zip(&fixture.queries.truth) {
        check(engine.evaluate(query).ok() == *truth);
    }
}

/// Sets one instance up and measures it, untraced.
pub fn measure(args: &RunArgs, host: &Host, seed: u64, rounds: usize) -> Measured {
    let started = Instant::now();
    let fixture = Fixture::new(args.workload, seed, args.quick);
    let mut out = Measured::of(&fixture, started.elapsed().as_secs_f64());
    check_reference(&fixture, |ok| out.check(ok));
    let reference = fixture.index.to_bytes();
    let sequential = BuildConfig::new(K);
    let parallel = BuildConfig::new(K).with_threads(host.pinned);
    let mut record = |config: &BuildConfig| {
        let (seconds, same) = build_once(&fixture, config, &reference);
        out.check(same);
        seconds
    };
    // Warm-up round, discarded.
    record(&sequential);
    record(&parallel);
    let load = || RlcIndex::from_bytes(&reference).expect("own blob loads");
    let (mut seq_s, mut par_s, mut loads_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        seq_s.push(record(&sequential));
        par_s.push(record(&parallel));
        time_loads(&mut loads_s, || drop(load()));
    }
    out.ops_per_s = 1.0 / stats::median(&seq_s);
    out.par_ops_per_s = 1.0 / stats::median(&par_s);
    out.latencies_ns = seq_s.iter().map(|s| (s * 1e9) as u64).collect();
    out.loads_s = loads_s;
    out.check(load().to_bytes() == reference);
    out.index_bytes = fixture.index.memory_bytes() as f64;
    out
}

/// The traced run: each build inside an `op` span, beside the same builds
/// without spans; then the calls a build is made of that can be reached from
/// outside (ordering, serialise, load), each in its own span; then the probes.
pub fn trace(args: &RunArgs, host: &Host) -> Outcome {
    let fixture = Fixture::new(args.workload, instance_seed(args.seed, 0), args.quick);
    let mut outcome = Outcome::default();
    let traced_rounds = traced_rounds(args);
    note_traced(&mut outcome, &fixture, traced_rounds);
    check_reference(&fixture, |ok| outcome.check(ok));
    let reference = fixture.index.to_bytes();
    let sequential = BuildConfig::new(K);

    let mut tracer = Tracer::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    for round in 0..traced_rounds {
        let (seconds, same) = build_once(&fixture, &sequential, &reference);
        untraced_s.push(seconds);
        let started = Instant::now();
        let (index, _) = tracer.span("op", round as u32, |tracer| {
            tracer.span("build.build_index", round as u32, |_| {
                build_index(black_box(&fixture.graph), &sequential)
            })
        });
        traced_s.push(started.elapsed().as_secs_f64());
        outcome.attempted += 2;
        outcome.failed += u64::from(!same) + u64::from(index.to_bytes() != reference);
    }
    tracer.span("reenact", NONE, |tracer| {
        tracer.span("build.compute_order", NONE, |_| {
            black_box(compute_order(&fixture.graph, OrderingStrategy::InOutDegree));
        });
        let blob = tracer.span("index.to_bytes", NONE, |_| fixture.index.to_bytes());
        tracer.span("index.from_bytes", NONE, |_| {
            black_box(RlcIndex::from_bytes(&blob).expect("own blob loads"));
        });
    });

    let overhead = stats::median(&untraced_s) / stats::median(&traced_s);
    finish_traced_over_index(
        outcome,
        (args, host),
        &fixture,
        tracer,
        (overhead, traced_rounds, traced_rounds),
    )
}
