//! The `serve` workload: request in to bytes out over loopback TCP.
//!
//! One operation is one `POST /query` answered `200` with the envelope that
//! direct evaluation gives. The queries are single-block, so the index costs
//! microseconds and the serve layers are the whole cost. One round is three
//! loops over fixed request lists:
//!
//! * a closed loop on one connection at a time (`ops_per_s`);
//! * closed loops on `pinned` clients (`par_ops_per_s`);
//! * an open loop at a fixed 500 requests a second, each request timed from
//!   when it was due (`op_p50_us`, `op_tail_us`).
//!
//! A non-200, a shed, a timeout or a wrong body is a failed operation.

use super::{
    finish_traced_over_index, instance_seed, note_traced, time_loads, traced_rounds, Measured,
};
use crate::fixture::Fixture;
use crate::host::Host;
use crate::http::{self, Loop, Sample};
use crate::layers::{self, Served};
use crate::report::{Outcome, RunArgs};
use crate::stats;
use crate::trace::Tracer;
use rlc_serve::Epoch;
use serde::Value;
use std::time::Instant;

/// The fixed rate of the open loop, requests per second.
pub const OPEN_RATE: u64 = 500;

/// Requests per round in each loop: single closed loop, parallel closed
/// loops, open loop.
fn requests(quick: bool) -> (usize, usize, usize) {
    if quick {
        (60, 120, 100)
    } else {
        (300, 600, 250)
    }
}

/// Which requests a loop of `count` sends in round `round`: consecutive
/// stretches of the query list, so that rounds differ and the list is covered.
fn stretch(total: usize, count: usize, round: usize, lane: usize) -> Vec<usize> {
    let start = (round * 3 + lane) * count;
    (0..count).map(|i| (start + i) % total).collect()
}

/// Records the client-side spans of one request: the operation, and inside
/// it connect, request-to-first-byte, and the rest of the response.
fn record_spans(tracer: &mut Tracer, looped: &Loop, sample: &Sample) {
    let base = tracer.offset_ns(looped.origin);
    let op = sample.index as u32;
    let at = |ns: u64| base + ns;
    // A failed exchange has no connect or first-byte time; it is counted as
    // failed and leaves only its outer span.
    let root = tracer.record(
        "op",
        op,
        crate::trace::NONE,
        at(sample.sent_ns),
        at(sample.done_ns),
    );
    if sample.connected_ns >= sample.sent_ns && sample.first_byte_ns >= sample.connected_ns {
        tracer.record(
            "serve.connect",
            op,
            root,
            at(sample.sent_ns),
            at(sample.connected_ns),
        );
        tracer.record(
            "serve.first_byte",
            op,
            root,
            at(sample.connected_ns),
            at(sample.first_byte_ns),
        );
        tracer.record(
            "serve.read_rest",
            op,
            root,
            at(sample.first_byte_ns),
            at(sample.done_ns),
        );
    }
}

/// Direct evaluation against what is known beforehand (witness walks and the
/// oracle sample); the served bodies are then held to direct evaluation.
fn check_direct(fixture: &Fixture, served: &Served, mut check: impl FnMut(bool)) {
    for (&direct, truth) in served.direct.iter().zip(&fixture.queries.truth) {
        check(truth.is_none_or(|t| t == direct));
    }
}

/// Sets one instance up and measures it, untraced.
pub fn measure(args: &RunArgs, host: &Host, seed: u64, rounds: usize) -> Measured {
    let started = Instant::now();
    let fixture = Fixture::new(args.workload, seed, args.quick);
    let served = Served::boot(
        &fixture.graph,
        &fixture.index,
        &fixture.queries.queries,
        host.pinned,
    );
    let mut out = Measured::of(&fixture, started.elapsed().as_secs_f64());
    check_direct(&fixture, &served, |ok| out.check(ok));

    let addr = served.addr();
    let total = fixture.queries.queries.len();
    let (single_count, parallel_count, open_count) = requests(args.quick);
    let (mut single_s, mut parallel_s, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let blob = fixture.index.to_bytes();
    // Round 0 is the warm-up: run, checked, not measured.
    for round in 0..=rounds {
        let single = http::closed_loop(
            addr,
            &served.bodies,
            &stretch(total, single_count, round, 0),
            1,
        );
        let parallel = http::closed_loop(
            addr,
            &served.bodies,
            &stretch(total, parallel_count, round, 1),
            host.pinned,
        );
        let open = http::open_loop(
            addr,
            &served.bodies,
            &stretch(total, open_count, round, 2),
            OPEN_RATE,
            host.pinned,
        );
        for looped in [&single, &parallel, &open] {
            out.attempted += looped.samples.len() as u64;
            out.failed += served.failures(&looped.samples);
        }
        if round > 0 {
            single_s.push(single.seconds / single_count as f64);
            parallel_s.push(parallel.seconds / parallel_count as f64);
            out.latencies_ns
                .extend(open.samples.iter().map(Sample::latency_ns));
            lateness.extend(open.samples.iter().map(Sample::late_ns));
            time_loads(&mut out.loads_s, || {
                drop(Epoch::from_blob(&fixture.graph, &blob).expect("own blob loads"))
            });
        }
    }
    out.ops_per_s = 1.0 / stats::median(&single_s);
    out.par_ops_per_s = 1.0 / stats::median(&parallel_s);
    lateness.sort_unstable();
    out.notes = vec![
        ("open_loop_rate_per_s".to_owned(), Value::UInt(OPEN_RATE)),
        ("clients".to_owned(), Value::UInt(host.pinned as u64)),
        (
            "generator_late_p99_us".to_owned(),
            Value::Float(stats::percentile(&lateness, 0.99) as f64 / 1e3),
        ),
        (
            "shed".to_owned(),
            Value::UInt(served.server.metrics().get(rlc_serve::Counter::Shed503)),
        ),
    ];

    out.index_bytes = served.server.slot().snapshot().index_bytes() as f64;
    served.server.shutdown();
    out
}

/// The traced run: the closed loop on one connection twice per round — the
/// spans are built from the client's own timestamps after the loop, so the
/// two passes run the same code and their ratio shows only the noise — then
/// the in-process re-enactment of the same queries, then the probes.
pub fn trace(args: &RunArgs, host: &Host) -> Outcome {
    let fixture = Fixture::new(args.workload, instance_seed(args.seed, 0), args.quick);
    let served = Served::boot(
        &fixture.graph,
        &fixture.index,
        &fixture.queries.queries,
        host.pinned,
    );
    let mut outcome = Outcome::default();
    let traced_rounds = traced_rounds(args);
    note_traced(&mut outcome, &fixture, traced_rounds);
    check_direct(&fixture, &served, |ok| outcome.check(ok));
    let addr = served.addr();
    let total = fixture.queries.queries.len();
    let single_count = requests(args.quick).0;

    let mut tracer = Tracer::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut sampled: Vec<usize> = Vec::new();
    for round in 0..traced_rounds {
        let plain = http::closed_loop(
            addr,
            &served.bodies,
            &stretch(total, single_count, round, 0),
            1,
        );
        let traced = http::closed_loop(
            addr,
            &served.bodies,
            &stretch(total, single_count, round, 1),
            1,
        );
        for looped in [&plain, &traced] {
            outcome.attempted += looped.samples.len() as u64;
            outcome.failed += served.failures(&looped.samples);
        }
        untraced_s.push(plain.seconds);
        traced_s.push(traced.seconds);
        for sample in &traced.samples {
            record_spans(&mut tracer, &traced, sample);
            sampled.push(sample.index);
        }
    }
    let Served { server, direct, .. } = served;
    server.shutdown();
    for &i in &sampled {
        let answer = layers::reenact(
            &fixture.graph,
            &fixture.index,
            &fixture.queries.queries[i],
            i as u32,
            &mut tracer,
        );
        outcome.attempted += 1;
        outcome.failed += u64::from(answer != direct[i]);
    }

    let overhead = stats::median(&untraced_s) / stats::median(&traced_s);
    // Every traced request was re-enacted once.
    finish_traced_over_index(
        outcome,
        (args, host),
        &fixture,
        tracer,
        (overhead, traced_rounds, 1),
    )
}
