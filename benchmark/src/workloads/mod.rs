//! The five workloads. Each runs in its own process, sets itself up from the
//! seed, drives the system only through public functions, checks every
//! answer, and hands back either the end-to-end metrics (untraced run) or
//! the per-layer metrics (traced run).
//!
//! An untraced run measures [`INSTANCES`] independent input instances drawn
//! from the seed, one after another, and reports their mean (throughputs,
//! sizes) or pooled median (latencies, loads, set-ups). One random graph of
//! ten thousand vertices differs from the next by ±5 % in index size alone;
//! measuring one instance per run would make run-to-run spread a measure of
//! that draw. Setting up three times is needed for `setup_s` anyway, so the
//! extra instances cost no time.

pub mod build;
pub mod query;
pub mod serve;

use crate::fixture::{Fixture, Workload};
use crate::harness::Paths;
use crate::host::{self, Host};
use crate::layers::{self, Probe};
use crate::report::{Outcome, RunArgs};
use crate::rng::Fnv;
use crate::stats;
use crate::trace::Tracer;
use rlc_core::{BatchPlan, IndexEngine, PlanCache, Query, ReachabilityEngine};
use serde::Value;
use std::time::Instant;

/// Input instances per untraced full-size run.
pub const INSTANCES: usize = 3;

/// Timed loads after every timed round; `load_s` is the median of all of a
/// run's loads (at least 27). Loads are spread over the run because the
/// reference host's speed shifts by ±15 % on a scale of seconds: eleven loads
/// back to back would time one such moment.
pub const LOADS_PER_ROUND: usize = 3;

/// The seed of instance `instance` of the run seeded `seed`: runs with
/// different seeds share no instance.
pub fn instance_seed(seed: u64, instance: usize) -> u64 {
    seed.wrapping_mul(INSTANCES as u64)
        .wrapping_add(instance as u64)
}

/// What one instance measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds from nothing to ready for the first timed operation.
    pub setup_s: f64,
    /// Single-caller operations per second, median pass.
    pub ops_per_s: f64,
    /// Parallel-path operations per second, median pass.
    pub par_ops_per_s: f64,
    /// Per-operation latencies of the single-caller path.
    pub latencies_ns: Vec<u64>,
    /// Seconds of each timed load.
    pub loads_s: Vec<f64>,
    /// Resident bytes of the served artefact.
    pub index_bytes: f64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that erred, were refused, or answered wrongly.
    pub failed: u64,
    /// Hash of the instance's inputs.
    pub inputs_hash: u64,
    /// `(vertices, edges, queries, oracle-checked queries)`.
    pub sizes: [u64; 4],
    /// Workload-specific facts for the result file (last instance wins).
    pub notes: Vec<(String, Value)>,
}

impl Measured {
    /// Starts an instance's record from its fixture.
    pub fn of(fixture: &Fixture, setup_s: f64) -> Measured {
        Measured {
            setup_s,
            inputs_hash: fixture.inputs_hash,
            sizes: [
                fixture.edges.vertices as u64,
                fixture.edges.edges.len() as u64,
                fixture.queries.queries.len() as u64,
                fixture.oracle_checked as u64,
            ],
            ..Measured::default()
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Times [`LOADS_PER_ROUND`] runs of `load` into `loads_s`.
pub fn time_loads(loads_s: &mut Vec<f64>, mut load: impl FnMut()) {
    for _ in 0..LOADS_PER_ROUND {
        let started = Instant::now();
        load();
        loads_s.push(started.elapsed().as_secs_f64());
    }
}

/// Runs the workload `args` names.
pub fn run(args: &RunArgs, host: &Host) -> Outcome {
    if args.trace {
        return match args.workload {
            Workload::Build => build::trace(args, host),
            Workload::Serve => serve::trace(args, host),
            _ => query::trace(args, host),
        };
    }
    let instances = if args.quick { 1 } else { INSTANCES };
    let total_rounds = args.workload.rounds(args.seconds, args.quick);
    let rounds = total_rounds.div_ceil(instances);
    let measured: Vec<Measured> = (0..instances)
        .map(|instance| {
            let seed = instance_seed(args.seed, instance);
            // Each instance is dropped before the next is set up, so that
            // instances do not stack up in memory.
            match args.workload {
                Workload::Build => build::measure(args, host, seed, rounds),
                Workload::Serve => serve::measure(args, host, seed, rounds),
                _ => query::measure(args, seed, rounds),
            }
        })
        .collect();
    aggregate(args.workload, rounds, measured)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    values.iter().sum::<f64>() / values.len() as f64
}

/// Folds the instances into the eight end-to-end metrics.
fn aggregate(workload: Workload, rounds: usize, measured: Vec<Measured>) -> Outcome {
    let mut outcome = Outcome::default();
    let each = |f: fn(&Measured) -> f64| measured.iter().map(f);
    let setups: Vec<f64> = each(|m| m.setup_s).collect();
    let loads: Vec<f64> = measured
        .iter()
        .flat_map(|m| m.loads_s.iter().copied())
        .collect();
    let mut latencies: Vec<u64> = measured
        .iter()
        .flat_map(|m| m.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let tail = stats::tail(&latencies, workload.tail_cap());

    let v = &mut outcome.values;
    v.set("setup_s", stats::median(&setups));
    v.set("ops_per_s", mean(each(|m| m.ops_per_s)));
    v.set("par_ops_per_s", mean(each(|m| m.par_ops_per_s)));
    v.set("op_p50_us", stats::percentile(&latencies, 0.5) as f64 / 1e3);
    v.set("op_tail_us", tail.value as f64 / 1e3);
    v.set("load_s", stats::median(&loads));
    v.set("index_bytes", mean(each(|m| m.index_bytes)));
    // Last of all: the high-water mark covers every instance.
    v.set("peak_rss_bytes", host::peak_rss_bytes() as f64);

    outcome.attempted = measured.iter().map(|m| m.attempted).sum();
    outcome.failed = measured.iter().map(|m| m.failed).sum();
    let mut hash = Fnv::default();
    for m in &measured {
        hash.write(&m.inputs_hash.to_le_bytes());
    }
    let sum = |i: usize| Value::UInt(measured.iter().map(|m| m.sizes[i]).sum());
    outcome.note("inputs_hash", Value::Str(format!("{:016x}", hash.finish())));
    outcome.note("instances", Value::UInt(measured.len() as u64));
    outcome.note("vertices", sum(0));
    outcome.note("edges", sum(1));
    outcome.note("queries", sum(2));
    outcome.note("oracle_checked", sum(3));
    outcome.note("rounds_per_instance", Value::UInt(rounds as u64));
    outcome.note("tail_percentile", Value::Str(tail.which.to_owned()));
    outcome.note("latency_samples", Value::UInt(tail.samples as u64));
    if let Some(last) = measured.last() {
        outcome.notes.extend(last.notes.iter().cloned());
    }
    outcome
}

/// Ends a traced run: every layer's probe over `probe`'s inputs, then the
/// three `bench.*` metrics.
pub fn finish_traced(
    mut outcome: Outcome,
    probe: &Probe<'_>,
    mut tracer: Tracer,
    overhead_ratio: f64,
    traced_rounds: usize,
) -> Outcome {
    let probed = layers::probe(probe, &mut tracer);
    outcome.values.absorb(probed.values);
    outcome.attempted += probed.attempted;
    outcome.failed += probed.failed;
    let v = &mut outcome.values;
    v.set("bench.trace_overhead_ratio", overhead_ratio);
    v.set("bench.spans", tracer.len() as f64);
    v.set("bench.rounds", traced_rounds as f64);
    outcome.tracer = Some(tracer);
    outcome
}

/// [`finish_traced`] for the workloads whose queries go through the plain
/// `IndexEngine` (`build`, `serve`). `op_passes` is how often the traced pass
/// ran over the operations that were re-enacted once.
pub fn finish_traced_over_index(
    outcome: Outcome,
    (args, host): (&RunArgs, &Host),
    fixture: &Fixture,
    tracer: Tracer,
    (overhead_ratio, traced_rounds, op_passes): (f64, usize, usize),
) -> Outcome {
    let engine = IndexEngine::new(&fixture.graph, &fixture.index);
    let cache = PlanCache::new();
    let single = |query: &Query| engine.evaluate(query);
    let batch = |chunk: &[Query]| BatchPlan::new(chunk).execute_cached(&engine, &cache);
    let probe = Probe {
        fixture,
        host,
        quick: args.quick,
        engine: &engine,
        paths: &Paths {
            single: &single,
            batch: &batch,
        },
        sharded: None,
        op_span: "op",
        op_passes,
    };
    finish_traced(outcome, &probe, tracer, overhead_ratio, traced_rounds)
}

/// Notes a traced run's inputs the way an untraced run's are noted.
pub fn note_traced(outcome: &mut Outcome, fixture: &Fixture, traced_rounds: usize) {
    outcome.note(
        "inputs_hash",
        Value::Str(format!("{:016x}", fixture.inputs_hash)),
    );
    outcome.note("instances", Value::UInt(1));
    outcome.note("vertices", Value::UInt(fixture.edges.vertices as u64));
    outcome.note("edges", Value::UInt(fixture.edges.edges.len() as u64));
    outcome.note("queries", Value::UInt(fixture.queries.queries.len() as u64));
    outcome.note("oracle_checked", Value::UInt(fixture.oracle_checked as u64));
    outcome.note("traced_rounds", Value::UInt(traced_rounds as u64));
}

/// Traced rounds of a traced run.
pub fn traced_rounds(args: &RunArgs) -> usize {
    if args.quick {
        1
    } else {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(ops: f64, bytes: f64, latency: u64) -> Measured {
        Measured {
            setup_s: ops / 100.0,
            ops_per_s: ops,
            par_ops_per_s: 2.0 * ops,
            latencies_ns: vec![latency; 20],
            loads_s: vec![ops / 1000.0; 3],
            index_bytes: bytes,
            attempted: 10,
            failed: 1,
            inputs_hash: ops as u64,
            sizes: [1, 2, 3, 4],
            notes: Vec::new(),
        }
    }

    #[test]
    fn instances_fold_into_means_and_pooled_medians() {
        let outcome = aggregate(
            Workload::QueryRlc,
            4,
            vec![
                instance(100.0, 10.0, 1_000),
                instance(200.0, 20.0, 2_000),
                instance(600.0, 60.0, 3_000),
            ],
        );
        let get = |name: &str| outcome.values.get(name).unwrap();
        assert_eq!(get("ops_per_s"), 300.0);
        assert_eq!(get("par_ops_per_s"), 600.0);
        assert_eq!(get("index_bytes"), 30.0);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("load_s"), 0.2);
        assert_eq!(get("op_p50_us"), 2.0);
        assert_eq!(get("op_tail_us"), 3.0);
        assert!(get("peak_rss_bytes") > 0.0);
        assert_eq!((outcome.attempted, outcome.failed), (30, 3));
        let note = |key: &str| {
            outcome
                .notes
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(note("vertices"), Some(Value::UInt(3)));
        assert_eq!(note("latency_samples"), Some(Value::UInt(60)));
        assert_eq!(note("tail_percentile"), Some(Value::Str("p75".to_owned())));
    }

    #[test]
    fn runs_with_different_seeds_share_no_instance() {
        let seeds = |seed| (0..INSTANCES).map(move |i| instance_seed(seed, i));
        let all: std::collections::HashSet<u64> = (0..50).flat_map(seeds).collect();
        assert_eq!(all.len(), 50 * INSTANCES);
    }
}
