//! Every workload end to end at the smoke-test size: each run reports every
//! metric its kind owes, and no answer is wrong.

use rlc_benchmark::fixture::Workload;
use rlc_benchmark::host::Host;
use rlc_benchmark::metrics::{END_TO_END, PER_LAYER};
use rlc_benchmark::report::{self, RunArgs};
use rlc_benchmark::workloads;

fn args(workload: Workload, trace: bool) -> RunArgs {
    RunArgs {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        quick: true,
        out: std::env::temp_dir().join(format!("rlc-benchmark-smoke-{}", std::process::id())),
    }
}

#[test]
fn every_workload_reports_all_end_to_end_metrics_and_fails_nothing() {
    let host = Host::detect();
    for workload in Workload::ALL {
        let args = args(workload, false);
        let outcome = workloads::run(&args, &host);
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert!(outcome.attempted > 0);
        let missing = outcome.values.missing(END_TO_END.iter().map(|m| m.name));
        assert!(missing.is_empty(), "{}: {missing:?}", workload.name());
        for metric in END_TO_END {
            let value = outcome.values.get(metric.name).unwrap();
            assert!(value > 0.0, "{} {} = {value}", workload.name(), metric.name);
        }
        // The driver's line: exactly four keys, every metric with a unit.
        let line = report::parse_json(&report::finish(&args, &host, &outcome).unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_map().unwrap().len(),
            END_TO_END.len()
        );
    }
    let _ = std::fs::remove_dir_all(args(Workload::Build, false).out);
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_a_trace() {
    let host = Host::detect();
    let outcome = workloads::run(&args(Workload::QueryConcat, true), &host);
    assert_eq!(outcome.failed, 0);
    let missing = outcome.values.missing(PER_LAYER.iter().map(|m| m.name));
    assert!(missing.is_empty(), "{missing:?}");
    let tracer = outcome
        .tracer
        .as_ref()
        .expect("a traced run keeps its spans");
    let summary = tracer.summary();
    for span in [
        "op",
        "cache.prepare",
        "engine.evaluate_prepared",
        "reenact",
        "probe.serve",
    ] {
        assert!(summary.contains_key(span), "no {span} span");
    }
    let hybrid = outcome.values.get("hybrid.time_share").unwrap();
    assert!(hybrid > 0.0, "concatenated queries run closures: {hybrid}");
}
