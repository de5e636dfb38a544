//! What a run produces: the line the driver reads, the lines a person reads,
//! and the result file `compare` reads back.

use crate::fixture::Workload;
use crate::host::Host;
use crate::metrics::{self, Values};
use crate::trace::Tracer;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// A JSON tree that reads and writes as itself (the vendored serde's `Value`
/// implements neither trait).
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|json| json.0)
        .map_err(|e| e.to_string())
}

/// Renders a JSON tree on one line.
pub fn render_json(value: &Value) -> String {
    serde_json::to_string(&Json(value.clone())).expect("benchmark values are finite")
}

/// A number out of a JSON tree, whichever numeric variant holds it.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Seconds of timed work to aim for on the reference host.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// The smoke-test tier: small inputs, results not comparable.
    pub quick: bool,
    /// Where result and trace files go.
    pub out: PathBuf,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub values: Values,
    /// Operations issued in timed passes and checks.
    pub attempted: u64,
    /// Operations that erred, were refused, or answered wrongly.
    pub failed: u64,
    /// Input and measurement facts for the result file.
    pub notes: Vec<(String, Value)>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Adds a note.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_owned(), value));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The names a run of this kind must report, in table order.
fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    }
}

fn metrics_value(names: &[&'static str], values: &Values) -> Value {
    Value::Map(
        names
            .iter()
            .map(|&name| {
                let value = values.get(name).expect("checked complete before reporting");
                let unit = metrics::unit_of(name).expect("named in the tables");
                (
                    name.to_owned(),
                    Value::Map(vec![
                        ("value".to_owned(), Value::Float(value)),
                        ("unit".to_owned(), Value::Str(unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result file's name for a run.
pub fn result_file_name(args: &RunArgs) -> String {
    format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    )
}

/// Prints every metric by name and unit, writes the result file (and the
/// trace file of a traced run), and returns the driver's line: one JSON
/// object with exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn finish(args: &RunArgs, host: &Host, outcome: &Outcome) -> Result<String, String> {
    let names = expected_names(args.trace);
    let missing = outcome.values.missing(names.iter().copied());
    if !missing.is_empty() {
        return Err(format!("the run did not measure {missing:?}"));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    for &name in &names {
        let unit = metrics::unit_of(name).expect("named in the tables");
        println!(
            "{name:<34} {:>20.6} {unit}",
            outcome.values.get(name).expect("complete")
        );
    }
    println!(
        "{} seed {}: attempted {} failed {} correct {correct}",
        args.workload.name(),
        args.seed,
        outcome.attempted,
        outcome.failed
    );

    let driver_line = Value::Map(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(outcome.attempted)),
        ("failed".to_owned(), Value::UInt(outcome.failed)),
        ("metrics".to_owned(), metrics_value(&names, &outcome.values)),
    ]);

    let mut file = vec![
        ("schema".to_owned(), Value::UInt(1)),
        (
            "workload".to_owned(),
            Value::Str(args.workload.name().to_owned()),
        ),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("seconds".to_owned(), Value::Float(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        // A quick run uses other sizes: never compare it with anything.
        ("comparable".to_owned(), Value::Bool(!args.quick)),
        ("host".to_owned(), host.to_value()),
        ("inputs".to_owned(), Value::Map(outcome.notes.clone())),
    ];
    file.extend(driver_line.as_map().expect("a map").iter().cloned());
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create {:?}: {e}", args.out))?;
    write_file(
        &args.out.join(result_file_name(args)),
        &(render_json(&Value::Map(file)) + "\n"),
    )?;
    if let Some(tracer) = &outcome.tracer {
        eprintln!(
            "{:<28} {:>9} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for (span, time) in tracer.summary() {
            eprintln!(
                "{span:<28} {:>9} {:>12.3} {:>12.3}",
                time.count,
                time.total_ns as f64 / 1e6,
                time.self_ns as f64 / 1e6
            );
        }
        let name = format!("trace-{}-seed{}.json", args.workload.name(), args.seed);
        write_file(
            &args.out.join(name),
            &tracer.to_json(args.workload.name(), args.seed, MAX_TRACE_ROWS),
        )?;
    }
    Ok(render_json(&driver_line))
}

/// Span rows written to a trace file; the summary always covers every span.
const MAX_TRACE_ROWS: usize = 100_000;

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_floats_with_all_their_digits() {
        let tree = Value::Map(vec![
            ("x".to_owned(), Value::Float(1.2034567890123)),
            ("n".to_owned(), Value::UInt(7)),
        ]);
        let text = render_json(&tree);
        assert_eq!(text, r#"{"x":1.2034567890123,"n":7}"#);
        let back = parse_json(&text).unwrap();
        assert_eq!(number(back.get("x").unwrap()), Some(1.2034567890123));
        assert_eq!(number(back.get("n").unwrap()), Some(7.0));
        assert!(parse_json("{").is_err());
    }

    #[test]
    fn a_run_that_skipped_a_metric_is_refused() {
        let args = RunArgs {
            workload: Workload::Build,
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: true,
            out: std::env::temp_dir(),
        };
        let mut outcome = Outcome::default();
        outcome.values.set("ops_per_s", 1.0);
        let host = Host::detect();
        let error = finish(&args, &host, &outcome).unwrap_err();
        assert!(
            error.contains("setup_s") && !error.contains("\"ops_per_s\""),
            "{error}"
        );
    }
}
