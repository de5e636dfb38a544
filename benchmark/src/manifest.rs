//! `BENCHMARK.json`: generated from the metric and workload tables
//! (`run.sh manifest`), and read back by `run.sh describe`.

use crate::fixture::Workload;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{number, parse_json};
use serde::Value;

/// How long one run measures, in seconds: what the driver passes as
/// `--seconds`.
pub const RUN_SECONDS: u64 = 10;

fn quoted(text: &str) -> String {
    crate::report::render_json(&Value::Str(text.to_owned()))
}

/// The text of `BENCHMARK.json`.
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    quoted(w.name()),
                    quoted(w.why())
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.word()),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.word())
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

fn text_of<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// A readable account of what the `BENCHMARK.json` text holds.
pub fn describe(text: &str) -> Result<String, String> {
    let manifest = parse_json(text)?;
    let list = |key: &str| -> Result<&[Value], String> {
        manifest
            .get(key)
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("BENCHMARK.json has no list {key:?}"))
    };
    let words = |key: &str| -> Result<String, String> {
        Ok(list(key)?
            .iter()
            .filter_map(Value::as_str)
            .collect::<Vec<_>>()
            .join(" "))
    };
    let mut out = format!(
        "command      {}\npaths        {}\n",
        words("command")?,
        words("paths")?
    );
    let seconds = manifest.get("run_seconds").and_then(number).unwrap_or(0.0);
    out.push_str(&format!("run_seconds  {seconds}\n\nworkloads\n"));
    for workload in list("workloads")? {
        out.push_str(&format!(
            "  {:<13} {}\n",
            text_of(workload, "name"),
            text_of(workload, "why")
        ));
    }
    out.push_str("\nend-to-end metrics (every workload reports all of them)\n");
    for metric in list("end_to_end")? {
        out.push_str(&format!(
            "  {:<34} {:<6} {:<7} may worsen by {}\n",
            text_of(metric, "name"),
            text_of(metric, "unit"),
            text_of(metric, "better"),
            metric.get("bound").and_then(number).unwrap_or(0.0)
        ));
    }
    out.push_str("\nper-layer metrics (every traced run reports all of them)\n");
    for metric in list("per_layer")? {
        out.push_str(&format!(
            "  {:<34} {:<6} {}\n",
            text_of(metric, "name"),
            text_of(metric, "unit"),
            text_of(metric, "better")
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_is_valid_json_with_exactly_the_contract_keys() {
        let manifest = parse_json(&render()).expect("valid JSON");
        let keys: Vec<&str> = manifest
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            manifest.get("workloads").unwrap().as_seq().unwrap().len(),
            5
        );
        assert_eq!(
            manifest.get("end_to_end").unwrap().as_seq().unwrap().len(),
            END_TO_END.len()
        );
        assert_eq!(
            manifest.get("per_layer").unwrap().as_seq().unwrap().len(),
            PER_LAYER.len()
        );
        assert!(render().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            render(),
            "regenerate with `bash benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn describe_names_every_workload_and_metric() {
        let text = describe(&render()).unwrap();
        for workload in Workload::ALL {
            assert!(text.contains(workload.name()));
        }
        for metric in END_TO_END {
            assert!(text.contains(metric.name));
        }
        for metric in PER_LAYER {
            assert!(text.contains(metric.name));
        }
        assert!(describe("{}").is_err());
    }
}
