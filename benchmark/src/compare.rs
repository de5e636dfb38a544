//! `run.sh compare A B`: two sets of untraced result files, workload by
//! workload and end-to-end metric by end-to-end metric.
//!
//! Each side is summarised by its median and quartiles. `B` is *worse* when
//! its median is worse than `A`'s by more than the metric's bound. Where the
//! run-to-run spread (quartile distance over median, on either side) is wider
//! than the bound the pair is *unresolved* rather than unchanged — unless the
//! two sides do not overlap at all, in which case the direction is plain.
//! Sets that did not measure the same thing are refused, not compared.

use crate::metrics::{Better, END_TO_END};
use crate::report::{number, parse_json};
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One untraced result file, as far as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload's name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// False for `--quick` runs.
    pub comparable: bool,
    /// What must be equal for two runs to have measured the same thing:
    /// input hash and sizes.
    pub inputs: String,
    /// Pinned threads and kernel lane.
    pub host: String,
    /// Operations attempted.
    pub attempted: f64,
    /// Operations failed.
    pub failed: f64,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// Reads one result file's text; `Ok(None)` for a traced run's file.
    pub fn parse(text: &str) -> Result<Option<RunResult>, String> {
        let file = parse_json(text)?;
        let field = |key: &str| file.get(key).ok_or_else(|| format!("no {key:?} field"));
        if field("trace")? == &Value::Bool(true) {
            return Ok(None);
        }
        let num = |key: &str| {
            field(key).and_then(|v| number(v).ok_or_else(|| format!("{key:?} is not a number")))
        };
        let inputs = field("inputs")?;
        let input = |key: &str| {
            inputs
                .get(key)
                .map(crate::report::render_json)
                .unwrap_or_default()
        };
        let host = field("host")?;
        let host_of = |key: &str| {
            host.get(key)
                .map(crate::report::render_json)
                .unwrap_or_default()
        };
        let metrics = field("metrics")?
            .as_map()
            .ok_or("\"metrics\" is not a map")?
            .iter()
            .filter_map(|(name, entry)| Some((name.clone(), number(entry.get("value")?)?)))
            .collect();
        Ok(Some(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_owned(),
            seed: num("seed")? as u64,
            comparable: field("comparable")? == &Value::Bool(true),
            inputs: [
                "inputs_hash",
                "instances",
                "vertices",
                "edges",
                "queries",
                "rounds_per_instance",
            ]
            .map(|key| format!("{key}={}", input(key)))
            .join(" "),
            host: format!(
                "pinned_threads={} kernel_lane={}",
                host_of("pinned_threads"),
                host_of("kernel_lane")
            ),
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics,
        }))
    }
}

/// Loads every untraced `result-*.json` in `dir`.
pub fn load_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir:?}: {e}"))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let mut set = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        if let Some(result) = RunResult::parse(&text).map_err(|e| format!("{path:?}: {e}"))? {
            set.push(result);
        }
    }
    if set.is_empty() {
        return Err(format!("{dir:?} holds no untraced result files"));
    }
    Ok(set)
}

/// How `B` stands against `A` on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `B`'s median is better by more than `A`'s own spread, or every run of
    /// `B` beats every run of `A`.
    Better,
    /// Within the bound, and the spread is narrow enough to say so.
    Same,
    /// `B`'s median is worse by more than the bound.
    Worse,
    /// The spread is wider than the bound and the sides overlap.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on `b` against `a` for a metric with this direction and bound.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    // Positive when B is worse, as a share of A's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (median_b - median_a) / median_a.abs().max(f64::MIN_POSITIVE);
    let worse_than = |x: f64, y: f64| sign * (x - y) > 0.0;
    let all_worse = b.iter().all(|&x| a.iter().all(|&y| worse_than(x, y)));
    let all_better = b.iter().all(|&x| a.iter().all(|&y| worse_than(y, x)));
    let spread_a = stats::spread(a).unwrap_or(0.0);
    let wide = spread_a.max(stats::spread(b).unwrap_or(0.0)) > bound;
    if worsening > bound {
        if wide && !all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if all_better && worsening < 0.0 {
        Verdict::Better
    } else if wide {
        Verdict::Unresolved
    } else if -worsening > spread_a && worsening < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison of two sets.
#[derive(Debug)]
pub struct Comparison {
    /// The table, one row per workload and end-to-end metric.
    pub text: String,
    /// Rows judged worse.
    pub worse: usize,
    /// Rows judged unresolved.
    pub unresolved: usize,
    /// Workloads on which `B` failed a larger share of operations than `A`.
    pub more_failures: Vec<String>,
}

impl Comparison {
    /// Whether `B` passes: nothing worse, no workload failing more.
    pub fn passes(&self) -> bool {
        self.worse == 0 && self.more_failures.is_empty()
    }
}

fn by_workload(set: &[RunResult]) -> BTreeMap<&str, Vec<&RunResult>> {
    let mut map: BTreeMap<&str, Vec<&RunResult>> = BTreeMap::new();
    for result in set {
        map.entry(&result.workload).or_default().push(result);
    }
    map
}

/// Compares set `b` against set `a`; `Err` when they did not measure the
/// same thing.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Result<Comparison, String> {
    if let Some(quick) = a.iter().chain(b).find(|r| !r.comparable) {
        return Err(format!(
            "{} seed {} is a --quick run: its sizes differ, it is not comparable",
            quick.workload, quick.seed
        ));
    }
    let hosts: std::collections::BTreeSet<&str> =
        a.iter().chain(b).map(|r| r.host.as_str()).collect();
    if hosts.len() > 1 {
        return Err(format!(
            "the runs differ in pinned threads or kernel lane: {hosts:?}"
        ));
    }
    let (sets_a, sets_b) = (by_workload(a), by_workload(b));
    if sets_a.keys().ne(sets_b.keys()) {
        return Err(format!(
            "the sets cover different workloads: {:?} against {:?}",
            sets_a.keys().collect::<Vec<_>>(),
            sets_b.keys().collect::<Vec<_>>()
        ));
    }
    let mut out = Comparison {
        text: format!(
            "{:<13} {:<15} {:>38} {:>38} {:>8} {:>6}  verdict\n",
            "workload", "metric", "A: q1 / median / q3", "B: q1 / median / q3", "B/A", "bound"
        ),
        worse: 0,
        unresolved: 0,
        more_failures: Vec::new(),
    };
    for (workload, runs_a) in &sets_a {
        let runs_b = &sets_b[workload];
        let inputs = |runs: &[&RunResult]| -> BTreeMap<u64, String> {
            runs.iter().map(|r| (r.seed, r.inputs.clone())).collect()
        };
        if inputs(runs_a) != inputs(runs_b) {
            return Err(format!(
                "{workload}: the sets differ in seeds, input hash, sizes or rounds:\n  A {:?}\n  B {:?}",
                inputs(runs_a),
                inputs(runs_b)
            ));
        }
        let failed_share = |runs: &[&RunResult]| {
            runs.iter().map(|r| r.failed).sum::<f64>()
                / runs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        if failed_share(runs_b) > failed_share(runs_a) {
            out.more_failures.push((*workload).to_owned());
        }
        for metric in END_TO_END {
            let values = |runs: &[&RunResult]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r.metrics.get(metric.name).copied().ok_or_else(|| {
                            format!("{workload} seed {} lacks {}", r.seed, metric.name)
                        })
                    })
                    .collect()
            };
            let (values_a, values_b) = (values(runs_a)?, values(runs_b)?);
            let verdict = verdict(&values_a, &values_b, metric.better, metric.bound);
            out.worse += usize::from(verdict == Verdict::Worse);
            out.unresolved += usize::from(verdict == Verdict::Unresolved);
            let summary = |v: &[f64]| {
                let [q1, q2, q3] = stats::quartiles(v).unwrap_or([v[0]; 3]);
                format!("{q1:>12.5e}/{q2:>12.5e}/{q3:>12.5e}")
            };
            out.text.push_str(&format!(
                "{workload:<13} {:<15} {:>38} {:>38} {:>8.4} {:>6}  {}\n",
                metric.name,
                summary(&values_a),
                summary(&values_b),
                stats::median(&values_b) / stats::median(&values_a),
                metric.bound,
                verdict.word()
            ));
        }
    }
    out.text.push_str(&format!(
        "B/A is B's median over A's median (base: A). worse {} unresolved {} workloads failing more {:?}\n",
        out.worse, out.unresolved, out.more_failures
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound, narrow spread: same.
        assert_eq!(
            verdict(&a, &[103.0, 104.0, 102.0, 103.5, 102.5], Lower, 0.10),
            Verdict::Same
        );
        // 20 % slower on a lower-is-better metric: worse.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], Lower, 0.10),
            Verdict::Worse
        );
        // The same numbers on a higher-is-better metric: better.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], Higher, 0.10),
            Verdict::Better
        );
        // 20 % lower throughput: worse.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], Higher, 0.10),
            Verdict::Worse
        );
        // A small gain beyond A's own spread: better.
        assert_eq!(
            verdict(&a, &[95.0, 95.5, 94.5, 95.2, 94.8], Lower, 0.10),
            Verdict::Better
        );
        // Identical sets: same.
        assert_eq!(verdict(&a, &a, Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_apart() {
        let noisy_a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let noisy_b = [105.0, 135.0, 85.0, 125.0, 95.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Lower, 0.10),
            Verdict::Unresolved
        );
        // Median 25 % worse but overlapping: still unresolved, not worse.
        let shifted = [125.0, 160.0, 95.0, 150.0, 110.0];
        assert_eq!(
            verdict(&noisy_a, &shifted, Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B worse than every run of A: worse, however noisy.
        let apart = [200.0, 260.0, 160.0, 240.0, 180.0];
        assert_eq!(verdict(&noisy_a, &apart, Lower, 0.10), Verdict::Worse);
        // Every run of B better than every run of A: better, however noisy.
        let ahead = [50.0, 65.0, 40.0, 60.0, 45.0];
        assert_eq!(verdict(&noisy_a, &ahead, Lower, 0.10), Verdict::Better);
    }

    fn result(workload: &str, seed: u64, scale: f64, failed: f64) -> RunResult {
        RunResult {
            workload: workload.to_owned(),
            seed,
            comparable: true,
            inputs: format!("inputs_hash=\"{seed:x}\""),
            host: "pinned_threads=2 kernel_lane=\"avx2\"".to_owned(),
            attempted: 100.0,
            failed,
            metrics: END_TO_END
                .iter()
                .map(|m| (m.name.to_owned(), scale * (100.0 + seed as f64 * 0.1)))
                .collect(),
        }
    }

    #[test]
    fn equal_sets_pass_and_a_slowdown_or_a_failure_does_not() {
        let a: Vec<RunResult> = (1..=5).map(|s| result("build", s, 1.0, 0.0)).collect();
        let same = compare(&a, &a).unwrap();
        assert!(same.passes() && same.unresolved == 0, "{}", same.text);
        assert_eq!(same.text.lines().count(), 2 + END_TO_END.len());

        // Everything 30 % larger: the lower-is-better metrics are worse.
        let slow: Vec<RunResult> = (1..=5).map(|s| result("build", s, 1.3, 0.0)).collect();
        let slower = compare(&a, &slow).unwrap();
        let lower = END_TO_END.iter().filter(|m| m.better == Lower).count();
        assert_eq!(slower.worse, lower);
        assert!(!slower.passes());

        let failing: Vec<RunResult> = (1..=5).map(|s| result("build", s, 1.0, 1.0)).collect();
        let failed = compare(&a, &failing).unwrap();
        assert_eq!(failed.more_failures, vec!["build".to_owned()]);
        assert!(!failed.passes());
    }

    #[test]
    fn sets_that_measured_different_things_are_refused() {
        let a: Vec<RunResult> = (1..=5).map(|s| result("build", s, 1.0, 0.0)).collect();
        let other_seeds: Vec<RunResult> = (2..=6).map(|s| result("build", s, 1.0, 0.0)).collect();
        assert!(compare(&a, &other_seeds).unwrap_err().contains("seeds"));
        let mut other_inputs = a.clone();
        other_inputs[0].inputs = "inputs_hash=\"beef\"".to_owned();
        assert!(compare(&a, &other_inputs)
            .unwrap_err()
            .contains("input hash"));
        let mut other_host = a.clone();
        other_host[0].host = "pinned_threads=4 kernel_lane=\"avx2\"".to_owned();
        assert!(compare(&a, &other_host)
            .unwrap_err()
            .contains("pinned threads"));
        let mut quick = a.clone();
        quick[0].comparable = false;
        assert!(compare(&a, &quick).unwrap_err().contains("--quick"));
        let other_workload: Vec<RunResult> =
            (1..=5).map(|s| result("serve", s, 1.0, 0.0)).collect();
        assert!(compare(&a, &other_workload)
            .unwrap_err()
            .contains("different workloads"));
    }

    #[test]
    fn result_files_parse_and_traced_files_are_skipped() {
        let text = r#"{"schema":1,"workload":"build","seed":3,"seconds":10,"trace":false,"comparable":true,
            "host":{"nproc":2,"pinned_threads":2,"kernel_lane":"avx2","rustc":"r","git_rev":"g"},
            "inputs":{"inputs_hash":"00ab","instances":3,"vertices":10,"edges":40,"queries":5,"rounds_per_instance":3},
            "correct":true,"attempted":9,"failed":0,
            "metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#;
        let parsed = RunResult::parse(text).unwrap().unwrap();
        assert_eq!(
            (parsed.workload.as_str(), parsed.seed, parsed.comparable),
            ("build", 3, true)
        );
        assert_eq!(parsed.metrics["setup_s"], 1.5);
        assert!(
            parsed.inputs.contains("inputs_hash=\"00ab\"")
                && parsed.inputs.contains("rounds_per_instance=3")
        );
        assert_eq!(parsed.host, "pinned_threads=2 kernel_lane=\"avx2\"");
        assert_eq!(
            RunResult::parse(&text.replace("\"trace\":false", "\"trace\":true")).unwrap(),
            None
        );
        assert!(RunResult::parse("{}").is_err());
    }
}
