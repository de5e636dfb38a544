//! The command line behind `run.sh`.
//!
//! ```text
//! [run] --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR] [--quick]
//! compare A B        two directories of result files
//! describe PATH      what the BENCHMARK.json at PATH holds
//! manifest           print BENCHMARK.json as generated from the tables
//! ```
//!
//! `run.sh` adds the build, `--workload all` (one process per workload) and
//! the default paths.

use crate::compare;
use crate::fixture::Workload;
use crate::host::Host;
use crate::manifest;
use crate::report::{self, RunArgs};
use crate::workloads;
use std::path::{Path, PathBuf};

/// Seconds of timed work per workload when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: run.sh [run] --workload build|query-rlc|query-concat|shard|serve|all --seed N \
[--seconds S] [--trace 0|1] [--out DIR] [--quick]\n       run.sh compare A B\n       run.sh describe\n       run.sh manifest";

/// Exit codes: 0 done and correct, 1 a wrong answer or a regression,
/// 2 bad usage or an unusable file.
pub fn main(args: Vec<String>) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("describe") => describe_command(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest::render());
            Ok(0)
        }
        Some("run") => run_command(&args[1..]),
        _ => run_command(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        2
    })
}

/// Parses the arguments of a run.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: Workload::Build,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    parsed.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(parsed)
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let args = parse_run(args)?;
    let host = Host::detect();
    eprintln!(
        "{} seed {} seconds {} trace {} quick {}: {} threads pinned of {}, kernel lane {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        host.pinned,
        host.nproc,
        host.kernel_lane
    );
    let outcome = workloads::run(&args, &host);
    let line = report::finish(&args, &host, &outcome)?;
    // The driver reads the last line of standard output.
    println!("{line}");
    Ok(i32::from(outcome.failed > 0))
}

fn compare_command(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two directories\n{USAGE}"));
    };
    let (set_a, set_b) = (
        compare::load_set(Path::new(a))?,
        compare::load_set(Path::new(b))?,
    );
    let comparison = compare::compare(&set_a, &set_b)?;
    print!("{}", comparison.text);
    Ok(i32::from(!comparison.passes()))
}

fn describe_command(args: &[String]) -> Result<i32, String> {
    let [path] = args else {
        return Err(format!(
            "describe takes the path of BENCHMARK.json\n{USAGE}"
        ));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    print!("{}", manifest::describe(&text)?);
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let args = parse_run(&strings(&[
            "--workload",
            "query-rlc",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (
                args.workload,
                args.seed,
                args.seconds,
                args.trace,
                args.quick
            ),
            (Workload::QueryRlc, 42, 10.0, true, false)
        );
        let defaults = parse_run(&strings(&["--workload", "serve", "--quick"])).unwrap();
        assert_eq!(
            (
                defaults.seed,
                defaults.seconds,
                defaults.trace,
                defaults.quick
            ),
            (1, 20.0, false, true)
        );
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "build", "--trace", "2"],
            &["--workload", "build", "--seconds", "0"],
            &["--workload", "build", "--seed"],
            &["--workload", "build", "--frobnicate", "1"],
        ] {
            assert!(parse_run(&strings(bad)).is_err(), "{bad:?}");
        }
        assert_eq!(main(strings(&["compare", "only-one"])), 2);
        assert_eq!(main(strings(&["describe"])), 2);
    }
}
