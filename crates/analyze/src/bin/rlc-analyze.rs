//! CLI for the workspace static analyzer.
//!
//! ```text
//! rlc-analyze check [--root <path>] [--json] [--stats]
//! rlc-analyze rules
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use rlc_analyze::rules::RULES;

const USAGE: &str = "usage: rlc-analyze <command> [options]

commands:
  check        analyze crates/, src/, tests/, examples/ under the root
  rules        print the rule catalog

options (check):
  --root <path>   workspace root to scan (default: current directory)
  --json          machine-readable output (schema version 3: dataflow
                  traces on findings)
  --stats         print a one-line summary even when the tree is clean
";

struct CheckArgs {
    root: PathBuf,
    json: bool,
    stats: bool,
}

fn parse_check_args(args: &[String]) -> Result<CheckArgs, String> {
    let mut parsed = CheckArgs {
        root: PathBuf::from("."),
        json: false,
        stats: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--stats" => parsed.stats = true,
            "--root" => match iter.next() {
                Some(path) => parsed.root = PathBuf::from(path),
                None => return Err("--root requires a path".to_owned()),
            },
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(parsed)
}

fn run_check(args: &[String]) -> ExitCode {
    let parsed = match parse_check_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("rlc-analyze: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match rlc_analyze::run_check(&parsed.root) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!(
                "rlc-analyze: failed to scan {}: {error}",
                parsed.root.display()
            );
            return ExitCode::from(2);
        }
    };
    if parsed.json {
        println!("{}", outcome.render_json());
    } else {
        print!("{}", outcome.render_human());
        if parsed.stats || !outcome.is_clean() {
            println!("{}", outcome.render_stats());
        }
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_rules() {
    for rule in RULES {
        let suppress = if rule.suppressible {
            "suppressible"
        } else {
            "not suppressible"
        };
        println!("{:<24} {} [{}]", rule.id, rule.summary, suppress);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
