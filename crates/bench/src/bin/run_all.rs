//! The experiment binary: `run_all [experiment] [options]` regenerates one
//! table, figure or ablation of the paper by name, or all of them in order
//! when no name is given. Expect a long runtime at the default scale; pass
//! `--quick` (and a small `--scale`) for a smoke run. A bad name or option
//! exits 2 with the usage line.

use rlc_bench::cli::parse_command_line;
use rlc_bench::experiments::{Experiment, ALL};

fn main() {
    let (name, args) = match parse_command_line(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => usage_error(&message),
    };
    let selected: &[Experiment] = match name.as_deref() {
        None => &ALL,
        Some(name) => match ALL.iter().find(|(known, _)| *known == name) {
            Some(experiment) => std::slice::from_ref(experiment),
            None => usage_error(&format!("unknown experiment {name:?}")),
        },
    };
    for (name, run) in selected {
        eprintln!(">>> running {name}");
        println!("{}", run(&args));
    }
}

fn usage_error(message: &str) -> ! {
    let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    eprintln!("{message}");
    eprintln!(
        "usage: run_all [{}] [--scale <f>] [--seed <n>] [--queries <n>] [--quick]",
        names.join("|")
    );
    std::process::exit(2);
}
