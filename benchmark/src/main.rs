//! `bash benchmark/run.sh` builds and runs this binary; see `cli`.

fn main() {
    std::process::exit(rlc_benchmark::cli::main(std::env::args().skip(1).collect()));
}
