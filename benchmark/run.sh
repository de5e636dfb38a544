#!/usr/bin/env bash
# The repo benchmark's entry point. Builds the benchmark package from source
# (it is a package of its own: the root workspace never sees it), then:
#
#   run.sh [run] --workload NAME|all --seed N [--seconds S] [--trace 0|1]
#                [--out DIR] [--quick]
#   run.sh compare A B     two directories of result files
#   run.sh describe        what BENCHMARK.json holds
#   run.sh manifest        BENCHMARK.json as generated from the metric tables
#
# One workload runs per process; `all` runs the five one after another.
# Standard output carries results only, the last line being the JSON object
# the driver reads; progress and the build go to standard error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build output goes where CARGO_TARGET_DIR says (the driver sets it, possibly
# relative to the directory it starts us in), else to benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Recorded in every result file. The binary spawns no process of its own.
RLC_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
RLC_BENCH_GIT_REV="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export RLC_BENCH_RUSTC RLC_BENCH_GIT_REV

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/rlc-benchmark"

case "${1:-}" in
    compare | manifest)
        exec "$bin" "$@"
        ;;
    describe)
        exec "$bin" describe "$root/BENCHMARK.json"
        ;;
    run)
        shift
        ;;
esac

# A run: find --workload and --out among the arguments.
workload=""
out=""
rest=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload)
            workload="${2:-}"
            shift 2 || { echo "--workload needs a value" >&2; exit 2; }
            ;;
        --out)
            out="${2:-}"
            shift 2 || { echo "--out needs a value" >&2; exit 2; }
            ;;
        *)
            rest+=("$1")
            shift
            ;;
    esac
done
[ -n "$out" ] || out="$here/out"

if [ "$workload" != "all" ]; then
    exec "$bin" --workload "$workload" --out "$out" "${rest[@]}"
fi
status=0
for name in build query-rlc query-concat shard serve; do
    "$bin" --workload "$name" --out "$out" "${rest[@]}" || status=$?
done
exit "$status"
