//! Experiment binary: runs every experiment of the paper in sequence and
//! prints all reports. Expect a long runtime at the default scale; pass
//! `--quick` for a smoke run.

use rlc_bench::experiments::{
    ablation, batch, batch_planner, fig3, fig4, fig5, fig6, fig7, plan_cache, serve_latency,
    shard_scaling, simd_vs_generic, table3, table4, table5,
};
use rlc_bench::CommonArgs;

fn main() {
    let args = CommonArgs::from_env();
    type ExperimentFn = fn(&CommonArgs) -> String;
    // The second column is the sidecar slug: with `--json`, each section
    // writes its own `BENCH_<slug>.json`, same as running its binary alone.
    let sections: Vec<(&str, &str, ExperimentFn)> = vec![
        ("Table III", "table3", table3::run),
        ("Table IV", "table4", table4::run),
        ("Fig. 3", "fig3", fig3::run),
        ("Fig. 4", "fig4", fig4::run),
        ("Fig. 5", "fig5", fig5::run),
        ("Fig. 6", "fig6", fig6::run),
        ("Fig. 7", "fig7", fig7::run),
        ("Table V", "table5", table5::run),
        (
            "Ablation A1",
            "ablation_pruning",
            ablation::run_pruning_default,
        ),
        (
            "Ablation A2",
            "ablation_strategy",
            ablation::run_strategy_default,
        ),
        ("Batch throughput", "batch_throughput", batch::run),
        ("Batch planner", "batch_planner", batch_planner::run),
        ("Plan cache", "plan_cache", plan_cache::run),
        ("Serve latency", "serve_latency", serve_latency::run),
        ("Shard scaling", "shard_scaling", shard_scaling::run),
        ("SIMD vs generic", "simd_vs_generic", simd_vs_generic::run),
    ];
    for (name, slug, run) in sections {
        eprintln!(">>> running {name}");
        rlc_bench::run_experiment(slug, &args, |args| format!("{}\n", run(args)));
    }
}
