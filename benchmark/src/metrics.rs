//! Every metric the benchmark reports, by name.
//!
//! These two tables are the single source of truth: `BENCHMARK.json` is
//! generated from them (`run.sh manifest`) and a test keeps the two equal.
//! Later issues refer to these names verbatim.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// The name, used verbatim everywhere.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// The name: `<layer>.<what>`, the layer being a module name.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The eight end-to-end metrics; every workload reports all of them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "par_ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "load_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes",
        unit: "B",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics; every traced run reports all of them, each measured
/// by timing calls into the layer's public functions over the workload's own
/// inputs, or read from the layer's public counters.
pub const PER_LAYER: &[PerLayer] = &[
    // graph
    layer("graph.generate_s", "s", Lower),
    layer("graph.partition_s", "s", Lower),
    layer("graph.cut_edge_ratio", "ratio", Lower),
    // kernel
    layer("kernel.union_words_per_s", "1/s", Higher),
    layer("kernel.intersect_words_per_s", "1/s", Higher),
    layer("kernel.for_each_set_per_s", "1/s", Higher),
    layer("kernel.test_and_set_per_s", "1/s", Higher),
    // build
    layer("build.seq_s", "s", Lower),
    layer("build.order_s", "s", Lower),
    layer("build.entries_per_s", "1/s", Higher),
    layer("build.par_s", "s", Lower),
    layer("build.par_speedup", "ratio", Higher),
    layer("build.kernel_searches", "count", Lower),
    layer("build.kernel_bfs_runs", "count", Lower),
    layer("build.insert_attempts", "count", Lower),
    layer("build.inserted", "count", Lower),
    layer("build.duplicates", "count", Lower),
    layer("build.pruned_pr1", "count", Lower),
    layer("build.pruned_pr2", "count", Lower),
    layer("build.pr3_cutoffs", "count", Lower),
    layer("build.useful_insert_ratio", "ratio", Higher),
    // index
    layer("index.query_mr_true_per_s", "1/s", Higher),
    layer("index.query_mr_false_per_s", "1/s", Higher),
    layer("index.probe_entries_per_query", "count", Lower),
    layer("index.time_share", "ratio", Lower),
    layer("index.entries", "count", Lower),
    layer("index.entries_per_vertex", "count", Lower),
    layer("index.memory_bytes", "B", Lower),
    layer("index.csr_bytes", "B", Lower),
    layer("index.blob_bytes", "B", Lower),
    layer("index.to_bytes_s", "s", Lower),
    layer("index.from_bytes_s", "s", Lower),
    // engine
    layer("engine.prepare_us", "us", Lower),
    layer("engine.evaluate_prepared_per_s", "1/s", Higher),
    // hybrid
    layer("hybrid.closure_per_s", "1/s", Higher),
    layer("hybrid.closure_vertices_mean", "count", Lower),
    layer("hybrid.prefix_frontier_per_s", "1/s", Higher),
    layer("hybrid.time_share", "ratio", Lower),
    // plan
    layer("plan.new_ns_per_query", "ns", Lower),
    layer("plan.groups_per_batch", "count", Lower),
    layer("plan.batch_vs_seq", "ratio", Higher),
    // cache
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.evictions", "count", Lower),
    layer("cache.coalesced", "count", Lower),
    layer("cache.stale_drops", "count", Lower),
    layer("cache.hit_ns", "ns", Lower),
    layer("cache.miss_us", "us", Lower),
    // baselines
    layer("baselines.bibfs_queries_per_s", "1/s", Higher),
    layer("baselines.index_vs_bibfs", "ratio", Higher),
    // shard
    layer("shard.build_s", "s", Lower),
    layer("shard.memory_bytes", "B", Lower),
    layer("shard.blob_bytes", "B", Lower),
    layer("shard.from_bytes_s", "s", Lower),
    layer("shard.cut_edges", "count", Lower),
    layer("shard.portals", "count", Lower),
    layer("shard.cross_query_ratio", "ratio", Lower),
    layer("shard.intra_queries_per_s", "1/s", Higher),
    layer("shard.cross_queries_per_s", "1/s", Higher),
    layer("shard.hops_per_query", "count", Lower),
    layer("shard.expander_calls_per_query", "count", Lower),
    layer("shard.expansions_per_query", "count", Lower),
    layer("shard.cut_crossings_per_query", "count", Lower),
    layer("shard.vs_unsharded", "ratio", Lower),
    // serve
    layer("serve.connect_p50_us", "us", Lower),
    layer("serve.first_byte_p50_us", "us", Lower),
    layer("serve.connections_per_request", "count", Lower),
    layer("serve.http_overhead_us", "us", Lower),
    layer("serve.queue_wait_mean_us", "us", Lower),
    layer("serve.parse_mean_us", "us", Lower),
    layer("serve.batch_window_mean_us", "us", Lower),
    layer("serve.execute_mean_us", "us", Lower),
    layer("serve.write_mean_us", "us", Lower),
    layer("serve.microbatch_size_mean", "count", Higher),
    layer("serve.shed_ratio", "ratio", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.rate250_tail_us", "us", Lower),
    layer("serve.rate500_tail_us", "us", Lower),
    layer("serve.rate1000_tail_us", "us", Lower),
    layer("serve.rate2000_tail_us", "us", Lower),
    layer("serve.max_rate_ok", "1/s", Higher),
    layer("serve.generator_late_p99_us", "us", Lower),
    layer("serve.batch64_requests_per_s", "1/s", Higher),
    layer("serve.reload_ms", "ms", Lower),
    layer("serve.reload_query_tail_us", "us", Lower),
    // obs
    layer("obs.registry_on_ratio", "ratio", Higher),
    // bench
    layer("bench.trace_overhead_ratio", "ratio", Higher),
    layer("bench.spans", "count", Lower),
    layer("bench.rounds", "count", Higher),
];

/// The unit of the metric called `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// Measured values by metric name. Setting a name the tables do not hold is
/// a bug in the benchmark and panics at once, not at report time.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Moves every value of `other` in.
    pub fn absorb(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// Names in `expected` that have no value yet.
    pub fn missing<'a>(&self, expected: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
        expected.filter(|name| !self.0.contains_key(name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let distinct: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a metric name is used twice");
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn values_reject_unknown_names_and_report_what_is_missing() {
        let mut values = Values::default();
        values.set("ops_per_s", 2.0);
        assert_eq!(values.get("ops_per_s"), Some(2.0));
        assert_eq!(
            values.missing(["ops_per_s", "load_s"].into_iter()),
            vec!["load_s"]
        );
        assert!(std::panic::catch_unwind(|| Values::default().set("nope", 1.0)).is_err());
    }
}
