//! Determinism test for the index build.
//!
//! `build_index` is a pure function of the graph and the configuration: a
//! second build of the same input, and builds of it run side by side on
//! several threads, must serialize to the same bytes and report the same
//! [`BuildStats`] counters as the first. This pins that on seeded random
//! graphs across ordering strategies, seeds, a scale-free graph with `k = 3`,
//! the lazy kernel-search strategy and the unpruned build.

use rlc::graph::generate::{barabasi_albert, erdos_renyi, SyntheticConfig};
use rlc::index::{build_index, BuildConfig, BuildStats, KbsStrategy, OrderingStrategy};
use rlc::prelude::*;
use std::thread;
use std::time::Duration;

/// Serialized index plus stats with the timing field zeroed.
fn fingerprint(graph: &LabeledGraph, config: &BuildConfig) -> (Vec<u8>, BuildStats) {
    let (index, stats) = build_index(graph, config);
    (
        index.to_bytes(),
        BuildStats {
            duration: Duration::ZERO,
            ..stats
        },
    )
}

/// Asserts that a repeated build on the calling thread and `workers` builds
/// run at once on scoped threads all match the first build exactly.
fn assert_deterministic_with(graph: &LabeledGraph, config: &BuildConfig, workers: usize) {
    let reference = fingerprint(graph, config);
    assert!(reference.1.inserted > 0, "nothing inserted ({config:?})");
    assert_eq!(
        fingerprint(graph, config),
        reference,
        "repeated build diverges ({config:?})"
    );
    let side_by_side: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| fingerprint(graph, config)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("build thread panicked"))
            .collect()
    });
    for (worker, result) in side_by_side.iter().enumerate() {
        assert_eq!(
            result.0, reference.0,
            "serialized index diverges on worker {worker} of {workers} ({config:?})"
        );
        assert_eq!(
            result.1, reference.1,
            "build stats diverge on worker {worker} of {workers} ({config:?})"
        );
    }
}

fn assert_deterministic(graph: &LabeledGraph, config: BuildConfig) {
    assert_deterministic_with(graph, &config, 2);
}

#[test]
fn parallel_build_matches_sequential_across_ordering_strategies() {
    let graph = erdos_renyi(&SyntheticConfig::new(600, 3.0, 4, 11));
    for ordering in [
        OrderingStrategy::InOutDegree,
        OrderingStrategy::VertexId,
        OrderingStrategy::Random(0xF00D),
    ] {
        assert_deterministic(&graph, BuildConfig::new(2).with_ordering(ordering));
    }
}

#[test]
fn parallel_build_matches_sequential_across_seeds() {
    for seed in [1u64, 7, 23] {
        let graph = erdos_renyi(&SyntheticConfig::new(400, 4.0, 3, seed));
        assert_deterministic(&graph, BuildConfig::new(2));
    }
}

#[test]
fn parallel_build_matches_sequential_on_scale_free_graph_with_k3() {
    // Hub-heavy degree distribution plus k = 3: deeper phase-1 enumeration
    // and more kernel-BFS phases per root.
    let graph = barabasi_albert(&SyntheticConfig::new(300, 3.0, 3, 5));
    assert_deterministic(&graph, BuildConfig::new(3));
}

#[test]
fn parallel_build_matches_sequential_under_lazy_strategy() {
    let graph = erdos_renyi(&SyntheticConfig::new(300, 3.0, 4, 9));
    assert_deterministic(&graph, BuildConfig::new(2).with_strategy(KbsStrategy::Lazy));
}

#[test]
fn parallel_build_matches_sequential_without_pruning() {
    // With PR1–PR3 disabled every root's search runs to its full depth, so
    // duplicate suppression and intern order alone decide the bytes.
    let graph = erdos_renyi(&SyntheticConfig::new(150, 2.5, 3, 13));
    assert_deterministic(&graph, BuildConfig::new(2).without_pruning());
}

#[test]
fn block_size_never_changes_the_result() {
    // How many builds share the machine at once leaves the index untouched.
    let graph = erdos_renyi(&SyntheticConfig::new(300, 3.0, 4, 17));
    for block_size in [1usize, 2, 4] {
        assert_deterministic_with(&graph, &BuildConfig::new(2), block_size);
    }
}

#[test]
fn parallel_build_produces_condensed_verified_index() {
    // Beyond determinism, the build satisfies the paper's own invariant
    // (Theorem 2: no redundant entries).
    let graph = erdos_renyi(&SyntheticConfig::new(200, 3.0, 4, 29));
    assert_deterministic(&graph, BuildConfig::new(2));
    let (index, stats) = build_index(&graph, &BuildConfig::new(2));
    assert!(stats.inserted > 0);
    assert!(index.is_condensed());
}
