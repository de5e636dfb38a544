//! Determinism test for the index build.
//!
//! `build_index` is a pure function of the graph and the configuration: a
//! second build of the same input, and builds of it run side by side on
//! several threads, must serialize to the same bytes and report the same
//! [`BuildStats`] counters as the first. This pins that on seeded random
//! graphs across ordering strategies, seeds, a scale-free graph with `k = 3`,
//! the lazy kernel-search strategy and the unpruned build.
//!
//! Determinism alone cannot catch a rewrite of the builder that changes what
//! it decides, so a golden table also pins the `to_bytes()` digest and the
//! counters of a fixed set of builds to values recorded once.

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

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A graph with self loops on half its vertices, so kernel searches revisit
/// their own root.
fn self_loop_graph() -> LabeledGraph {
    let mut b = GraphBuilder::with_capacity(12, 2);
    for v in 0..12u32 {
        b.add_edge(v, Label((v % 2) as u16), (v + 1) % 12);
        b.add_edge(v, Label(((v / 3) % 2) as u16), (v * 5 + 2) % 12);
        if v % 2 == 0 {
            b.add_edge(v, Label(((v / 2) % 2) as u16), v);
        }
    }
    b.build()
}

/// A graph over 300 labels whose edges use label ids past 255, so a label
/// needs more than one byte.
fn wide_label_graph() -> LabeledGraph {
    let used = [0u16, 1, 255, 256, 299];
    let mut b = GraphBuilder::with_capacity(40, 300);
    for v in 0..40u32 {
        let pick = |j: u32| Label(used[((v + j) % used.len() as u32) as usize]);
        b.add_edge(v, pick(0), (v + 1) % 40);
        b.add_edge(v, pick(1), (v * 7 + 3) % 40);
        b.add_edge(v, pick(v % 2), (v * 13 + 5) % 40);
    }
    b.build()
}

/// Every case of the golden table: a name, the graph and the configuration.
fn golden_cases() -> Vec<(String, LabeledGraph, BuildConfig)> {
    let er = erdos_renyi(&SyntheticConfig::new(120, 2.5, 3, 1));
    let ba = barabasi_albert(&SyntheticConfig::new(120, 2.0, 3, 2));
    let small = erdos_renyi(&SyntheticConfig::new(40, 1.5, 3, 4));
    let mut cases = Vec::new();
    for (name, graph) in [("er", &er), ("ba", &ba)] {
        for k in 1..=4usize {
            for strategy in [KbsStrategy::Eager, KbsStrategy::Lazy] {
                // Lazy phase 1 runs to depth 2k; past k = 2 it runs on the
                // small graph below, which keeps the table quick.
                if strategy == KbsStrategy::Lazy && k > 2 {
                    continue;
                }
                let pruned = BuildConfig::new(k).with_strategy(strategy);
                for (tag, config) in [("pruned", pruned), ("unpruned", pruned.without_pruning())] {
                    cases.push((
                        format!("{name} k{k} {strategy:?} {tag}"),
                        graph.clone(),
                        config,
                    ));
                }
            }
        }
    }
    for k in 3..=4usize {
        let pruned = BuildConfig::new(k).with_strategy(KbsStrategy::Lazy);
        for (tag, config) in [("pruned", pruned), ("unpruned", pruned.without_pruning())] {
            cases.push((format!("small k{k} Lazy {tag}"), small.clone(), config));
        }
    }
    let orderings = [
        OrderingStrategy::InOutDegree,
        OrderingStrategy::OutDegree,
        OrderingStrategy::InDegree,
        OrderingStrategy::TotalDegree,
        OrderingStrategy::VertexId,
        OrderingStrategy::Random(0xBEEF),
    ];
    for ordering in orderings {
        let config = BuildConfig::new(2).with_ordering(ordering);
        cases.push((format!("er {ordering:?}"), er.clone(), config));
    }
    for (name, graph) in [
        ("self-loop", self_loop_graph()),
        ("wide", wide_label_graph()),
    ] {
        for k in 1..=3usize {
            for strategy in [KbsStrategy::Eager, KbsStrategy::Lazy] {
                let config = BuildConfig::new(k).with_strategy(strategy);
                cases.push((format!("{name} k{k} {strategy:?}"), graph.clone(), config));
            }
        }
        let unpruned = BuildConfig::new(2).without_pruning();
        cases.push((format!("{name} k2 unpruned"), graph, unpruned));
    }
    cases
}

/// One row of the golden table: `to_bytes()` digest, then the counters
/// kernel_searches, kernel_bfs_runs, insert_attempts, inserted, pruned_pr1,
/// pruned_pr2, duplicates, pr3_cutoffs.
type GoldenRow = (u64, [u64; 8]);

/// Recorded from the transcription of Algorithm 2 that predates the packed
/// label sequences, the MR-id table and the stamped PR1 probe; any rewrite of
/// the builder must reproduce every row.
const GOLDEN: &[(&str, GoldenRow)] = &[
    (
        "er k1 Eager pruned",
        (0xd73765c517d4b6ca, [240, 323, 1677, 298, 618, 761, 0, 891]),
    ),
    (
        "er k1 Eager unpruned",
        (0x0c54e2ef9a906d5b, [240, 323, 17174, 17174, 0, 0, 0, 0]),
    ),
    (
        "er k1 Lazy pruned",
        (
            0xd73765c517d4b6ca,
            [240, 222, 3293, 298, 1414, 1571, 10, 1611],
        ),
    ),
    (
        "er k1 Lazy unpruned",
        (0x0c54e2ef9a906d5b, [240, 222, 17578, 17174, 0, 0, 404, 394]),
    ),
    (
        "er k2 Eager pruned",
        (
            0xebc62bf4187d69d0,
            [240, 544, 4107, 653, 1471, 1973, 10, 1779],
        ),
    ),
    (
        "er k2 Eager unpruned",
        (0x00fc176713f883d8, [240, 544, 18472, 18068, 0, 0, 404, 394]),
    ),
    (
        "er k2 Lazy pruned",
        (
            0xebc62bf4187d69d0,
            [240, 314, 11450, 653, 5071, 5653, 73, 4131],
        ),
    ),
    (
        "er k2 Lazy unpruned",
        (
            0x00fc176713f883d8,
            [240, 314, 21076, 18068, 0, 0, 3008, 2226],
        ),
    ),
    (
        "er k3 Eager pruned",
        (
            0xb59007fb8ee8b405,
            [240, 1312, 10411, 1999, 3346, 5039, 27, 4009],
        ),
    ),
    (
        "er k3 Eager unpruned",
        (
            0x44480da47516e474,
            [240, 1312, 24198, 22920, 0, 0, 1278, 1166],
        ),
    ),
    (
        "er k4 Eager pruned",
        (
            0xb58c101a3546dc01,
            [240, 2681, 27838, 4113, 10198, 13454, 73, 11922],
        ),
    ),
    (
        "er k4 Eager unpruned",
        (
            0x728f10b9988ab762,
            [240, 2681, 50928, 47920, 0, 0, 3008, 2226],
        ),
    ),
    (
        "ba k1 Eager pruned",
        (0xcc8cf874d68d722b, [240, 269, 1758, 281, 634, 843, 0, 1152]),
    ),
    (
        "ba k1 Eager unpruned",
        (0xa0653a8ca99fea7d, [240, 269, 9048, 9048, 0, 0, 0, 0]),
    ),
    (
        "ba k1 Lazy pruned",
        (
            0xcc8cf874d68d722b,
            [240, 199, 3791, 281, 1598, 1869, 43, 2001],
        ),
    ),
    (
        "ba k1 Lazy unpruned",
        (0xa0653a8ca99fea7d, [240, 199, 9306, 9048, 0, 0, 258, 224]),
    ),
    (
        "ba k2 Eager pruned",
        (
            0x3aa26be2f159ce16,
            [240, 463, 5046, 693, 1816, 2494, 43, 2448],
        ),
    ),
    (
        "ba k2 Eager unpruned",
        (0x305d1c768b16aad3, [240, 463, 10630, 10372, 0, 0, 258, 224]),
    ),
    (
        "ba k2 Lazy pruned",
        (
            0x3aa26be2f159ce16,
            [240, 292, 11243, 693, 4747, 5588, 215, 1887],
        ),
    ),
    (
        "ba k2 Lazy unpruned",
        (
            0x305d1c768b16aad3,
            [240, 292, 14134, 10372, 0, 0, 3762, 1016],
        ),
    ),
    (
        "ba k3 Eager pruned",
        (
            0x22789341d32d662a,
            [240, 1138, 14106, 1613, 5437, 6960, 96, 5487],
        ),
    ),
    (
        "ba k3 Eager unpruned",
        (
            0xa1246625906feac9,
            [240, 1138, 20566, 19206, 0, 0, 1360, 822],
        ),
    ),
    (
        "ba k4 Eager pruned",
        (
            0xc014641fcf4d5a7f,
            [240, 2504, 34163, 4641, 12406, 16901, 215, 10380],
        ),
    ),
    (
        "ba k4 Eager unpruned",
        (
            0xc07a940e42c9b528,
            [240, 2504, 41440, 37678, 0, 0, 3762, 1016],
        ),
    ),
    (
        "small k3 Lazy pruned",
        (0xf8d17a29b833919f, [80, 41, 722, 154, 188, 350, 30, 42]),
    ),
    (
        "small k3 Lazy unpruned",
        (0xac662716b397edad, [80, 41, 844, 548, 0, 0, 296, 160]),
    ),
    (
        "small k4 Lazy pruned",
        (0x4747dc99d1ee2d1d, [80, 46, 992, 224, 241, 485, 42, 46]),
    ),
    (
        "small k4 Lazy unpruned",
        (0x4dd6319ba0f52fb7, [80, 46, 1112, 694, 0, 0, 418, 166]),
    ),
    (
        "er InOutDegree",
        (
            0xebc62bf4187d69d0,
            [240, 544, 4107, 653, 1471, 1973, 10, 1779],
        ),
    ),
    (
        "er OutDegree",
        (
            0x513ad1aa9c969005,
            [240, 544, 4120, 664, 1482, 1970, 4, 1774],
        ),
    ),
    (
        "er InDegree",
        (
            0xd48e93487902bcbb,
            [240, 544, 4120, 682, 1453, 1975, 10, 1762],
        ),
    ),
    (
        "er TotalDegree",
        (
            0x5bed64f1b28bf658,
            [240, 544, 4106, 655, 1469, 1972, 10, 1776],
        ),
    ),
    (
        "er VertexId",
        (
            0x198703030cd7c70d,
            [240, 544, 4327, 866, 1474, 1979, 8, 1786],
        ),
    ),
    (
        "er Random(48879)",
        (
            0xb6a6ad5c75ce0f0a,
            [240, 544, 4205, 761, 1464, 1975, 5, 1769],
        ),
    ),
    (
        "self-loop k1 Eager",
        (0x9b3e9446627b15e3, [24, 39, 103, 39, 28, 36, 0, 29]),
    ),
    (
        "self-loop k1 Lazy",
        (0x9b3e9446627b15e3, [24, 35, 166, 39, 42, 62, 23, 27]),
    ),
    (
        "self-loop k2 Eager",
        (0x1fa8982e3e7d6770, [24, 74, 355, 85, 109, 138, 23, 107]),
    ),
    (
        "self-loop k2 Lazy",
        (0x1fa8982e3e7d6770, [24, 74, 628, 85, 201, 255, 87, 113]),
    ),
    (
        "self-loop k3 Eager",
        (0x68af5fc7411af23e, [24, 179, 883, 249, 221, 363, 50, 231]),
    ),
    (
        "self-loop k3 Lazy",
        (0x68af5fc7411af23e, [24, 166, 1618, 249, 457, 685, 227, 174]),
    ),
    (
        "self-loop k2 unpruned",
        (0x69e394c537e8fef2, [24, 74, 546, 490, 0, 0, 56, 20]),
    ),
    (
        "wide k1 Eager",
        (0x4cf2b70dc41e9f12, [80, 176, 324, 143, 27, 154, 0, 62]),
    ),
    (
        "wide k1 Lazy",
        (0x4cf2b70dc41e9f12, [80, 68, 348, 143, 28, 166, 11, 24]),
    ),
    (
        "wide k2 Eager",
        (0x7346cb537baa61fc, [80, 472, 1166, 486, 131, 538, 11, 158]),
    ),
    (
        "wide k2 Lazy",
        (0x7346cb537baa61fc, [80, 144, 1377, 486, 186, 638, 67, 183]),
    ),
    (
        "wide k3 Eager",
        (
            0x49d4cc3d79abd47f,
            [80, 1700, 4206, 1623, 629, 1937, 17, 841],
        ),
    ),
    (
        "wide k3 Lazy",
        (
            0x49d4cc3d79abd47f,
            [80, 552, 5294, 1623, 1024, 2461, 186, 894],
        ),
    ),
    (
        "wide k2 unpruned",
        (0x7ff5c97643f3853c, [80, 472, 1328, 1304, 0, 0, 24, 24]),
    ),
];

#[test]
fn build_bytes_and_stats_match_the_recorded_digests() {
    let mut mismatches = Vec::new();
    let cases = golden_cases();
    assert_eq!(cases.len(), GOLDEN.len(), "one recorded row per case");
    for ((name, graph, config), &(golden_name, golden)) in cases.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "case order");
        let (bytes, stats) = fingerprint(graph, config);
        assert!(!stats.timed_out, "{name}: unbudgeted build timed out");
        let row: GoldenRow = (
            fnv1a(&bytes),
            [
                stats.kernel_searches,
                stats.kernel_bfs_runs,
                stats.insert_attempts,
                stats.inserted,
                stats.pruned_pr1,
                stats.pruned_pr2,
                stats.duplicates,
                stats.pr3_cutoffs,
            ],
        );
        if row != golden {
            mismatches.push(format!("{name}: got {row:x?}, recorded {golden:x?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
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
