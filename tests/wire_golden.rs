//! Golden digests of the binary formats whose bytes no index build decides.
//!
//! `tests/build_determinism.rs` pins the `RLC3` bytes of 48 builds. This
//! file pins the other three formats on fixed seeded inputs — the `RLG1`
//! edge list of a synthetic and of a named graph, an `RSH1` manifest over
//! three hash shards and an `ETC1` closure — to values recorded once, so a
//! rewrite of an encoder or decoder cannot change a byte unnoticed.

use rlc::baselines::{EtcBuildConfig, EtcIndex};
use rlc::graph::examples::fig2_graph;
use rlc::graph::generate::{erdos_renyi, SyntheticConfig};
use rlc::graph::io::{from_binary_edge_list, to_binary_edge_list};
use rlc::prelude::*;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn er40() -> LabeledGraph {
    erdos_renyi(&SyntheticConfig::new(40, 3.0, 3, 7))
}

fn sharded(graph: &LabeledGraph) -> ShardedIndex {
    let config = ShardBuildConfig::new(2, 3).with_strategy(PartitionStrategy::Hash { seed: 5 });
    ShardedIndex::build(graph, &config)
        .expect("three shards over 40 vertices")
        .0
}

fn etc(graph: &LabeledGraph) -> Vec<u8> {
    EtcIndex::build(graph, &EtcBuildConfig::new(2))
        .try_to_bytes()
        .expect("ETC1 field widths")
}

#[test]
fn encoded_bytes_match_the_recorded_digests() {
    let graph = er40();
    let named = fig2_graph();
    let rlg1 = to_binary_edge_list(&graph);
    let rlg1_named = to_binary_edge_list(&named);
    let rsh1 = sharded(&graph).to_bytes();
    let got = [
        ("RLG1 er40", fnv1a(&rlg1)),
        ("RLG1 fig2", fnv1a(&rlg1_named)),
        ("RSH1 er40 3 hash shards", fnv1a(&rsh1)),
    ];
    let recorded = [
        ("RLG1 er40", 0x26cc_ad79_34e3_8411),
        ("RLG1 fig2", 0xa1e9_6a5d_0b84_8678),
        ("RSH1 er40 3 hash shards", 0x813e_24b7_4b2f_1e43),
    ];
    assert_eq!(got, recorded, "got {got:x?}");
    // Decoding and re-encoding changes nothing.
    assert_eq!(
        to_binary_edge_list(&from_binary_edge_list(&rlg1).unwrap()),
        rlg1
    );
    assert_eq!(
        to_binary_edge_list(&from_binary_edge_list(&rlg1_named).unwrap()),
        rlg1_named
    );
    assert_eq!(
        ShardedIndex::from_bytes(&rsh1, &graph).unwrap().to_bytes(),
        rsh1
    );
}

#[test]
fn equal_closures_serialize_to_equal_etc1_bytes() {
    // Each pair's minimum-repeat list fills in discovery order, and the
    // build walks its per-root frontier map in hash order; the bytes must
    // depend on neither, within a process or across processes.
    let graph = er40();
    let first = etc(&graph);
    for _ in 0..4 {
        assert_eq!(etc(&graph), first, "a rebuild changed the ETC1 bytes");
    }
    assert_eq!(
        fnv1a(&first),
        0x14f8_aa92_b619_cc45,
        "got {:x}",
        fnv1a(&first)
    );
    assert_eq!(
        EtcIndex::from_bytes(&first)
            .unwrap()
            .try_to_bytes()
            .unwrap(),
        first
    );
}
