//! Seeded mutation test over the four binary formats (`RLG1`, `RLC3`,
//! `ETC1`, `RSH1`).
//!
//! Each format's decoder treats its input as hostile. This test feeds it
//! thousands of mutants of a valid blob — bit flips, words overwritten
//! with `0`, `u64::MAX` or random values, truncations, spliced copies of a
//! slice and deletions — and holds each decoder to two rules: it never
//! panics, and whatever it accepts re-encodes to bytes that decode to the
//! same value (compared through a second encoding).

use rlc::baselines::{EtcBuildConfig, EtcIndex};
use rlc::graph::examples::fig2_graph;
use rlc::graph::generate::{erdos_renyi, SyntheticConfig};
use rlc::graph::io::{from_binary_edge_list, to_binary_edge_list};
use rlc::index::{build_index, BuildConfig};
use rlc::prelude::*;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per input blob.
const MUTANTS: usize = 3000;

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A byte position, half the time inside the header-heavy first 64
    /// bytes where the counts live.
    fn position(&mut self, len: usize) -> usize {
        if self.below(2) == 0 {
            self.below(len.min(64))
        } else {
            self.below(len)
        }
    }
}

/// One mutant of `blob` (non-empty) and the name of the operator used.
fn mutate(blob: &[u8], rng: &mut Rng) -> (Vec<u8>, &'static str) {
    let mut m = blob.to_vec();
    let op = match rng.below(6) {
        0 => {
            let at = rng.position(m.len());
            m[at] ^= 1 << rng.below(8);
            "bit flip"
        }
        1 | 2 => {
            let width = [1usize, 2, 4, 8][rng.below(4)];
            let value = match rng.below(3) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next(),
            };
            let at = rng.position(m.len()).min(m.len().saturating_sub(width));
            let end = (at + width).min(m.len());
            m[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
            "word overwrite"
        }
        3 => {
            m.truncate(rng.below(m.len()));
            "truncation"
        }
        4 => {
            let from = rng.below(m.len());
            let len = 1 + rng.below(16.min(m.len() - from));
            let copy = m[from..from + len].to_vec();
            let at = rng.position(m.len() + 1);
            m.splice(at..at, copy);
            "splice"
        }
        _ => {
            let from = rng.position(m.len());
            let len = 1 + rng.below(16.min(m.len() - from));
            m.drain(from..from + len);
            "deletion"
        }
    };
    (m, op)
}

/// Runs `MUTANTS` mutants of `blob` through `decode`; returns how many
/// decoded.
fn check<T, E: Display>(
    name: &str,
    seed: u64,
    blob: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    assert!(
        decode(blob).is_ok(),
        "{name}: the unmutated blob must decode"
    );
    let mut rng = Rng(seed);
    let mut decoded = 0;
    for i in 0..MUTANTS {
        let (mutant, op) = mutate(blob, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mutant)))
            .unwrap_or_else(|_| panic!("{name}: mutant {i} ({op}) panicked the decoder"));
        let Ok(value) = outcome else { continue };
        decoded += 1;
        let bytes = encode(&value);
        let again = decode(&bytes).unwrap_or_else(|e| {
            panic!("{name}: mutant {i} ({op}) decoded, but its re-encoding does not: {e}")
        });
        assert_eq!(
            encode(&again),
            bytes,
            "{name}: mutant {i} ({op}) re-encodes to bytes that decode to something else"
        );
    }
    decoded
}

fn er40() -> LabeledGraph {
    erdos_renyi(&SyntheticConfig::new(40, 3.0, 3, 7))
}

#[test]
fn rlg1_mutants_never_panic_and_round_trip() {
    for (seed, graph) in [(1, er40()), (2, fig2_graph())] {
        let decoded = check(
            "RLG1",
            seed,
            &to_binary_edge_list(&graph),
            from_binary_edge_list,
            to_binary_edge_list,
        );
        assert!(decoded > 0, "no RLG1 mutant decoded, so nothing re-encoded");
    }
}

#[test]
fn rlc3_mutants_never_panic_and_round_trip() {
    let (index, _) = build_index(&er40(), &BuildConfig::new(2));
    let decoded = check(
        "RLC3",
        3,
        &index.to_bytes(),
        RlcIndex::from_bytes,
        RlcIndex::to_bytes,
    );
    assert!(decoded > 0, "no RLC3 mutant decoded, so nothing re-encoded");
}

#[test]
fn etc1_mutants_never_panic_and_round_trip() {
    let etc = EtcIndex::build(&fig2_graph(), &EtcBuildConfig::new(2));
    let encode = |etc: &EtcIndex| etc.try_to_bytes().expect("ETC1 field widths");
    let decoded = check("ETC1", 4, &encode(&etc), EtcIndex::from_bytes, encode);
    assert!(decoded > 0, "no ETC1 mutant decoded, so nothing re-encoded");
}

#[test]
fn rsh1_mutants_never_panic_and_round_trip() {
    // Every shard blob carries a digest and the manifest is pinned to its
    // graph, so few mutants decode; the bar is that none panics.
    let graph = er40();
    let config = ShardBuildConfig::new(2, 3).with_strategy(PartitionStrategy::Hash { seed: 5 });
    let (sharded, _) = ShardedIndex::build(&graph, &config).expect("three shards over 40 vertices");
    check(
        "RSH1",
        5,
        &sharded.to_bytes(),
        |bytes| ShardedIndex::from_bytes(bytes, &graph),
        ShardedIndex::to_bytes,
    );
}
