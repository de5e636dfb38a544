//! Exhaustive oracle for concatenated constraints on every small graph.
//!
//! Every labelled digraph on three vertices over the labels `{a, b}` without
//! self loops (12 possible edges, 4 096 graphs) and every one on two
//! vertices with self loops allowed (8 possible edges, 256 graphs) is
//! indexed at `k = 2`. For every `(s, t)` and every constraint of one or two
//! blocks over `{a, b, ab, ba}`, plus a seeded sample of three-block
//! constraints, the `IndexEngine` answers — one-shot, prepared, and through
//! a `BatchPlan` — must equal a brute-force state-set BFS written here. The
//! reference shares no code with the crates: it walks the raw edge list
//! this file enumerated.
//!
//! The engine closes a concatenation from whichever end is cheaper, and on
//! graphs this small the label counts tip that choice both ways, so both
//! closure directions meet the oracle here.

use rlc::prelude::*;

/// The label sequences a block may be: `a`, `b`, `ab`, `ba`.
const BLOCKS: [&[u16]; 4] = [&[0], &[1], &[0, 1], &[1, 0]];

/// Three-block constraints sampled per graph.
const THREE_BLOCK_SAMPLES: usize = 3;

/// Deterministic sampler (splitmix64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z as u128 * bound as u128) >> 64) as usize
    }
}

/// Brute force: whether some path `s ⇝ t` spells `B1^i1 … Bm^im` with every
/// `ij ≥ 1`. A state is `(block, offset)` — the labels of the current
/// repetition of `blocks[block]` read so far — and the BFS runs over
/// `(vertex, state)` pairs along the raw edge list.
fn oracle(n: usize, edges: &[(u32, u16, u32)], s: u32, t: u32, blocks: &[&[u16]]) -> bool {
    // Blocks are at most two labels long: state `(block, offset)` is slot
    // `2 * block + offset` of a vertex's row.
    let mut seen = vec![false; n * 2 * blocks.len()];
    let mut stack = vec![(s, 0usize, 0usize)];
    seen[s as usize * 2 * blocks.len()] = true;
    while let Some((v, block, offset)) = stack.pop() {
        for &(from, label, to) in edges {
            if from != v || label != blocks[block][offset] {
                continue;
            }
            let mut visit = |block: usize, offset: usize| {
                let slot = to as usize * 2 * blocks.len() + 2 * block + offset;
                if !std::mem::replace(&mut seen[slot], true) {
                    stack.push((to, block, offset));
                }
            };
            if offset + 1 < blocks[block].len() {
                visit(block, offset + 1);
                continue;
            }
            // A repetition ends at `to`: accept after the last block, or
            // repeat the block, or start the next one.
            if block + 1 == blocks.len() && to == t {
                return true;
            }
            visit(block, 0);
            if block + 1 < blocks.len() {
                visit(block + 1, 0);
            }
        }
    }
    false
}

/// Checks one graph against the oracle under every constraint of the
/// protocol, through all three evaluation paths.
fn check_graph(n: usize, edges: &[(u32, u16, u32)], rng: &mut Rng) {
    let mut builder = GraphBuilder::with_capacity(n, 2);
    for &(s, l, t) in edges {
        builder.add_edge(s, Label(l), t);
    }
    let graph = builder.build();
    let (index, _) = build_index(&graph, &BuildConfig::new(2));
    let engine = IndexEngine::new(&graph, &index);

    let mut shapes: Vec<Vec<&[u16]>> = Vec::new();
    for &first in &BLOCKS {
        shapes.push(vec![first]);
        for &second in &BLOCKS {
            shapes.push(vec![first, second]);
        }
    }
    for _ in 0..THREE_BLOCK_SAMPLES {
        shapes.push((0..3).map(|_| BLOCKS[rng.below(BLOCKS.len())]).collect());
    }

    let mut queries = Vec::new();
    let mut expected = Vec::new();
    for shape in &shapes {
        let blocks: Vec<Vec<Label>> = shape
            .iter()
            .map(|block| block.iter().map(|&l| Label(l)).collect())
            .collect();
        let constraint = Constraint::new(blocks).unwrap();
        let prepared = engine.prepare(&constraint).unwrap();
        for s in 0..n as u32 {
            for t in 0..n as u32 {
                let truth = oracle(n, edges, s, t, shape);
                let query = Query::new(s, t, constraint.clone());
                let context = || format!("edges {edges:?}: ({s}, {t}) under {shape:?}");
                assert_eq!(
                    engine.evaluate(&query),
                    Ok(truth),
                    "one-shot, {}",
                    context()
                );
                assert_eq!(
                    engine.evaluate_prepared(s, t, &prepared),
                    Ok(truth),
                    "prepared, {}",
                    context()
                );
                queries.push(query);
                expected.push(Ok(truth));
            }
        }
    }
    assert_eq!(
        BatchPlan::new(&queries).execute(&engine),
        expected,
        "batch plan, edges {edges:?}"
    );
}

/// The graphs over `n` vertices whose edge sets are the subsets of `slots`
/// numbered by `masks` (bit `i` set: `slots[i]` is an edge).
fn check_graphs(n: usize, slots: &[(u32, u16, u32)], masks: std::ops::Range<u32>, seed: u64) {
    let mut rng = Rng(seed);
    for mask in masks {
        let edges: Vec<(u32, u16, u32)> = (0..slots.len())
            .filter(|bit| mask >> bit & 1 == 1)
            .map(|bit| slots[bit])
            .collect();
        check_graph(n, &edges, &mut rng);
    }
}

/// The `(source, label, target)` edges a graph on `n` vertices may have.
fn edge_slots(n: u32, self_loops: bool) -> Vec<(u32, u16, u32)> {
    let mut slots = Vec::new();
    for s in 0..n {
        for t in 0..n {
            if s != t || self_loops {
                slots.extend([(s, 0, t), (s, 1, t)]);
            }
        }
    }
    slots
}

// The 4 096 three-vertex graphs run as two tests, so the harness can check
// the halves on two threads.
#[test]
fn three_vertex_graphs_without_self_loops_first_half() {
    let slots = edge_slots(3, false);
    assert_eq!(slots.len(), 12);
    check_graphs(3, &slots, 0..2048, 3);
}

#[test]
fn three_vertex_graphs_without_self_loops_second_half() {
    check_graphs(3, &edge_slots(3, false), 2048..4096, 4);
}

#[test]
fn two_vertex_graphs_with_self_loops() {
    let slots = edge_slots(2, true);
    assert_eq!(slots.len(), 8);
    check_graphs(2, &slots, 0..256, 2);
}
