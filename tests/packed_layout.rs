//! Differential tests for the packed index layout (`RLC3`).
//!
//! On seeded random labelled digraphs small enough to enumerate — at most 8
//! vertices, 3 labels, `k ≤ 3` — every `(s, t, mr)` answer of the packed
//! index must equal a brute-force product BFS written here (it shares no
//! code with the crates: it walks the raw edge list this file generated),
//! under every ordering strategy, with pruning and without. The same cases
//! pin what the layout promises around the query: row views list only true
//! facts, a pruned build is condensed, and the blob is canonical.

use rlc::index::{build_index, BuildConfig, MrId, OrderingStrategy, RlcIndex};
use rlc::prelude::*;

/// Deterministic case generator (splitmix64).
struct CaseRng(u64);

impl CaseRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// One random case: its raw edge list (the oracle's only input) and the
/// graph built from it.
struct Case {
    n: usize,
    labels: u16,
    k: usize,
    edges: Vec<(u32, u16, u32)>,
    graph: LabeledGraph,
}

fn random_case(seed: u64) -> Case {
    let mut rng = CaseRng(seed);
    let n = 2 + rng.below(7) as usize;
    let labels = 1 + rng.below(3) as u16;
    let k = 1 + rng.below(3) as usize;
    let m = rng.below(3 * n as u64 + 1) as usize;
    let edges: Vec<(u32, u16, u32)> = (0..m)
        .map(|_| {
            (
                rng.below(n as u64) as u32,
                rng.below(labels as u64) as u16,
                rng.below(n as u64) as u32,
            )
        })
        .collect();
    let mut builder = GraphBuilder::with_capacity(n, labels as usize);
    for &(s, l, t) in &edges {
        builder.add_edge(s, Label(l), t);
    }
    Case {
        n,
        labels,
        k,
        edges,
        graph: builder.build(),
    }
}

/// Every label sequence of length 1..=k that is not a repetition of a
/// shorter sequence.
fn minimum_repeats(labels: u16, k: usize) -> Vec<Vec<u16>> {
    let mut all: Vec<Vec<u16>> = Vec::new();
    let mut level: Vec<Vec<u16>> = vec![Vec::new()];
    for _ in 0..k {
        level = level
            .iter()
            .flat_map(|seq| {
                (0..labels).map(move |l| {
                    let mut next = seq.clone();
                    next.push(l);
                    next
                })
            })
            .collect();
        all.extend(level.iter().cloned());
    }
    all.retain(|seq| {
        (1..seq.len())
            .filter(|period| seq.len() % period == 0)
            .all(|period| (period..seq.len()).any(|i| seq[i] != seq[i - period]))
    });
    all
}

/// Brute force: the vertices `t` with a path `s ⇝ t` whose label sequence
/// is `mr` repeated one or more times — a BFS over `(vertex, offset in mr)`
/// states along the raw edge list.
fn reachable(case: &Case, s: u32, mr: &[u16]) -> Vec<bool> {
    let len = mr.len();
    let mut seen = vec![false; case.n * len];
    let mut reached = vec![false; case.n];
    let mut queue = vec![(s, 0usize)];
    seen[s as usize * len] = true;
    while let Some((v, offset)) = queue.pop() {
        for &(from, label, to) in &case.edges {
            if from != v || label != mr[offset] {
                continue;
            }
            let next = (offset + 1) % len;
            // Before the visited check: a cycle back to `s` still closes a
            // repetition there.
            if next == 0 {
                reached[to as usize] = true;
            }
            if !std::mem::replace(&mut seen[to as usize * len + next], true) {
                queue.push((to, next));
            }
        }
    }
    reached
}

const ORDERINGS: [OrderingStrategy; 6] = [
    OrderingStrategy::InOutDegree,
    OrderingStrategy::OutDegree,
    OrderingStrategy::InDegree,
    OrderingStrategy::TotalDegree,
    OrderingStrategy::VertexId,
    OrderingStrategy::Random(0xC0FFEE),
];

/// The truth table of a case: per minimum repeat, per source, the reached
/// targets.
fn truth(case: &Case) -> Vec<(Vec<u16>, Vec<Vec<bool>>)> {
    minimum_repeats(case.labels, case.k)
        .into_iter()
        .map(|mr| {
            let rows = (0..case.n as u32)
                .map(|s| reachable(case, s, &mr))
                .collect();
            (mr, rows)
        })
        .collect()
}

fn assert_matches_truth(
    index: &RlcIndex,
    truth: &[(Vec<u16>, Vec<Vec<bool>>)],
    case: &Case,
    what: &str,
) {
    for (mr, rows) in truth {
        let labels: Vec<Label> = mr.iter().map(|&l| Label(l)).collect();
        let resolved: Option<MrId> = index.catalog().resolve(&labels);
        for s in 0..case.n as u32 {
            for t in 0..case.n as u32 {
                let expected = rows[s as usize][t as usize];
                // An MR absent from the catalog occurs on no path at all.
                let answer = resolved.is_some_and(|id| index.query_mr(s, t, id));
                assert_eq!(answer, expected, "{what}: ({s}, {t}, {mr:?}+)");
                if let Some(id) = resolved {
                    assert_eq!(
                        index.target_probe(t, id).reached_from(s),
                        expected,
                        "{what}: probe ({s}, {t}, {mr:?}+)"
                    );
                }
            }
        }
    }
    // Row views decode hub ranks back to vertices: every listed entry must
    // be a true fact about its owner and that hub.
    let fact = |s: u32, t: u32, id: MrId| {
        let mr: Vec<u16> = index.catalog().sequence(id).iter().map(|l| l.0).collect();
        let (_, rows) = truth
            .iter()
            .find(|(seq, _)| *seq == mr)
            .expect("catalog sequences are minimum repeats of length ≤ k");
        rows[s as usize][t as usize]
    };
    for v in 0..case.n as u32 {
        for entry in index.lout(v) {
            assert!(fact(v, entry.hub, entry.mr), "{what}: Lout({v}) {entry:?}");
        }
        for entry in index.lin(v) {
            assert!(fact(entry.hub, v, entry.mr), "{what}: Lin({v}) {entry:?}");
        }
    }
}

#[test]
fn packed_index_matches_brute_force_under_every_ordering_and_pruning_mode() {
    for seed in 0..60u64 {
        let case = random_case(seed);
        let truth = truth(&case);
        for ordering in ORDERINGS {
            let pruned = BuildConfig::new(case.k).with_ordering(ordering);
            for (config, condensed) in [(pruned, true), (pruned.without_pruning(), false)] {
                let what = format!("seed {seed}, {ordering:?}, pruning {condensed}");
                let (index, _) = build_index(&case.graph, &config);
                assert_matches_truth(&index, &truth, &case, &what);
                if condensed {
                    assert!(index.is_condensed(), "{what}: Theorem 2");
                }
                // The blob is canonical, and what it loads answers the same.
                let blob = index.to_bytes();
                let loaded = RlcIndex::from_bytes(&blob).expect("own blob loads");
                assert_eq!(loaded.to_bytes(), blob, "{what}: re-serialised bytes");
                assert_matches_truth(&loaded, &truth, &case, &format!("{what}, loaded"));
            }
        }
    }
}

#[test]
fn the_case_generator_covers_the_stated_space() {
    // The differential above is only as strong as its inputs: make sure the
    // seeds really reach the corners (k = 3, three labels, 8 vertices,
    // self-loops, an empty edge list).
    let cases: Vec<Case> = (0..60).map(random_case).collect();
    assert!(cases.iter().any(|c| c.k == 3 && c.labels == 3));
    assert!(cases.iter().any(|c| c.n == 8));
    assert!(cases.iter().any(|c| c.edges.iter().any(|e| e.0 == e.2)));
    assert!(cases.iter().all(|c| c.n <= 8 && c.labels <= 3 && c.k <= 3));
    assert_eq!(
        minimum_repeats(2, 2),
        vec![vec![0], vec![1], vec![0, 1], vec![1, 0]]
    );
}
