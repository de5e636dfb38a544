//! The five workloads, their sizes, and the inputs each is set up from.

use crate::gen::{self, EdgeList, QuerySet, QuerySpec, Weighted};
use crate::oracle::Adjacency;
use crate::rng::{Fnv, Rng, Zipf};
use rlc_core::{build_index, BuildConfig, BuildStats, Query, RlcIndex};
use rlc_graph::LabeledGraph;
use std::sync::Arc;
use std::time::Instant;

/// Labels per graph; Zipf(2) over them, as in the paper's synthetic graphs.
pub const LABELS: usize = 8;
/// Average out-degree of every generated graph.
pub const DEGREE: usize = 4;
/// The recursive `k` every index is built with (the paper's default).
pub const K: usize = 2;
/// Queries per workload checked against the brute-force oracle.
pub const ORACLE_SAMPLE: usize = 2_000;
/// Queries per `BatchPlan` on every parallel path.
pub const BATCH: usize = 4_096;
/// Shards of the sharded index (`ShardBuildConfig::new(K, SHARDS)`).
pub const SHARDS: usize = 4;

/// RNG streams of one benchmark seed that this module owns (`gen` owns 1-3).
mod stream {
    pub const QUERIES: u64 = 10;
    pub const HOT: u64 = 11;
    pub const ORACLE: u64 = 12;
    pub const PROBE_RLC: u64 = 13;
    pub const PROBE_CONCAT: u64 = 14;
}

/// One of the five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The write side: `build_index`, `to_bytes`, `from_bytes`.
    Build,
    /// Single-block queries through `IndexEngine`: the paper's Fig. 3.
    QueryRlc,
    /// Concatenated queries through `HybridEngine` and a thrashing cache.
    QueryConcat,
    /// Queries through `ShardedEngine` over a graph with planted locality.
    Shard,
    /// `POST /query` over loopback TCP.
    Serve,
}

impl Workload {
    /// All five, in the order `--workload all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::Build,
        Workload::QueryRlc,
        Workload::QueryConcat,
        Workload::Shard,
        Workload::Serve,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::QueryRlc => "query-rlc",
            Workload::QueryConcat => "query-concat",
            Workload::Shard => "shard",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Build => "write side: ordering, kernel searches and pruning do all the work; plan, cache, hybrid, shard and serve do none, so a layout that speeds reads but slows build or load shows here",
            Workload::QueryRlc => "the paper's Fig. 3 protocol: the Lout/Lin merge-join is nearly the whole cost and the plan cache always hits; hybrid, kernel, shard and serve idle",
            Workload::QueryConcat => "repetition closures and the kernel dominate, the index does little, and the cache working set exceeds capacity: the opposite cache regime from query-rlc",
            Workload::Shard => "stitcher, ReachExpander and portal sets do the work on a planted-partition graph whose locality a partitioner could find; ER has none",
            Workload::Serve => "request in to bytes out over loopback TCP: parse, queue, batch window and write are the whole cost, so keep-alive, a persistent pool and the reload pause show only here",
        }
    }

    /// Rounds per second of `--seconds`, frozen from the reference host so
    /// that the timed section lasts about `--seconds` there while the number
    /// of operations stays an exact function of the arguments.
    fn rounds_per_second(self) -> f64 {
        match self {
            Workload::Build => 0.7,
            Workload::QueryRlc => 4.0,
            Workload::QueryConcat => 1.9,
            Workload::Shard => 0.7,
            Workload::Serve => 0.7,
        }
    }

    /// The highest percentile `op_tail_us` may be. On the reference host p99
    /// repeated within its bound only on `query-concat` (where it is the
    /// closure-running tenth of the operations; p95 sits on the edge between
    /// the two modes and does not repeat). Elsewhere the virtual machine's
    /// speed shifts by ±15 % on a scale of seconds and one slow stretch moves
    /// the hundredth part of a pool far more than its twentieth, so the rule
    /// is stepped down once, to p95.
    pub fn tail_cap(self) -> f64 {
        match self {
            Workload::QueryConcat => 0.99,
            _ => 0.95,
        }
    }

    /// Timed rounds for a run of `seconds`: never fewer than seven.
    pub fn rounds(self, seconds: f64, quick: bool) -> usize {
        if quick {
            return 3;
        }
        ((seconds * self.rounds_per_second()).round() as usize).max(7)
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Vertices of the generated graph.
    pub vertices: usize,
    /// Operations in the fixed list one pass runs.
    pub ops: usize,
}

impl Sizes {
    /// The frozen sizes of `workload`; `quick` gives the smoke-test tier,
    /// whose results are marked not comparable.
    pub fn of(workload: Workload, quick: bool) -> Sizes {
        let (vertices, ops) = match (workload, quick) {
            (Workload::Build, false) => (6_000, 1),
            (Workload::Build, true) => (1_000, 1),
            (Workload::QueryRlc, false) => (60_000, 250_000),
            (Workload::QueryRlc, true) => (4_000, 20_000),
            (Workload::QueryConcat, false) => (10_000, 12_000),
            (Workload::QueryConcat, true) => (1_500, 1_200),
            (Workload::Shard, false) => (20_000, 480),
            (Workload::Shard, true) => (3_200, 120),
            (Workload::Serve, false) => (20_000, 4_096),
            (Workload::Serve, true) => (2_000, 256),
        };
        Sizes { vertices, ops }
    }
}

/// Communities of the planted-partition graph.
pub const COMMUNITIES: usize = 16;
/// Share of its edges that stay inside a community.
pub const INTRA: f64 = 0.9;
/// Hot source vertices of the concatenation workload, and their share.
pub const HOT_VERTICES: usize = 100;
/// Share of concatenation queries whose source is hot.
pub const HOT_SHARE: f64 = 0.8;

/// Everything a workload is set up from: the seeded graph, the reference
/// (sequential, unsharded) index over it, and the operation list with what
/// is known of each answer.
pub struct Fixture {
    /// The benchmark seed.
    pub seed: u64,
    /// The raw edges.
    pub edges: EdgeList,
    /// The oracle's view of them.
    pub adjacency: Adjacency,
    /// The `graph` layer's view of them.
    pub graph: Arc<LabeledGraph>,
    /// The reference index: `build_index(BuildConfig::new(K))`.
    pub index: RlcIndex,
    /// Its build statistics.
    pub build_stats: BuildStats,
    /// The operation list (for `build`: the queries its indexes are checked on).
    pub queries: QuerySet,
    /// Hash of the edges and queries.
    pub inputs_hash: u64,
    /// Seconds spent generating edges and handing them to the graph layer.
    pub generate_s: f64,
    /// Seconds of the reference build.
    pub build_s: f64,
    /// Queries whose truth the oracle supplied.
    pub oracle_checked: usize,
}

/// A single-block constraint, drawn the way a random walk spells one.
fn rlc_constraint(blocks: &Weighted<Vec<u16>>) -> impl Fn(&mut Rng) -> Vec<Vec<u16>> + '_ {
    move |rng| vec![blocks.sample(rng).clone()]
}

/// Which quarter of the id space `v` is in — what a contiguous four-way
/// partition keeps together.
fn quarter(v: u32, vertices: usize) -> usize {
    (v as usize * SHARDS / vertices).min(SHARDS - 1)
}

impl Fixture {
    /// Generates the inputs of `workload` from `seed`, builds the reference
    /// index and asks the oracle about a sample of the queries.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Fixture {
        let sizes = Sizes::of(workload, quick);
        let n = sizes.vertices;
        let started = Instant::now();
        let edges = match workload {
            Workload::Build => gen::barabasi_albert(n, DEGREE, LABELS, seed),
            Workload::Shard => {
                gen::planted_partition(n, COMMUNITIES, DEGREE, INTRA, LABELS, seed).0
            }
            _ => gen::erdos_renyi(n, DEGREE, LABELS, seed),
        };
        let graph = Arc::new(edges.to_graph());
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let (index, build_stats) = build_index(&graph, &BuildConfig::new(K));
        let build_s = started.elapsed().as_secs_f64();

        let adjacency = Adjacency::new(&edges);
        let mut rng = Rng::new(seed, stream::QUERIES);
        let mut queries = match workload {
            Workload::Build => rlc_queries(&adjacency, ORACLE_SAMPLE, false, &mut rng),
            Workload::QueryRlc => rlc_queries(&adjacency, sizes.ops, false, &mut rng),
            Workload::Serve => rlc_queries(&adjacency, sizes.ops, true, &mut rng),
            Workload::QueryConcat => concat_queries(&adjacency, sizes.ops, seed, &mut rng),
            Workload::Shard => shard_queries(&adjacency, sizes.ops, &mut rng),
        };
        let oracle_checked = oracle_sample(&adjacency, &mut queries, seed);

        let mut hash = Fnv::default();
        edges.hash_into(&mut hash);
        queries.hash_into(&mut hash);
        Fixture {
            seed,
            edges,
            adjacency,
            graph,
            index,
            build_stats,
            queries,
            inputs_hash: hash.finish(),
            generate_s,
            build_s,
            oracle_checked,
        }
    }

    /// Single-block probe queries over this fixture's graph, for the layer
    /// probes of the traced run; oracle truth on every one.
    pub fn probe_rlc(&self, count: usize) -> QuerySet {
        let mut rng = Rng::new(self.seed, stream::PROBE_RLC);
        let mut set = rlc_queries(&self.adjacency, count, false, &mut rng);
        oracle_all(&self.adjacency, &mut set);
        set
    }

    /// Concatenated probe queries over this fixture's graph, likewise.
    pub fn probe_concat(&self, count: usize) -> QuerySet {
        let mut rng = Rng::new(self.seed, stream::PROBE_CONCAT);
        let mut set = concat_queries(&self.adjacency, count, self.seed, &mut rng);
        oracle_all(&self.adjacency, &mut set);
        set
    }
}

/// `count` single-block queries: half witness walks, half uniform pairs, at
/// most 64 distinct constraints (every minimum repeat of one or two of the
/// eight labels).
fn rlc_queries(graph: &Adjacency, count: usize, distinct: bool, rng: &mut Rng) -> QuerySet {
    let blocks = Weighted::new(gen::weighted_blocks(LABELS));
    let constraint = rlc_constraint(&blocks);
    let n = graph.vertices();
    gen::queries(
        graph,
        &QuerySpec {
            count,
            witness_share: 0.5,
            constraint: &constraint,
            source: &|rng| rng.below(n) as u32,
            accept: &|_, _, _| true,
            distinct,
        },
        rng,
    )
}

/// `count` two- and three-block queries: Zipf(1) popularity over the whole
/// [`gen::Universe`], [`HOT_SHARE`] of the sources among [`HOT_VERTICES`] hot
/// vertices, half of them witness walks where the constraint can be walked.
fn concat_queries(graph: &Adjacency, count: usize, seed: u64, rng: &mut Rng) -> QuerySet {
    let universe = gen::Universe::new(LABELS);
    let popularity = Zipf::new(universe.len(), 1.0);
    let n = graph.vertices();
    let mut hot_rng = Rng::new(seed, stream::HOT);
    let hot: Vec<u32> = (0..HOT_VERTICES).map(|_| hot_rng.below(n) as u32).collect();
    gen::queries(
        graph,
        &QuerySpec {
            count,
            witness_share: 0.5,
            constraint: &|rng| universe.constraint(popularity.sample(rng)),
            source: &|rng| {
                if rng.chance(HOT_SHARE) {
                    hot[rng.below(hot.len())]
                } else {
                    rng.below(n) as u32
                }
            },
            accept: &|_, _, _| true,
            distinct: false,
        },
        rng,
    )
}

/// `count` queries for the sharded engine: two thirds single-block, one
/// third two-block, half witness walks; every other query keeps both
/// endpoints in one quarter of the id space and the rest span two, so about
/// half cross a contiguous four-way partition.
fn shard_queries(graph: &Adjacency, count: usize, rng: &mut Rng) -> QuerySet {
    let blocks = Weighted::new(gen::weighted_blocks(LABELS));
    let n = graph.vertices();
    let spec = |count: usize, constraint: &dyn Fn(&mut Rng) -> Vec<Vec<u16>>, rng: &mut Rng| {
        gen::queries(
            graph,
            &QuerySpec {
                count,
                witness_share: 0.5,
                constraint,
                source: &|rng| rng.below(n) as u32,
                accept: &|i, s, t| (i % 2 == 0) == (quarter(s, n) == quarter(t, n)),
                distinct: false,
            },
            rng,
        )
    };
    let single = count * 2 / 3;
    let one_block = rlc_constraint(&blocks);
    let mut set = spec(single, &one_block, rng);
    set.extend(spec(
        count - single,
        &|rng| vec![blocks.sample(rng).clone(), blocks.sample(rng).clone()],
        rng,
    ));
    set.shuffle(rng);
    set
}

/// Plain label ids of a query's blocks, as the oracle takes them.
pub fn raw_blocks(query: &Query) -> Vec<Vec<u16>> {
    query
        .constraint()
        .blocks()
        .iter()
        .map(|block| block.iter().map(|l| l.0).collect())
        .collect()
}

fn oracle_truth(graph: &Adjacency, set: &mut QuerySet, i: usize) {
    let query = &set.queries[i];
    let truth = graph.reaches(query.source, query.target, &raw_blocks(query));
    assert!(
        set.truth[i] != Some(true) || truth,
        "a witness walk the oracle denies: the generator and the oracle disagree on {query:?}"
    );
    set.truth[i] = Some(truth);
}

/// Asks the oracle about a seeded sample of [`ORACLE_SAMPLE`] queries (all
/// of them when the list is shorter); returns how many it answered.
fn oracle_sample(graph: &Adjacency, set: &mut QuerySet, seed: u64) -> usize {
    let mut order: Vec<usize> = (0..set.queries.len()).collect();
    Rng::new(seed, stream::ORACLE).shuffle(&mut order);
    order.truncate(ORACLE_SAMPLE);
    for &i in &order {
        oracle_truth(graph, set, i);
    }
    order.len()
}

fn oracle_all(graph: &Adjacency, set: &mut QuerySet) {
    for i in 0..set.queries.len() {
        oracle_truth(graph, set, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_rounds_never_drop_below_seven() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200, "{}", workload.name());
            assert!(workload.rounds(1.0, false) >= 7);
            assert!(workload.rounds(60.0, false) >= workload.rounds(10.0, false));
            assert_eq!(workload.rounds(10.0, true), 3);
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn fixtures_repeat_per_seed_and_the_shard_list_is_half_cross_quarter() {
        let a = Fixture::new(Workload::Shard, 5, true);
        let b = Fixture::new(Workload::Shard, 5, true);
        let c = Fixture::new(Workload::Shard, 6, true);
        assert_eq!(a.inputs_hash, b.inputs_hash);
        assert_ne!(a.inputs_hash, c.inputs_hash);
        assert_eq!(a.queries.queries.len(), 120);
        assert_eq!(a.oracle_checked, 120);
        let n = a.edges.vertices;
        let cross = a
            .queries
            .queries
            .iter()
            .filter(|q| quarter(q.source, n) != quarter(q.target, n))
            .count();
        assert_eq!(cross, 60);
        let two_block = a
            .queries
            .queries
            .iter()
            .filter(|q| q.constraint().block_count() == 2)
            .count();
        assert_eq!(two_block, 40);
    }
}
