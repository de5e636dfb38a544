//! Seeded inputs: graphs as raw edge lists, and query lists over them.
//!
//! Everything here depends only on the seed and the sizes, never on the
//! system under test: the crates receive the finished graph and queries.

use crate::oracle::Adjacency;
use crate::rng::{Fnv, Rng, Zipf};
use rlc_core::Query;
use rlc_graph::{Edge, Label, LabelInterner, LabeledGraph};
use std::collections::HashSet;

/// RNG streams of one benchmark seed.
mod stream {
    pub const EDGES: u64 = 1;
    pub const LABELS: u64 = 2;
    pub const SHUFFLE: u64 = 3;
}

/// A directed edge-labeled multigraph as `(source, label, target)` triples.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Number of vertices; ids are `0..vertices`.
    pub vertices: usize,
    /// Number of distinct labels; ids are `0..labels`.
    pub labels: usize,
    /// The edges, in generation order.
    pub edges: Vec<(u32, u16, u32)>,
}

impl EdgeList {
    /// Hands the edges to the `graph` layer.
    pub fn to_graph(&self) -> LabeledGraph {
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .map(|&(s, l, t)| Edge::new(s, Label(l), t))
            .collect();
        LabeledGraph::from_edges(
            self.vertices,
            &edges,
            LabelInterner::anonymous(self.labels),
            None,
        )
    }

    /// Folds the edge list into an input hash.
    pub fn hash_into(&self, hash: &mut Fnv) {
        hash.write_u32(self.vertices as u32);
        hash.write_u32(self.labels as u32);
        for &(s, l, t) in &self.edges {
            hash.write_u32(s);
            hash.write_u32(l as u32);
            hash.write_u32(t);
        }
    }
}

/// `count` labels, Zipf-distributed with the paper's exponent 2.
fn zipf_labels(count: usize, labels: usize, seed: u64) -> Vec<u16> {
    let zipf = Zipf::new(labels, 2.0);
    let mut rng = Rng::new(seed, stream::LABELS);
    (0..count).map(|_| zipf.sample(&mut rng) as u16).collect()
}

/// Erdős–Rényi `G(n, m)`: `vertices * degree` uniform directed edges without
/// self loops, Zipf(2) labels (the paper's ER setting, §VI-B).
pub fn erdos_renyi(vertices: usize, degree: usize, labels: usize, seed: u64) -> EdgeList {
    let mut rng = Rng::new(seed, stream::EDGES);
    let count = vertices * degree;
    let label_of = zipf_labels(count, labels, seed);
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let (s, t) = (rng.below(vertices) as u32, rng.below(vertices) as u32);
        if s != t {
            edges.push((s, label_of[edges.len()], t));
        }
    }
    EdgeList {
        vertices,
        labels,
        edges,
    }
}

/// Barabási–Albert: a complete directed core of `degree + 1` vertices, then
/// every new vertex attaches `degree` edges to endpoints drawn in proportion
/// to their degree, each oriented at random; Zipf(2) labels. Skewed degrees
/// are what make the build's vertex ordering and pruning matter.
pub fn barabasi_albert(vertices: usize, degree: usize, labels: usize, seed: u64) -> EdgeList {
    let mut rng = Rng::new(seed, stream::EDGES);
    let core = (degree + 1).min(vertices);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(vertices * degree + core * core);
    // Every edge endpoint is listed once, so a uniform draw from the list is
    // a degree-proportional draw.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * pairs.capacity());
    for i in 0..core as u32 {
        for j in 0..core as u32 {
            if i != j {
                pairs.push((i, j));
                endpoints.extend([i, j]);
            }
        }
    }
    for v in core as u32..vertices as u32 {
        for _ in 0..degree {
            let other = endpoints[rng.below(endpoints.len())];
            pairs.push(if rng.chance(0.5) {
                (v, other)
            } else {
                (other, v)
            });
            endpoints.extend([v, other]);
        }
    }
    let label_of = zipf_labels(pairs.len(), labels, seed);
    EdgeList {
        vertices,
        labels,
        edges: pairs
            .iter()
            .zip(label_of)
            .map(|(&(s, t), l)| (s, l, t))
            .collect(),
    }
}

/// Planted partition: `communities` equal groups, `vertices * degree` edges
/// of which the share `intra` stays inside the source's group, Zipf(2)
/// labels, and vertex ids shuffled so that id order carries no locality.
/// Returns the edges and each vertex's community.
pub fn planted_partition(
    vertices: usize,
    communities: usize,
    degree: usize,
    intra: f64,
    labels: usize,
    seed: u64,
) -> (EdgeList, Vec<u32>) {
    assert!(communities >= 2 && vertices >= 2 * communities);
    let mut rng = Rng::new(seed, stream::EDGES);
    // Before the shuffle, community c owns the id range [c * size, ...).
    let size = vertices / communities;
    let community_of_plain = |v: usize| (v / size).min(communities - 1);
    let range_of = |c: usize| {
        let start = c * size;
        let end = if c + 1 == communities {
            vertices
        } else {
            start + size
        };
        (start, end)
    };
    let count = vertices * degree;
    let label_of = zipf_labels(count, labels, seed);
    let mut plain = Vec::with_capacity(count);
    while plain.len() < count {
        let s = rng.below(vertices);
        let home = community_of_plain(s);
        let t = if rng.chance(intra) {
            let (start, end) = range_of(home);
            start + rng.below(end - start)
        } else {
            // Uniform over the other communities' vertices.
            let (start, end) = range_of(home);
            let pick = rng.below(vertices - (end - start));
            if pick < start {
                pick
            } else {
                pick + (end - start)
            }
        };
        if s != t {
            plain.push((s, t));
        }
    }
    let mut new_id: Vec<u32> = (0..vertices as u32).collect();
    Rng::new(seed, stream::SHUFFLE).shuffle(&mut new_id);
    let mut community = vec![0u32; vertices];
    for v in 0..vertices {
        community[new_id[v] as usize] = community_of_plain(v) as u32;
    }
    let edges = plain
        .iter()
        .zip(label_of)
        .map(|(&(s, t), l)| (new_id[s], l, new_id[t]))
        .collect();
    (
        EdgeList {
            vertices,
            labels,
            edges,
        },
        community,
    )
}

/// A query list with what is known about each answer before any engine runs.
#[derive(Debug, Clone, Default)]
pub struct QuerySet {
    /// The queries, in operation order.
    pub queries: Vec<Query>,
    /// `Some(true)` for a query built from a witness walk; `None` where only
    /// the oracle can tell.
    pub truth: Vec<Option<bool>>,
}

impl QuerySet {
    /// Folds the queries into an input hash.
    pub fn hash_into(&self, hash: &mut Fnv) {
        for query in &self.queries {
            hash.write_u32(query.source);
            hash.write_u32(query.target);
            for block in query.constraint().blocks() {
                hash.write_u32(block.len() as u32);
                for label in block {
                    hash.write_u32(label.0 as u32);
                }
            }
        }
    }

    /// Appends `other`.
    pub fn extend(&mut self, other: QuerySet) {
        self.queries.extend(other.queries);
        self.truth.extend(other.truth);
    }

    /// Interleaves the queries in a seeded order, so that kinds generated
    /// one after another do not run one after another.
    pub fn shuffle(&mut self, rng: &mut Rng) {
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        rng.shuffle(&mut order);
        self.queries = order.iter().map(|&i| self.queries[i].clone()).collect();
        self.truth = order.iter().map(|&i| self.truth[i]).collect();
    }
}

/// All 64 blocks of at most two labels over eight labels that are minimum
/// repeats (`[a]` and `[a, b]` with `a != b`), each with the product of its
/// labels' Zipf(2) weights — how likely a random walk is to spell it.
pub fn weighted_blocks(labels: usize) -> Vec<(Vec<u16>, f64)> {
    let weight = |l: usize| 1.0 / ((l + 1) * (l + 1)) as f64;
    let mut blocks = Vec::new();
    for a in 0..labels {
        blocks.push((vec![a as u16], weight(a)));
        for b in 0..labels {
            if a != b {
                blocks.push((vec![a as u16, b as u16], weight(a) * weight(b)));
            }
        }
    }
    blocks
}

/// Draws from a weighted list by cumulative weight.
pub struct Weighted<T> {
    items: Vec<T>,
    cumulative: Vec<f64>,
}

impl<T> Weighted<T> {
    /// A sampler over `(item, weight)` pairs.
    pub fn new(pairs: Vec<(T, f64)>) -> Self {
        let mut total = 0.0;
        let mut items = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        for (item, weight) in pairs {
            total += weight;
            items.push(item);
            cumulative.push(total);
        }
        Weighted { items, cumulative }
    }

    /// Draws one item.
    pub fn sample(&self, rng: &mut Rng) -> &T {
        let x = rng.unit() * self.cumulative.last().expect("non-empty");
        let i = self.cumulative.partition_point(|&c| c <= x);
        &self.items[i.min(self.items.len() - 1)]
    }
}

/// Every concatenation of two or three of the 64 blocks — 266 240
/// constraints, 65 times the default plan-cache capacity — in one fixed
/// pseudo-random order that does not depend on the benchmark seed.
///
/// The concatenation workload draws from it by rank with Zipf(1) popularity.
/// Because the order is the same for every seed, so is the cost profile of
/// the popular constraints: whether rank 0 is `a+ ∘ a+` over the commonest
/// label (a closure over most of the graph) or a combination no edge spells
/// (answered without touching the graph) must not change from seed to seed,
/// or run-to-run spread would measure the draw and not the system.
pub struct Universe {
    blocks: Vec<Vec<u16>>,
    order: Vec<u32>,
}

impl Universe {
    /// The universe over `labels` labels.
    pub fn new(labels: usize) -> Universe {
        let blocks: Vec<Vec<u16>> = weighted_blocks(labels)
            .into_iter()
            .map(|(b, _)| b)
            .collect();
        let b = blocks.len();
        let mut order: Vec<u32> = (0..(b * b + b * b * b) as u32).collect();
        Rng::new(0x5EED_C0DE, 0).shuffle(&mut order);
        Universe { blocks, order }
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the universe is empty (it never is).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The constraint of popularity rank `rank`.
    pub fn constraint(&self, rank: usize) -> Vec<Vec<u16>> {
        let b = self.blocks.len();
        let id = self.order[rank] as usize;
        let picks = if id < b * b {
            vec![id / b, id % b]
        } else {
            let id = id - b * b;
            vec![id / (b * b), id / b % b, id % b]
        };
        picks.into_iter().map(|i| self.blocks[i].clone()).collect()
    }
}

/// How one query list is drawn.
pub struct QuerySpec<'a> {
    /// Number of queries.
    pub count: usize,
    /// Share built from witness walks (true by construction); the rest pair
    /// a source with a uniform target.
    pub witness_share: f64,
    /// Draws a constraint.
    pub constraint: &'a dyn Fn(&mut Rng) -> Vec<Vec<u16>>,
    /// Draws a source vertex.
    pub source: &'a dyn Fn(&mut Rng) -> u32,
    /// Whether `(source, target)` may be the `i`-th query's pair.
    pub accept: &'a dyn Fn(usize, u32, u32) -> bool,
    /// Reject a `(source, target, constraint)` triple already emitted.
    pub distinct: bool,
}

/// Walks `blocks` from `source`, each block one to three times, along
/// uniformly chosen matching edges; `None` when the walk gets stuck.
fn witness_walk(graph: &Adjacency, source: u32, blocks: &[Vec<u16>], rng: &mut Rng) -> Option<u32> {
    let mut at = source;
    let mut matching: Vec<u32> = Vec::new();
    for block in blocks {
        for _ in 0..1 + rng.below(3) {
            for &label in block {
                matching.clear();
                matching.extend(
                    graph
                        .out(at)
                        .iter()
                        .filter(|&&(l, _)| l == label)
                        .map(|&(_, t)| t),
                );
                if matching.is_empty() {
                    return None;
                }
                at = matching[rng.below(matching.len())];
            }
        }
    }
    Some(at)
}

/// Sources tried for a witness walk before the query settles for a uniform
/// target, and pairs tried against `accept` and `distinct`.
const TRIES: usize = 64;

/// Draws `spec.count` queries over `graph`. A query's constraint is drawn
/// once, so constraints are distributed exactly as `spec.constraint` draws
/// them; only the pair is retried.
pub fn queries(graph: &Adjacency, spec: &QuerySpec<'_>, rng: &mut Rng) -> QuerySet {
    let n = graph.vertices();
    let mut set = QuerySet::default();
    let mut emitted: HashSet<(u32, u32, Vec<Vec<u16>>)> = HashSet::new();
    while set.queries.len() < spec.count {
        let i = set.queries.len();
        let blocks = (spec.constraint)(rng);
        let want_witness = rng.chance(spec.witness_share);
        let mut pick = None;
        for attempt in 0..2 * TRIES {
            let source = (spec.source)(rng);
            // The first half of the attempts look for a witness walk; past
            // them the query falls back to a uniform target.
            let (target, truth) = if want_witness && attempt < TRIES {
                match witness_walk(graph, source, &blocks, rng) {
                    Some(target) => (target, Some(true)),
                    None => continue,
                }
            } else {
                (rng.below(n) as u32, None)
            };
            if (spec.accept)(i, source, target)
                && !(spec.distinct && emitted.contains(&(source, target, blocks.clone())))
            {
                pick = Some((source, target, truth));
                break;
            }
        }
        let (source, target, truth) =
            pick.expect("the query spec accepts some pair within its attempts");
        if spec.distinct {
            emitted.insert((source, target, blocks.clone()));
        }
        let blocks = blocks
            .into_iter()
            .map(|b| b.into_iter().map(Label).collect())
            .collect();
        set.queries.push(
            Query::concat(source, target, blocks).expect("generated blocks are minimum repeats"),
        );
        set.truth.push(truth);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(list: &EdgeList) -> u64 {
        let mut hash = Fnv::default();
        list.hash_into(&mut hash);
        hash.finish()
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        for make in [erdos_renyi, barabasi_albert] {
            assert_eq!(digest(&make(500, 4, 8, 3)), digest(&make(500, 4, 8, 3)));
            assert_ne!(digest(&make(500, 4, 8, 3)), digest(&make(500, 4, 8, 4)));
        }
        let (a, ca) = planted_partition(800, 16, 4, 0.9, 8, 5);
        let (b, cb) = planted_partition(800, 16, 4, 0.9, 8, 5);
        let (c, _) = planted_partition(800, 16, 4, 0.9, 8, 6);
        assert_eq!((digest(&a), &ca), (digest(&b), &cb));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn generated_graphs_have_the_requested_shape() {
        let er = erdos_renyi(1000, 4, 8, 1);
        assert_eq!((er.vertices, er.edges.len()), (1000, 4000));
        assert!(er
            .edges
            .iter()
            .all(|&(s, l, t)| s != t && l < 8 && (t as usize) < 1000));
        let ba = barabasi_albert(1000, 4, 8, 1);
        assert_eq!(ba.edges.len(), 5 * 4 + (1000 - 5) * 4);
        let mut degree = vec![0usize; 1000];
        for &(s, _, t) in &ba.edges {
            degree[s as usize] += 1;
            degree[t as usize] += 1;
        }
        assert!(
            *degree.iter().max().unwrap() > 60,
            "preferential attachment makes hubs"
        );
    }

    #[test]
    fn planted_partition_keeps_the_intra_share_and_hides_it_from_id_order() {
        let (list, community) = planted_partition(4000, 16, 4, 0.9, 8, 9);
        assert_eq!(list.edges.len(), 16_000);
        let intra = list
            .edges
            .iter()
            .filter(|&&(s, _, t)| community[s as usize] == community[t as usize])
            .count() as f64
            / list.edges.len() as f64;
        assert!((0.88..0.92).contains(&intra), "intra share {intra}");
        // Sixteen equal communities.
        let mut sizes = [0usize; 16];
        community.iter().for_each(|&c| sizes[c as usize] += 1);
        assert!(sizes.iter().all(|&s| s == 250));
        // After the shuffle a contiguous quarter of the ids holds about a
        // quarter of every community: id order has no locality left.
        let in_first_quarter = (0..1000).filter(|&v| community[v] == 0).count();
        assert!((35..95).contains(&in_first_quarter), "{in_first_quarter}");
    }

    #[test]
    fn witness_queries_are_true_and_lists_repeat_per_seed() {
        let list = erdos_renyi(2000, 4, 8, 11);
        let graph = Adjacency::new(&list);
        let blocks = Weighted::new(weighted_blocks(8));
        let spec = QuerySpec {
            count: 300,
            witness_share: 0.5,
            constraint: &|rng| vec![blocks.sample(rng).clone()],
            source: &|rng| rng.below(2000) as u32,
            accept: &|_, _, _| true,
            distinct: true,
        };
        let a = queries(&graph, &spec, &mut Rng::new(11, 9));
        let b = queries(&graph, &spec, &mut Rng::new(11, 9));
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.queries.len(), 300);
        let witnesses = a.truth.iter().filter(|t| t.is_some()).count();
        assert!((100..200).contains(&witnesses), "{witnesses}");
        for (query, truth) in a.queries.iter().zip(&a.truth) {
            if *truth == Some(true) {
                let blocks: Vec<Vec<u16>> = query
                    .constraint()
                    .blocks()
                    .iter()
                    .map(|b| b.iter().map(|l| l.0).collect())
                    .collect();
                assert!(graph.reaches(query.source, query.target, &blocks));
            }
        }
    }

    #[test]
    fn the_universe_holds_every_concatenation_once_in_a_seedless_order() {
        let universe = Universe::new(8);
        assert_eq!(universe.len(), 64 * 64 + 64 * 64 * 64);
        let first: Vec<_> = (0..50).map(|r| universe.constraint(r)).collect();
        assert_eq!(
            first,
            (0..50)
                .map(|r| Universe::new(8).constraint(r))
                .collect::<Vec<_>>()
        );
        let distinct: HashSet<_> = (0..universe.len())
            .map(|r| universe.constraint(r))
            .collect();
        assert_eq!(distinct.len(), universe.len());
        assert!(distinct.iter().all(|c| (2..=3).contains(&c.len())));
        assert!(distinct.contains(&vec![vec![0u16], vec![0u16]]));
    }
}
