//! Query-workload generation (§VI-c).
//!
//! For every graph the paper evaluates a set of 1000 *true* queries and 1000
//! *false* queries, generated by uniformly sampling a source, a target and a
//! constraint, and classifying the triple with a bidirectional constrained
//! search. This module reproduces that scheme. Because uniformly sampled
//! true queries can be extremely rare on sparse graphs, the generator falls
//! back — after a configurable number of rejected samples — to *directed*
//! sampling: pick a source and a constraint, run the constrained forward
//! search, and sample the target among the reached repetition boundaries.
//! The fallback only affects how fast the true set fills up, not its
//! validity; every emitted query is still verified by the oracle.

use rand::prelude::*;
use rand::rngs::StdRng;
use rlc_baselines::nfa::Nfa;
use rlc_baselines::BiBfsEngine;
use rlc_core::engine::{Prepared, ReachabilityEngine};
use rlc_core::repeats::enumerate_minimum_repeats;
use rlc_core::{Constraint, RlcQuery};
use rlc_graph::{Label, LabeledGraph, VertexId};
use std::collections::{HashSet, VecDeque};

/// Configuration of query-set generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryGenConfig {
    /// Number of true queries to generate.
    pub true_queries: usize,
    /// Number of false queries to generate.
    pub false_queries: usize,
    /// Exact number of labels in each query constraint (the paper uses 2 for
    /// the main experiments and 2–4 for the recursive-k study).
    pub constraint_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of uniformly sampled triples to try before switching to
    /// directed sampling for the remaining true queries.
    pub max_uniform_attempts: usize,
}

impl QueryGenConfig {
    /// The paper's configuration: 1000 true and 1000 false queries.
    pub fn paper(constraint_len: usize, seed: u64) -> Self {
        QueryGenConfig {
            true_queries: 1000,
            false_queries: 1000,
            constraint_len,
            seed,
            max_uniform_attempts: 200_000,
        }
    }

    /// A smaller configuration for unit tests and quick runs.
    pub fn small(
        true_queries: usize,
        false_queries: usize,
        constraint_len: usize,
        seed: u64,
    ) -> Self {
        QueryGenConfig {
            true_queries,
            false_queries,
            constraint_len,
            seed,
            max_uniform_attempts: 20_000,
        }
    }
}

/// A generated workload: the true-query set and the false-query set.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// Queries whose answer is `true`.
    pub true_queries: Vec<RlcQuery>,
    /// Queries whose answer is `false`.
    pub false_queries: Vec<RlcQuery>,
}

impl QuerySet {
    /// Total number of queries.
    pub fn len(&self) -> usize {
        self.true_queries.len() + self.false_queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.true_queries.is_empty() && self.false_queries.is_empty()
    }

    /// Iterates over `(query, expected answer)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&RlcQuery, bool)> {
        self.true_queries
            .iter()
            .map(|q| (q, true))
            .chain(self.false_queries.iter().map(|q| (q, false)))
    }
}

/// Generates a query workload for `graph` following the paper's scheme.
///
/// Constraints are drawn uniformly from the minimum repeats of exactly
/// `constraint_len` labels over the graph's label alphabet, restricted to
/// label combinations that actually occur on edges (a constraint over labels
/// absent from the graph is trivially false and would skew the false set).
pub fn generate_query_set(graph: &LabeledGraph, config: &QueryGenConfig) -> QuerySet {
    assert!(
        config.constraint_len >= 1,
        "constraints need at least one label"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = graph.vertex_count() as u32;
    assert!(n > 0, "cannot generate queries over an empty graph");

    // Candidate constraints: all MRs of the requested length over the labels
    // present in the graph.
    let present: Vec<Label> = (0..graph.label_count()).map(Label::from_index).collect();
    let constraints: Vec<Vec<Label>> =
        enumerate_minimum_repeats(present.len(), config.constraint_len)
            .into_iter()
            .filter(|c| c.len() == config.constraint_len)
            .collect();
    assert!(
        !constraints.is_empty(),
        "no valid constraint of length {} over {} labels",
        config.constraint_len,
        present.len()
    );

    let oracle = BiBfsEngine::new(graph);
    // The oracle is consulted once per sampled triple, but the candidate
    // constraints are few: prepare each once and reuse the compiled
    // automaton for every sample (the engine layer's prepare/execute split).
    let prepared: Vec<Prepared> = constraints
        .iter()
        .map(|c| {
            // rlc-analyze: allow(panic-free-library) — the enumerator above yields only non-empty minimum repeats, which Constraint::single accepts
            let constraint = Constraint::single(c.clone()).expect("enumerated constraints are MRs");
            oracle
                .prepare(&constraint)
                // rlc-analyze: allow(panic-free-library) — the bidirectional-BFS oracle has no index to mismatch; prepare only fails for invalid constraints, excluded above
                .expect("traversal oracles accept any valid constraint")
        })
        .collect();
    let mut true_queries = Vec::with_capacity(config.true_queries);
    let mut false_queries = Vec::with_capacity(config.false_queries);
    let mut attempts = 0usize;

    // Phase 1: uniform rejection sampling, as in the paper.
    while (true_queries.len() < config.true_queries || false_queries.len() < config.false_queries)
        && attempts < config.max_uniform_attempts
    {
        attempts += 1;
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let which = rng.gen_range(0..constraints.len());
        let query = RlcQuery::new(s, t, constraints[which].clone())
            // rlc-analyze: allow(panic-free-library) — the enumerator yields only non-empty minimum repeats, which RlcQuery::new accepts
            .expect("enumerated constraints are MRs");
        let answer = oracle
            .evaluate_prepared(s, t, &prepared[which])
            // rlc-analyze: allow(panic-free-library) — the artifact was prepared by this same oracle above, so the evaluate contract cannot be violated
            .expect("prepared constraints evaluate without error");
        if answer && true_queries.len() < config.true_queries {
            true_queries.push(query);
        } else if !answer && false_queries.len() < config.false_queries {
            false_queries.push(query);
        }
    }

    // Phase 2: directed sampling for any remaining true queries.
    let mut directed_attempts = 0usize;
    while true_queries.len() < config.true_queries
        && directed_attempts < config.max_uniform_attempts
    {
        directed_attempts += 1;
        let s = rng.gen_range(0..n);
        let constraint = constraints[rng.gen_range(0..constraints.len())].clone();
        // Directed sampling keeps its own forward search (it needs the full
        // reachable set, not a yes/no answer).
        let reachable = repetition_reachable(graph, s, &constraint, 50_000);
        if reachable.is_empty() {
            continue;
        }
        let t = reachable[rng.gen_range(0..reachable.len())];
        // rlc-analyze: allow(panic-free-library) — the enumerator yields only non-empty minimum repeats, which RlcQuery::new accepts
        let query = RlcQuery::new(s, t, constraint).expect("enumerated constraints are MRs");
        debug_assert_eq!(oracle.evaluate(&rlc_core::Query::from(&query)), Ok(true));
        true_queries.push(query);
    }

    // Phase 3: directed sampling for any remaining false queries (rare; only
    // needed on tiny dense graphs where almost every pair is reachable).
    let mut false_attempts = 0usize;
    while false_queries.len() < config.false_queries && false_attempts < config.max_uniform_attempts
    {
        false_attempts += 1;
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        let which = rng.gen_range(0..constraints.len());
        let query = RlcQuery::new(s, t, constraints[which].clone())
            // rlc-analyze: allow(panic-free-library) — the enumerator yields only non-empty minimum repeats, which RlcQuery::new accepts
            .expect("enumerated constraints are MRs");
        if oracle.evaluate_prepared(s, t, &prepared[which]) == Ok(false) {
            false_queries.push(query);
        }
    }

    QuerySet {
        true_queries,
        false_queries,
    }
}

/// Vertices reachable from `source` through one or more repetitions of
/// `block`, up to a bound on visited product states.
fn repetition_reachable(
    graph: &LabeledGraph,
    source: VertexId,
    block: &[Label],
    state_budget: usize,
) -> Vec<VertexId> {
    let nfa = Nfa::kleene_plus(block);
    let mut visited: HashSet<(VertexId, usize)> = HashSet::new();
    let mut queue: VecDeque<(VertexId, usize)> = VecDeque::new();
    let mut hits: Vec<VertexId> = Vec::new();
    visited.insert((source, nfa.start));
    queue.push_back((source, nfa.start));
    while let Some((v, q)) = queue.pop_front() {
        if visited.len() > state_budget {
            break;
        }
        for (w, label) in graph.out_edges(v) {
            for q_next in nfa.next(q, label) {
                if visited.insert((w, q_next)) {
                    if nfa.accepting[q_next] {
                        hits.push(w);
                    }
                    queue.push_back((w, q_next));
                }
            }
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_core::{build_index, BuildConfig};
    use rlc_graph::examples::fig1_graph;
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};

    #[test]
    fn generated_queries_have_correct_answers() {
        let g = erdos_renyi(&SyntheticConfig::new(300, 4.0, 4, 11));
        let set = generate_query_set(&g, &QueryGenConfig::small(50, 50, 2, 1));
        assert_eq!(set.true_queries.len(), 50);
        assert_eq!(set.false_queries.len(), 50);
        assert_eq!(set.len(), 100);
        let oracle = BiBfsEngine::new(&g);
        for (q, expected) in set.iter() {
            assert_eq!(oracle.evaluate(&rlc_core::Query::from(q)), Ok(expected));
            assert_eq!(q.constraint_len(), 2);
        }
    }

    #[test]
    fn queries_agree_with_index_answers() {
        let g = erdos_renyi(&SyntheticConfig::new(200, 4.0, 4, 5));
        let set = generate_query_set(&g, &QueryGenConfig::small(30, 30, 2, 2));
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        for (q, expected) in set.iter() {
            assert_eq!(index.query(q), expected, "query {q:?}");
        }
    }

    #[test]
    fn constraint_length_one_works() {
        let g = fig1_graph();
        let set = generate_query_set(&g, &QueryGenConfig::small(10, 10, 1, 3));
        assert_eq!(set.true_queries.len(), 10);
        for (q, _) in set.iter() {
            assert_eq!(q.constraint_len(), 1);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = erdos_renyi(&SyntheticConfig::new(150, 3.0, 4, 7));
        let a = generate_query_set(&g, &QueryGenConfig::small(20, 20, 2, 9));
        let b = generate_query_set(&g, &QueryGenConfig::small(20, 20, 2, 9));
        assert_eq!(a.true_queries, b.true_queries);
        assert_eq!(a.false_queries, b.false_queries);
        let c = generate_query_set(&g, &QueryGenConfig::small(20, 20, 2, 10));
        assert_ne!(a.true_queries, c.true_queries);
    }
}
