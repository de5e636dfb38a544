//! The indexing algorithm (§IV, §V-B, Algorithm 2).
//!
//! For every vertex `v`, taken in the order given by the configured
//! [`OrderingStrategy`], the builder runs a *backward* and a *forward*
//! kernel-based search (KBS). Each KBS has two phases:
//!
//! 1. **Kernel search** — a breadth-first enumeration of all label sequences
//!    of length at most `k` (eager strategy; `2k` under the lazy strategy)
//!    reaching/leaving `v`. Every sequence found yields an insertion attempt
//!    of `(v, MR(sequence))` into the visited vertex's `Lout` (backward) or
//!    `Lin` (forward), and registers the visited vertex as a *frontier* for
//!    the kernel candidate `MR(sequence)` when the next repetition of that
//!    kernel would exceed the phase-1 depth.
//! 2. **Kernel BFS** — for each kernel candidate, a BFS constrained to the
//!    cyclic label pattern of the kernel, continuing from the frontier
//!    vertices. Every time a repetition boundary is crossed at a vertex, an
//!    insertion attempt is made; if the attempt is pruned, the branch is cut
//!    (pruning rule PR3).
//!
//! Insertion attempts apply pruning rule PR2 (skip if the search root has a
//! larger access id than the visited vertex — the visited vertex's own
//! searches cover the fact) and PR1 (skip if the query is already answerable
//! from the current snapshot of the index). The combination yields a sound,
//! complete and condensed index (Theorems 2 and 3).
//!
//! The build is sequential by design: roots run in access-id order, and
//! every PR1 decision reads the entries all earlier roots inserted, so a
//! root cannot be decided before its predecessors finish. The result —
//! entry lists, catalog intern order and [`BuildStats`] counters — is
//! therefore a pure function of the graph and the configuration (builds
//! that hit a wall-clock budget excepted).
//!
//! # Staging and packing
//!
//! The builder appends entries to [`Staging`], this module's private
//! nested-list form of the index — hubs arrive in access-id order, so every
//! list is append-only — and probes it for PR1. After the last root,
//! [`build_index`] packs the lists once into the CSR layout of
//! [`RlcIndex`]; nothing outside this module sees the staging form.

use crate::catalog::{MrCatalog, MrId};
use crate::index::{IndexEntry, RlcIndex};
use crate::order::{compute_order, OrderingStrategy, VertexOrder};
use crate::repeats::minimum_repeat_len;
use rlc_graph::{Label, LabeledGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Which kernel-search strategy to use (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum KbsStrategy {
    /// Determine kernel candidates as soon as a sequence of length ≤ `k` is
    /// seen (the strategy the paper adopts: cheaper because enumerating all
    /// sequences of length `2k` is avoided).
    #[default]
    Eager,
    /// Enumerate all sequences up to length `2k` before switching to
    /// kernel-guided BFS (the strategy Theorem 1 directly suggests). Provided
    /// for the eager-vs-lazy ablation.
    Lazy,
}

/// Configuration of an index build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuildConfig {
    /// The recursive `k`: the maximum constraint length the index will
    /// support.
    pub k: usize,
    /// Vertex processing order.
    pub ordering: OrderingStrategy,
    /// Eager or lazy kernel search.
    pub strategy: KbsStrategy,
    /// Apply pruning rule PR1 (skip entries already answerable from the
    /// current index snapshot).
    pub use_pr1: bool,
    /// Apply pruning rule PR2 (skip entries whose search root has a larger
    /// access id than the visited vertex).
    pub use_pr2: bool,
    /// Apply pruning rule PR3 (stop a kernel-BFS branch when PR1/PR2 fires).
    pub use_pr3: bool,
    /// Abort the build after this wall-clock budget (partial index returned,
    /// [`BuildStats::timed_out`] set). Mirrors the paper's 24-hour cap.
    pub time_budget: Option<Duration>,
}

impl BuildConfig {
    /// Default configuration (paper settings) for a given recursive `k`.
    pub fn new(k: usize) -> Self {
        BuildConfig {
            k,
            ordering: OrderingStrategy::InOutDegree,
            strategy: KbsStrategy::Eager,
            use_pr1: true,
            use_pr2: true,
            use_pr3: true,
            time_budget: None,
        }
    }

    /// Disables all pruning rules; used by the pruning ablation and by the
    /// extended-transitive-closure baseline.
    pub fn without_pruning(mut self) -> Self {
        self.use_pr1 = false;
        self.use_pr2 = false;
        self.use_pr3 = false;
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the ordering strategy.
    pub fn with_ordering(mut self, ordering: OrderingStrategy) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the kernel-search strategy.
    pub fn with_strategy(mut self, strategy: KbsStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns `self` unchanged: the build is sequential (see the module
    /// docs), so there is no thread count to set. Kept only because the
    /// repo benchmark still calls it; a later benchmark change drops that
    /// call, and then this method goes too.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig::new(2)
    }
}

/// Counters and timing collected while building an index.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Wall-clock build time.
    pub duration: Duration,
    /// Number of kernel-based searches performed (two per processed vertex).
    pub kernel_searches: u64,
    /// Number of kernel-BFS phases launched (one per kernel candidate).
    pub kernel_bfs_runs: u64,
    /// Total insertion attempts.
    pub insert_attempts: u64,
    /// Entries actually inserted.
    pub inserted: u64,
    /// Attempts pruned by PR1.
    pub pruned_pr1: u64,
    /// Attempts pruned by PR2.
    pub pruned_pr2: u64,
    /// Attempts skipped because the identical entry already existed.
    pub duplicates: u64,
    /// Kernel-BFS branches cut by PR3.
    pub pr3_cutoffs: u64,
    /// Whether the build hit its time budget and returned a partial index.
    pub timed_out: bool,
}

/// Builds the RLC index of `graph` under `config`, returning the index and
/// the build statistics.
pub fn build_index(graph: &LabeledGraph, config: &BuildConfig) -> (RlcIndex, BuildStats) {
    let started = Instant::now();
    let (staging, mut stats) = build_staging(graph, config, started);
    let index = staging.pack(config.k);
    stats.duration = started.elapsed();
    (index, stats)
}

/// Runs Algorithm 2 and returns the staged entry lists, unpacked.
fn build_staging(
    graph: &LabeledGraph,
    config: &BuildConfig,
    started: Instant,
) -> (Staging, BuildStats) {
    assert!(config.k >= 1, "recursive k must be at least 1");
    let order = compute_order(graph, config.ordering);
    let mut builder = Builder {
        graph,
        config: *config,
        staging: Staging::new(order),
        stats: BuildStats::default(),
        scratch: Scratch::new(graph.vertex_count(), config.k),
        deadline: config.time_budget.map(|b| started + b),
    };
    builder.run();
    (builder.staging, builder.stats)
}

/// The builder's staging form of the index: per-vertex append-only entry
/// lists ordered by hub access id (roots are processed in that order), plus
/// the catalog being interned. Packed into an [`RlcIndex`] once, by
/// [`Staging::pack`].
struct Staging {
    order: VertexOrder,
    catalog: MrCatalog,
    lin: Vec<Vec<IndexEntry>>,
    lout: Vec<Vec<IndexEntry>>,
}

impl Staging {
    fn new(order: VertexOrder) -> Self {
        let n = order.len();
        Staging {
            order,
            catalog: MrCatalog::new(),
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
        }
    }

    /// The PR1 probe: whether `(s, t, mr+)` is answerable from the entries
    /// staged so far (Algorithm 1 over lists in hub access-id order).
    fn query_interned(&self, s: VertexId, t: VertexId, mr: MrId) -> bool {
        let lout_s = &self.lout[s as usize];
        let lin_t = &self.lin[t as usize];
        // Case 2 of Definition 4: direct entries.
        if lout_s.iter().any(|e| e.hub == t && e.mr == mr) {
            return true;
        }
        if lin_t.iter().any(|e| e.hub == s && e.mr == mr) {
            return true;
        }
        // Case 1: merge join on hub access id.
        let mut i = 0;
        let mut j = 0;
        while i < lout_s.len() && j < lin_t.len() {
            let ai = self.order.aid(lout_s[i].hub);
            let bj = self.order.aid(lin_t[j].hub);
            if ai < bj {
                i += 1;
            } else if ai > bj {
                j += 1;
            } else {
                // Runs of entries sharing this hub on both sides.
                let hub = lout_s[i].hub;
                let i_start = i;
                while i < lout_s.len() && lout_s[i].hub == hub {
                    i += 1;
                }
                let j_start = j;
                while j < lin_t.len() && lin_t[j].hub == hub {
                    j += 1;
                }
                let left = lout_s[i_start..i].iter().any(|e| e.mr == mr);
                if left {
                    let right = lin_t[j_start..j].iter().any(|e| e.mr == mr);
                    if right {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Packs the staged lists into the index proper. Rows are consumed one
    /// by one, so each list is freed as soon as it is packed.
    fn pack(self, k: usize) -> RlcIndex {
        RlcIndex::from_rows(k, self.order, self.catalog, self.lout, self.lin)
    }
}

impl RlcIndex {
    /// Builds the index with the paper's default settings for the given `k`.
    pub fn build(graph: &LabeledGraph, k: usize) -> RlcIndex {
        build_index(graph, &BuildConfig::new(k)).0
    }
}

/// Direction of a kernel-based search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Traverses in-edges from the root; discovered facts are `u ⇝ root` and
    /// land in `Lout(u)`.
    Backward,
    /// Traverses out-edges from the root; discovered facts are `root ⇝ u` and
    /// land in `Lin(u)`.
    Forward,
}

/// Outcome of an insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InsertOutcome {
    Inserted,
    AlreadyPresent,
    PrunedPr1,
    PrunedPr2,
}

impl InsertOutcome {
    fn is_pruned(self) -> bool {
        matches!(
            self,
            InsertOutcome::AlreadyPresent | InsertOutcome::PrunedPr1 | InsertOutcome::PrunedPr2
        )
    }
}

/// Reusable visited-state table for kernel-BFS phases.
struct Scratch {
    /// The recursive `k` the table is sized for.
    k: usize,
    /// Visited stamps for kernel-BFS states: `state_stamp[v * k + state]`
    /// equals the current epoch when `(v, state)` has been visited.
    state_stamp: Vec<u32>,
    epoch: u32,
}

impl Scratch {
    fn new(vertices: usize, k: usize) -> Self {
        Scratch {
            k,
            state_stamp: vec![0u32; vertices * k],
            epoch: 0,
        }
    }

    /// Starts a fresh kernel-BFS phase by bumping the epoch.
    fn begin_phase(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset the table once every 2^32 phases.
            self.state_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn visited(&self, v: VertexId, state: usize) -> bool {
        self.state_stamp[v as usize * self.k + state] == self.epoch
    }

    /// Marks `(v, state)` visited; returns whether it was already visited.
    #[inline]
    fn mark(&mut self, v: VertexId, state: usize) -> bool {
        let slot = &mut self.state_stamp[v as usize * self.k + state];
        let was = *slot == self.epoch;
        *slot = self.epoch;
        was
    }
}

struct Builder<'g> {
    graph: &'g LabeledGraph,
    config: BuildConfig,
    staging: Staging,
    stats: BuildStats,
    scratch: Scratch,
    deadline: Option<Instant>,
}

impl<'g> Builder<'g> {
    fn run(&mut self) {
        let sequence = self.staging.order.sequence.clone();
        for root in sequence {
            if self.budget_exhausted() {
                self.stats.timed_out = true;
                break;
            }
            // Backward first, then forward, as in Algorithm 2.
            self.kernel_based_search(root, Direction::Backward);
            self.kernel_based_search(root, Direction::Forward);
        }
    }

    fn budget_exhausted(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    fn neighbors(&self, v: VertexId, dir: Direction) -> rlc_graph::graph::OutEdges<'g> {
        match dir {
            Direction::Backward => self.graph.in_edges(v),
            Direction::Forward => self.graph.out_edges(v),
        }
    }

    /// One kernel-based search from `root` in direction `dir`.
    fn kernel_based_search(&mut self, root: VertexId, dir: Direction) {
        self.stats.kernel_searches += 1;
        let frontiers = self.kernel_search_phase(root, dir);
        for (kernel, frontier) in frontiers {
            self.stats.kernel_bfs_runs += 1;
            self.kernel_bfs_phase(root, dir, &kernel, &frontier);
        }
    }

    /// Phase 1: enumerate label sequences up to the phase-1 depth, insert the
    /// corresponding entries, and collect kernel candidates with their
    /// frontier vertices.
    fn kernel_search_phase(
        &mut self,
        root: VertexId,
        dir: Direction,
    ) -> Vec<(Vec<Label>, Vec<VertexId>)> {
        let k = self.config.k;
        let depth_limit = match self.config.strategy {
            KbsStrategy::Eager => k,
            KbsStrategy::Lazy => 2 * k,
        };
        let mut frontiers: HashMap<Vec<Label>, Vec<VertexId>> = HashMap::new();
        let mut seen: HashSet<(VertexId, Vec<Label>)> = HashSet::new();
        let mut queue: VecDeque<(VertexId, Vec<Label>)> = VecDeque::new();
        queue.push_back((root, Vec::new()));

        while let Some((x, seq)) = queue.pop_front() {
            for (y, label) in self.neighbors(x, dir) {
                let mut extended = Vec::with_capacity(seq.len() + 1);
                match dir {
                    // Backward traversal prepends: the sequence is always the
                    // forward label sequence from the visited vertex to root.
                    Direction::Backward => {
                        extended.push(label);
                        extended.extend_from_slice(&seq);
                    }
                    Direction::Forward => {
                        extended.extend_from_slice(&seq);
                        extended.push(label);
                    }
                }
                if !seen.insert((y, extended.clone())) {
                    continue;
                }
                let mr_len = minimum_repeat_len(&extended);
                if mr_len <= k {
                    let mr = &extended[..mr_len];
                    // Phase-1 insertion attempts never cut the search (PR3
                    // applies only to the kernel-BFS phase).
                    let _ = self.try_insert(root, y, mr, dir);
                    // The sequence is an exact power of its MR; register the
                    // vertex as frontier when the next repetition would not
                    // fit within the phase-1 depth.
                    if extended.len() + mr_len > depth_limit {
                        match frontiers.entry(mr.to_vec()) {
                            MapEntry::Occupied(mut o) => o.get_mut().push(y),
                            MapEntry::Vacant(v) => {
                                v.insert(vec![y]);
                            }
                        }
                    }
                }
                if extended.len() < depth_limit {
                    queue.push_back((y, extended));
                }
            }
        }
        let mut result: Vec<(Vec<Label>, Vec<VertexId>)> = frontiers.into_iter().collect();
        // Deterministic kernel order keeps builds reproducible across runs.
        result.sort();
        result
    }

    /// Phase 2: BFS constrained to the cyclic label pattern of `kernel`,
    /// starting from the frontier vertices (each sitting on a repetition
    /// boundary).
    fn kernel_bfs_phase(
        &mut self,
        root: VertexId,
        dir: Direction,
        kernel: &[Label],
        frontier: &[VertexId],
    ) {
        let klen = kernel.len();
        self.scratch.begin_phase();
        let mut queue: VecDeque<(VertexId, usize)> = VecDeque::new();
        for &v in frontier {
            if !self.scratch.mark(v, 0) {
                queue.push_back((v, 0));
            }
        }
        let mut steps = 0u32;
        while let Some((x, state)) = queue.pop_front() {
            steps += 1;
            if steps.is_multiple_of(4096) && self.budget_exhausted() {
                self.stats.timed_out = true;
                return;
            }
            // The label expected on the next traversed edge: forward searches
            // consume the kernel left to right, backward searches right to
            // left (the sequence read along the path stays `kernel^m`).
            let expected = match dir {
                Direction::Forward => kernel[state],
                Direction::Backward => kernel[klen - 1 - state],
            };
            for (y, label) in self.neighbors(x, dir) {
                if label != expected {
                    continue;
                }
                let next_state = (state + 1) % klen;
                if self.scratch.visited(y, next_state) {
                    continue;
                }
                self.scratch.mark(y, next_state);
                if next_state == 0 {
                    // `y` sits on a repetition boundary: a path between `y`
                    // and the root with label sequence `kernel^m` exists.
                    let outcome = self.try_insert(root, y, kernel, dir);
                    if outcome.is_pruned() {
                        self.stats.pr3_cutoffs += 1;
                        if self.config.use_pr3 {
                            // PR3: do not expand past a pruned boundary.
                            continue;
                        }
                    }
                    queue.push_back((y, 0));
                } else {
                    queue.push_back((y, next_state));
                }
            }
        }
    }

    /// Attempts to record that a `mr`-repetition path exists between `visited`
    /// and `root` (direction-dependent), applying PR2 and PR1.
    fn try_insert(
        &mut self,
        root: VertexId,
        visited: VertexId,
        mr: &[Label],
        dir: Direction,
    ) -> InsertOutcome {
        self.stats.insert_attempts += 1;
        // PR2: only roots with access id no larger than the visited vertex
        // record entries there; later roots rely on the earlier vertex's own
        // searches.
        if self.config.use_pr2 && self.staging.order.aid(root) > self.staging.order.aid(visited) {
            self.stats.pruned_pr2 += 1;
            return InsertOutcome::PrunedPr2;
        }
        let (s, t) = match dir {
            Direction::Backward => (visited, root),
            Direction::Forward => (root, visited),
        };
        let resolved = self.staging.catalog.resolve(mr);
        if let Some(mr_id) = resolved {
            // Exact-duplicate check: the current root's entries sit at the
            // tail of the list, so only the tail needs scanning.
            let list = match dir {
                Direction::Backward => &self.staging.lout[visited as usize],
                Direction::Forward => &self.staging.lin[visited as usize],
            };
            let duplicate = list
                .iter()
                .rev()
                .take_while(|e| e.hub == root)
                .any(|e| e.mr == mr_id);
            if duplicate {
                self.stats.duplicates += 1;
                return InsertOutcome::AlreadyPresent;
            }
            // PR1: skip entries already answerable from the current snapshot.
            if self.config.use_pr1 && self.staging.query_interned(s, t, mr_id) {
                self.stats.pruned_pr1 += 1;
                return InsertOutcome::PrunedPr1;
            }
        }
        let mr_id = resolved.unwrap_or_else(|| self.staging.catalog.intern(mr));
        let entry = IndexEntry {
            hub: root,
            mr: mr_id,
        };
        // Roots run in access-id order, so appending keeps every list
        // sorted by hub access id, as the PR1 probe requires.
        match dir {
            Direction::Backward => self.staging.lout[visited as usize].push(entry),
            Direction::Forward => self.staging.lin[visited as usize].push(entry),
        }
        self.stats.inserted += 1;
        InsertOutcome::Inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RlcQuery;
    use rlc_graph::examples::{fig1_graph, fig2_graph};
    use rlc_graph::GraphBuilder;

    fn labels(graph: &LabeledGraph, names: &[&str]) -> Vec<Label> {
        names
            .iter()
            .map(|n| graph.labels().resolve(n).unwrap())
            .collect()
    }

    #[test]
    fn fig2_queries_from_example4() {
        let g = fig2_graph();
        let (index, stats) = build_index(&g, &BuildConfig::new(2));
        assert!(stats.inserted > 0);
        let q1 = RlcQuery::from_names(&g, "v3", "v6", &["l2", "l1"]).unwrap();
        assert!(index.query(&q1), "Q1(v3, v6, (l2,l1)+) must be true");
        let q2 = RlcQuery::from_names(&g, "v1", "v2", &["l2", "l1"]).unwrap();
        assert!(index.query(&q2), "Q2(v1, v2, (l2,l1)+) must be true");
        let q3 = RlcQuery::from_names(&g, "v1", "v3", &["l1"]).unwrap();
        assert!(!index.query(&q3), "Q3(v1, v3, (l1)+) must be false");
    }

    #[test]
    fn fig2_index_is_condensed_and_compact() {
        let g = fig2_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        assert!(
            index.is_condensed(),
            "Theorem 2: the index must be condensed"
        );
        // Table II lists 22 entries for this graph with k = 2; a correct,
        // condensed build should be in the same ballpark (the exact set may
        // differ slightly with tie-breaking of equal-priority vertices).
        let entries = index.entry_count();
        assert!(
            (18..=26).contains(&entries),
            "expected about 22 entries as in Table II, got {entries}"
        );
    }

    #[test]
    fn fig1_fraud_queries() {
        let g = fig1_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(3));
        let q1 = RlcQuery::from_names(&g, "A14", "A19", &["debits", "credits"]).unwrap();
        assert!(index.query(&q1), "Q1 of Example 1 must be true");
        let q2 = RlcQuery::from_names(&g, "P10", "P13", &["knows", "knows", "worksFor"]).unwrap();
        assert!(!index.query(&q2), "Q2 of Example 1 must be false");
        let knows = RlcQuery::from_names(&g, "P10", "P16", &["knows"]).unwrap();
        assert!(index.query(&knows));
    }

    #[test]
    fn self_loop_single_label() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "a");
        b.add_edge_named("a", "y", "b");
        let g = b.build();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let a = g.vertex_id("a").unwrap();
        let b_id = g.vertex_id("b").unwrap();
        let x = labels(&g, &["x"]);
        let y = labels(&g, &["y"]);
        assert!(index.reaches(a, a, &x));
        assert!(index.reaches(a, b_id, &y));
        assert!(!index.reaches(a, b_id, &x));
        assert!(!index.reaches(b_id, a, &y));
    }

    #[test]
    fn two_label_cycle_longer_than_k_paths() {
        // A 6-cycle alternating labels x,y: every even-offset pair is
        // reachable under (x,y)+ starting on an x edge.
        let mut b = GraphBuilder::with_capacity(6, 2);
        for i in 0..6u32 {
            let label = Label((i % 2) as u16);
            b.add_edge(i, label, (i + 1) % 6);
        }
        let g = b.build();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let xy = vec![Label(0), Label(1)];
        let yx = vec![Label(1), Label(0)];
        // From vertex 0 (whose outgoing edge is x) the (x,y)+ constraint
        // reaches vertices 2, 4 and 0 itself (going all the way around).
        assert!(index.reaches(0, 2, &xy));
        assert!(index.reaches(0, 4, &xy));
        assert!(index.reaches(0, 0, &xy));
        assert!(!index.reaches(0, 1, &xy));
        assert!(!index.reaches(0, 2, &yx));
        // From vertex 1 the outgoing edge is y, so (y,x)+ applies.
        assert!(index.reaches(1, 3, &yx));
        assert!(index.reaches(1, 1, &yx));
    }

    #[test]
    fn pruning_rules_do_not_change_answers() {
        let g = fig2_graph();
        let full = build_index(&g, &BuildConfig::new(2)).0;
        let unpruned = build_index(&g, &BuildConfig::new(2).without_pruning()).0;
        for s in g.vertices() {
            for t in g.vertices() {
                for (_, seq) in unpruned.catalog().iter() {
                    let q = RlcQuery::new(s, t, seq.to_vec()).unwrap();
                    assert_eq!(
                        full.query(&q),
                        unpruned.query(&q),
                        "answers diverge for ({s}, {t}, {seq:?})"
                    );
                }
            }
        }
        assert!(
            full.entry_count() <= unpruned.entry_count(),
            "pruning must not add entries"
        );
    }

    #[test]
    fn lazy_and_eager_strategies_agree() {
        let g = fig2_graph();
        let eager = build_index(&g, &BuildConfig::new(2)).0;
        let lazy = build_index(&g, &BuildConfig::new(2).with_strategy(KbsStrategy::Lazy)).0;
        for s in g.vertices() {
            for t in g.vertices() {
                for (_, seq) in eager.catalog().iter() {
                    let q = RlcQuery::new(s, t, seq.to_vec()).unwrap();
                    assert_eq!(eager.query(&q), lazy.query(&q));
                }
            }
        }
    }

    #[test]
    fn build_stats_account_for_attempts() {
        let g = fig2_graph();
        let (_, stats) = build_index(&g, &BuildConfig::new(2));
        assert_eq!(stats.kernel_searches, 12, "two searches per vertex");
        assert!(stats.insert_attempts >= stats.inserted);
        assert_eq!(
            stats.insert_attempts,
            stats.inserted + stats.pruned_pr1 + stats.pruned_pr2 + stats.duplicates
        );
        assert!(!stats.timed_out);
    }

    #[test]
    fn packed_index_answers_and_lists_exactly_what_was_staged() {
        // The pack must change the representation and nothing else: on
        // seeded small graphs (≤ 8 vertices, ≤ 3 labels, k ≤ 3, every
        // ordering, pruned and unpruned) the packed index answers every
        // (s, t, mr) like the PR1 probe over the lists it was packed from,
        // and its row views list exactly the staged entries.
        let by_key = |e: &IndexEntry| (e.mr, e.hub);
        for seed in 0..24u64 {
            let n = 2 + (seed % 7) as usize;
            let labels = 1 + (seed % 3) as usize;
            let g = rlc_graph::generate::erdos_renyi(&rlc_graph::generate::SyntheticConfig::new(
                n, 2.0, labels, seed,
            ));
            for ordering in [
                OrderingStrategy::InOutDegree,
                OrderingStrategy::OutDegree,
                OrderingStrategy::InDegree,
                OrderingStrategy::TotalDegree,
                OrderingStrategy::VertexId,
                OrderingStrategy::Random(seed),
            ] {
                let pruned = BuildConfig::new(1 + (seed % 3) as usize).with_ordering(ordering);
                for config in [pruned, pruned.without_pruning()] {
                    let (staging, _) = build_staging(&g, &config, Instant::now());
                    let mrs: Vec<MrId> = staging.catalog.iter().map(|(id, _)| id).collect();
                    let mut triples = Vec::new();
                    for s in g.vertices() {
                        for t in g.vertices() {
                            triples.extend(mrs.iter().map(|&mr| (s, t, mr)));
                        }
                    }
                    let staged_answers: Vec<bool> = triples
                        .iter()
                        .map(|&(s, t, mr)| staging.query_interned(s, t, mr))
                        .collect();
                    let sorted = |rows: &[Vec<IndexEntry>]| -> Vec<Vec<IndexEntry>> {
                        rows.iter()
                            .map(|row| {
                                let mut row = row.clone();
                                row.sort_by_key(by_key);
                                row
                            })
                            .collect()
                    };
                    let (staged_lout, staged_lin) = (sorted(&staging.lout), sorted(&staging.lin));
                    let index = staging.pack(config.k);
                    let packed_answers: Vec<bool> = triples
                        .iter()
                        .map(|&(s, t, mr)| index.query_interned(s, t, mr))
                        .collect();
                    assert_eq!(packed_answers, staged_answers, "seed {seed}, {config:?}");
                    for v in g.vertices() {
                        let listed = |row: crate::index::EntryRow<'_>| {
                            let mut row: Vec<IndexEntry> = row.iter().collect();
                            row.sort_by_key(by_key);
                            row
                        };
                        assert_eq!(listed(index.lout(v)), staged_lout[v as usize]);
                        assert_eq!(listed(index.lin(v)), staged_lin[v as usize]);
                    }
                }
            }
        }
    }

    #[test]
    fn time_budget_yields_partial_index() {
        let g = rlc_graph::generate::erdos_renyi(&rlc_graph::generate::SyntheticConfig::new(
            2000, 5.0, 4, 3,
        ));
        let (_, stats) = build_index(
            &g,
            &BuildConfig::new(2).with_time_budget(Duration::from_nanos(1)),
        );
        assert!(stats.timed_out);
    }

    #[test]
    #[should_panic(expected = "recursive k must be at least 1")]
    fn zero_k_is_rejected() {
        let g = fig2_graph();
        let _ = build_index(
            &g,
            &BuildConfig {
                k: 0,
                ..BuildConfig::new(1)
            },
        );
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = GraphBuilder::with_capacity(5, 2).build();
        let (index, stats) = build_index(&g, &BuildConfig::new(2));
        assert_eq!(index.entry_count(), 0);
        assert_eq!(stats.inserted, 0);
        assert!(!index.reaches(0, 1, &[Label(0)]));
    }
}
