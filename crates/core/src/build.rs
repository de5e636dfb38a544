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
//! # Packed label sequences
//!
//! Phase 1 never holds a label sequence as a `Vec`: a sequence of at most
//! the phase-1 depth is one [`Seq`], a `u128` with each label as wide as the
//! graph's largest label id ([`LabelPacking`]). Extending a sequence is a
//! shift, its minimum repeat is a period check on the integer, and the
//! visited-state set, the frontier list and the sequence → [`MrId`] table
//! that stands in for [`MrCatalog::resolve`] are reused from root to root
//! and hash with a per-build seeded [`KeyHasher`], not SipHash. The catalog
//! itself is only touched when an entry with a new minimum repeat is
//! inserted, so intern order is exactly that of the attempts.
//! [`build_index`] asserts up front that the deepest phase-1 sequence fits
//! the 128 bits.
//!
//! # Staging and packing
//!
//! The builder appends entries to [`Staging`], this module's private
//! nested-list form of the index. Entries are staged as the packed index's
//! own keys, `(mr << 32) | hub_rank` with the hub's access id as rank, and
//! hubs arrive in rank order, so every list is append-only and sorted by
//! rank. The general PR1 probe ([`Staging::query_interned`]) is Algorithm 1
//! over two such lists with no access-id loads. Inside one kernel-BFS phase
//! the root's side of every probe is fixed — `Lin(root)` for a backward
//! search, `Lout(root)` for a forward one — because that phase inserts only
//! into the visited vertices' other side. The phase therefore stamps the
//! ranks of the root side's hubs under its minimum repeat into a
//! rank-indexed epoch array once, and each of its PR1 probes is one scan of
//! the visited vertex's own list. After the last root, [`build_index`]
//! packs the lists once into the CSR layout of [`RlcIndex`]; nothing
//! outside this module sees the staging form.

use crate::catalog::{MrCatalog, MrId};
use crate::index::{key_mr, key_rank, pack_key, RlcIndex};
use crate::kernel::Direction;
use crate::order::{compute_order, OrderingStrategy, VertexOrder};
use rlc_graph::{Label, LabeledGraph, VertexId};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::time::{Duration, Instant};

/// Which kernel-search strategy to use (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// The longest label sequence phase 1 enumerates: `k` for the eager
    /// strategy, `2k` for the lazy one.
    fn phase1_depth(&self) -> usize {
        match self.strategy {
            KbsStrategy::Eager => self.k,
            KbsStrategy::Lazy => 2 * self.k,
        }
    }
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig::new(2)
    }
}

/// Counters and timing collected while building an index.
#[derive(Debug, Clone, Default, PartialEq)]
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
///
/// # Panics
///
/// Panics when `config.k` is 0, or when a phase-1 label sequence (`k`
/// labels eager, `2k` lazy) at the graph's label width needs more than the
/// 128 bits of a [`Seq`] — for example `k > 8` eager or `k > 4` lazy once
/// label ids need 16 bits.
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
    let packing = LabelPacking::for_graph(graph);
    let depth = config.phase1_depth();
    assert!(
        packing.fits(depth),
        "phase-1 label sequences of {depth} labels at {} bits per label exceed the \
         {SEQ_BITS}-bit packing limit",
        packing.width
    );
    let order = compute_order(graph, config.ordering);
    let hash = KeyHash::new();
    let mut builder = Builder {
        graph,
        config: *config,
        packing,
        depth,
        staging: Staging::new(order),
        mr_ids: HashMap::with_hasher(hash),
        stats: BuildStats::default(),
        scratch: Scratch::new(graph.vertex_count(), config.k, hash),
        deadline: config.time_budget.map(|b| started + b),
    };
    builder.run();
    (builder.staging, builder.stats)
}

/// The builder's staging form of the index: per-vertex append-only lists of
/// `(mr << 32) | hub_rank` keys in hub-rank order (roots are processed in
/// that order), plus the catalog being interned. Packed into an
/// [`RlcIndex`] once, by [`Staging::pack`].
struct Staging {
    order: VertexOrder,
    catalog: MrCatalog,
    lin: Vec<Vec<u64>>,
    lout: Vec<Vec<u64>>,
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

    /// The general PR1 probe: whether `(s, t, mr+)` is answerable from the
    /// entries staged so far (Algorithm 1 over lists in hub-rank order).
    fn query_interned(&self, s: VertexId, t: VertexId, mr: MrId) -> bool {
        let lout_s = &self.lout[s as usize];
        let lin_t = &self.lin[t as usize];
        // Case 2 of Definition 4: direct entries.
        if lout_s.contains(&pack_key(mr, self.order.aid(t)))
            || lin_t.contains(&pack_key(mr, self.order.aid(s)))
        {
            return true;
        }
        // Case 1: merge join on hub rank over the two lists' `mr` entries
        // (at most one per hub, so both are strictly increasing).
        let (mut out, mut inn) = (hub_ranks(lout_s, mr), hub_ranks(lin_t, mr));
        let (mut a, mut b) = (out.next(), inn.next());
        while let (Some(x), Some(y)) = (a, b) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => a = out.next(),
                std::cmp::Ordering::Greater => b = inn.next(),
                std::cmp::Ordering::Equal => return true,
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

/// The hub ranks of a staged list's entries under `mr`, in list order.
fn hub_ranks(list: &[u64], mr: MrId) -> impl Iterator<Item = u32> + '_ {
    list.iter()
        .filter(move |&&key| key_mr(key) == mr)
        .map(|&key| key_rank(key))
}

impl RlcIndex {
    /// Builds the index with the paper's default settings for the given `k`.
    pub fn build(graph: &LabeledGraph, k: usize) -> RlcIndex {
        build_index(graph, &BuildConfig::new(k)).0
    }
}

/// Bits available to one packed label sequence.
const SEQ_BITS: usize = 128;

/// A label sequence packed into one integer: label `i` of `len` occupies
/// the `i`-th field of [`LabelPacking::width`] bits counted from the most
/// significant end, and every bit past the last label is zero. Comparing
/// `(bits, len)` — the derived order — therefore orders sequences exactly as
/// `Vec<Label>` does: the first differing label decides, and a proper prefix
/// sorts first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
struct Seq {
    bits: u128,
    len: u32,
}

/// How a graph's labels pack into a [`Seq`].
#[derive(Debug, Clone, Copy)]
struct LabelPacking {
    /// Bits per label: enough for the graph's largest label id, at least 1.
    width: u32,
}

impl LabelPacking {
    fn for_graph(graph: &LabeledGraph) -> Self {
        let largest = graph.label_count().saturating_sub(1) as u64;
        LabelPacking {
            width: (u64::BITS - largest.leading_zeros()).max(1),
        }
    }

    /// Whether sequences of `len` labels fit in a [`Seq`].
    fn fits(self, len: usize) -> bool {
        len.saturating_mul(self.width as usize) <= SEQ_BITS
    }

    /// The mask selecting the first `labels` fields.
    #[inline]
    fn head_mask(self, labels: u32) -> u128 {
        u128::MAX
            .checked_shl(SEQ_BITS as u32 - labels * self.width)
            .unwrap_or(0)
    }

    /// `label` as the field at `index`.
    #[inline]
    fn field(self, label: Label, index: u32) -> u128 {
        u128::from(label.0) << (SEQ_BITS as u32 - (index + 1) * self.width)
    }

    /// `seq ∘ label`.
    #[inline]
    fn push_back(self, seq: Seq, label: Label) -> Seq {
        Seq {
            bits: seq.bits | self.field(label, seq.len),
            len: seq.len + 1,
        }
    }

    /// `label ∘ seq`.
    #[inline]
    fn push_front(self, seq: Seq, label: Label) -> Seq {
        Seq {
            bits: (seq.bits >> self.width) | self.field(label, 0),
            len: seq.len + 1,
        }
    }

    /// The label at `index` (which must be below `seq.len`).
    #[inline]
    fn label(self, seq: Seq, index: u32) -> Label {
        Label(((seq.bits << (index * self.width)) >> (SEQ_BITS as u32 - self.width)) as u16)
    }

    /// The first `len` labels of `seq`.
    #[inline]
    fn prefix(self, seq: Seq, len: u32) -> Seq {
        Seq {
            bits: seq.bits & self.head_mask(len),
            len,
        }
    }

    /// Length of `MR(seq)`: the smallest `p` dividing `len` for which `seq`
    /// shifted by `p` labels equals its first `len - p` labels (see
    /// [`crate::repeats`]).
    #[inline]
    fn minimum_repeat_len(self, seq: Seq) -> u32 {
        let n = seq.len;
        (1..n)
            .find(|&p| {
                n.is_multiple_of(p)
                    && seq.bits << (p * self.width) == seq.bits & self.head_mask(n - p)
            })
            .unwrap_or(n)
    }

    /// The labels of `seq`, for the catalog.
    fn labels(self, seq: Seq) -> Vec<Label> {
        (0..seq.len).map(|i| self.label(seq, i)).collect()
    }
}

/// The builder's hasher for its keys (vertex ids and [`Seq`]s): a
/// multiply-rotate accumulator finished by the murmur3 avalanche, so the
/// high label bits of a [`Seq`] still reach the low bits the table indexes
/// by. Much cheaper than SipHash on these short fixed-width keys.
#[derive(Debug, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.write_u64(value as u64);
        self.write_u64((value >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Starts every [`KeyHasher`] from one seed drawn per build: the keys derive
/// from the input graph, so which of them collide must not be fixed in
/// advance. No table of the builder is ever iterated, so the seed cannot
/// reach the result.
#[derive(Debug, Clone, Copy)]
struct KeyHash {
    seed: u64,
}

impl KeyHash {
    fn new() -> Self {
        KeyHash {
            seed: RandomState::new().hash_one(0u8),
        }
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.seed)
    }
}

/// One kernel-based search: its root, the root's access id, its direction.
/// A backward search walks in-edges from the root, and the facts it
/// discovers are `u ⇝ root`, landing in `Lout(u)`; a forward search walks
/// out-edges, and its facts `root ⇝ u` land in `Lin(u)`.
#[derive(Debug, Clone, Copy)]
struct Search {
    root: VertexId,
    rank: u32,
    dir: Direction,
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

/// How an insertion attempt runs its PR1 probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pr1Probe {
    /// [`Staging::query_interned`] over both lists: phase 1, where the
    /// minimum repeat changes from one attempt to the next.
    Lists,
    /// The root's side is stamped in [`Scratch::hub_stamp`] under the
    /// attempt's minimum repeat: a kernel-BFS phase.
    StampedRootSide,
}

/// Search state reused from one root and phase to the next, so a build
/// allocates only while these grow to their largest size.
struct Scratch {
    /// The recursive `k` the state table is sized for.
    k: usize,
    /// Visited stamps for kernel-BFS states: `state_stamp[v * k + state]`
    /// equals the current epoch when `(v, state)` has been visited.
    state_stamp: Vec<u32>,
    /// `hub_stamp[rank]` equals the current epoch when the hub of that
    /// access id is on the phase root's side under the phase's MR.
    hub_stamp: Vec<u32>,
    epoch: u32,
    /// The kernel-BFS queue of `(vertex, state)`.
    bfs_queue: VecDeque<(VertexId, u32)>,
    /// Phase 1's visited `(vertex, sequence)` pairs.
    seen: HashSet<(VertexId, Seq), KeyHash>,
    /// Phase 1's queue.
    search_queue: VecDeque<(VertexId, Seq)>,
    /// Phase 1's frontier registrations `(kernel, vertex)`, in the order made.
    frontiers: Vec<(Seq, VertexId)>,
}

impl Scratch {
    fn new(vertices: usize, k: usize, hash: KeyHash) -> Self {
        Scratch {
            k,
            state_stamp: vec![0u32; vertices * k],
            hub_stamp: vec![0u32; vertices],
            epoch: 0,
            bfs_queue: VecDeque::new(),
            seen: HashSet::with_hasher(hash),
            search_queue: VecDeque::new(),
            frontiers: Vec::new(),
        }
    }

    /// Starts a fresh kernel-BFS phase by bumping the epoch.
    fn begin_phase(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset the tables once every 2^32 phases.
            self.state_stamp.iter_mut().for_each(|s| *s = 0);
            self.hub_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.bfs_queue.clear();
    }

    #[inline]
    fn visited(&self, v: VertexId, state: u32) -> bool {
        self.state_stamp[v as usize * self.k + state as usize] == self.epoch
    }

    /// Marks `(v, state)` visited; returns whether it was already visited.
    #[inline]
    fn mark(&mut self, v: VertexId, state: u32) -> bool {
        let slot = &mut self.state_stamp[v as usize * self.k + state as usize];
        let was = *slot == self.epoch;
        *slot = self.epoch;
        was
    }

    #[inline]
    fn hub_stamped(&self, rank: u32) -> bool {
        self.hub_stamp[rank as usize] == self.epoch
    }
}

struct Builder<'g> {
    graph: &'g LabeledGraph,
    config: BuildConfig,
    packing: LabelPacking,
    /// The phase-1 depth ([`BuildConfig::phase1_depth`]).
    depth: usize,
    staging: Staging,
    /// The id of every interned minimum repeat: the catalog's contents,
    /// keyed by packed sequence.
    mr_ids: HashMap<Seq, MrId, KeyHash>,
    stats: BuildStats,
    scratch: Scratch,
    deadline: Option<Instant>,
}

impl<'g> Builder<'g> {
    fn run(&mut self) {
        let sequence = self.staging.order.sequence.clone();
        for (rank, root) in (0u32..).zip(sequence) {
            if self.budget_exhausted() {
                self.stats.timed_out = true;
                break;
            }
            // Backward first, then forward, as in Algorithm 2.
            for dir in [Direction::Backward, Direction::Forward] {
                self.kernel_based_search(Search { root, rank, dir });
            }
        }
    }

    fn budget_exhausted(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// One kernel-based search.
    fn kernel_based_search(&mut self, search: Search) {
        self.stats.kernel_searches += 1;
        self.kernel_search_phase(search);
        // Kernel order decides the catalog's intern order; sorting by the
        // packed key is the old `Vec<Label>` order, and the stable sort keeps
        // each kernel's frontier in registration order.
        let mut frontiers = std::mem::take(&mut self.scratch.frontiers);
        frontiers.sort_by_key(|&(kernel, _)| kernel);
        for run in frontiers.chunk_by(|a, b| a.0 == b.0) {
            self.stats.kernel_bfs_runs += 1;
            self.kernel_bfs_phase(search, run[0].0, run);
        }
        frontiers.clear();
        self.scratch.frontiers = frontiers;
    }

    /// Phase 1: enumerate label sequences up to the phase-1 depth, insert the
    /// corresponding entries, and register kernel candidates with their
    /// frontier vertices in [`Scratch::frontiers`].
    fn kernel_search_phase(&mut self, search: Search) {
        let k = self.config.k as u32;
        let depth = self.depth as u32;
        let packing = self.packing;
        self.scratch.seen.clear();
        self.scratch.search_queue.clear();
        self.scratch
            .search_queue
            .push_back((search.root, Seq::default()));

        while let Some((x, seq)) = self.scratch.search_queue.pop_front() {
            for (y, label) in search.dir.edges(self.graph, x) {
                let extended = match search.dir {
                    // Backward traversal prepends: the sequence is always the
                    // forward label sequence from the visited vertex to root.
                    Direction::Backward => packing.push_front(seq, label),
                    Direction::Forward => packing.push_back(seq, label),
                };
                if !self.scratch.seen.insert((y, extended)) {
                    continue;
                }
                let mr_len = packing.minimum_repeat_len(extended);
                if mr_len <= k {
                    let mr = packing.prefix(extended, mr_len);
                    // Phase-1 insertion attempts never cut the search (PR3
                    // applies only to the kernel-BFS phase).
                    let _ = self.try_insert(search, y, mr, &mut None, Pr1Probe::Lists);
                    // The sequence is an exact power of its MR; register the
                    // vertex as frontier when the next repetition would not
                    // fit within the phase-1 depth.
                    if extended.len + mr_len > depth {
                        self.scratch.frontiers.push((mr, y));
                    }
                }
                if extended.len < depth {
                    self.scratch.search_queue.push_back((y, extended));
                }
            }
        }
    }

    /// Phase 2: BFS constrained to the cyclic label pattern of `kernel`,
    /// starting from the frontier vertices (each sitting on a repetition
    /// boundary).
    fn kernel_bfs_phase(&mut self, search: Search, kernel: Seq, frontier: &[(Seq, VertexId)]) {
        let klen = kernel.len;
        let packing = self.packing;
        self.scratch.begin_phase();
        // One MR for the whole phase: resolve it once, and stamp the root's
        // side of every PR1 probe, which no insert of this phase touches.
        let mut mr_id = self.mr_ids.get(&kernel).copied();
        if let (Some(id), true) = (mr_id, self.config.use_pr1) {
            let root_side = match search.dir {
                Direction::Backward => &self.staging.lin[search.root as usize],
                Direction::Forward => &self.staging.lout[search.root as usize],
            };
            for &key in root_side {
                if key_mr(key) == id {
                    self.scratch.hub_stamp[key_rank(key) as usize] = self.scratch.epoch;
                }
            }
        }
        for &(_, v) in frontier {
            if !self.scratch.mark(v, 0) {
                self.scratch.bfs_queue.push_back((v, 0));
            }
        }
        let mut steps = 0u32;
        while let Some((x, state)) = self.scratch.bfs_queue.pop_front() {
            steps += 1;
            if steps.is_multiple_of(4096) && self.budget_exhausted() {
                self.stats.timed_out = true;
                return;
            }
            // The label expected on the next traversed edge: forward searches
            // consume the kernel left to right, backward searches right to
            // left (the sequence read along the path stays `kernel^m`).
            let expected = packing.label(kernel, search.dir.block_offset(state, klen));
            for (y, label) in search.dir.edges(self.graph, x) {
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
                    let outcome =
                        self.try_insert(search, y, kernel, &mut mr_id, Pr1Probe::StampedRootSide);
                    if outcome.is_pruned() {
                        self.stats.pr3_cutoffs += 1;
                        if self.config.use_pr3 {
                            // PR3: do not expand past a pruned boundary.
                            continue;
                        }
                    }
                }
                self.scratch.bfs_queue.push_back((y, next_state));
            }
        }
    }

    /// Attempts to record that a `mr`-repetition path exists between `visited`
    /// and the search root (direction-dependent), applying PR2 and PR1.
    /// `mr_id` caches `mr`'s catalog id across attempts: while it is `None`,
    /// an attempt that survives PR2 looks the id up, and one that interns
    /// `mr` sets it.
    fn try_insert(
        &mut self,
        search: Search,
        visited: VertexId,
        mr: Seq,
        mr_id: &mut Option<MrId>,
        probe: Pr1Probe,
    ) -> InsertOutcome {
        self.stats.insert_attempts += 1;
        let visited_rank = self.staging.order.aid(visited);
        // PR2: only roots with access id no larger than the visited vertex
        // record entries there; later roots rely on the earlier vertex's own
        // searches.
        if self.config.use_pr2 && search.rank > visited_rank {
            self.stats.pruned_pr2 += 1;
            return InsertOutcome::PrunedPr2;
        }
        if mr_id.is_none() {
            *mr_id = self.mr_ids.get(&mr).copied();
        }
        // The visited vertex's own list: where the entry would go.
        let own = match search.dir {
            Direction::Backward => &self.staging.lout[visited as usize],
            Direction::Forward => &self.staging.lin[visited as usize],
        };
        if let Some(id) = *mr_id {
            // Exact-duplicate check: the current root's entries sit at the
            // tail of the list, so only the tail needs scanning.
            let key = pack_key(id, search.rank);
            let duplicate = own
                .iter()
                .rev()
                .take_while(|&&k| key_rank(k) == search.rank)
                .any(|&k| k == key);
            if duplicate {
                self.stats.duplicates += 1;
                return InsertOutcome::AlreadyPresent;
            }
            // PR1: skip entries already answerable from the current snapshot.
            if self.config.use_pr1 {
                let answered = match probe {
                    Pr1Probe::Lists => {
                        let (s, t) = match search.dir {
                            Direction::Backward => (visited, search.root),
                            Direction::Forward => (search.root, visited),
                        };
                        self.staging.query_interned(s, t, id)
                    }
                    // With no duplicate, the own list holds no direct entry
                    // to the root; a direct entry from the root's side is a
                    // stamped visited vertex, and a common hub is a stamped
                    // hub of an own entry under the same MR.
                    Pr1Probe::StampedRootSide => {
                        let scratch = &self.scratch;
                        scratch.hub_stamped(visited_rank)
                            || own
                                .iter()
                                .any(|&k| key_mr(k) == id && scratch.hub_stamped(key_rank(k)))
                    }
                };
                if answered {
                    self.stats.pruned_pr1 += 1;
                    return InsertOutcome::PrunedPr1;
                }
            }
        }
        let id = match *mr_id {
            Some(id) => id,
            None => {
                let id = self.staging.catalog.intern(&self.packing.labels(mr));
                self.mr_ids.insert(mr, id);
                *mr_id = Some(id);
                id
            }
        };
        // Roots run in access-id order, so appending keeps every list
        // sorted by hub rank, as the PR1 probes require.
        let key = pack_key(id, search.rank);
        match search.dir {
            Direction::Backward => self.staging.lout[visited as usize].push(key),
            Direction::Forward => self.staging.lin[visited as usize].push(key),
        }
        self.stats.inserted += 1;
        InsertOutcome::Inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexEntry;
    use crate::query::RlcQuery;
    use crate::repeats::minimum_repeat_len;
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
                    let sorted = |rows: &[Vec<u64>]| -> Vec<Vec<IndexEntry>> {
                        rows.iter()
                            .map(|row| {
                                let mut row: Vec<IndexEntry> = row
                                    .iter()
                                    .map(|&key| IndexEntry {
                                        hub: staging.order.sequence[key_rank(key) as usize],
                                        mr: key_mr(key),
                                    })
                                    .collect();
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

    /// Every sequence of at most `max_len` labels over `labels` labels.
    fn all_sequences(labels: u16, max_len: usize) -> Vec<Vec<Label>> {
        let mut all = vec![Vec::new()];
        let mut level = vec![Vec::new()];
        for _ in 0..max_len {
            level = level
                .iter()
                .flat_map(|seq: &Vec<Label>| {
                    (0..labels).map(move |l| {
                        let mut next = seq.clone();
                        next.push(Label(l));
                        next
                    })
                })
                .collect();
            all.extend(level.iter().cloned());
        }
        all
    }

    fn pack_seq(packing: LabelPacking, seq: &[Label]) -> Seq {
        seq.iter()
            .fold(Seq::default(), |packed, &l| packing.push_back(packed, l))
    }

    #[test]
    fn packed_sequences_match_the_vec_operations_they_replace() {
        // Three labels pack at two bits each.
        let packing = LabelPacking::for_graph(&GraphBuilder::with_capacity(1, 3).build());
        assert_eq!(packing.width, 2);
        let all = all_sequences(3, 6);
        assert_eq!(all.len(), 1 + 3 + 9 + 27 + 81 + 243 + 729);
        for seq in &all {
            let packed = pack_seq(packing, seq);
            assert_eq!(packing.labels(packed), *seq);
            let mr_len = minimum_repeat_len(seq);
            assert_eq!(
                packing.minimum_repeat_len(packed) as usize,
                mr_len,
                "{seq:?}"
            );
            let mr = packing.prefix(packed, mr_len as u32);
            assert_eq!(packing.labels(mr), seq[..mr_len], "{seq:?}");
            assert_eq!(mr, pack_seq(packing, &seq[..mr_len]), "{seq:?}");
            for l in (0..3).map(Label) {
                // What the old phase 1 built with Vec pushes.
                let mut front = vec![l];
                front.extend_from_slice(seq);
                let mut back = seq.clone();
                back.push(l);
                assert_eq!(packing.labels(packing.push_front(packed, l)), front);
                assert_eq!(packing.labels(packing.push_back(packed, l)), back);
                assert_eq!(packing.push_front(packed, l), pack_seq(packing, &front));
            }
        }
        // Kernel order (and with it the catalog's intern order) follows the
        // packed key; it must be the `Vec<Label>` order.
        let mut by_vec = all.clone();
        by_vec.sort();
        let mut by_key = all;
        by_key.sort_by_key(|seq| pack_seq(packing, seq));
        assert_eq!(by_key, by_vec);
    }

    #[test]
    fn wide_labels_pack_at_their_width() {
        // 300 labels need nine bits each, so fourteen fit and fifteen do not.
        let packing = LabelPacking::for_graph(&GraphBuilder::with_capacity(1, 300).build());
        assert_eq!(packing.width, 9);
        assert!(packing.fits(14) && !packing.fits(15));
        let seq: Vec<Label> = [
            299u16, 256, 0, 255, 299, 256, 0, 255, 299, 256, 0, 255, 299, 256,
        ]
        .map(Label)
        .to_vec();
        let packed = pack_seq(packing, &seq);
        assert_eq!(packing.labels(packed), seq);
        assert_eq!(packing.minimum_repeat_len(packed) as usize, 14);
        assert_eq!(packing.minimum_repeat_len(pack_seq(packing, &seq[..12])), 4);
    }

    /// A two-label cycle `a -x-> b -y-> a`: one bit per label, so the 128-bit
    /// budget admits exactly `k = 128` under the eager strategy.
    fn two_label_cycle() -> LabeledGraph {
        let mut b = GraphBuilder::with_capacity(2, 2);
        b.add_edge(0, Label(0), 1);
        b.add_edge(1, Label(1), 0);
        b.build()
    }

    #[test]
    fn build_at_the_bit_budget_succeeds() {
        let g = two_label_cycle();
        let (index, _) = build_index(&g, &BuildConfig::new(SEQ_BITS));
        assert!(index.reaches(0, 0, &[Label(0), Label(1)]));
        assert!(index.reaches(1, 0, &[Label(1)]));
        assert!(!index.reaches(0, 1, &[Label(1), Label(0)]));
        let lazy = BuildConfig::new(SEQ_BITS / 2).with_strategy(KbsStrategy::Lazy);
        let (lazy_index, _) = build_index(&g, &lazy);
        assert!(lazy_index.reaches(1, 1, &[Label(1), Label(0)]));
    }

    #[test]
    #[should_panic(expected = "128-bit packing limit")]
    fn build_one_label_past_the_bit_budget_is_rejected() {
        let _ = build_index(&two_label_cycle(), &BuildConfig::new(SEQ_BITS + 1));
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
