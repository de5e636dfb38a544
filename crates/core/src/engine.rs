//! The evaluator abstraction every RLC-query backend plugs into.
//!
//! Historically each consumer of the workspace dispatched against four
//! incompatible evaluator APIs: [`RlcIndex::query`], the `bfs_query` /
//! `bibfs_query` / `dfs_query` free functions of `rlc-baselines`, the
//! `EtcIndex`, and a `GraphEngine` trait private to `rlc-engine-sim`. This
//! module unifies them behind [`ReachabilityEngine`], now organized around a
//! **prepare/execute split**:
//!
//! * [`ReachabilityEngine::prepare`] compiles the engine-specific artifact
//!   for a [`Constraint`] once — an NFA for the traversal engines, the
//!   validated block structure with a resolved catalog id for the index-
//!   backed engines — and returns it as a [`Prepared`];
//! * [`ReachabilityEngine::evaluate_prepared`] answers one `(source, target)`
//!   pair under a prepared constraint, reusing the artifact;
//! * [`ReachabilityEngine::evaluate`] is the one-shot convenience
//!   (prepare + execute), and [`ReachabilityEngine::evaluate_batch`] the
//!   rayon-parallel naive batch path (one prepare per query).
//!
//! Every evaluation path is fallible: invalid constraints surface as
//! [`QueryError`] values instead of panics. Batches that share constraints
//! should go through [`crate::plan::BatchPlan`], which groups by constraint
//! and prepares each distinct constraint exactly once.
//!
//! Implementations live next to the evaluators they wrap:
//!
//! * [`IndexEngine`] (this module) — an index answering single blocks, with
//!   hybrid index + traversal evaluation of concatenated constraints. It is
//!   generic over the [`BlockIndex`] that answers the end block: the RLC
//!   index by default, and the extended transitive closure as `EtcEngine`
//!   in `rlc-baselines`. [`HybridEngine`] is an alias of the RLC one;
//! * `BfsEngine`, `BiBfsEngine`, `DfsEngine` in `rlc-baselines` — the
//!   online traversals;
//! * the sharded engine in `rlc-shard`;
//! * the three simulated mainstream engines in `rlc-engine-sim`.

use crate::catalog::{MrCatalog, MrId};
use crate::hybrid::{
    closure_direction, evaluate_concat_grouped, evaluate_hybrid_prepared, in_range, HybridPlan,
};
use crate::index::RlcIndex;
use crate::kernel::Direction;
use crate::query::{Constraint, Query, QueryError};
use rayon::prelude::*;
use rlc_graph::{Label, LabeledGraph, VertexId};
use rlc_obs::TraceNode;
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A compiled constraint, produced by [`ReachabilityEngine::prepare`] and
/// consumed by [`ReachabilityEngine::evaluate_prepared`].
///
/// The artifact is engine-specific (an NFA, a resolved catalog id, …) and
/// type-erased so the trait stays object safe across crates. A `Prepared` is
/// portable across engines without ever causing a panic or a wrong answer:
/// engines of a different kind detect the foreign artifact type, and the
/// index-backed engines additionally tag their artifacts with the identity
/// of the index they resolved against — on any mismatch the receiving
/// engine transparently re-prepares (re-running its own validation), at the
/// cost of one redundant compilation.
pub struct Prepared {
    constraint: Constraint,
    engine: String,
    artifact: Box<dyn Any + Send + Sync>,
    approx_bytes: usize,
}

/// Heap bytes held by a constraint's block lists (shared by the default
/// [`Prepared::approx_bytes`] pricing and [`crate::cache::PlanCache`]'s
/// key pricing).
pub(crate) fn constraint_heap_bytes(constraint: &Constraint) -> usize {
    constraint
        .blocks()
        .iter()
        .map(|block| {
            block.len() * std::mem::size_of::<rlc_graph::Label>()
                + std::mem::size_of::<Vec<rlc_graph::Label>>()
        })
        .sum()
}

/// Default allowance for a type-erased artifact whose producer did not call
/// [`Prepared::with_approx_bytes`]: the resolved-id artifacts of the
/// index-backed engines are this small by construction.
const DEFAULT_ARTIFACT_BYTES: usize = 64;

impl Prepared {
    /// Wraps an engine-specific artifact together with the constraint it was
    /// compiled from.
    ///
    /// The preparation's [`Prepared::approx_bytes`] defaults to the
    /// constraint's own heap footprint plus a small fixed artifact
    /// allowance; engines with large artifacts (compiled automata, per-shard
    /// tables) should override it via [`Prepared::with_approx_bytes`] so
    /// cache byte budgets stay honest.
    pub fn new(constraint: Constraint, engine: &str, artifact: impl Any + Send + Sync) -> Self {
        let approx_bytes = std::mem::size_of::<Prepared>()
            + constraint_heap_bytes(&constraint)
            + DEFAULT_ARTIFACT_BYTES;
        Prepared {
            constraint,
            engine: engine.to_owned(),
            artifact: Box::new(artifact),
            approx_bytes,
        }
    }

    /// Overrides the approximate resident footprint with an engine-supplied
    /// figure (NFA state and transition counts, per-shard table sizes, …).
    /// The constraint's own heap bytes and the box header are added on top,
    /// so callers only price the artifact itself.
    pub fn with_approx_bytes(mut self, artifact_bytes: usize) -> Self {
        self.approx_bytes = std::mem::size_of::<Prepared>()
            + constraint_heap_bytes(&self.constraint)
            + artifact_bytes;
        self
    }

    /// Approximate resident heap footprint of this preparation in bytes:
    /// the constraint copy it embeds plus the (engine-priced or defaulted)
    /// artifact. [`crate::cache::PlanCache`] charges this figure against its
    /// byte budget instead of a blind fixed overhead.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The constraint this preparation was compiled from.
    pub fn constraint(&self) -> &Constraint {
        &self.constraint
    }

    /// Name of the engine that produced the preparation.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// Downcasts the artifact, `None` when the preparation came from an
    /// engine with a different artifact type.
    pub fn artifact<T: Any>(&self) -> Option<&T> {
        self.artifact.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("engine", &self.engine)
            .field("constraint", &self.constraint)
            .finish_non_exhaustive()
    }
}

/// An evaluator able to answer recursive label-concatenated reachability
/// queries under the unified [`Constraint`] model: plain RLC constraints
/// `(s, t, L+)` and extended concatenations `(s, t, B1+ ∘ … ∘ Bm+)`.
///
/// The `Sync` supertrait is what makes the batch path work: a batch borrows
/// the engine from every worker thread simultaneously.
pub trait ReachabilityEngine: Sync {
    /// Human-readable engine name, used in experiment reports.
    fn name(&self) -> &str;

    /// Compiles the engine-specific evaluation artifact for `constraint`.
    ///
    /// This is where per-constraint work that a naive evaluator pays on
    /// every query happens exactly once: NFA construction for the traversal
    /// engines, block validation against the recursive `k` and catalog
    /// resolution for the index-backed engines. The only error a
    /// structurally valid constraint can produce is
    /// [`QueryError::BlockTooLong`] against an engine with a bounded `k`.
    fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError>;

    /// Evaluates one `(source, target)` pair under a prepared constraint.
    ///
    /// Implementations accept preparations from other engine kinds by
    /// re-preparing the embedded constraint, so a `Prepared` can never make
    /// an engine panic — at worst it costs one redundant compilation. Vertex
    /// ids are validated against the evaluated graph here (queries are
    /// constructed without a graph), so an unknown vertex surfaces as
    /// [`QueryError::VertexOutOfRange`] rather than a panic.
    fn evaluate_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> Result<bool, QueryError>;

    /// One-shot evaluation: prepare, then execute once.
    fn evaluate(&self, query: &Query) -> Result<bool, QueryError> {
        let prepared = self.prepare(query.constraint())?;
        self.evaluate_prepared(query.source, query.target, &prepared)
    }

    /// Evaluates many `(source, target)` pairs under one prepared
    /// constraint, in pair order.
    ///
    /// The default delegates to [`Self::evaluate_prepared`] per pair; the
    /// traversal engines override it with a multi-target product search so
    /// one traversal answers every pair sharing a source (the grouped path
    /// [`crate::plan::BatchPlan`] fans out to).
    fn evaluate_prepared_group(
        &self,
        pairs: &[(VertexId, VertexId)],
        prepared: &Prepared,
    ) -> Vec<Result<bool, QueryError>> {
        pairs
            .iter()
            .map(|&(s, t)| self.evaluate_prepared(s, t, prepared))
            .collect()
    }

    /// Evaluates one `(source, target)` pair under a prepared constraint
    /// *and explains it*: the returned [`TraceNode`] records the routing
    /// decisions the evaluation made (engine kind, and for engines that
    /// override this, shard route, stitch counters, per-phase timings).
    ///
    /// The contract is that explaining is observation only: the answer (and
    /// any error) must be identical to [`Self::evaluate_prepared`] on the
    /// same inputs. The default delegates to `evaluate_prepared` and
    /// reports the engine name, so every engine explains correctly even if
    /// shallowly.
    fn explain_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> (Result<bool, QueryError>, TraceNode) {
        let started = std::time::Instant::now();
        let answer = self.evaluate_prepared(source, target, prepared);
        let mut node = TraceNode::new("query");
        node.attr("engine", self.name())
            .attr("source", source)
            .attr("target", target)
            .attr("evaluate_ns", started.elapsed().as_nanos());
        match &answer {
            Ok(reachable) => node.attr("answer", reachable),
            Err(error) => node.attr("error", error),
        };
        (answer, node)
    }

    /// Evaluates a batch of queries, fanning out across CPU cores with
    /// rayon. Answers are returned in query order.
    ///
    /// This is the *naive* batch path: every query is prepared
    /// independently. Use [`crate::plan::BatchPlan`] to share one
    /// preparation (and, for traversal engines, one product search per
    /// source) across queries with equal constraints.
    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<bool, QueryError>> {
        queries
            .par_iter()
            .map(|query| self.evaluate(query))
            .collect()
    }

    /// Identity of this engine instance for cross-batch plan caching
    /// ([`crate::cache::PlanCache`]).
    ///
    /// Two engines reporting equal identities must produce interchangeable
    /// [`Prepared`] artifacts for equal constraints. The default —
    /// [`PlanIdentity::Kind`] over the engine name — is correct for every
    /// engine whose artifact depends only on the constraint (the NFA-driven
    /// traversal and simulated engines). Index-backed engines override it
    /// with [`PlanIdentity::Index`] over their [`ArtifactTag`], because
    /// their artifacts embed a catalog-resolved [`MrId`] that is only
    /// meaningful against one specific index structure (and one generation
    /// of it).
    fn plan_identity(&self) -> PlanIdentity {
        PlanIdentity::Kind(self.name().to_owned())
    }
}

/// Identity of the preparation source of a cached plan — the cache key half
/// that tells interchangeable [`Prepared`] artifacts apart. See
/// [`ReachabilityEngine::plan_identity`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PlanIdentity {
    /// Artifacts depend only on the constraint and the engine kind; any
    /// instance of the kind can reuse them (traversal/simulated engines).
    Kind(String),
    /// Artifacts were resolved against one specific index structure and are
    /// invalid for any other, including a rebuilt one at the same address
    /// (the [`ArtifactTag`] embeds the index generation).
    Index(ArtifactTag),
}

/// Counts [`ReachabilityEngine::prepare`] calls on a wrapped engine.
///
/// Used by the planner's unit tests and the engine differential to assert
/// the one-prepare-per-distinct-constraint contract of
/// [`crate::plan::BatchPlan`]. The
/// counter is atomic because the naive batch path
/// ([`ReachabilityEngine::evaluate_batch`]) prepares from rayon workers.
pub struct PrepareCounting<'e> {
    inner: &'e dyn ReachabilityEngine,
    prepares: AtomicUsize,
}

impl<'e> PrepareCounting<'e> {
    /// Wraps an engine.
    pub fn new(inner: &'e dyn ReachabilityEngine) -> Self {
        PrepareCounting {
            inner,
            prepares: AtomicUsize::new(0),
        }
    }

    /// Number of `prepare` calls observed so far.
    pub fn prepare_count(&self) -> usize {
        // rlc-analyze: allow(atomic-pairing) — observational measurement counter; nothing synchronizes through it
        self.prepares.load(Ordering::Relaxed)
    }

    /// Resets the counter (between measurement phases).
    pub fn reset(&self) {
        // rlc-analyze: allow(atomic-pairing) — measurement-phase reset of an observational counter
        self.prepares.store(0, Ordering::Relaxed);
    }
}

impl ReachabilityEngine for PrepareCounting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError> {
        // rlc-analyze: allow(atomic-pairing) — observational measurement counter; nothing synchronizes through it
        self.prepares.fetch_add(1, Ordering::Relaxed);
        self.inner.prepare(constraint)
    }

    fn evaluate_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> Result<bool, QueryError> {
        self.inner.evaluate_prepared(source, target, prepared)
    }

    fn evaluate_prepared_group(
        &self,
        pairs: &[(VertexId, VertexId)],
        prepared: &Prepared,
    ) -> Vec<Result<bool, QueryError>> {
        self.inner.evaluate_prepared_group(pairs, prepared)
    }

    fn plan_identity(&self) -> PlanIdentity {
        // Forwarded so a cache keyed through the counting wrapper still
        // validates against the wrapped engine's real identity.
        self.inner.plan_identity()
    }
}

/// Checks a query's vertex ids against the evaluated graph's vertex count.
///
/// Every engine implementation calls this at the top of `evaluate_prepared`
/// so an out-of-range id surfaces as [`QueryError::VertexOutOfRange`]
/// instead of an index-out-of-bounds panic — queries are constructed
/// without a graph, so this is the first point the ids can be validated.
#[inline]
pub fn check_vertex_range(
    source: VertexId,
    target: VertexId,
    vertices: usize,
) -> Result<(), QueryError> {
    for vertex in [source, target] {
        if vertex as usize >= vertices {
            return Err(QueryError::VertexOutOfRange { vertex, vertices });
        }
    }
    Ok(())
}

/// Process-wide monotonic generation counter backing [`Generation::fresh`].
/// Starts at 1 so 0 can never be a valid stamp.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A generation stamp minted when an index structure is constructed.
///
/// Every [`RlcIndex`] and `EtcIndex` gets a fresh stamp from a process-wide
/// monotonic counter at construction, and [`ArtifactTag`] folds the stamp
/// into the index identity. This closes the ABA blind spot of the previous
/// address-based tag: if an index is dropped and a new one with identical
/// `k` and catalog size is allocated at the same address, the generations
/// still differ, so a stale artifact's bare [`MrId`] is re-prepared instead
/// of silently naming the wrong minimum repeat.
///
/// Generations are a process-local concept and are **never serialized**:
/// the `RLC3`/`ETC1` wire formats do not carry them, and every
/// `from_bytes` mints a fresh stamp. A `Clone`d index copies the stamp —
/// clones share content, so artifacts resolved against one are valid
/// against the other.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Generation(u64);

impl Generation {
    /// Mints the next stamp from the process-wide counter.
    pub fn fresh() -> Self {
        // rlc-analyze: allow(atomic-pairing) — monotonic stamp mint; uniqueness only, no data published
        Generation(NEXT_GENERATION.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw counter value (diagnostics only; stamps are compared, never
    /// interpreted).
    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds the stamps of an aggregate structure's components into one
    /// stamp, for identities that must change whenever **any** component is
    /// rebuilt (the sharded engine folds every shard's generation this way).
    ///
    /// The fold hashes the component count and every value, so replacing one
    /// component — which always mints a strictly fresh stamp — changes the
    /// combined stamp. Combined stamps live in the same comparison-only
    /// world as minted ones: they are never serialized and never
    /// interpreted, only tested for equality inside an
    /// [`ArtifactTag`]/[`PlanIdentity`].
    pub fn combined(stamps: impl IntoIterator<Item = Generation>) -> Generation {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        let mut count = 0u64;
        for stamp in stamps {
            stamp.0.hash(&mut hasher);
            count += 1;
        }
        count.hash(&mut hasher);
        Generation(hasher.finish())
    }
}

/// Identity of the index structure an artifact was resolved against.
///
/// A resolved [`MrId`] is a bare offset into one specific catalog, so a
/// `Prepared` from an `IndexEngine` over index A must never be evaluated
/// against index B — the same id would name a different minimum repeat, and
/// B's recursive `k` was never checked. Artifact-type downcasting cannot
/// tell two same-kind engines apart, so artifacts carry this tag and
/// evaluation re-prepares on any mismatch. The tag combines the index
/// structure's address, its `k` and catalog size, and — closing the ABA
/// blind spot of address reuse after a drop — the [`Generation`] stamped
/// into the index at construction. The sharded engine in `rlc-shard` tags
/// its artifacts the same way via [`ArtifactTag::from_raw`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactTag {
    ptr: usize,
    k: usize,
    catalog_len: usize,
    generation: Generation,
}

impl ArtifactTag {
    /// Tags an artifact with the identity of an arbitrary index structure:
    /// its address, recursive `k`, catalog size, and construction
    /// generation.
    pub fn from_raw(ptr: usize, k: usize, catalog_len: usize, generation: Generation) -> Self {
        ArtifactTag {
            ptr,
            k,
            catalog_len,
            generation,
        }
    }
}

/// The index an [`IndexEngine`] answers one block with: the surface the RLC
/// index and the ETC baseline's `EtcIndex` (in `rlc-baselines`) share.
///
/// Both answer `(s, t, mr+)` for a minimum repeat resolved against their
/// own catalog, and both are complete for every block of length ≤ `k`, so
/// one engine drives either: the index answers a single block alone and
/// the end block of a concatenation per frontier vertex of the online
/// closure ([`crate::hybrid`]).
pub trait BlockIndex: Sync {
    /// The name an [`IndexEngine`] over this index reports.
    const ENGINE_NAME: &'static str;

    /// The recursive `k`: the longest block the index answers.
    fn k(&self) -> usize;

    /// The stamp minted when this index was constructed.
    fn generation(&self) -> Generation;

    /// The catalog of minimum repeats the index's entries refer to.
    fn catalog(&self) -> &MrCatalog;

    /// Whether `(s, t, mr+)` holds, for `mr` resolved against
    /// [`BlockIndex::catalog`]. Vertex ids are in range.
    fn query_mr(&self, s: VertexId, t: VertexId, mr: MrId) -> bool;

    /// The lookup `s ↦ (s, t, mr+)` for one target, for callers that test
    /// many sources against it. An index that can resolve the target half
    /// once overrides this (the RLC index's [`crate::TargetProbe`]).
    fn target_probe(&self, t: VertexId, mr: MrId) -> impl Fn(VertexId) -> bool + '_ {
        move |s| self.query_mr(s, t, mr)
    }
}

// The engine is generic, so it is compiled in the crate that names it: the
// `#[inline]`s here and on the per-query helpers it calls (`resolve`,
// `check_block_len`, `check_vertex_range`, `RlcIndex::query_mr`) keep them
// inlinable there.
impl BlockIndex for RlcIndex {
    const ENGINE_NAME: &'static str = "RLC";

    #[inline]
    fn k(&self) -> usize {
        RlcIndex::k(self)
    }

    #[inline]
    fn generation(&self) -> Generation {
        RlcIndex::generation(self)
    }

    #[inline]
    fn catalog(&self) -> &MrCatalog {
        RlcIndex::catalog(self)
    }

    #[inline]
    fn query_mr(&self, s: VertexId, t: VertexId, mr: MrId) -> bool {
        RlcIndex::query_mr(self, s, t, mr)
    }

    #[inline]
    fn target_probe(&self, t: VertexId, mr: MrId) -> impl Fn(VertexId) -> bool + '_ {
        let probe = RlcIndex::target_probe(self, t, mr);
        move |s| probe.reached_from(s)
    }
}

/// Prepared artifact of [`IndexEngine`]: the plan of a constraint whose
/// blocks were validated against the recursive `k`, tagged with the
/// identity of the index it was resolved against.
struct PreparedHybrid {
    plan: HybridPlan,
    index: ArtifactTag,
}

/// Plans a concatenation of two or more blocks: resolves both end blocks
/// and picks the closure direction ([`crate::hybrid`]'s cost comparison).
/// Single blocks never come here: they resolve their one block and close
/// nothing.
fn plan_concat(graph: &LabeledGraph, catalog: &MrCatalog, blocks: &[Vec<Label>]) -> HybridPlan {
    let (first, last) = (blocks.first(), blocks.last());
    let first_mr = first.and_then(|block| catalog.resolve(block));
    let last_mr = last.and_then(|block| catalog.resolve(block));
    let closure = closure_direction(graph, blocks);
    let end_mr = match (first_mr, last_mr, closure) {
        (Some(_), Some(last), Direction::Forward) => Some(last),
        (Some(first), Some(_), Direction::Backward) => Some(first),
        _ => None,
    };
    HybridPlan { end_mr, closure }
}

/// An index as a [`ReachabilityEngine`]: single-block constraints are
/// answered by the index alone (Algorithm 1), concatenated constraints by
/// the hybrid index + traversal strategy of §VI-C, closing online from
/// whichever end grows more slowly and looking the other end block up in
/// the index.
///
/// `I` is the index that answers the end block: the RLC index by default,
/// and the ETC baseline's closure for `EtcEngine` in `rlc-baselines`.
pub struct IndexEngine<'g, I = RlcIndex> {
    graph: &'g LabeledGraph,
    index: &'g I,
}

/// The RLC index engine under its former name.
///
/// Kept only because the `benchmark/` package still names it; it goes when
/// the benchmark switches to [`IndexEngine`].
pub type HybridEngine<'g> = IndexEngine<'g>;

impl<'g, I: BlockIndex> IndexEngine<'g, I> {
    /// Wraps a graph and its index.
    pub fn new(graph: &'g LabeledGraph, index: &'g I) -> Self {
        IndexEngine { graph, index }
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        self.index
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &LabeledGraph {
        self.graph
    }

    /// Which end of `constraint` the online closure starts from:
    /// [`Direction::Backward`] (from the target) when the first block grows
    /// faster than the last, [`Direction::Forward`] otherwise. Errors as
    /// [`ReachabilityEngine::prepare`] does.
    pub fn closure_direction(&self, constraint: &Constraint) -> Result<Direction, QueryError> {
        Ok(self.plan(constraint)?.closure)
    }

    fn tag(&self) -> ArtifactTag {
        let index = self.index;
        ArtifactTag::from_raw(
            index as *const I as usize,
            index.k(),
            index.catalog().len(),
            index.generation(),
        )
    }

    /// Plans `constraint` against this engine's index: the `k` check, then
    /// the end block's resolution and the closure direction.
    fn plan(&self, constraint: &Constraint) -> Result<HybridPlan, QueryError> {
        constraint.check_block_len(self.index.k())?;
        let catalog = self.index.catalog();
        Ok(match constraint.blocks() {
            [block] => HybridPlan {
                end_mr: catalog.resolve(block),
                closure: Direction::Forward,
            },
            blocks => plan_concat(self.graph, catalog, blocks),
        })
    }

    /// The plan of a preparation against this engine's index: the
    /// artifact's own when the tag matches, otherwise planned afresh. That
    /// covers a wrong artifact type as well as a same-kind engine over a
    /// different index — or a different *generation* of an index at the
    /// same address — and re-runs the `k` validation, so a constraint
    /// invalid here still errors instead of silently evaluating, and
    /// re-plans the closure direction against this engine's graph.
    fn resolve(&self, prepared: &Prepared) -> Result<HybridPlan, QueryError> {
        match prepared.artifact::<PreparedHybrid>() {
            Some(artifact) if artifact.index == self.tag() => Ok(artifact.plan),
            _ => self.plan(prepared.constraint()),
        }
    }
}

impl<I: BlockIndex> ReachabilityEngine for IndexEngine<'_, I> {
    fn name(&self) -> &str {
        I::ENGINE_NAME
    }

    fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError> {
        Ok(Prepared::new(
            constraint.clone(),
            self.name(),
            PreparedHybrid {
                plan: self.plan(constraint)?,
                index: self.tag(),
            },
        ))
    }

    fn evaluate_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> Result<bool, QueryError> {
        check_vertex_range(source, target, self.graph.vertex_count())?;
        let plan = self.resolve(prepared)?;
        Ok(evaluate_hybrid_prepared(
            self.graph,
            self.index,
            source,
            target,
            prepared.constraint().blocks(),
            plan,
        ))
    }

    /// Grouped execute: a single block is a per-pair lookup; a
    /// concatenation runs its online closure once per distinct source when
    /// closing forward and once per distinct target when closing backward.
    /// Pairs are range-checked first, exactly like the per-pair path.
    fn evaluate_prepared_group(
        &self,
        pairs: &[(VertexId, VertexId)],
        prepared: &Prepared,
    ) -> Vec<Result<bool, QueryError>> {
        let in_range = |pair: &(VertexId, VertexId)| in_range(self.graph, pair);
        let plan = match self.resolve(prepared) {
            Ok(plan) => plan,
            Err(error) => {
                return pairs
                    .iter()
                    .map(|pair| in_range(pair).and(Err(error.clone())))
                    .collect()
            }
        };
        let Some(mr) = plan.end_mr else {
            return pairs
                .iter()
                .map(|pair| in_range(pair).map(|()| false))
                .collect();
        };
        let index = self.index;
        match (prepared.constraint().blocks(), plan.closure) {
            ([_], _) => pairs
                .iter()
                .map(|&(s, t)| in_range(&(s, t)).map(|()| index.target_probe(t, mr)(s)))
                .collect(),
            (blocks, Direction::Forward) => {
                evaluate_concat_grouped(self.graph, pairs, blocks, Direction::Forward, |t| {
                    index.target_probe(t, mr)
                })
            }
            (blocks, Direction::Backward) => {
                evaluate_concat_grouped(self.graph, pairs, blocks, Direction::Backward, |s| {
                    move |w| index.query_mr(s, w, mr)
                })
            }
        }
    }

    /// One-shot evaluation in the same validation order as
    /// prepare-then-execute (`k` check, then vertex range), but without
    /// constructing a [`Prepared`]. A single block is one catalog resolve
    /// and one probe, with no plan.
    fn evaluate(&self, query: &Query) -> Result<bool, QueryError> {
        let constraint = query.constraint();
        constraint.check_block_len(self.index.k())?;
        check_vertex_range(query.source, query.target, self.graph.vertex_count())?;
        let catalog = self.index.catalog();
        let blocks = constraint.blocks();
        if let [block] = blocks {
            return Ok(catalog
                .resolve(block)
                .is_some_and(|mr| self.index.target_probe(query.target, mr)(query.source)));
        }
        Ok(evaluate_hybrid_prepared(
            self.graph,
            self.index,
            query.source,
            query.target,
            blocks,
            plan_concat(self.graph, catalog, blocks),
        ))
    }

    fn plan_identity(&self) -> PlanIdentity {
        PlanIdentity::Index(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::query::RlcQuery;
    use rlc_graph::examples::fig2_graph;

    #[test]
    fn index_engine_answers_like_the_index() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        assert_eq!(engine.name(), "RLC");
        for source in graph.vertices() {
            for target in graph.vertices() {
                for constraint in [vec![Label(0)], vec![Label(0), Label(1)]] {
                    let rlc = RlcQuery::new(source, target, constraint).unwrap();
                    let q = Query::from(&rlc);
                    assert_eq!(engine.evaluate(&q), Ok(index.query(&rlc)));
                }
            }
        }
    }

    #[test]
    fn prepared_evaluation_matches_one_shot() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let constraint = Constraint::single(vec![Label(0), Label(1)]).unwrap();
        let prepared = engine.prepare(&constraint).unwrap();
        assert_eq!(prepared.engine(), "RLC");
        assert_eq!(prepared.constraint(), &constraint);
        for source in graph.vertices() {
            for target in graph.vertices() {
                let q = Query::new(source, target, constraint.clone());
                assert_eq!(
                    engine.evaluate_prepared(source, target, &prepared),
                    engine.evaluate(&q)
                );
            }
        }
    }

    #[test]
    fn batch_matches_single_evaluation() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let queries: Vec<Query> = graph
            .vertices()
            .flat_map(|s| {
                graph
                    .vertices()
                    .map(move |t| Query::rlc(s, t, vec![Label(0), Label(1)]).unwrap())
            })
            .collect();
        let batch = engine.evaluate_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (query, answer) in queries.iter().zip(&batch) {
            assert_eq!(*answer, engine.evaluate(query));
        }
    }

    #[test]
    fn concat_batch_matches_single_evaluation() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let queries: Vec<Query> = graph
            .vertices()
            .flat_map(|s| {
                graph.vertices().map(move |t| {
                    Query::concat(s, t, vec![vec![Label(0)], vec![Label(1)]]).unwrap()
                })
            })
            .collect();
        let batch = engine.evaluate_batch(&queries);
        for (query, answer) in queries.iter().zip(&batch) {
            assert_eq!(*answer, engine.evaluate(query));
        }
    }

    #[test]
    fn invalid_queries_surface_errors_instead_of_panicking() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        // Structurally invalid constraints are unconstructible.
        assert_eq!(
            Query::concat(0, 1, vec![]).unwrap_err(),
            QueryError::EmptyConstraint
        );
        // A well-formed constraint that exceeds the index's recursive k
        // errors at prepare time (and therefore through every evaluate path).
        let too_long = Query::rlc(0, 1, vec![Label(0), Label(1), Label(2)]).unwrap();
        let expected = Err(QueryError::BlockTooLong {
            block: 0,
            len: 3,
            k: 2,
        });
        assert_eq!(engine.evaluate(&too_long), expected);
        assert_eq!(
            engine.prepare(too_long.constraint()).err(),
            expected.clone().err()
        );
        assert_eq!(
            engine.evaluate_batch(std::slice::from_ref(&too_long)),
            vec![expected]
        );
    }

    #[test]
    fn grouped_evaluation_matches_per_pair_for_the_index_engines() {
        // The grouped hybrid path shares the prefix-block repetition closure
        // across same-source pairs; its answers (and errors) must be
        // indistinguishable from the per-pair path, for single-block and
        // multi-block constraints alike.
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let n = graph.vertex_count() as u32;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        // Heavy source reuse (the case the shared closure accelerates) plus
        // unique sources and out-of-range ids (per-pair errors).
        for t in 0..n {
            pairs.push((1, t));
            pairs.push((t, (t * 5 + 2) % n));
        }
        pairs.push((n + 3, 0));
        pairs.push((0, n + 4));
        let constraints = [
            Constraint::single(vec![Label(1)]).unwrap(),
            Constraint::new(vec![vec![Label(1)], vec![Label(0)]]).unwrap(),
            Constraint::new(vec![vec![Label(0)], vec![Label(1)], vec![Label(2)]]).unwrap(),
            // A final block absent from the catalog: everything false.
            Constraint::new(vec![vec![Label(1)], vec![Label(9)]]).unwrap(),
        ];
        let engine = IndexEngine::new(&graph, &index);
        for constraint in &constraints {
            let prepared = engine.prepare(constraint).unwrap();
            let grouped = engine.evaluate_prepared_group(&pairs, &prepared);
            assert_eq!(grouped.len(), pairs.len());
            for (&(s, t), grouped_answer) in pairs.iter().zip(&grouped) {
                assert_eq!(
                    *grouped_answer,
                    engine.evaluate_prepared(s, t, &prepared),
                    "({s},{t}) under {constraint:?}"
                );
            }
        }
    }

    #[test]
    fn grouped_evaluation_with_a_foreign_preparation_errors_like_per_pair() {
        // A constraint too long for this engine, prepared elsewhere: the
        // grouped path must yield the same error for every pair.
        let graph = fig2_graph();
        let (index_k2, _) = build_index(&graph, &BuildConfig::new(2));
        let (index_k3, _) = build_index(&graph, &BuildConfig::new(3));
        let engine_k2 = IndexEngine::new(&graph, &index_k2);
        let engine_k3 = IndexEngine::new(&graph, &index_k3);
        let long =
            Constraint::new(vec![vec![Label(0)], vec![Label(0), Label(1), Label(2)]]).unwrap();
        let prepared_k3 = engine_k3.prepare(&long).unwrap();
        // Includes an out-of-range pair: the per-pair path range-checks
        // before surfacing the prepare error, and the grouped path must
        // report the identical error per pair.
        let n = graph.vertex_count() as u32;
        let pairs = [(0, 1), (0, 2), (3, 4), (n + 5, 0)];
        let grouped = engine_k2.evaluate_prepared_group(&pairs, &prepared_k3);
        let per_pair: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| engine_k2.evaluate_prepared(s, t, &prepared_k3))
            .collect();
        assert_eq!(grouped, per_pair);
        let expected = Err(QueryError::BlockTooLong {
            block: 1,
            len: 3,
            k: 2,
        });
        assert_eq!(
            grouped,
            vec![
                expected.clone(),
                expected.clone(),
                expected,
                Err(QueryError::VertexOutOfRange {
                    vertex: n + 5,
                    vertices: graph.vertex_count(),
                }),
            ]
        );
    }

    #[test]
    fn generations_are_monotonic_and_tags_fold_them_in() {
        let graph = fig2_graph();
        let (index_a, _) = build_index(&graph, &BuildConfig::new(2));
        let (index_b, _) = build_index(&graph, &BuildConfig::new(2));
        assert_ne!(index_a.generation(), index_b.generation());
        assert!(index_a.generation().value() < index_b.generation().value());
        // Identical address + k + catalog size but different generations:
        // the tags must differ (the ABA fix).
        let aliased = ArtifactTag::from_raw(0xDEAD, 2, 7, index_a.generation());
        let rebuilt = ArtifactTag::from_raw(0xDEAD, 2, 7, index_b.generation());
        assert_ne!(aliased, rebuilt);
        assert_eq!(
            aliased,
            ArtifactTag::from_raw(0xDEAD, 2, 7, index_a.generation())
        );
    }

    #[test]
    fn aba_aliased_index_is_reprepared_not_misread() {
        // The ABA regression: an artifact prepared against index A whose
        // address is later reused by index B with identical `k` and catalog
        // size. The old address-based tag considered such an artifact valid
        // and misread its bare MrId against B's catalog; the generation
        // stamp forces a re-prepare. Allocator reuse is made deterministic
        // by forging the tag with `ArtifactTag::from_raw` on B's address.
        let mut builder = rlc_graph::GraphBuilder::new();
        builder.add_edge_named("a", "x", "b");
        builder.add_edge_named("a", "y", "b");
        let graph = builder.build();
        let x = graph.labels().resolve("x").unwrap();
        let y = graph.labels().resolve("y").unwrap();
        let a = graph.vertex_id("a").unwrap();
        let b = graph.vertex_id("b").unwrap();

        // Index A: catalog = [(y)], so the constraint y+ resolves to MrId 0.
        let order =
            crate::order::compute_order(&graph, crate::order::OrderingStrategy::InOutDegree);
        // An index over one catalog sequence whose only entry is (a, mr 0)
        // in Lin(b).
        let lin_of_b_only = |order: crate::order::VertexOrder, label: rlc_graph::Label| {
            let mut catalog = crate::catalog::MrCatalog::new();
            let mr = catalog.intern(&[label]);
            let entry = crate::index::IndexEntry { hub: a, mr };
            let index = RlcIndex::from_entry_rows(
                2,
                order,
                catalog,
                graph.vertices().map(|_| None),
                graph.vertices().map(|v| (v == b).then_some(entry)),
            );
            (index, mr)
        };
        let (index_a, mr_a) = lin_of_b_only(order.clone(), y);
        let constraint = Constraint::single(vec![y]).unwrap();
        let generation_a = index_a.generation();
        let stale_mr = {
            let engine_a = IndexEngine::new(&graph, &index_a);
            let prepared_a = engine_a.prepare(&constraint).unwrap();
            prepared_a
                .artifact::<PreparedHybrid>()
                .expect("index engines produce PreparedHybrid artifacts")
                .plan
                .end_mr
        };
        assert_eq!(stale_mr, Some(mr_a));
        drop(index_a);

        // Index B: identical k and catalog size, but MrId 0 now names (x),
        // and (a, b) is connected under x+, not y+.
        let (index_b, mr_b) = lin_of_b_only(order, x);
        assert_eq!(mr_b, mr_a);
        let engine_b = IndexEngine::new(&graph, &index_b);

        // Forge the exact stale artifact the old scheme could not detect:
        // A's resolution and generation, force-aliased onto B's address.
        let stale_plan = HybridPlan {
            end_mr: stale_mr,
            closure: Direction::Forward,
        };
        let forged = Prepared::new(
            constraint.clone(),
            "RLC",
            PreparedHybrid {
                plan: stale_plan,
                index: ArtifactTag::from_raw(
                    &index_b as *const RlcIndex as usize,
                    index_b.k(),
                    index_b.catalog().len(),
                    generation_a,
                ),
            },
        );

        // Misreading the stale MrId against B's catalog would answer `true`
        // (MrId 0 in B names x+, which does connect a to b) — demonstrably
        // the wrong answer for y+, which B's catalog does not even contain.
        assert!(evaluate_hybrid_prepared(
            &graph,
            &index_b,
            a,
            b,
            constraint.blocks(),
            stale_plan
        ));
        assert_eq!(
            engine_b.evaluate(&Query::new(a, b, constraint.clone())),
            Ok(false)
        );

        // The generation mismatch forces a re-prepare: the forged artifact
        // evaluates to B's own (correct) answers, per pair and grouped.
        assert_eq!(engine_b.evaluate_prepared(a, b, &forged), Ok(false));
        assert_eq!(
            engine_b.evaluate_prepared_group(&[(a, b), (b, a)], &forged),
            vec![Ok(false), Ok(false)]
        );
    }

    #[test]
    fn plan_identities_distinguish_indexes_but_not_instances() {
        let graph = fig2_graph();
        let (index_a, _) = build_index(&graph, &BuildConfig::new(2));
        let (index_b, _) = build_index(&graph, &BuildConfig::new(2));
        // Two engine instances over the same index share an identity…
        assert_eq!(
            IndexEngine::new(&graph, &index_a).plan_identity(),
            IndexEngine::new(&graph, &index_a).plan_identity()
        );
        // …but engines over different indexes (even content-equal ones) do
        // not, and the counting wrapper forwards the inner identity.
        let engine_a = IndexEngine::new(&graph, &index_a);
        let engine_b = IndexEngine::new(&graph, &index_b);
        assert_ne!(engine_a.plan_identity(), engine_b.plan_identity());
        assert_eq!(
            PrepareCounting::new(&engine_a).plan_identity(),
            engine_a.plan_identity()
        );
    }

    #[test]
    fn foreign_preparations_are_recompiled() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let constraint = Constraint::single(vec![Label(0), Label(1)]).unwrap();
        // A preparation with an artifact this engine does not understand.
        let foreign = Prepared::new(constraint.clone(), "other", 42u32);
        for source in graph.vertices() {
            for target in graph.vertices() {
                assert_eq!(
                    engine.evaluate_prepared(source, target, &foreign),
                    engine.evaluate(&Query::new(source, target, constraint.clone()))
                );
            }
        }
    }

    #[test]
    fn preparations_from_another_index_are_recompiled_not_misread() {
        // A resolved MrId is only meaningful against the catalog that
        // produced it: handing engine B a preparation from engine A (same
        // kind, different index) must re-prepare, re-running B's k check
        // and catalog resolution.
        let graph = fig2_graph();
        let (index_k2, _) = build_index(&graph, &BuildConfig::new(2));
        let (index_k3, _) = build_index(&graph, &BuildConfig::new(3));
        let engine_k2 = IndexEngine::new(&graph, &index_k2);
        let engine_k3 = IndexEngine::new(&graph, &index_k3);

        // Valid for k = 3, too long for k = 2: the k = 2 engine must error
        // even though the artifact type matches.
        let long = Constraint::single(vec![Label(0), Label(1), Label(2)]).unwrap();
        let prepared_k3 = engine_k3.prepare(&long).unwrap();
        assert_eq!(
            engine_k2.evaluate_prepared(0, 1, &prepared_k3),
            Err(QueryError::BlockTooLong {
                block: 0,
                len: 3,
                k: 2
            })
        );

        // For a constraint both support, cross-index preparations must give
        // exactly the engine's own answers.
        let shared = Constraint::single(vec![Label(0), Label(1)]).unwrap();
        let prepared_k3 = engine_k3.prepare(&shared).unwrap();
        for source in graph.vertices() {
            for target in graph.vertices() {
                assert_eq!(
                    engine_k2.evaluate_prepared(source, target, &prepared_k3),
                    engine_k2.evaluate(&Query::new(source, target, shared.clone()))
                );
            }
        }
    }

    /// The plan of a preparation as an engine resolves it.
    fn plan_of(engine: &IndexEngine<'_>, prepared: &Prepared) -> HybridPlan {
        engine.resolve(prepared).unwrap()
    }

    #[test]
    fn concatenations_close_from_the_end_that_grows_slower() {
        // Four x edges and one y edge: x+ grows faster, so x+ ∘ y+ closes
        // y+ backward from the target and the index answers x+ — and
        // y+ ∘ x+ closes y+ forward, as the paper does. A single block
        // closes nothing.
        let mut builder = rlc_graph::GraphBuilder::new();
        for (from, to) in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")] {
            builder.add_edge_named(from, "x", to);
        }
        builder.add_edge_named("d", "y", "e");
        let graph = builder.build();
        let (x, y) = (
            graph.labels().resolve("x").unwrap(),
            graph.labels().resolve("y").unwrap(),
        );
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let plan = |blocks: Vec<Vec<Label>>| {
            plan_of(
                &engine,
                &engine.prepare(&Constraint::new(blocks).unwrap()).unwrap(),
            )
        };
        let mr = |block: &[Label]| index.catalog().resolve(block);
        assert_eq!(
            plan(vec![vec![x], vec![y]]),
            HybridPlan {
                end_mr: mr(&[x]),
                closure: Direction::Backward
            }
        );
        assert_eq!(
            plan(vec![vec![y], vec![x]]),
            HybridPlan {
                end_mr: mr(&[x]),
                closure: Direction::Forward
            }
        );
        assert_eq!(
            plan(vec![vec![x]]),
            HybridPlan {
                end_mr: mr(&[x]),
                closure: Direction::Forward
            }
        );
        // An end block absent from the catalog makes the plan
        // unsatisfiable, whichever end the index would answer.
        let z = Label(9);
        assert_eq!(plan(vec![vec![z], vec![y]]).end_mr, None);
        assert_eq!(plan(vec![vec![x], vec![z]]).end_mr, None);
        for s in graph.vertices() {
            for t in graph.vertices() {
                let q = Query::concat(s, t, vec![vec![x], vec![y]]).unwrap();
                // Some x+ path ends at d, the y edge's source.
                let expected = s <= 2 && graph.vertex_name(t) == Some("e");
                assert_eq!(engine.evaluate(&q), Ok(expected), "({s}, {t})");
            }
        }
    }

    #[test]
    fn preparations_from_another_index_replan_the_closure_direction() {
        // The same constraint x+ ∘ y+ over two graphs with opposite label
        // skews: over `x_heavy` it closes backward, over `y_heavy` forward.
        // A preparation handed across must take the receiving engine's
        // direction and MRs, not the artifact's.
        let skewed = |heavy: &str, light: &str| {
            let mut builder = rlc_graph::GraphBuilder::new();
            builder.add_edge_named("a", "x", "b");
            builder.add_edge_named("b", "y", "c");
            for (from, to) in [("c", "a"), ("a", "c"), ("b", "a")] {
                builder.add_edge_named(from, heavy, to);
            }
            builder.add_edge_named("c", light, "c");
            builder.build()
        };
        let x_heavy = skewed("x", "y");
        let y_heavy = skewed("y", "x");
        let (index_x, _) = build_index(&x_heavy, &BuildConfig::new(2));
        let (index_y, _) = build_index(&y_heavy, &BuildConfig::new(2));
        let engine_x = IndexEngine::new(&x_heavy, &index_x);
        let engine_y = IndexEngine::new(&y_heavy, &index_y);
        // Both graphs intern x before y, so one constraint names both.
        let x = x_heavy.labels().resolve("x").unwrap();
        let y = x_heavy.labels().resolve("y").unwrap();
        assert_eq!(y_heavy.labels().resolve("x"), Some(x));
        let constraint = Constraint::new(vec![vec![x], vec![y]]).unwrap();
        let prepared_x = engine_x.prepare(&constraint).unwrap();
        let prepared_y = engine_y.prepare(&constraint).unwrap();
        assert_eq!(plan_of(&engine_x, &prepared_x).closure, Direction::Backward);
        assert_eq!(plan_of(&engine_y, &prepared_y).closure, Direction::Forward);
        // Handed across, each preparation is re-planned by the receiver.
        assert_eq!(
            plan_of(&engine_y, &prepared_x),
            plan_of(&engine_y, &prepared_y)
        );
        assert_eq!(
            plan_of(&engine_x, &prepared_y),
            plan_of(&engine_x, &prepared_x)
        );
        let pairs: Vec<(VertexId, VertexId)> = y_heavy
            .vertices()
            .flat_map(|s| y_heavy.vertices().map(move |t| (s, t)))
            .collect();
        assert_eq!(
            engine_y.evaluate_prepared_group(&pairs, &prepared_x),
            engine_y.evaluate_prepared_group(&pairs, &prepared_y)
        );
        for &(s, t) in &pairs {
            assert_eq!(
                engine_y.evaluate_prepared(s, t, &prepared_x),
                engine_y.evaluate(&Query::new(s, t, constraint.clone()))
            );
        }
    }

    #[test]
    fn prepare_counting_counts_prepares() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let counting = PrepareCounting::new(&engine);
        assert_eq!(counting.name(), "RLC");
        let q = Query::rlc(0, 1, vec![Label(0)]).unwrap();
        assert_eq!(counting.evaluate(&q), engine.evaluate(&q));
        assert_eq!(counting.prepare_count(), 1);
        let prepared = counting.prepare(q.constraint()).unwrap();
        assert_eq!(counting.prepare_count(), 2);
        // Prepared evaluation does not re-prepare.
        let _ = counting.evaluate_prepared(0, 1, &prepared);
        let _ = counting.evaluate_prepared_group(&[(0, 1), (1, 0)], &prepared);
        assert_eq!(counting.prepare_count(), 2);
        counting.reset();
        assert_eq!(counting.prepare_count(), 0);
    }

    #[test]
    fn engines_are_object_safe() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engines: Vec<Box<dyn ReachabilityEngine + '_>> =
            vec![Box::new(IndexEngine::new(&graph, &index))];
        let q = Query::rlc(0, 1, vec![Label(0)]).unwrap();
        for engine in &engines {
            let single = engine.evaluate(&q);
            let batch = engine.evaluate_batch(std::slice::from_ref(&q));
            assert_eq!(batch, vec![single]);
        }
    }
}
