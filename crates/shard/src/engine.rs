//! The sharded engine: full [`ReachabilityEngine`] surface over a
//! [`ShardedIndex`], with boundary-hub stitching for cross-shard queries.
//!
//! ## Routing
//!
//! * **Same-shard pairs** go to the local shard first: the shard's own RLC
//!   index answers the constraint over the shard subgraph (the forward
//!   hybrid index + traversal evaluation, closing from the source, via
//!   [`evaluate_blocks_with`]). A local *true* is globally true — every
//!   intra-shard path is a path of the full graph. A local *false* is
//!   definitive only when the shard is **closed** (no outgoing or no
//!   incoming cut edge: a same-shard path can never leave, or could never
//!   come back); otherwise the pair falls through to the stitcher, because
//!   the witnessing path may detour through other shards.
//! * **Cross-shard pairs** always go to the stitcher.
//!
//! ## The stitcher
//!
//! A cross-shard path under `B1+ ∘ … ∘ Bm+` decomposes into intra-shard
//! stretches joined by cut edges, and a cut edge may be crossed *mid-way*
//! through a block repetition — so the stitch search runs over `(vertex,
//! offset-within-block)` states, exactly the product the online
//! [`repetition closure`](rlc_core::repetition_closure) explores, with one
//! addition: whenever the search stands at a repetition boundary, it hops
//! over every whole-repetition stretch **inside the current shard in one
//! step**, by enumerating the shard index's target set
//! ([`crate::boundary::ReachExpander`]) instead of walking edges. The
//! edge-wise transitions keep the search exact (cut crossings at any
//! offset, partial stretches into portals), and the index hops land on the
//! boundary vertices — including the portals — from which the next cut
//! crossing departs: intra-shard hop → portal → cut edge → portal →
//! intra-shard hop. For single-label blocks every matching intra-shard
//! edge is itself a whole repetition the hop covers, so the edge-wise walk
//! is restricted to cut edges outright; for longer blocks the intra-shard
//! edge walk still runs (partial stretches can leave mid-repetition), so
//! the hops there serve to settle boundary states early rather than to
//! shrink the walk.
//!
//! Soundness: an index hop only adds vertices reachable inside one shard
//! (a fortiori in the full graph). Completeness: every edge of every
//! global path is explored by the edge-wise transitions. The stitched
//! answers are therefore **identical** to the unsharded engines' — the
//! property `tests::stitched_answers_equal_unsharded_answers` below and the
//! engine differential's `sharded_engines_match_unsharded_answers_and_errors`
//! assert.

use crate::index::ShardedIndex;
use rlc_core::catalog::MrId;
use rlc_core::engine::{
    check_vertex_range, ArtifactTag, PlanIdentity, Prepared, ReachabilityEngine,
};
use rlc_core::kernel::with_kernel_scratch;
use rlc_core::{evaluate_blocks_with, prefix_frontier, Constraint, Query, QueryError};
use rlc_graph::{Label, LabeledGraph, VertexId};
use rlc_obs::TraceNode;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Work counters of one stitched search (or one chain of them): what the
/// EXPLAIN path reports per query, and what the engine aggregates into the
/// global observability registry (`rlc_stitch_*_total`) when it is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StitchCounts {
    /// Whole-repetition intra-shard hops taken (closure vertices reached
    /// through a shard index's target set instead of edge walking).
    pub hops: u64,
    /// Edge-wise transitions that crossed a shard boundary (cut edges, at
    /// any offset within the block).
    pub cut_crossings: u64,
    /// [`crate::boundary::ReachExpander`] invocations (one per first visit
    /// of a repetition-boundary vertex in a shard with the repeat).
    pub expander_calls: u64,
    /// Product states `(vertex, offset)` popped from the search frontier.
    pub expansions: u64,
}

impl StitchCounts {
    fn absorb(&mut self, other: &StitchCounts) {
        self.hops += other.hops;
        self.cut_crossings += other.cut_crossings;
        self.expander_calls += other.expander_calls;
        self.expansions += other.expansions;
    }
}

/// Adds one search's tally to the global `rlc_stitch_*_total` counters.
/// Called only when the global registry is enabled; counter handles are
/// resolved once per process.
fn flush_stitch_counts(tally: &StitchCounts) {
    static SITE: OnceLock<[Arc<rlc_obs::Counter>; 4]> = OnceLock::new();
    let [hops, crossings, calls, expansions] = SITE.get_or_init(|| {
        let g = rlc_obs::global();
        [
            g.counter("rlc_stitch_hops_total"),
            g.counter("rlc_stitch_cut_crossings_total"),
            g.counter("rlc_stitch_expander_calls_total"),
            g.counter("rlc_stitch_expansions_total"),
        ]
    });
    hops.add(tally.hops);
    crossings.add(tally.cut_crossings);
    calls.add(tally.expander_calls);
    expansions.add(tally.expansions);
}

/// Prepared artifact of [`ShardedEngine`]: the final block's minimum repeat
/// resolved against **every** shard's catalog (a shard that never recorded
/// the repeat contributes `None` — nothing inside it is reachable under the
/// final block), tagged with the sharded index's combined identity so a
/// same-kind engine over a different (or partially rebuilt) sharded index
/// re-prepares instead of misreading per-shard ids.
struct PreparedSharded {
    last_mrs: Vec<Option<MrId>>,
    index: ArtifactTag,
}

/// The identity tag of a sharded index: address, `k`, total catalog size,
/// and the fold of every shard's construction generation — rebuilding any
/// shard changes the fold, so stale plans (and [`rlc_core::cache::PlanCache`]
/// entries) are invalidated exactly like the single-index engines' ABA
/// discipline.
fn sharded_tag(index: &ShardedIndex) -> ArtifactTag {
    ArtifactTag::from_raw(
        index as *const ShardedIndex as usize,
        index.k(),
        index.catalog_len(),
        index.generation(),
    )
}

/// The sharded RLC index as a [`ReachabilityEngine`].
pub struct ShardedEngine<'g> {
    graph: &'g LabeledGraph,
    index: &'g ShardedIndex,
    /// The index's identity tag, computed once at construction: the engine
    /// holds a shared borrow of the sharded index for its whole lifetime,
    /// so no shard can be rebuilt (that needs `&mut`) while the tag is
    /// live — recomputing the generation fold per query would be pure
    /// waste.
    tag: ArtifactTag,
}

impl<'g> ShardedEngine<'g> {
    /// Wraps the full graph and its sharded index. The graph must be the
    /// one the sharded index was built from (same vertex ids, same label
    /// space) — the same pairing contract as [`rlc_core::IndexEngine`].
    pub fn new(graph: &'g LabeledGraph, index: &'g ShardedIndex) -> Self {
        ShardedEngine {
            graph,
            index,
            tag: sharded_tag(index),
        }
    }

    /// The wrapped sharded index.
    pub fn index(&self) -> &ShardedIndex {
        self.index
    }

    /// Validates `constraint` against the shared `k` (every shard is built
    /// with the same k, enforced by [`ShardedIndex`]), then resolves its
    /// final block against every shard's catalog.
    fn last_mrs(&self, constraint: &Constraint) -> Result<Vec<Option<MrId>>, QueryError> {
        constraint.check_block_len(self.index.k())?;
        Ok((0..self.index.shard_count())
            .map(|s| self.index.resolve_in_shard(s, constraint.last_block()))
            .collect())
    }

    /// Runs `with` over the per-shard resolutions of a preparation: the
    /// artifact's own table is borrowed in place when the tag matches (the
    /// hot path allocates nothing), otherwise they are resolved afresh
    /// (re-running the `k` validation).
    fn with_resolved<R>(
        &self,
        prepared: &Prepared,
        with: impl FnOnce(&[Option<MrId>]) -> R,
    ) -> Result<R, QueryError> {
        match prepared.artifact::<PreparedSharded>() {
            Some(artifact) if artifact.index == self.tag => Ok(with(&artifact.last_mrs)),
            _ => Ok(with(&self.last_mrs(prepared.constraint())?)),
        }
    }

    /// Same-shard fast path: evaluates the constraint entirely inside one
    /// shard. Returns `Some(answer)` when the local answer is definitive
    /// (`true` always is; `false` is when the shard is closed), `None` when
    /// the stitcher must decide.
    fn local_fast_path(
        &self,
        source: VertexId,
        target: VertexId,
        blocks: &[Vec<Label>],
        last_mrs: &[Option<MrId>],
    ) -> Option<bool> {
        let (source_shard, local_source) = self.index.locate(source);
        let (target_shard, local_target) = self.index.locate(target);
        if source_shard != target_shard {
            return None;
        }
        let shard = self.index.shard(source_shard);
        let local = match last_mrs[source_shard] {
            Some(mr) => {
                let probe = shard.index().target_probe(local_target, mr);
                evaluate_blocks_with(shard.graph(), local_source, blocks, |v| {
                    probe.reached_from(v)
                })
            }
            None => false,
        };
        if local {
            return Some(true);
        }
        // A same-shard path that detours must both leave and re-enter the
        // shard; if it can do neither, the local false is the global false.
        if !shard.is_exitable() || !shard.is_enterable() {
            return Some(false);
        }
        None
    }

    /// The grouped form of [`ShardedEngine::local_fast_path`], for one
    /// source bucket: every same-shard target of the bucket is answered
    /// against the local shard, sharing **one** local prefix-block closure
    /// ([`prefix_frontier`]) across the bucket the way the unsharded
    /// grouped path does. Definitive answers land in `answers`; pairs the
    /// local shard cannot settle are returned for the stitcher.
    #[allow(clippy::too_many_arguments)]
    fn local_fast_path_group(
        &self,
        source: VertexId,
        indices: &[usize],
        pairs: &[(VertexId, VertexId)],
        blocks: &[Vec<Label>],
        last_mrs: &[Option<MrId>],
        answers: &mut [Result<bool, QueryError>],
    ) -> Vec<usize> {
        let (source_shard, local_source) = self.index.locate(source);
        let shard = self.index.shard(source_shard);
        let closed = !shard.is_exitable() || !shard.is_enterable();
        // The bucket's local prefix frontier, computed at most once.
        let mut local_frontier: Option<Vec<VertexId>> = None;
        let mut unresolved: Vec<usize> = Vec::new();
        for &i in indices {
            let (target_shard, local_target) = self.index.locate(pairs[i].1);
            if target_shard != source_shard {
                unresolved.push(i);
                continue;
            }
            let local = match last_mrs[source_shard] {
                None => false,
                Some(mr) if blocks.len() == 1 => {
                    shard.index().query_mr(local_source, local_target, mr)
                }
                Some(mr) => {
                    let probe = shard.index().target_probe(local_target, mr);
                    local_frontier
                        .get_or_insert_with(|| prefix_frontier(shard.graph(), local_source, blocks))
                        .iter()
                        .any(|&v| probe.reached_from(v))
                }
            };
            if local {
                answers[i] = Ok(true);
            } else if closed {
                answers[i] = Ok(false);
            } else {
                unresolved.push(i);
            }
        }
        unresolved
    }

    /// The stitched repetition closure over the **global** graph: every
    /// vertex reachable from `sources` by one or more whole repetitions of
    /// `block`, crossing shards freely, returned in ascending vertex order
    /// (callers test membership by binary search). `last_mrs` supplies the
    /// per-shard resolutions when the caller already has them (the final
    /// block); otherwise the block is resolved against each shard's catalog
    /// here. With `stop_at`, the search short-circuits as soon as the
    /// target enters the closure (the returned closure may then be
    /// partial — early-exit callers only read the flag).
    ///
    /// The visited/boundary/hop sets are bit-parallel
    /// [`rlc_core::kernel::FrontierSet`]s from the thread-local
    /// kernel-scratch pool: the stitcher allocates nothing per query in the
    /// steady state beyond the returned vector and the per-shard hub memo.
    ///
    /// When `counts` is given (the EXPLAIN path) — or the global
    /// observability registry is enabled — the search tallies its work into
    /// a [`StitchCounts`]; counting never changes which states are explored,
    /// so observed and unobserved searches return identical closures.
    fn stitched_closure(
        &self,
        sources: &[VertexId],
        block: &[Label],
        last_mrs: Option<&[Option<MrId>]>,
        stop_at: Option<VertexId>,
        counts: Option<&mut StitchCounts>,
    ) -> (Vec<VertexId>, bool) {
        let counting = counts.is_some() || rlc_obs::global_enabled();
        let mut tally = StitchCounts::default();
        let klen = block.len();
        let resolved: Vec<Option<MrId>> = match last_mrs {
            Some(mrs) => mrs.to_vec(),
            None => (0..self.index.shard_count())
                .map(|s| self.index.resolve_in_shard(s, block))
                .collect(),
        };
        // Per-shard hub-expansion memo (local ids): a hub's inverted list
        // is walked once per search, bounding total hop work by index size.
        let mut expanded: Vec<HashSet<VertexId>> = vec![HashSet::new(); self.index.shard_count()];
        let result = with_kernel_scratch(|scratch| {
            // `visited` ranges over `(vertex, offset-within-block)` product
            // slots; `boundary` accumulates closure vertices; `hopped`
            // tracks vertices whose whole-repetition hop has been taken
            // (hop targets are the shard-complete reachable set, so hopping
            // again from a hopped-to vertex of the same shard adds nothing).
            scratch.visited.begin(self.graph.vertex_count() * klen);
            scratch.boundary.begin(self.graph.vertex_count());
            scratch.hopped.begin(self.graph.vertex_count());
            scratch.queue.clear();
            let slot = |v: VertexId, offset: usize| v as usize * klen + offset;
            for &s in sources {
                if !scratch.visited.test_and_set(slot(s, 0)) {
                    scratch.queue.push_back((s, 0));
                }
            }
            let mut found = false;
            'search: while let Some((v, offset)) = scratch.queue.pop_front() {
                let offset = offset as usize;
                tally.expansions += 1;
                if offset == 0 && !scratch.hopped.test_and_set(v as usize) {
                    // Intra-shard hop: every vertex the shard's index proves
                    // reachable from v under block+ joins the closure at a
                    // repetition boundary.
                    let (shard_id, local) = self.index.locate(v);
                    if let Some(mr) = resolved[shard_id] {
                        tally.expander_calls += 1;
                        let shard = self.index.shard(shard_id);
                        shard.expander().for_each_target(
                            shard.index(),
                            local,
                            mr,
                            &mut expanded[shard_id],
                            |local_target| {
                                let w = self.index.partition().global(shard_id, local_target);
                                if !scratch.boundary.test_and_set(w as usize) && stop_at == Some(w)
                                {
                                    found = true;
                                }
                                if !scratch.visited.test_and_set(slot(w, 0)) {
                                    // Hop targets are already shard-complete:
                                    // mark them hopped so only their edge-wise
                                    // expansion (toward cut edges) runs.
                                    tally.hops += 1;
                                    scratch.hopped.test_and_set(w as usize);
                                    scratch.queue.push_back((w, 0));
                                }
                            },
                        );
                        if found {
                            break 'search;
                        }
                    }
                }
                // Edge-wise product transition — exactness: cut edges can be
                // crossed at any offset, and partial in-shard stretches feed
                // the portals.
                let expected = block[offset];
                for (w, label) in self.graph.out_edges(v) {
                    if label != expected {
                        continue;
                    }
                    // The shard comparison is needed by the single-label skip
                    // below and by the cut-crossing tally; anyone else skips
                    // the two partition lookups entirely.
                    let same_shard = (counting || klen == 1).then(|| {
                        self.index.partition().shard_of(w) == self.index.partition().shard_of(v)
                    });
                    if counting && same_shard == Some(false) {
                        tally.cut_crossings += 1;
                    }
                    // Single-label blocks: a matching intra-shard edge IS a
                    // whole repetition, so the hop already covered its target
                    // (index completeness also guarantees a shard with any
                    // matching intra-shard edge has the repeat in its catalog);
                    // only cut edges need walking, which is where the stitched
                    // search genuinely beats a full-graph product BFS.
                    if klen == 1 && same_shard == Some(true) {
                        continue;
                    }
                    let next = (offset + 1) % klen;
                    if next == 0 {
                        // Record the boundary before the visited check (a
                        // cycle back to a source still closes a repetition),
                        // exactly like the unsharded repetition closure.
                        if !scratch.boundary.test_and_set(w as usize) && stop_at == Some(w) {
                            found = true;
                            break 'search;
                        }
                    }
                    if !scratch.visited.test_and_set(slot(w, next)) {
                        scratch.queue.push_back((w, next as u32));
                    }
                }
            }
            if !found {
                found = stop_at.is_some_and(|t| scratch.boundary.contains(t as usize));
            }
            let mut closure = Vec::new();
            scratch
                .boundary
                .for_each_set(|v| closure.push(v as VertexId));
            (closure, found)
        });
        if counting {
            if let Some(counts) = counts {
                counts.absorb(&tally);
            }
            if rlc_obs::global_enabled() {
                flush_stitch_counts(&tally);
            }
        }
        result
    }

    /// Evaluates a constraint with per-shard resolutions in hand: local
    /// fast path, then the stitched block chain (prefix closures feed the
    /// final block's early-exit search).
    fn evaluate_resolved(
        &self,
        source: VertexId,
        target: VertexId,
        blocks: &[Vec<Label>],
        last_mrs: &[Option<MrId>],
    ) -> bool {
        if let Some(answer) = self.local_fast_path(source, target, blocks, last_mrs) {
            return answer;
        }
        self.evaluate_stitched(source, target, blocks, last_mrs, None)
    }

    /// The stitched block chain after the local fast path declined: prefix
    /// closures feed the final block's early-exit search. Shared verbatim
    /// by the throughput path (`counts: None`) and the EXPLAIN path, so an
    /// explained answer is structurally the same computation.
    fn evaluate_stitched(
        &self,
        source: VertexId,
        target: VertexId,
        blocks: &[Vec<Label>],
        last_mrs: &[Option<MrId>],
        mut counts: Option<&mut StitchCounts>,
    ) -> bool {
        let Some((last_block, prefix)) = blocks.split_last() else {
            return false;
        };
        let mut frontier: Vec<VertexId> = vec![source];
        for block in prefix {
            let (closure, _) =
                self.stitched_closure(&frontier, block, None, None, counts.as_deref_mut());
            if closure.is_empty() {
                return false;
            }
            frontier = closure;
        }
        let (_, found) =
            self.stitched_closure(&frontier, last_block, Some(last_mrs), Some(target), counts);
        found
    }
}

impl ReachabilityEngine for ShardedEngine<'_> {
    fn name(&self) -> &str {
        "RLC sharded"
    }

    fn prepare(&self, constraint: &Constraint) -> Result<Prepared, QueryError> {
        let last_mrs = self.last_mrs(constraint)?;
        let bytes = std::mem::size_of::<PreparedSharded>()
            + last_mrs.len() * std::mem::size_of::<Option<MrId>>();
        Ok(Prepared::new(
            constraint.clone(),
            self.name(),
            PreparedSharded {
                last_mrs,
                index: self.tag,
            },
        )
        .with_approx_bytes(bytes))
    }

    fn evaluate_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> Result<bool, QueryError> {
        check_vertex_range(source, target, self.graph.vertex_count())?;
        self.with_resolved(prepared, |last_mrs| {
            self.evaluate_resolved(source, target, prepared.constraint().blocks(), last_mrs)
        })
    }

    /// The sharded EXPLAIN: the same `local fast path → stitched chain`
    /// decision as [`ShardedEngine::evaluate_prepared`] (identical answers
    /// by construction — both run [`ShardedEngine::evaluate_stitched`]),
    /// with the routing recorded on the trace node: source/target shards,
    /// whether the local shard settled the pair (`route = "local"`) or the
    /// stitcher ran (`route = "stitched"`, with its [`StitchCounts`] and
    /// wall-clock).
    fn explain_prepared(
        &self,
        source: VertexId,
        target: VertexId,
        prepared: &Prepared,
    ) -> (Result<bool, QueryError>, TraceNode) {
        let started = Instant::now();
        let mut node = TraceNode::new("query");
        node.attr("engine", self.name())
            .attr("source", source)
            .attr("target", target);
        if let Err(error) = check_vertex_range(source, target, self.graph.vertex_count()) {
            node.attr("error", &error);
            return (Err(error), node);
        }
        let (source_shard, _) = self.index.locate(source);
        let (target_shard, _) = self.index.locate(target);
        node.attr("source_shard", source_shard)
            .attr("target_shard", target_shard)
            .attr("shard_count", self.index.shard_count());
        let answer = self.with_resolved(prepared, |last_mrs| {
            let blocks = prepared.constraint().blocks();
            let local_started = Instant::now();
            let local = self.local_fast_path(source, target, blocks, last_mrs);
            node.attr("local_ns", local_started.elapsed().as_nanos());
            match local {
                Some(answer) => {
                    node.attr("route", "local");
                    answer
                }
                None => {
                    node.attr("route", "stitched");
                    let mut counts = StitchCounts::default();
                    let stitch_started = Instant::now();
                    let answer =
                        self.evaluate_stitched(source, target, blocks, last_mrs, Some(&mut counts));
                    node.attr("stitch_ns", stitch_started.elapsed().as_nanos())
                        .attr("hops", counts.hops)
                        .attr("cut_crossings", counts.cut_crossings)
                        .attr("expander_calls", counts.expander_calls)
                        .attr("expansions", counts.expansions);
                    answer
                }
            }
        });
        node.attr("evaluate_ns", started.elapsed().as_nanos());
        match &answer {
            Ok(reachable) => node.attr("answer", reachable),
            Err(error) => node.attr("error", error),
        };
        (answer, node)
    }

    fn evaluate(&self, query: &Query) -> Result<bool, QueryError> {
        // One-shot fast path mirroring prepare-then-execute's validation
        // order (k check, then vertex range) without boxing a `Prepared`.
        let constraint = query.constraint();
        let last_mrs = self.last_mrs(constraint)?;
        check_vertex_range(query.source, query.target, self.graph.vertex_count())?;
        Ok(self.evaluate_resolved(query.source, query.target, constraint.blocks(), &last_mrs))
    }

    /// Grouped execute: pairs the local fast path can settle cost one shard
    /// lookup each; the leftovers of every source bucket share one stitched
    /// closure chain (the sharded analogue of the index engines'
    /// once-per-source prefix closure), with the target-early-exit search
    /// when only a single pair of the bucket needs stitching.
    fn evaluate_prepared_group(
        &self,
        pairs: &[(VertexId, VertexId)],
        prepared: &Prepared,
    ) -> Vec<Result<bool, QueryError>> {
        // Range-check every pair first, exactly like the per-pair path.
        let mut answers: Vec<Result<bool, QueryError>> = Vec::with_capacity(pairs.len());
        let mut by_source: HashMap<VertexId, Vec<usize>> = HashMap::new();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            match check_vertex_range(s, t, self.graph.vertex_count()) {
                Ok(()) => {
                    answers.push(Ok(false));
                    by_source.entry(s).or_default().push(i);
                }
                Err(error) => answers.push(Err(error)),
            }
        }
        let blocks = prepared.constraint().blocks();
        let Some((last_block, prefix)) = blocks.split_last() else {
            return answers;
        };
        let stitched = self.with_resolved(prepared, |last_mrs| {
            for (source, indices) in &by_source {
                // Local fast path first: same-shard targets share one local
                // prefix closure, definitive answers cost one shard lookup.
                let unresolved = self.local_fast_path_group(
                    *source,
                    indices,
                    pairs,
                    blocks,
                    last_mrs,
                    &mut answers,
                );
                if unresolved.is_empty() {
                    continue;
                }
                // One stitched chain for the bucket's leftovers.
                let mut frontier: Vec<VertexId> = vec![*source];
                let mut dead = false;
                for block in prefix {
                    let (closure, _) = self.stitched_closure(&frontier, block, None, None, None);
                    if closure.is_empty() {
                        dead = true;
                        break;
                    }
                    frontier = closure;
                }
                if dead {
                    continue; // every unresolved target stays Ok(false)
                }
                if let [only] = unresolved[..] {
                    let (_, found) = self.stitched_closure(
                        &frontier,
                        last_block,
                        Some(last_mrs),
                        Some(pairs[only].1),
                        None,
                    );
                    answers[only] = Ok(found);
                } else {
                    let (closure, _) =
                        self.stitched_closure(&frontier, last_block, Some(last_mrs), None, None);
                    for &i in &unresolved {
                        // The closure is in ascending vertex order.
                        answers[i] = Ok(closure.binary_search(&pairs[i].1).is_ok());
                    }
                }
            }
        });
        if let Err(error) = stitched {
            // The constraint is invalid for this engine: every in-range
            // pair of the group gets the same error.
            for indices in by_source.values() {
                for &i in indices {
                    answers[i] = Err(error.clone());
                }
            }
        }
        answers
    }

    fn plan_identity(&self) -> PlanIdentity {
        PlanIdentity::Index(self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ShardBuildConfig;
    use rlc_core::engine::IndexEngine;
    use rlc_core::{build_index, BuildConfig, PlanCache, Query};
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
    use rlc_graph::{GraphBuilder, PartitionStrategy};

    fn constraints() -> Vec<Constraint> {
        let l = |i: u16| Label(i);
        vec![
            Constraint::single(vec![l(0)]).unwrap(),
            Constraint::single(vec![l(1)]).unwrap(),
            Constraint::single(vec![l(0), l(1)]).unwrap(),
            Constraint::new(vec![vec![l(0)], vec![l(1)]]).unwrap(),
            Constraint::new(vec![vec![l(2)], vec![l(0), l(1)]]).unwrap(),
            // A minimum repeat no edge sequence realizes: everything false.
            Constraint::single(vec![l(2), l(0)]).unwrap(),
        ]
    }

    /// Exhaustive sharded-vs-unsharded agreement on a seeded ER graph, for
    /// every strategy and shard count in the matrix.
    #[test]
    fn stitched_answers_equal_unsharded_answers() {
        let g = erdos_renyi(&SyntheticConfig::new(70, 3.0, 3, 29));
        let (plain, _) = build_index(&g, &BuildConfig::new(2));
        let reference = IndexEngine::new(&g, &plain);
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Hash { seed: 4 },
            PartitionStrategy::DegreeAware,
        ] {
            for shards in [1usize, 2, 8] {
                let config = ShardBuildConfig::new(2, shards).with_strategy(strategy);
                let (sharded, _) = ShardedIndex::build(&g, &config).unwrap();
                let engine = ShardedEngine::new(&g, &sharded);
                for constraint in constraints() {
                    let prepared = engine.prepare(&constraint).unwrap();
                    for s in (0..g.vertex_count() as u32).step_by(3) {
                        for t in (0..g.vertex_count() as u32).step_by(4) {
                            let expected =
                                reference.evaluate(&Query::new(s, t, constraint.clone()));
                            assert_eq!(
                                engine.evaluate_prepared(s, t, &prepared),
                                expected,
                                "{strategy:?} x{shards} on ({s},{t}) under {constraint:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cross_shard_chain_is_stitched_through_portals() {
        // A path that provably crosses shards mid-repetition: (x y)+ over
        // a -x-> b -y-> c -x-> d -y-> e with a contiguous 2-shard split
        // putting {a, b, c} and {d, e} apart — the second repetition's x
        // edge c -x-> d is the cut edge, crossed at offset 1.
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("b", "y", "c");
        b.add_edge_named("c", "x", "d");
        b.add_edge_named("d", "y", "e");
        let g = b.build();
        let (sharded, _) = ShardedIndex::build(&g, &ShardBuildConfig::new(2, 2)).unwrap();
        assert!(
            !sharded.cut_edges().is_empty(),
            "the split must cut the chain"
        );
        let engine = ShardedEngine::new(&g, &sharded);
        let x = g.labels().resolve("x").unwrap();
        let y = g.labels().resolve("y").unwrap();
        let a = g.vertex_id("a").unwrap();
        let c = g.vertex_id("c").unwrap();
        let e = g.vertex_id("e").unwrap();
        let q = Query::rlc(a, e, vec![x, y]).unwrap();
        assert_eq!(engine.evaluate(&q), Ok(true), "cross-shard (x y)+ path");
        assert_eq!(
            engine.evaluate(&Query::rlc(a, c, vec![x, y]).unwrap()),
            Ok(true)
        );
        assert_eq!(
            engine.evaluate(&Query::rlc(c, a, vec![x, y]).unwrap()),
            Ok(false)
        );
    }

    #[test]
    fn same_shard_pair_detouring_through_another_shard_is_found() {
        // s and t share a shard but the only path leaves and comes back:
        // the local index answers false, the stitcher must recover it.
        let mut b = GraphBuilder::new();
        b.add_edge_named("s", "x", "far"); // cut: s in shard 0, far in shard 1
        b.add_edge_named("far", "x", "t"); // cut back into shard 0
        let g = b.build();
        // Named build order: s=0, far=1, t=2. Contiguous split over 2
        // shards: {s, far} | {t}… that puts s and t apart; use an explicit
        // assignment instead: s,t in shard 0, far in shard 1.
        let partition = rlc_graph::Partition::from_assignment(2, vec![0, 1, 0]).unwrap();
        let cut = partition.cut_edges(&g);
        assert_eq!(cut.len(), 2);
        let indexes: Vec<_> = (0..2)
            .map(|s| {
                let sub = partition.shard_subgraph(&g, s);
                build_index(&sub, &BuildConfig::new(2)).0
            })
            .collect();
        let sharded = ShardedIndex::assemble(&g, 2, partition, cut, indexes);
        let engine = ShardedEngine::new(&g, &sharded);
        let x = g.labels().resolve("x").unwrap();
        let s = g.vertex_id("s").unwrap();
        let t = g.vertex_id("t").unwrap();
        assert_eq!(
            sharded.partition().shard_of(s),
            sharded.partition().shard_of(t)
        );
        assert_eq!(
            engine.evaluate(&Query::rlc(s, t, vec![x]).unwrap()),
            Ok(true)
        );
        assert_eq!(
            engine.evaluate(&Query::rlc(t, s, vec![x]).unwrap()),
            Ok(false)
        );
    }

    #[test]
    fn grouped_evaluation_matches_per_pair() {
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 41));
        let (sharded, _) = ShardedIndex::build(
            &g,
            &ShardBuildConfig::new(2, 4).with_strategy(PartitionStrategy::Hash { seed: 2 }),
        )
        .unwrap();
        let engine = ShardedEngine::new(&g, &sharded);
        let n = g.vertex_count() as u32;
        let mut pairs: Vec<(u32, u32)> = (0..40).map(|t| (9, (t * 7) % n)).collect();
        pairs.extend((0..12).map(|s| (s, (s * 13 + 2) % n)));
        pairs.push((n + 1, 0));
        pairs.push((2, n + 6));
        for constraint in constraints() {
            let prepared = engine.prepare(&constraint).unwrap();
            let grouped = engine.evaluate_prepared_group(&pairs, &prepared);
            for (&(s, t), grouped_answer) in pairs.iter().zip(&grouped) {
                assert_eq!(
                    *grouped_answer,
                    engine.evaluate_prepared(s, t, &prepared),
                    "grouped vs per-pair on ({s},{t}) under {constraint:?}"
                );
            }
        }
    }

    #[test]
    fn overlong_blocks_error_and_out_of_range_ids_error() {
        let g = erdos_renyi(&SyntheticConfig::new(30, 3.0, 3, 1));
        let (sharded, _) = ShardedIndex::build(&g, &ShardBuildConfig::new(2, 2)).unwrap();
        let engine = ShardedEngine::new(&g, &sharded);
        let long = Query::rlc(0, 1, vec![Label(0), Label(1), Label(2)]).unwrap();
        assert_eq!(
            engine.evaluate(&long),
            Err(QueryError::BlockTooLong {
                block: 0,
                len: 3,
                k: 2
            })
        );
        let n = g.vertex_count() as u32;
        assert_eq!(
            engine.evaluate(&Query::rlc(n + 4, 0, vec![Label(0)]).unwrap()),
            Err(QueryError::VertexOutOfRange {
                vertex: n + 4,
                vertices: g.vertex_count()
            })
        );
    }

    #[test]
    fn foreign_preparations_are_recompiled_not_misread() {
        // Per-shard MrIds are only meaningful against one sharded index:
        // a preparation from another sharded index (different partition!)
        // must be re-prepared, and a foreign artifact type likewise.
        let g = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 19));
        let (a, _) = ShardedIndex::build(&g, &ShardBuildConfig::new(2, 2)).unwrap();
        let (b, _) = ShardedIndex::build(
            &g,
            &ShardBuildConfig::new(2, 3).with_strategy(PartitionStrategy::Hash { seed: 9 }),
        )
        .unwrap();
        let engine_a = ShardedEngine::new(&g, &a);
        let engine_b = ShardedEngine::new(&g, &b);
        let constraint = Constraint::single(vec![Label(0), Label(1)]).unwrap();
        let prepared_b = engine_b.prepare(&constraint).unwrap();
        let foreign = Prepared::new(constraint.clone(), "other", 17u8);
        for s in (0..50u32).step_by(7) {
            for t in (0..50u32).step_by(5) {
                let own = engine_a.evaluate(&Query::new(s, t, constraint.clone()));
                assert_eq!(engine_a.evaluate_prepared(s, t, &prepared_b), own);
                assert_eq!(engine_a.evaluate_prepared(s, t, &foreign), own);
            }
        }
    }

    #[test]
    fn rebuilding_any_shard_invalidates_cached_plans() {
        // The acceptance-bar contract: plan_identity() folds every shard's
        // generation, so a PlanCache entry resolved against the old shard
        // set is dropped — not re-served — after any shard rebuild.
        let g = erdos_renyi(&SyntheticConfig::new(40, 3.0, 3, 23));
        let (mut sharded, _) = ShardedIndex::build(&g, &ShardBuildConfig::new(2, 3)).unwrap();
        let cache = PlanCache::new();
        let constraint = Constraint::single(vec![Label(1)]).unwrap();
        {
            let engine = ShardedEngine::new(&g, &sharded);
            let identity_before = engine.plan_identity();
            cache.prepare(&engine, &constraint).unwrap();
            assert_eq!(cache.stats().misses, 1);
            cache.prepare(&engine, &constraint).unwrap();
            assert_eq!(cache.stats().hits, 1, "stable identity hits");
            assert_eq!(engine.plan_identity(), identity_before);
        }
        sharded.rebuild_shard(2, &BuildConfig::new(2)).unwrap();
        let engine = ShardedEngine::new(&g, &sharded);
        cache.prepare(&engine, &constraint).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.stale_drops, 1, "the old plan was dropped");
        assert_eq!(stats.misses, 2, "the rebuild forced a re-prepare");
    }

    #[test]
    fn stats_price_the_stitch_scratch() {
        let g = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 7));
        let (sharded, _) = ShardedIndex::build(&g, &ShardBuildConfig::new(2, 2)).unwrap();
        let engine = ShardedEngine::new(&g, &sharded);
        // A cross-shard pair always runs the stitcher, so this thread's
        // pooled kernel scratch has grown word tables to report.
        let q = Query::rlc(0, 49, vec![Label(0), Label(1)]).unwrap();
        let _ = engine.evaluate(&q);
        assert!(sharded.stats().stitch_scratch_bytes > 0);
    }

    #[test]
    fn sharded_prepared_prices_its_per_shard_table() {
        let g = erdos_renyi(&SyntheticConfig::new(40, 3.0, 3, 3));
        let (few, _) = ShardedIndex::build(&g, &ShardBuildConfig::new(2, 2)).unwrap();
        let (many, _) = ShardedIndex::build(&g, &ShardBuildConfig::new(2, 8)).unwrap();
        let c = Constraint::single(vec![Label(0)]).unwrap();
        let plan_few = ShardedEngine::new(&g, &few).prepare(&c).unwrap();
        let plan_many = ShardedEngine::new(&g, &many).prepare(&c).unwrap();
        assert!(plan_many.approx_bytes() > plan_few.approx_bytes());
    }
}
