//! Reusable per-thread search state for the online product traversals.
//!
//! Every BFS/BiBFS/DFS evaluation explores `(vertex, NFA state)` pairs. A
//! naive implementation allocates a fresh hash set and queue per query; on a
//! batch of thousands of queries those allocations dominate. This module
//! provides [`ProductScratch`] — bit-parallel visited sets
//! ([`rlc_core::kernel::FrontierSet`]) plus reusable frontier containers
//! sized to `|V| × |Q|` — and a thread-local instance so the
//! [`crate::engine`] adapters evaluate whole batches without per-query
//! allocation in the steady state (containers grow once per thread, then
//! are reused; epoch bumps make clearing O(1)).
//!
//! The visited sets used to be scalar `u32` stamp tables (one stamp per
//! product slot). They are now dense `u64` bitset words with word-granular
//! epoch stamps: 1 bit per slot instead of 32, and set operations (the
//! BiBFS frontier meet in particular) run over whole words in
//! [`rlc_core::kernel`].

use rlc_core::kernel::FrontierSet;
use rlc_graph::VertexId;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Reusable search state for product-graph traversals.
///
/// A "slot" is the dense encoding `vertex * state_count + state` of a
/// product state. The two bitsets implement two independent visited sets
/// (forward and backward, for bidirectional search); clearing between
/// queries is an epoch bump (see [`FrontierSet`]).
#[derive(Debug, Default)]
pub struct ProductScratch {
    forward: FrontierSet,
    backward: FrontierSet,
    /// BFS work queue.
    pub(crate) queue: VecDeque<(VertexId, u32)>,
    /// DFS work stack.
    pub(crate) stack: Vec<(VertexId, u32)>,
    /// Frontier buffers for bidirectional search, reused across queries.
    frontier_buffers: Vec<Vec<(VertexId, u32)>>,
}

impl ProductScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the scratch for a traversal over `slots` product states:
    /// bumps both epochs (O(1) clear of both visited sets), grows the
    /// forward bitset if needed, and clears the work containers.
    ///
    /// Only the forward set is sized here — BFS and DFS never touch the
    /// backward set, so growing it eagerly would double the footprint of
    /// every unidirectional traversal. Bidirectional search additionally
    /// calls [`Self::ensure_backward`].
    pub(crate) fn begin(&mut self, slots: usize) {
        self.forward.begin(slots);
        self.backward.begin(0);
        self.queue.clear();
        self.stack.clear();
    }

    /// Grows the backward bitset to cover `slots` product states; must be
    /// called (after [`Self::begin`]) before using the backward visited
    /// set.
    pub(crate) fn ensure_backward(&mut self, slots: usize) {
        self.backward.ensure(slots);
    }

    /// Marks a slot visited in the forward set; returns whether it was
    /// already visited.
    #[inline]
    pub(crate) fn mark_forward(&mut self, slot: usize) -> bool {
        self.forward.test_and_set(slot)
    }

    /// Whether a slot is visited in the forward set. The traversals only
    /// ever mark-and-test ([`Self::mark_forward`]); direct membership reads
    /// remain for the unit tests.
    #[cfg(test)]
    fn forward_visited(&self, slot: usize) -> bool {
        self.forward.contains(slot)
    }

    /// Marks a slot visited in the backward set; returns whether it was
    /// already visited.
    #[inline]
    pub(crate) fn mark_backward(&mut self, slot: usize) -> bool {
        self.backward.test_and_set(slot)
    }

    /// Whether a slot is visited in the backward set; test-only, like
    /// [`Self::forward_visited`].
    #[cfg(test)]
    fn backward_visited(&self, slot: usize) -> bool {
        self.backward.contains(slot)
    }

    /// Whether the forward and backward visited sets share a product
    /// state — the bidirectional-search meet test, one word-parallel
    /// intersection instead of a scalar probe per generated state.
    #[inline]
    pub(crate) fn frontiers_meet(&self) -> bool {
        self.forward.intersects(&self.backward)
    }

    /// Hands out a cleared frontier buffer (capacity retained from earlier
    /// traversals). Return it with [`Self::recycle_frontier`].
    pub(crate) fn take_frontier(&mut self) -> Vec<(VertexId, u32)> {
        let mut buffer = self.frontier_buffers.pop().unwrap_or_default();
        buffer.clear();
        buffer
    }

    /// Returns a frontier buffer for reuse by later traversals.
    pub(crate) fn recycle_frontier(&mut self, buffer: Vec<(VertexId, u32)>) {
        self.frontier_buffers.push(buffer);
    }

    /// Resident heap footprint in bytes: both visited bitsets (word +
    /// stamp tables) plus the work containers. Used to price the traversal
    /// scratch in stats surfaces.
    pub fn memory_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(VertexId, u32)>();
        self.forward.memory_bytes()
            + self.backward.memory_bytes()
            + self.queue.capacity() * pair
            + self.stack.capacity() * pair
            + self
                .frontier_buffers
                .iter()
                .map(|b| b.capacity() * pair)
                .sum::<usize>()
    }

    /// Sets both visited-set epoch counters directly, so tests can drive
    /// the wraparound path without 2^32 traversals. Not part of the API.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.forward.force_epoch(epoch);
        self.backward.force_epoch(epoch);
    }
}

thread_local! {
    static SCRATCH: RefCell<ProductScratch> = RefCell::new(ProductScratch::new());
}

/// Runs `f` with this thread's [`ProductScratch`].
///
/// The traversal entry points route through here, so batch evaluation —
/// which fans queries out across rayon workers — reuses one scratch per
/// worker thread.
pub fn with_scratch<R>(f: impl FnOnce(&mut ProductScratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Resident bytes of the calling thread's [`ProductScratch`] — the word
/// tables this thread's traversals have grown. Lets callers price the
/// per-thread search scratch alongside prepared artifacts.
pub fn thread_scratch_bytes() -> usize {
    with_scratch(|scratch| scratch.memory_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bump_clears_visited_sets() {
        let mut scratch = ProductScratch::new();
        scratch.begin(10);
        scratch.ensure_backward(10);
        assert!(!scratch.mark_forward(3));
        assert!(scratch.mark_forward(3));
        assert!(scratch.forward_visited(3));
        assert!(!scratch.backward_visited(3));
        scratch.begin(10);
        assert!(!scratch.forward_visited(3));
        assert!(!scratch.mark_forward(3));
    }

    #[test]
    fn stamp_tables_grow_on_demand() {
        let mut scratch = ProductScratch::new();
        scratch.begin(4);
        scratch.mark_forward(3);
        scratch.begin(100);
        assert!(!scratch.forward_visited(99));
        scratch.ensure_backward(100);
        scratch.mark_backward(99);
        assert!(scratch.backward_visited(99));
    }

    #[test]
    fn epoch_wraparound_clears_instead_of_stale_matching() {
        // Regression: after 2^32 `begin` calls the u32 epoch counter wraps
        // and restarts at 1 — the same value that stamped words live in
        // the very first traversal. The wrap must reset the stamp tables,
        // or bits from epoch 1 of the previous era would resurrect.
        let mut scratch = ProductScratch::new();
        scratch.begin(256); // epoch 1
        scratch.ensure_backward(256);
        scratch.mark_forward(7);
        scratch.mark_forward(200);
        scratch.mark_backward(8);
        // Fast-forward both sets to the eve of the wrap, then cross it.
        scratch.force_epoch(u32::MAX);
        scratch.begin(256);
        scratch.ensure_backward(256);
        assert!(
            !scratch.forward_visited(7) && !scratch.forward_visited(200),
            "forward bits from the previous epoch era must be cleared"
        );
        assert!(
            !scratch.backward_visited(8),
            "backward bits from the previous epoch era must be cleared"
        );
        // And the wrapped-around scratch must still work normally.
        assert!(!scratch.mark_forward(7));
        assert!(scratch.mark_forward(7));
        scratch.begin(256);
        assert!(!scratch.forward_visited(7));
    }

    #[test]
    fn frontier_meet_reflects_shared_slots() {
        let mut scratch = ProductScratch::new();
        scratch.begin(500);
        scratch.ensure_backward(500);
        scratch.mark_forward(400);
        scratch.mark_backward(401);
        assert!(!scratch.frontiers_meet());
        scratch.mark_backward(400);
        assert!(scratch.frontiers_meet());
        scratch.begin(500);
        assert!(!scratch.frontiers_meet());
    }

    #[test]
    fn frontier_buffers_are_recycled() {
        let mut scratch = ProductScratch::new();
        let mut buffer = scratch.take_frontier();
        buffer.push((1, 0));
        buffer.reserve(1000);
        let capacity = buffer.capacity();
        scratch.recycle_frontier(buffer);
        let reused = scratch.take_frontier();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), capacity);
    }

    #[test]
    fn scratch_memory_is_priced() {
        let mut scratch = ProductScratch::new();
        assert_eq!(scratch.memory_bytes(), 0);
        scratch.begin(10_000);
        let unidirectional = scratch.memory_bytes();
        assert!(unidirectional > 0);
        scratch.ensure_backward(10_000);
        assert!(scratch.memory_bytes() > unidirectional);
    }

    #[test]
    fn thread_local_scratch_is_accessible() {
        let sum = with_scratch(|scratch| {
            scratch.begin(8);
            scratch.mark_forward(1);
            scratch.forward_visited(1) as usize
        });
        assert_eq!(sum, 1);
        assert!(thread_scratch_bytes() > 0);
    }
}
