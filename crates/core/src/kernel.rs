//! Bit-parallel frontier sets.
//!
//! Every traversal in the workspace — the baseline BFS/BiBFS/DFS product
//! searches, the hybrid layer's repetition closures, and the sharded
//! stitcher — explores dense slot spaces (`vertex × NFA-state` products or
//! plain vertex sets). This module re-represents those visited/frontier
//! sets as dense `u64` bitset words so that dedup, settled checks, and
//! frontier meets process 64 slots per operation.
//!
//! [`FrontierSet`] is an epoch-stamped bitset. The epoch-stamp trick of the
//! scalar scratch tables carries over at *word* granularity: each 64-bit
//! word has a `u32` stamp, a word participates only when its stamp equals
//! the set's current epoch, and clearing between queries is a single epoch
//! bump (no per-query allocation, no O(slots) clear). Its word operations —
//! the meet test ([`FrontierSet::intersects`]) and OR-expansion
//! ([`FrontierSet::union_from`]) — are plain safe loops over the word and
//! stamp arrays, shaped so the compiler vectorizes them at the baseline
//! target. There is one implementation, with no runtime dispatch.
//!
//! [`KernelScratch`] bundles the frontier sets and work queue a closure
//! traversal needs, behind a thread-local pool ([`with_kernel_scratch`])
//! so steady-state evaluation stays allocation-free.

use rlc_graph::graph::OutEdges;
use rlc_graph::{LabeledGraph, VertexId};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Bits per frontier word.
const WORD_BITS: usize = 64;

/// Words per step of [`FrontierSet::intersects`]: the meet is tested only
/// between steps, so each step is a straight-line block the compiler
/// vectorizes.
const MEET_STEP: usize = 8;

/// The vector class of the host CPU: `"avx2"` on an `x86_64` CPU with AVX2
/// and POPCNT, `"neon"` on `aarch64`, `"generic"` elsewhere.
///
/// It names the host, not a code path: every host runs the same portable
/// word loops. Benchmark results record it so that runs from hosts of
/// different vector classes are not compared.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
        return "avx2";
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return "neon";
    }
    "generic"
}

/// `word` if its stamp is live at `epoch`, otherwise an all-zero word (it
/// is left over from an earlier traversal and not yet lazily cleared).
#[inline]
fn live(word: u64, stamp: u32, epoch: u32) -> u64 {
    if stamp == epoch {
        word
    } else {
        0
    }
}

/// A dense bitset over traversal slots with word-granular lazy clearing.
///
/// A "slot" is whatever dense encoding the traversal uses (a vertex id,
/// or `vertex * state_count + state` for product searches). Each 64-slot
/// word carries a `u32` epoch stamp; the word's bits are meaningful only
/// when the stamp equals the set's current epoch, so [`begin`] clears the
/// whole set by bumping a counter and stale words are zeroed lazily on
/// first touch. This keeps the O(1)-clear property of the scalar
/// epoch-stamp tables while shrinking the per-slot footprint from 32 bits
/// to 1 bit (plus 0.5 bits of stamp).
///
/// [`begin`]: FrontierSet::begin
#[derive(Debug, Default)]
pub struct FrontierSet {
    words: Vec<u64>,
    stamps: Vec<u32>,
    epoch: u32,
}

impl FrontierSet {
    /// Creates an empty set. Call [`Self::begin`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new traversal over `slots` slots: grows the word tables
    /// if needed and invalidates every previously set bit via an epoch
    /// bump (with a full stamp reset once every 2^32 traversals, when the
    /// epoch counter wraps — see the wraparound regression tests).
    pub fn begin(&mut self, slots: usize) {
        self.reserve_words(slots);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: a stale stamp from 2^32 traversals ago
            // could otherwise equal the fresh epoch and resurrect bits.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Grows the set to cover `slots` slots *without* starting a new
    /// traversal (existing bits stay valid). For lazily-sized secondary
    /// sets, mirroring the scalar scratch's `ensure_backward`.
    pub fn ensure(&mut self, slots: usize) {
        self.reserve_words(slots);
    }

    fn reserve_words(&mut self, slots: usize) {
        let words = slots.div_ceil(WORD_BITS);
        if self.words.len() < words {
            self.words.resize(words, 0);
            // Fresh stamps are 0; `begin` guarantees the live epoch is
            // never 0, so new words start dead.
            self.stamps.resize(words, 0);
        }
    }

    #[inline]
    fn split(slot: usize) -> (usize, u64) {
        (slot / WORD_BITS, 1u64 << (slot % WORD_BITS))
    }

    /// Sets `slot` and returns whether it was already set. Lazily clears
    /// the containing word if it is stale.
    #[inline]
    pub fn test_and_set(&mut self, slot: usize) -> bool {
        let (w, bit) = Self::split(slot);
        if self.stamps[w] != self.epoch {
            self.stamps[w] = self.epoch;
            self.words[w] = 0;
        }
        let was = self.words[w] & bit != 0;
        self.words[w] |= bit;
        was
    }

    /// Whether `slot` is set in the current traversal.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        let (w, bit) = Self::split(slot);
        self.stamps[w] == self.epoch && self.words[w] & bit != 0
    }

    /// Whether this set and `other` share a bit, over their common word
    /// prefix (bits past the shorter set are absent from it). Exits early,
    /// but only between steps of [`MEET_STEP`] words.
    pub fn intersects(&self, other: &FrontierSet) -> bool {
        let n = self.words.len().min(other.words.len());
        let (a, a_stamps) = (&self.words[..n], &self.stamps[..n]);
        let (b, b_stamps) = (&other.words[..n], &other.stamps[..n]);
        let hit =
            |i: usize| live(a[i], a_stamps[i], self.epoch) & live(b[i], b_stamps[i], other.epoch);
        let mut i = 0;
        while i + MEET_STEP <= n {
            if (i..i + MEET_STEP).fold(0, |acc, j| acc | hit(j)) != 0 {
                return true;
            }
            i += MEET_STEP;
        }
        (i..n).any(|j| hit(j) != 0)
    }

    /// ORs every bit of `src` into this set over the common word prefix,
    /// stamping every word of that prefix live; returns whether any bit
    /// changed.
    pub fn union_from(&mut self, src: &FrontierSet) -> bool {
        let epoch = self.epoch;
        let mut changed = 0u64;
        let dst = self.words.iter_mut().zip(self.stamps.iter_mut());
        for ((dw, ds), (&sw, &ss)) in dst.zip(src.words.iter().zip(&src.stamps)) {
            let old = live(*dw, *ds, epoch);
            let new = old | live(sw, ss, src.epoch);
            changed |= new ^ old;
            *dw = new;
            *ds = epoch;
        }
        changed != 0
    }

    /// Calls `f` with every set slot, in ascending order.
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (i, (&w, &s)) in self.words.iter().zip(&self.stamps).enumerate() {
            if s != self.epoch {
                continue;
            }
            let mut bits = w;
            while bits != 0 {
                f(i * WORD_BITS + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Resident heap footprint in bytes (word + stamp tables).
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.stamps.capacity() * std::mem::size_of::<u32>()
    }

    /// Sets the epoch counter directly, so tests can drive the
    /// wraparound path without 2^32 traversals. Not part of the API.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The current epoch (exposed for wraparound tests).
    #[doc(hidden)]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

// ---------------------------------------------------------------------------
// Direction: which way a traversal walks the edges.
// ---------------------------------------------------------------------------

/// Which way a traversal walks the graph's edges. The index builder's
/// kernel-based searches run both ways from every root (Algorithm 2), and
/// the hybrid evaluator closes a concatenation from whichever end is
/// cheaper (`crate::hybrid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Walks in-edges, from an edge's target to its source.
    Backward,
    /// Walks out-edges, from an edge's source to its target.
    Forward,
}

impl Direction {
    /// The edges a step out of `v` may take: `v`'s in-edges backward, its
    /// out-edges forward, as `(neighbour, label)` pairs.
    #[inline]
    pub(crate) fn edges(self, graph: &LabeledGraph, v: VertexId) -> OutEdges<'_> {
        match self {
            Direction::Backward => graph.in_edges(v),
            Direction::Forward => graph.out_edges(v),
        }
    }

    /// The offset, within a block of `len` labels, of the label a step out
    /// of `state` reads, where `state` counts the steps taken since the last
    /// repetition boundary. A forward walk reads the block left to right and
    /// a backward walk right to left, so the labels along the path spell the
    /// block repeated either way.
    #[inline]
    pub(crate) fn block_offset(self, state: u32, len: u32) -> u32 {
        match self {
            Direction::Backward => len - 1 - state,
            Direction::Forward => state,
        }
    }
}

// ---------------------------------------------------------------------------
// KernelScratch: pooled per-thread traversal state.
// ---------------------------------------------------------------------------

/// Reusable state for closure traversals over the word representation:
/// a product-slot visited set, vertex-level boundary and hop-memo sets,
/// and a work queue of `(vertex, state)` pairs. Acquired from a
/// thread-local pool via [`with_kernel_scratch`] so steady-state batch
/// evaluation performs no per-query allocation.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Visited set over product slots (`vertex * period + offset`).
    pub visited: FrontierSet,
    /// Result accumulator over vertices.
    pub boundary: FrontierSet,
    /// Secondary vertex-level set (hop dedup in the sharded stitcher).
    pub hopped: FrontierSet,
    /// BFS work queue of `(vertex, state)` pairs.
    pub queue: VecDeque<(VertexId, u32)>,
}

impl KernelScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resident heap footprint in bytes (all three bitsets + queue).
    pub fn memory_bytes(&self) -> usize {
        self.visited.memory_bytes()
            + self.boundary.memory_bytes()
            + self.hopped.memory_bytes()
            + self.queue.capacity() * std::mem::size_of::<(VertexId, u32)>()
    }
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<KernelScratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a [`KernelScratch`] from this thread's pool. Re-entrant:
/// a nested call receives a second scratch instead of aliasing the outer
/// one. (If `f` panics its scratch is dropped, not returned to the pool.)
pub fn with_kernel_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let result = f(&mut scratch);
    SCRATCH_POOL.with(|pool| pool.borrow_mut().push(scratch));
    result
}

/// Resident bytes of the calling thread's idle kernel-scratch pool —
/// the word tables queries on this thread have grown and parked. Lets
/// stats surfaces price the traversal scratch alongside index structures.
pub fn pooled_scratch_bytes() -> usize {
    SCRATCH_POOL.with(|pool| pool.borrow().iter().map(|s| s.memory_bytes()).sum())
}

/// Heap-allocation counting for allocation-freedom proofs.
///
/// The serve crate's load-shedding path promises to write its preformatted
/// 503/504 responses without touching the allocator — a server already out
/// of memory headroom must be able to say "go away" without asking for more.
/// "No allocation" is a claim only the allocator itself can certify, so this
/// module provides a counting [`GlobalAlloc`] wrapper around [`System`]: a
/// test binary installs it via `#[global_allocator]`, snapshots
/// [`allocation_count`] around the path under test, and asserts the delta is
/// zero. Counter-based, not heuristic.
///
/// It lives here because implementing [`GlobalAlloc`] is necessarily
/// `unsafe`, and this kernel module is the one place the workspace confines
/// `unsafe` code to (enforced by `rlc-analyze`'s unsafe-confinement rule).
/// The wrapper adds one relaxed atomic increment per allocation and
/// delegates everything else verbatim, so installing it does not change
/// allocation behavior — only observes it.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Process-wide count of allocation calls (`alloc`, `alloc_zeroed`,
    /// and growing/shrinking via `realloc`) since process start. Only ever
    /// incremented; deallocations are not tracked because allocation-freedom
    /// proofs only care that nothing was *requested*.
    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// The observed allocation-call total. Meaningful only in a binary that
    /// installed [`CountingAllocator`] as its `#[global_allocator]`;
    /// elsewhere it stays zero.
    pub fn allocation_count() -> u64 {
        // rlc-analyze: allow(atomic-pairing) — count read for reporting; exactness not required
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// A [`System`]-delegating allocator that counts allocation calls.
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: rlc_core::kernel::alloc_count::CountingAllocator =
    ///     rlc_core::kernel::alloc_count::CountingAllocator;
    /// ```
    pub struct CountingAllocator;

    // SAFETY: every method delegates verbatim to `System`, which upholds the
    // `GlobalAlloc` contract; the only addition is a relaxed counter bump,
    // which cannot affect the returned pointers or layouts.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // rlc-analyze: allow(atomic-pairing) — observational counter bump; nothing is published
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // rlc-analyze: allow(atomic-pairing) — observational counter bump; nothing is published
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // rlc-analyze: allow(atomic-pairing) — observational counter bump; nothing is published
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test_roundtrip() {
        let mut set = FrontierSet::new();
        set.begin(200);
        assert!(!set.test_and_set(3));
        assert!(set.test_and_set(3));
        assert!(set.contains(3));
        assert!(!set.contains(4));
        assert!(!set.contains(199));
        assert!(!set.test_and_set(199));
        assert!(set.contains(199));
    }

    #[test]
    fn begin_clears_previous_traversal() {
        let mut set = FrontierSet::new();
        set.begin(128);
        set.test_and_set(7);
        set.test_and_set(100);
        set.begin(128);
        assert!(!set.contains(7));
        assert!(!set.contains(100));
        assert_eq!(count(&set), 0);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let mut set = FrontierSet::new();
        set.begin(64); // epoch 1
        set.test_and_set(5);
        // Fast-forward to the wrap: the next begin would recycle epoch
        // value 1, under which slot 5's word was stamped live.
        set.force_epoch(u32::MAX);
        set.begin(64);
        assert_eq!(set.epoch(), 1);
        assert!(
            !set.contains(5),
            "stale bits must not resurrect across an epoch wrap"
        );
        assert_eq!(count(&set), 0);
    }

    #[test]
    fn ensure_grows_without_clearing() {
        let mut set = FrontierSet::new();
        set.begin(64);
        set.test_and_set(10);
        set.ensure(1024);
        assert!(set.contains(10));
        assert!(!set.contains(1000));
        assert!(!set.test_and_set(1000));
        assert!(set.contains(1000));
    }

    #[test]
    fn for_each_set_is_ascending_and_complete() {
        let mut set = FrontierSet::new();
        set.begin(300);
        for slot in [255, 0, 64, 63, 130, 299] {
            set.test_and_set(slot);
        }
        let mut seen = Vec::new();
        set.for_each_set(|slot| seen.push(slot));
        assert_eq!(seen, vec![0, 63, 64, 130, 255, 299]);
        assert_eq!(count(&set), 6);
    }

    #[test]
    fn union_from_merges_and_reports_change() {
        let mut a = FrontierSet::new();
        let mut b = FrontierSet::new();
        a.begin(256);
        b.begin(256);
        a.test_and_set(1);
        b.test_and_set(1);
        b.test_and_set(200);
        assert!(a.union_from(&b));
        assert!(a.contains(1));
        assert!(a.contains(200));
        assert!(!a.union_from(&b), "second union must be a no-op");
        assert_eq!(count(&a), 2);
    }

    #[test]
    fn intersects_respects_epoch_masking() {
        let mut a = FrontierSet::new();
        let mut b = FrontierSet::new();
        a.begin(256);
        b.begin(256);
        a.test_and_set(70);
        b.test_and_set(71);
        assert!(!a.intersects(&b));
        b.test_and_set(70);
        assert!(a.intersects(&b));
        // Stale words must read as empty: b's bits die with its epoch bump.
        b.begin(256);
        assert!(!a.intersects(&b));
    }

    /// Builds a deterministic pseudo-random set over `words` words at
    /// `epoch`, with about half the words stale and garbage bits left in
    /// them, so the word ops must apply the epoch masking.
    fn scrambled(seed: u64, words: usize, epoch: u32) -> FrontierSet {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut set = FrontierSet {
            words: Vec::with_capacity(words),
            stamps: Vec::with_capacity(words),
            epoch,
        };
        for _ in 0..words {
            set.words.push(next());
            set.stamps.push(if next() % 2 == 0 {
                epoch
            } else {
                epoch ^ 0x5a5a
            });
        }
        set
    }

    /// The set's members, read slot by slot through `contains`: the
    /// reference the word ops are checked against.
    fn members(set: &FrontierSet) -> Vec<usize> {
        (0..set.words.len() * WORD_BITS)
            .filter(|&slot| set.contains(slot))
            .collect()
    }

    fn count(set: &FrontierSet) -> usize {
        let mut n = 0;
        set.for_each_set(|_| n += 1);
        n
    }

    #[test]
    fn word_ops_match_the_per_slot_reference() {
        for seed in 0..96u64 {
            // Unequal lengths, most not a multiple of the meet step.
            let (a_len, b_len) = (seed as usize % 21, (seed as usize * 7 + 3) % 26);
            let b_epoch = [9, u32::MAX, 1][seed as usize % 3];
            let make_a = || {
                let mut a = scrambled(seed, a_len, 7);
                if seed % 4 == 3 {
                    // Through the epoch wrap: every stamp resets, and the
                    // garbage bits left in the words must stay dead.
                    a.force_epoch(u32::MAX);
                    a.begin(a_len * WORD_BITS);
                    assert_eq!(a.epoch(), 1);
                }
                a
            };
            let a = make_a();
            let b = scrambled(seed + 1000, b_len, b_epoch);
            let (ma, mb) = (members(&a), members(&b));

            let mut seen = Vec::new();
            a.for_each_set(|slot| seen.push(slot));
            assert_eq!(seen, ma, "for_each_set, seed {seed}");

            let meet = ma.iter().any(|slot| mb.binary_search(slot).is_ok());
            assert_eq!(a.intersects(&b), meet, "intersects, seed {seed}");
            assert_eq!(b.intersects(&a), meet, "intersects, seed {seed}");

            let common = a_len.min(b_len) * WORD_BITS;
            let mut expected = ma.clone();
            expected.extend(mb.iter().filter(|&&slot| slot < common));
            expected.sort_unstable();
            expected.dedup();
            let mut union = make_a();
            let changed = union.union_from(&b);
            assert_eq!(members(&union), expected, "union_from, seed {seed}");
            assert_eq!(changed, expected != ma, "changed flag, seed {seed}");
            assert!(!union.union_from(&b), "a repeated union is a no-op");
        }
    }

    #[test]
    fn scratch_pool_is_reentrant_and_priced() {
        let outer_bytes = with_kernel_scratch(|outer| {
            outer.visited.begin(10_000);
            outer.visited.test_and_set(1234);
            // A nested acquisition must not alias the outer scratch.
            with_kernel_scratch(|inner| {
                inner.visited.begin(64);
                assert!(!inner.visited.contains(34));
            });
            assert!(outer.visited.contains(1234));
            outer.memory_bytes()
        });
        assert!(outer_bytes > 0);
        assert!(
            pooled_scratch_bytes() >= outer_bytes,
            "released scratch must be visible to the pool pricing"
        );
    }
}
