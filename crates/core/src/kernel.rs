//! Bit-parallel frontier kernels with runtime-dispatched SIMD.
//!
//! Every traversal in the workspace — the baseline BFS/BiBFS/DFS product
//! searches, the hybrid layer's repetition closures, and the sharded
//! stitcher — explores dense slot spaces (`vertex × NFA-state` products or
//! plain vertex sets). This module re-represents those visited/frontier
//! sets as dense `u64` bitset words so that dedup, settled checks, and
//! frontier meets process 64 slots per operation:
//!
//! * [`FrontierSet`] — an epoch-stamped bitset. The epoch-stamp trick of
//!   the scalar scratch tables carries over at *word* granularity: each
//!   64-bit word has a `u32` stamp, a word participates only when its
//!   stamp equals the set's current epoch, and clearing between queries is
//!   a single epoch bump (no per-query allocation, no O(slots) clear).
//! * [`WordOps`] — the word-wise kernel behind the set operations:
//!   intersection tests (`intersects`), OR-expansion (`or_expand`) and
//!   population counts (`count_ones`) over epoch-masked word arrays.
//!
//! Two `WordOps` backends exist behind one trait object: a portable
//! generic backend (plain scalar word loops, compiled on every platform)
//! and a SIMD lane — AVX2 on `x86_64`, NEON on `aarch64` — selected once
//! at first use via runtime feature detection. One binary therefore runs
//! vectorized where the CPU supports it and falls back to the generic
//! reference everywhere else. The choice can be forced for testing with
//! the `RLC_KERNEL=generic|simd` environment variable or switched
//! in-process with [`set_kernel`]; both backends produce bit-identical
//! results (`simd_and_generic_backends_agree` below and the ten-engine
//! differential under both forced backends assert this).
//!
//! [`KernelScratch`] bundles the frontier sets and work queue a closure
//! traversal needs, behind a thread-local pool ([`with_kernel_scratch`])
//! so steady-state evaluation stays allocation-free.

use rlc_graph::graph::OutEdges;
use rlc_graph::{LabeledGraph, VertexId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};

/// Bits per frontier word.
const WORD_BITS: usize = 64;

/// A borrowed, epoch-masked view of a [`FrontierSet`]'s word array.
///
/// A word at position `i` contributes its stored bits iff
/// `stamps[i] == epoch`; otherwise it reads as an all-zero word (it is
/// left over from an earlier traversal and has not been lazily cleared
/// yet). `words` and `stamps` always have equal length.
#[derive(Clone, Copy, Debug)]
pub struct WordsView<'a> {
    /// The bitset words.
    pub words: &'a [u64],
    /// Per-word epoch stamps.
    pub stamps: &'a [u32],
    /// The epoch a stamp must equal for its word to be live.
    pub epoch: u32,
}

/// The word-wise kernel operations, implemented by the generic backend and
/// the per-architecture SIMD backends. All implementations are
/// answer-identical; only throughput differs. Operations over two views
/// run over the common word prefix (bits past the shorter array are
/// absent from that set, so they cannot contribute to an intersection or
/// union).
pub trait WordOps: Sync + Send {
    /// Backend name for diagnostics: `"generic"`, `"avx2"`, or `"neon"`.
    fn name(&self) -> &'static str;

    /// Whether the two epoch-masked bitsets share at least one set bit.
    /// Early-exits on the first intersecting word.
    fn intersects(&self, a: WordsView<'_>, b: WordsView<'_>) -> bool;

    /// ORs the live words of `src` into the destination set (given by its
    /// raw parts) over the common prefix, stamping every touched
    /// destination word live at `dst_epoch`. Returns whether any
    /// destination bit changed.
    fn or_expand(
        &self,
        dst_words: &mut [u64],
        dst_stamps: &mut [u32],
        dst_epoch: u32,
        src: WordsView<'_>,
    ) -> bool;

    /// Population count over the live words of the view.
    fn count_ones(&self, a: WordsView<'_>) -> usize;
}

// ---------------------------------------------------------------------------
// Generic backend: portable scalar word loops. This is the reference
// semantics; the SIMD lanes must match it bit-for-bit.
// ---------------------------------------------------------------------------

struct GenericKernel;

#[inline]
fn live(word: u64, stamp: u32, epoch: u32) -> u64 {
    if stamp == epoch {
        word
    } else {
        0
    }
}

impl WordOps for GenericKernel {
    fn name(&self) -> &'static str {
        "generic"
    }

    fn intersects(&self, a: WordsView<'_>, b: WordsView<'_>) -> bool {
        a.words
            .iter()
            .zip(a.stamps)
            .zip(b.words.iter().zip(b.stamps))
            .any(|((&aw, &ast), (&bw, &bst))| live(aw, ast, a.epoch) & live(bw, bst, b.epoch) != 0)
    }

    fn or_expand(
        &self,
        dst_words: &mut [u64],
        dst_stamps: &mut [u32],
        dst_epoch: u32,
        src: WordsView<'_>,
    ) -> bool {
        let mut changed = false;
        for ((dw, ds), (&sw, &sst)) in dst_words
            .iter_mut()
            .zip(dst_stamps.iter_mut())
            .zip(src.words.iter().zip(src.stamps))
        {
            let old = live(*dw, *ds, dst_epoch);
            let new = old | live(sw, sst, src.epoch);
            changed |= new != old;
            *dw = new;
            *ds = dst_epoch;
        }
        changed
    }

    fn count_ones(&self, a: WordsView<'_>) -> usize {
        a.words
            .iter()
            .zip(a.stamps)
            .map(|(&w, &s)| live(w, s, a.epoch).count_ones() as usize)
            .sum()
    }
}

static GENERIC: GenericKernel = GenericKernel;

// ---------------------------------------------------------------------------
// AVX2 backend (x86_64): 4 words (256 bits) per step. The per-word u32
// stamps are compared against the epoch with a 128-bit compare whose
// 0/-1 lanes are sign-extended to 64-bit masks, so the epoch filter is
// applied in-register with no branches.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{live, WordsView};
    use std::arch::x86_64::*;

    /// Loads 4 words starting at `i`, masked by their epoch stamps.
    ///
    /// # Safety
    /// Requires AVX2; `i + 4` must not exceed the array lengths.
    #[inline]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn masked_load(
        words: *const u64,
        stamps: *const u32,
        epoch: __m128i,
        i: usize,
    ) -> __m256i {
        let w = _mm256_loadu_si256(words.add(i) as *const __m256i);
        let s = _mm_loadu_si128(stamps.add(i) as *const __m128i);
        // 0/-1 per 32-bit stamp lane, widened to a 0/-1 64-bit word mask.
        let mask = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(s, epoch));
        _mm256_and_si256(w, mask)
    }

    /// # Safety
    /// Requires AVX2 + POPCNT (checked by the dispatcher).
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn intersects(a: WordsView<'_>, b: WordsView<'_>) -> bool {
        let n = a.words.len().min(b.words.len());
        let ae = _mm_set1_epi32(a.epoch as i32);
        let be = _mm_set1_epi32(b.epoch as i32);
        let mut i = 0;
        while i + 4 <= n {
            let aw = masked_load(a.words.as_ptr(), a.stamps.as_ptr(), ae, i);
            let bw = masked_load(b.words.as_ptr(), b.stamps.as_ptr(), be, i);
            let hit = _mm256_and_si256(aw, bw);
            if _mm256_testz_si256(hit, hit) == 0 {
                return true;
            }
            i += 4;
        }
        while i < n {
            if live(a.words[i], a.stamps[i], a.epoch) & live(b.words[i], b.stamps[i], b.epoch) != 0
            {
                return true;
            }
            i += 1;
        }
        false
    }

    /// # Safety
    /// Requires AVX2 + POPCNT (checked by the dispatcher).
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn or_expand(
        dst_words: &mut [u64],
        dst_stamps: &mut [u32],
        dst_epoch: u32,
        src: WordsView<'_>,
    ) -> bool {
        let n = dst_words.len().min(src.words.len());
        let de = _mm_set1_epi32(dst_epoch as i32);
        let se = _mm_set1_epi32(src.epoch as i32);
        let mut changed = false;
        let mut i = 0;
        while i + 4 <= n {
            let old = masked_load(dst_words.as_ptr(), dst_stamps.as_ptr(), de, i);
            let s = masked_load(src.words.as_ptr(), src.stamps.as_ptr(), se, i);
            let new = _mm256_or_si256(old, s);
            let diff = _mm256_xor_si256(new, old);
            if _mm256_testz_si256(diff, diff) == 0 {
                changed = true;
            }
            _mm256_storeu_si256(dst_words.as_mut_ptr().add(i) as *mut __m256i, new);
            _mm_storeu_si128(dst_stamps.as_mut_ptr().add(i) as *mut __m128i, de);
            i += 4;
        }
        while i < n {
            let old = live(dst_words[i], dst_stamps[i], dst_epoch);
            let new = old | live(src.words[i], src.stamps[i], src.epoch);
            changed |= new != old;
            dst_words[i] = new;
            dst_stamps[i] = dst_epoch;
            i += 1;
        }
        changed
    }

    /// # Safety
    /// Requires AVX2 + POPCNT (checked by the dispatcher) — the live-word
    /// counts lower to the hardware `popcnt` instruction.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn count_ones(a: WordsView<'_>) -> usize {
        let mut total = 0usize;
        for (&w, &s) in a.words.iter().zip(a.stamps) {
            total += live(w, s, a.epoch).count_ones() as usize;
        }
        total
    }
}

#[cfg(target_arch = "x86_64")]
struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
impl WordOps for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn intersects(&self, a: WordsView<'_>, b: WordsView<'_>) -> bool {
        // SAFETY: this backend is only selected when AVX2+POPCNT are
        // detected at runtime (see `simd_available`).
        unsafe { avx2::intersects(a, b) }
    }

    fn or_expand(
        &self,
        dst_words: &mut [u64],
        dst_stamps: &mut [u32],
        dst_epoch: u32,
        src: WordsView<'_>,
    ) -> bool {
        // SAFETY: as above — AVX2+POPCNT presence is a selection invariant.
        unsafe { avx2::or_expand(dst_words, dst_stamps, dst_epoch, src) }
    }

    fn count_ones(&self, a: WordsView<'_>) -> usize {
        // SAFETY: as above — AVX2+POPCNT presence is a selection invariant.
        unsafe { avx2::count_ones(a) }
    }
}

#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: Avx2Kernel = Avx2Kernel;

// ---------------------------------------------------------------------------
// NEON backend (aarch64): 2 words (128 bits) per step. NEON is part of the
// baseline aarch64 feature set, so detection effectively always succeeds;
// the runtime check is kept for uniformity with the x86_64 path.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{live, WordsView};
    use std::arch::aarch64::*;

    /// Loads 2 words starting at `i`, masked by their epoch stamps.
    ///
    /// # Safety
    /// Requires NEON; `i + 2` must not exceed the array lengths.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn masked_load(
        words: *const u64,
        stamps: *const u32,
        epoch: uint32x2_t,
        i: usize,
    ) -> uint64x2_t {
        let w = vld1q_u64(words.add(i));
        // 0/-1 per 32-bit stamp lane; duplicating each lane yields the
        // 0/-1 64-bit word masks.
        let cmp = vceq_u32(vld1_u32(stamps.add(i)), epoch);
        let zipped = vzip_u32(cmp, cmp);
        let mask = vreinterpretq_u64_u32(vcombine_u32(zipped.0, zipped.1));
        vandq_u64(w, mask)
    }

    /// # Safety
    /// Requires NEON (checked by the dispatcher).
    #[target_feature(enable = "neon")]
    pub unsafe fn intersects(a: WordsView<'_>, b: WordsView<'_>) -> bool {
        let n = a.words.len().min(b.words.len());
        let ae = vdup_n_u32(a.epoch);
        let be = vdup_n_u32(b.epoch);
        let mut i = 0;
        while i + 2 <= n {
            let aw = masked_load(a.words.as_ptr(), a.stamps.as_ptr(), ae, i);
            let bw = masked_load(b.words.as_ptr(), b.stamps.as_ptr(), be, i);
            let hit = vandq_u64(aw, bw);
            if vmaxvq_u32(vreinterpretq_u32_u64(hit)) != 0 {
                return true;
            }
            i += 2;
        }
        while i < n {
            if live(a.words[i], a.stamps[i], a.epoch) & live(b.words[i], b.stamps[i], b.epoch) != 0
            {
                return true;
            }
            i += 1;
        }
        false
    }

    /// # Safety
    /// Requires NEON (checked by the dispatcher).
    #[target_feature(enable = "neon")]
    pub unsafe fn or_expand(
        dst_words: &mut [u64],
        dst_stamps: &mut [u32],
        dst_epoch: u32,
        src: WordsView<'_>,
    ) -> bool {
        let n = dst_words.len().min(src.words.len());
        let de = vdup_n_u32(dst_epoch);
        let se = vdup_n_u32(src.epoch);
        let mut changed = false;
        let mut i = 0;
        while i + 2 <= n {
            let old = masked_load(dst_words.as_ptr(), dst_stamps.as_ptr(), de, i);
            let s = masked_load(src.words.as_ptr(), src.stamps.as_ptr(), se, i);
            let new = vorrq_u64(old, s);
            let diff = veorq_u64(new, old);
            if vmaxvq_u32(vreinterpretq_u32_u64(diff)) != 0 {
                changed = true;
            }
            vst1q_u64(dst_words.as_mut_ptr().add(i), new);
            vst1_u32(dst_stamps.as_mut_ptr().add(i), de);
            i += 2;
        }
        while i < n {
            let old = live(dst_words[i], dst_stamps[i], dst_epoch);
            let new = old | live(src.words[i], src.stamps[i], src.epoch);
            changed |= new != old;
            dst_words[i] = new;
            dst_stamps[i] = dst_epoch;
            i += 1;
        }
        changed
    }

    /// # Safety
    /// Requires NEON (checked by the dispatcher).
    #[target_feature(enable = "neon")]
    pub unsafe fn count_ones(a: WordsView<'_>) -> usize {
        let mut total = 0usize;
        for (&w, &s) in a.words.iter().zip(a.stamps) {
            total += live(w, s, a.epoch).count_ones() as usize;
        }
        total
    }
}

#[cfg(target_arch = "aarch64")]
struct NeonKernel;

#[cfg(target_arch = "aarch64")]
impl WordOps for NeonKernel {
    fn name(&self) -> &'static str {
        "neon"
    }

    fn intersects(&self, a: WordsView<'_>, b: WordsView<'_>) -> bool {
        // SAFETY: this backend is only selected when NEON is detected at
        // runtime (see `simd_available`).
        unsafe { neon::intersects(a, b) }
    }

    fn or_expand(
        &self,
        dst_words: &mut [u64],
        dst_stamps: &mut [u32],
        dst_epoch: u32,
        src: WordsView<'_>,
    ) -> bool {
        // SAFETY: as above — NEON presence is a selection invariant.
        unsafe { neon::or_expand(dst_words, dst_stamps, dst_epoch, src) }
    }

    fn count_ones(&self, a: WordsView<'_>) -> usize {
        // SAFETY: as above — NEON presence is a selection invariant.
        unsafe { neon::count_ones(a) }
    }
}

#[cfg(target_arch = "aarch64")]
static NEON_KERNEL: NeonKernel = NeonKernel;

// ---------------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------------

/// Which kernel backend to use. See [`set_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    /// Runtime feature detection: the SIMD lane when the CPU supports it,
    /// the generic backend otherwise. This is the startup default (unless
    /// overridden by the `RLC_KERNEL` environment variable).
    Auto,
    /// Force the portable generic backend.
    Generic,
    /// Request the SIMD lane; falls back to generic when the CPU lacks
    /// the required features (so forcing `simd` is always safe).
    Simd,
}

const BACKEND_UNSET: u8 = 0;
const BACKEND_GENERIC: u8 = 1;
const BACKEND_SIMD: u8 = 2;

/// The resolved backend: `BACKEND_UNSET` until first use, then one of
/// `BACKEND_GENERIC`/`BACKEND_SIMD`. An atomic (rather than a `OnceLock`)
/// so [`set_kernel`] can switch backends in-process — the kernel and
/// differential tests run both lanes in one binary.
static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

/// Whether the CPU provides the features the SIMD lane needs.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

fn simd_backend() -> &'static dyn WordOps {
    #[cfg(target_arch = "x86_64")]
    {
        &AVX2_KERNEL
    }
    #[cfg(target_arch = "aarch64")]
    {
        &NEON_KERNEL
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        &GENERIC
    }
}

fn resolve(choice: KernelChoice) -> u8 {
    match choice {
        KernelChoice::Generic => BACKEND_GENERIC,
        KernelChoice::Auto | KernelChoice::Simd => {
            if simd_supported() {
                BACKEND_SIMD
            } else {
                BACKEND_GENERIC
            }
        }
    }
}

/// Parses an `RLC_KERNEL` value; unknown strings mean [`KernelChoice::Auto`].
fn parse_choice(value: &str) -> KernelChoice {
    match value {
        "generic" => KernelChoice::Generic,
        "simd" => KernelChoice::Simd,
        _ => KernelChoice::Auto,
    }
}

fn env_choice() -> KernelChoice {
    match std::env::var("RLC_KERNEL") {
        Ok(value) => parse_choice(&value),
        Err(_) => KernelChoice::Auto,
    }
}

fn backend_for(id: u8) -> &'static dyn WordOps {
    if id == BACKEND_SIMD {
        simd_backend()
    } else {
        &GENERIC
    }
}

/// The active [`WordOps`] backend.
///
/// The first call resolves the backend once: the `RLC_KERNEL` environment
/// variable (`generic` or `simd`) if set, otherwise runtime feature
/// detection (AVX2 on `x86_64`, NEON on `aarch64`, generic elsewhere).
/// After that the hot path is a single relaxed atomic load.
pub fn kernel() -> &'static dyn WordOps {
    // rlc-analyze: allow(atomic-pairing) — any value read is a valid backend tag; races re-resolve
    let mut id = BACKEND.load(Ordering::Relaxed);
    if id == BACKEND_UNSET {
        id = resolve(env_choice());
        // rlc-analyze: allow(atomic-pairing) — idempotent resolution; concurrent stores agree
        BACKEND.store(id, Ordering::Relaxed);
    }
    backend_for(id)
}

/// Forces the kernel backend for the whole process and returns the name
/// of the backend actually selected (`Simd` silently degrades to
/// `"generic"` on CPUs without the required features; `Auto` restores the
/// detection default). Intended for tests and benches that compare lanes.
pub fn set_kernel(choice: KernelChoice) -> &'static str {
    let id = resolve(choice);
    // rlc-analyze: allow(atomic-pairing) — backend id is a self-contained tag; no data is published
    BACKEND.store(id, Ordering::Relaxed);
    backend_for(id).name()
}

/// The name of the active backend: `"generic"`, `"avx2"`, or `"neon"`.
pub fn kernel_name() -> &'static str {
    kernel().name()
}

// ---------------------------------------------------------------------------
// FrontierSet.
// ---------------------------------------------------------------------------

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

    /// An epoch-masked view of the word array, for [`WordOps`] calls.
    pub fn view(&self) -> WordsView<'_> {
        WordsView {
            words: &self.words,
            stamps: &self.stamps,
            epoch: self.epoch,
        }
    }

    /// Whether this set and `other` share a bit (dispatched word-wise
    /// intersection with early exit).
    pub fn intersects(&self, other: &FrontierSet) -> bool {
        kernel().intersects(self.view(), other.view())
    }

    /// ORs every bit of `src` into this set over the common prefix;
    /// returns whether anything changed (dispatched word-wise OR-expand).
    pub fn union_from(&mut self, src: &FrontierSet) -> bool {
        let epoch = self.epoch;
        kernel().or_expand(&mut self.words, &mut self.stamps, epoch, src.view())
    }

    /// Number of set bits (dispatched popcount).
    pub fn count(&self) -> usize {
        kernel().count_ones(self.view())
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
pub(crate) enum Direction {
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
        assert_eq!(set.count(), 0);
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
        assert_eq!(set.count(), 0);
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
        assert_eq!(set.count(), 6);
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
        assert_eq!(a.count(), 2);
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

    /// Builds a deterministic pseudo-random view with a mix of live and
    /// stale words, so backend comparisons exercise the epoch masking.
    fn scrambled(seed: u64, words: usize, epoch: u32) -> (Vec<u64>, Vec<u32>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ws = Vec::with_capacity(words);
        let mut ss = Vec::with_capacity(words);
        for _ in 0..words {
            ws.push(next());
            // ~half the words stale, with garbage bits left in them.
            ss.push(if next() % 2 == 0 {
                epoch
            } else {
                epoch ^ 0x5a5a
            });
        }
        (ws, ss)
    }

    #[test]
    fn simd_and_generic_backends_agree() {
        if !simd_supported() {
            return; // generic-only platform: nothing to compare.
        }
        let simd = simd_backend();
        for seed in 0..24u64 {
            // Odd lengths exercise the scalar tails past the SIMD chunks.
            let words = (seed as usize % 9) + 1;
            let (aw, ast) = scrambled(seed, words, 7);
            let (bw, bst) = scrambled(seed + 1000, words, 9);
            let a = WordsView {
                words: &aw,
                stamps: &ast,
                epoch: 7,
            };
            let b = WordsView {
                words: &bw,
                stamps: &bst,
                epoch: 9,
            };
            assert_eq!(
                GENERIC.intersects(a, b),
                simd.intersects(a, b),
                "seed {seed}"
            );
            assert_eq!(GENERIC.count_ones(a), simd.count_ones(a), "seed {seed}");

            let mut dw_g = aw.clone();
            let mut ds_g = ast.clone();
            let mut dw_s = aw.clone();
            let mut ds_s = ast.clone();
            let changed_g = GENERIC.or_expand(&mut dw_g, &mut ds_g, 7, b);
            let changed_s = simd.or_expand(&mut dw_s, &mut ds_s, 7, b);
            assert_eq!(changed_g, changed_s, "seed {seed}");
            assert_eq!(dw_g, dw_s, "seed {seed}");
            assert_eq!(ds_g, ds_s, "seed {seed}");
        }
    }

    #[test]
    fn backend_dispatch_respects_forced_choice() {
        // All name assertions live in this one test: `set_kernel` flips a
        // process-global, and concurrent tests may observe (harmlessly —
        // answers are backend-identical) but must not assert the name.
        let name = set_kernel(KernelChoice::Generic);
        assert_eq!(name, "generic");
        assert_eq!(kernel_name(), "generic");
        let forced = set_kernel(KernelChoice::Simd);
        if simd_supported() {
            assert!(forced == "avx2" || forced == "neon", "got {forced}");
        } else {
            assert_eq!(forced, "generic", "Simd must degrade gracefully");
        }
        let auto = set_kernel(KernelChoice::Auto);
        assert_eq!(auto == "generic", !simd_supported());
    }

    #[test]
    fn env_values_parse_as_documented() {
        assert_eq!(parse_choice("generic"), KernelChoice::Generic);
        assert_eq!(parse_choice("simd"), KernelChoice::Simd);
        assert_eq!(parse_choice(""), KernelChoice::Auto);
        assert_eq!(parse_choice("avx512"), KernelChoice::Auto);
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
