//! Cross-batch prepared-plan caching.
//!
//! [`crate::plan::BatchPlan`] prepares each distinct constraint once **per
//! execution**; a server answering many batches re-pays that preparation on
//! every request. [`PlanCache`] amortizes it across batches the way
//! production path-index systems keep compiled query plans resident: a
//! sharded, `Send + Sync` LRU mapping *(engine identity, constraint)* to the
//! [`Prepared`] artifact (or the [`QueryError`] preparation produced — an
//! engine that rejects a constraint rejects it deterministically, so the
//! rejection is as cacheable as a plan).
//!
//! ## Keying and the generation stamp
//!
//! Entries are keyed by engine kind ([`ReachabilityEngine::name`]) plus
//! constraint, and validated on every hit against the engine's
//! [`ReachabilityEngine::plan_identity`]:
//!
//! * engines whose artifacts depend only on the constraint (the NFA-driven
//!   traversal and simulated engines) report [`PlanIdentity::Kind`], so any
//!   instance of the kind shares cached plans;
//! * index-backed engines report [`PlanIdentity::Index`] over their
//!   [`ArtifactTag`](crate::engine::ArtifactTag), which embeds the
//!   [`Generation`](crate::engine::Generation) stamped into the index at
//!   construction. When an index is dropped and rebuilt — even at the same
//!   address, with the same `k` and catalog size — the generation differs,
//!   the identity check fails, and the **stale entry is dropped** (counted
//!   in [`CacheStats::stale_drops`]) instead of being re-served.
//!
//! ## Miss coalescing
//!
//! Two rayon workers that miss on the same constraint at the same time used
//! to both call [`ReachabilityEngine::prepare`] (the second insert won).
//! Misses now rendezvous on a per-key **in-flight latch**: the first worker
//! compiles, every concurrent worker with the same key *and identity* blocks
//! on the latch and reuses the result (counted in
//! [`CacheStats::coalesced`]), so each distinct constraint is compiled
//! exactly once per process no matter how many workers race on first touch.
//! Workers with a different identity (another index instance) get their own
//! latch — a latch never hands a plan across identities.
//!
//! ## Eviction
//!
//! Each shard enforces an entry-count budget and an approximate byte budget
//! (totals divided evenly across shards), evicting least-recently-used
//! entries first. Byte accounting combines the key-side floor
//! ([`PlanCache::entry_bytes`]) with each plan's own
//! [`Prepared::approx_bytes`] — engines with large artifacts (compiled
//! automata, per-shard tables) price them there, so the budget tracks real
//! residency instead of a blind fixed overhead.

use crate::engine::{PlanIdentity, Prepared, ReachabilityEngine};
use crate::query::{Constraint, QueryError};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Fixed per-entry overhead charged by [`PlanCache::entry_bytes`]: the hash
/// map bucket and entry bookkeeping. The `Prepared` box and its artifact are
/// priced by [`Prepared::approx_bytes`] instead.
const ENTRY_OVERHEAD_BYTES: usize = 128;

/// Configuration of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheConfig {
    /// Number of independently locked shards (clamped to `1..=1024`). More
    /// shards means less lock contention between rayon workers; budgets are
    /// split evenly across shards, so eviction precision drops as shard
    /// count grows.
    pub shards: usize,
    /// Maximum number of resident entries across all shards (at least 1 per
    /// shard is always allowed).
    pub max_entries: usize,
    /// Approximate maximum resident bytes across all shards, as priced by
    /// [`PlanCache::entry_bytes`].
    pub max_bytes: usize,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig {
            shards: 16,
            max_entries: 4096,
            max_bytes: 64 << 20,
        }
    }
}

/// Counter snapshot of a [`PlanCache`] — the cache-side analogue of the
/// [`crate::engine::PrepareCounting`] instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to call [`ReachabilityEngine::prepare`].
    pub misses: u64,
    /// Entries evicted by the entry-count or byte budget.
    pub evictions: u64,
    /// Entries dropped because their [`PlanIdentity`] no longer matched the
    /// engine's — the generation-mismatch path (a dropped-and-rebuilt
    /// index's stale plans land here, never back at a caller).
    pub stale_drops: u64,
    /// Misses that waited on another worker's in-flight compilation of the
    /// same key instead of calling [`ReachabilityEngine::prepare`]
    /// themselves (each one is a duplicate compile the latch saved).
    pub coalesced: u64,
    /// Resident entries at snapshot time.
    pub entries: usize,
    /// Approximate resident bytes at snapshot time.
    pub bytes: usize,
}

/// Cache key: the engine kind bucketing interchangeable instances together,
/// plus the constraint the plan was compiled from.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    kind: String,
    constraint: Constraint,
}

/// One resident plan (or cached rejection) with its validation identity and
/// LRU bookkeeping.
struct CacheEntry {
    identity: PlanIdentity,
    plan: Result<Arc<Prepared>, QueryError>,
    bytes: usize,
    last_used: u64,
}

/// The outcome slot concurrent missers of one `(key, identity)` rendezvous
/// on: the first caller's closure compiles, everyone else blocks in
/// `get_or_init` and reuses the result.
type Latch = Arc<OnceLock<Result<Arc<Prepared>, QueryError>>>;

/// In-flight compilations are keyed by identity *as well as* the cache key:
/// two same-kind engines over different indexes must never share a latch,
/// or one would receive a plan resolved against the other's catalog.
#[derive(Clone, PartialEq, Eq, Hash)]
struct LatchKey {
    key: CacheKey,
    identity: PlanIdentity,
}

/// One independently locked shard.
#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, CacheEntry>,
    bytes: usize,
    /// Compilations currently in flight for keys hashing to this shard.
    /// Transient: the winning worker removes its latch right after
    /// publishing the entry into `map`.
    in_flight: HashMap<LatchKey, Latch>,
}

/// Locks a shard, recovering from lock poisoning instead of panicking.
///
/// Everything guarded by a shard lock is plain bookkeeping over immutable
/// `Arc<Prepared>` values: a panic mid-section can at worst leave the
/// byte/LRU accounting drifted, which only shifts *when* eviction triggers —
/// it can never tear a plan. Propagating the poison would instead take the
/// whole cache down for every later caller.
fn lock_shard(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bumps a monotonic statistics counter (also used for the LRU tick),
/// returning the pre-increment value.
fn bump(counter: &AtomicU64) -> u64 {
    // rlc-analyze: allow(atomic-pairing) — monotonic stats/LRU counter; no memory is published through it
    counter.fetch_add(1, Ordering::Relaxed)
}

/// Reads a monotonic statistics counter for a snapshot.
fn read_counter(counter: &AtomicU64) -> u64 {
    // rlc-analyze: allow(atomic-pairing) — observational stats read; approximate by design
    counter.load(Ordering::Relaxed)
}

/// Adds to a residency gauge (entries/bytes mirror). Always called with the
/// owning shard's lock held, so the mirror tracks the locked state exactly;
/// the atomic only makes the *read* side lock-free.
fn gauge_add(gauge: &AtomicU64, delta: u64) {
    // rlc-analyze: allow(atomic-pairing) — gauge mirror written under the shard lock; readers are observational
    gauge.fetch_add(delta, Ordering::Relaxed);
}

/// Subtracts from a residency gauge; see [`gauge_add`].
fn gauge_sub(gauge: &AtomicU64, delta: u64) {
    // rlc-analyze: allow(atomic-pairing) — gauge mirror written under the shard lock; readers are observational
    gauge.fetch_sub(delta, Ordering::Relaxed);
}

/// A sharded, thread-safe LRU cache of prepared constraints, shared across
/// batches (and across engines — entries are keyed per engine kind and
/// validated per engine identity).
///
/// ```
/// use rlc_core::{build_index, BatchPlan, BuildConfig, IndexEngine, PlanCache, Query};
/// use rlc_graph::examples::fig2_graph;
/// use rlc_graph::Label;
///
/// let graph = fig2_graph();
/// let (index, _) = build_index(&graph, &BuildConfig::new(2));
/// let engine = IndexEngine::new(&graph, &index);
/// let cache = PlanCache::new();
/// let batch = vec![Query::rlc(0, 5, vec![Label(1)]).unwrap()];
/// // Repeated batches prepare each distinct constraint once per *process*,
/// // not once per execution:
/// for _ in 0..3 {
///     let answers = BatchPlan::new(&batch).execute_cached(&engine, &cache);
///     assert_eq!(answers.len(), 1);
/// }
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 2);
/// ```
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget (total split evenly, at least 1).
    shard_max_entries: usize,
    /// Per-shard byte budget (total split evenly, at least one entry's
    /// overhead so a shard can always hold something).
    shard_max_bytes: usize,
    /// Monotonic LRU clock; bumped on every touch.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_drops: AtomicU64,
    coalesced: AtomicU64,
    /// Lock-free mirror of `Σ shard.map.len()`, updated under each shard's
    /// lock at every insert/remove so [`PlanCache::counters`] never has to
    /// stop the world.
    resident_entries: AtomicU64,
    /// Lock-free mirror of `Σ shard.bytes`; same discipline.
    resident_bytes: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// Creates a cache with [`PlanCacheConfig::default`] budgets.
    pub fn new() -> Self {
        PlanCache::with_config(PlanCacheConfig::default())
    }

    /// Creates a cache with explicit shard count and budgets.
    pub fn with_config(config: PlanCacheConfig) -> Self {
        let shards = config.shards.clamp(1, 1024);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_max_entries: config.max_entries.div_ceil(shards).max(1),
            shard_max_bytes: config.max_bytes.div_ceil(shards).max(ENTRY_OVERHEAD_BYTES),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            resident_entries: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// The artifact-independent floor charged for one cached constraint:
    /// the resident key copy of the constraint's heap data plus the map
    /// bookkeeping. The plan side of an entry is priced on top via
    /// [`Prepared::approx_bytes`] (see [`PlanCache::plan_bytes`]); cached
    /// rejections carry no plan and are charged the floor alone.
    pub fn entry_bytes(constraint: &Constraint) -> usize {
        crate::engine::constraint_heap_bytes(constraint) + ENTRY_OVERHEAD_BYTES
    }

    /// The full footprint charged for one cached outcome: the key-side floor
    /// plus the plan's own [`Prepared::approx_bytes`] when preparation
    /// succeeded. Exposed so byte-budget tests (and capacity planning) can
    /// price entries the same way the cache does.
    pub fn plan_bytes(constraint: &Constraint, plan: &Result<Arc<Prepared>, QueryError>) -> usize {
        PlanCache::entry_bytes(constraint)
            + plan.as_ref().map(|p| p.approx_bytes()).unwrap_or_default()
    }

    /// Prepares `constraint` on `engine` through the cache: a hit returns
    /// the resident plan (after validating the engine's identity), a miss
    /// calls [`ReachabilityEngine::prepare`] — outside any lock — and caches
    /// the outcome, successful or not. A hit whose stored identity no longer
    /// matches the engine (a rebuilt index: new generation) is dropped and
    /// treated as a miss. Concurrent misses on the same key and identity
    /// coalesce onto one in-flight compilation (see the module docs), so the
    /// engine's `prepare` runs exactly once per first touch.
    ///
    /// When the global observability registry is enabled the call's latency
    /// is recorded into the `rlc_plan_cache_hit_seconds` /
    /// `rlc_plan_cache_miss_seconds` histograms — the hit/miss latency split
    /// that makes cache efficacy visible as a distribution rather than a
    /// ratio.
    pub fn prepare(
        &self,
        engine: &dyn ReachabilityEngine,
        constraint: &Constraint,
    ) -> Result<Arc<Prepared>, QueryError> {
        let timed = rlc_obs::global_enabled().then(std::time::Instant::now);
        let (plan, hit) = self.prepare_inner(engine, constraint);
        if let Some(started) = timed {
            static HIT_SITE: OnceLock<Arc<rlc_obs::Histogram>> = OnceLock::new();
            static MISS_SITE: OnceLock<Arc<rlc_obs::Histogram>> = OnceLock::new();
            let hist = if hit {
                HIT_SITE.get_or_init(|| rlc_obs::global().histogram("rlc_plan_cache_hit_seconds"))
            } else {
                MISS_SITE.get_or_init(|| rlc_obs::global().histogram("rlc_plan_cache_miss_seconds"))
            };
            hist.record_duration(started.elapsed());
        }
        plan
    }

    /// The cache lookup behind [`PlanCache::prepare`]; the flag says whether
    /// the plan was served from a resident entry.
    fn prepare_inner(
        &self,
        engine: &dyn ReachabilityEngine,
        constraint: &Constraint,
    ) -> (Result<Arc<Prepared>, QueryError>, bool) {
        let identity = engine.plan_identity();
        let key = CacheKey {
            kind: engine.name().to_owned(),
            constraint: constraint.clone(),
        };
        let shard = &self.shards[self.shard_of(&key)];
        // One critical section covers the resident lookup, the stale drop,
        // and the latch acquisition: a worker can never slip between "no
        // resident entry" and "no latch" while another worker is publishing
        // the entry (the publisher inserts into the map *before* removing
        // its latch, under this same lock).
        let latch: Latch = {
            let mut guard = lock_shard(shard);
            if let Some(entry) = guard.map.get_mut(&key) {
                if entry.identity == identity {
                    entry.last_used = bump(&self.tick);
                    bump(&self.hits);
                    return (entry.plan.clone(), true);
                }
                // Generation mismatch: this plan was resolved against an
                // index that no longer exists (or a different instance of
                // the kind). Drop it so it can never be re-served.
                if let Some(stale) = guard.map.remove(&key) {
                    guard.bytes -= stale.bytes;
                    gauge_sub(&self.resident_entries, 1);
                    gauge_sub(&self.resident_bytes, stale.bytes as u64);
                }
                bump(&self.stale_drops);
            }
            let latch_key = LatchKey {
                key: key.clone(),
                identity: identity.clone(),
            };
            guard.in_flight.entry(latch_key).or_default().clone()
        };
        bump(&self.misses);

        // Exactly one of the coalescing workers runs the closure (outside
        // the shard lock — preparation can be expensive); the rest block
        // here and wake with the shared outcome.
        let mut compiled = false;
        let plan = latch
            .get_or_init(|| {
                compiled = true;
                engine.prepare(constraint).map(Arc::new)
            })
            .clone();
        if !compiled {
            bump(&self.coalesced);
            return (plan, false);
        }

        // The compiling worker publishes the entry and retires its latch.
        let bytes = PlanCache::plan_bytes(constraint, &plan);
        let entry = CacheEntry {
            identity: identity.clone(),
            plan: plan.clone(),
            bytes,
            last_used: bump(&self.tick),
        };
        let mut guard = lock_shard(shard);
        // A same-key entry can exist here only for a *different* identity
        // (same identities coalesced on the latch); last write wins, exactly
        // like the pre-latch behavior for competing identities.
        if let Some(old) = guard.map.insert(key.clone(), entry) {
            guard.bytes -= old.bytes;
            gauge_sub(&self.resident_bytes, old.bytes as u64);
        } else {
            gauge_add(&self.resident_entries, 1);
        }
        guard.bytes += bytes;
        gauge_add(&self.resident_bytes, bytes as u64);
        // The resident latch is necessarily our own: only the unique
        // compiling worker removes latches, and `or_default` never replaces
        // a resident one, so waiters arriving before this removal shared
        // `latch` and waiters after it hit the map entry published above.
        guard.in_flight.remove(&LatchKey { key, identity });
        self.evict_over_budget(&mut guard);
        (plan, false)
    }

    /// Evicts least-recently-used entries until the shard is within both
    /// budgets: one scan per eviction to find the victim, removed by key.
    fn evict_over_budget(&self, shard: &mut Shard) {
        while shard.map.len() > self.shard_max_entries || shard.bytes > self.shard_max_bytes {
            let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            let Some(evicted) = shard.map.remove(&victim) else {
                break;
            };
            shard.bytes -= evicted.bytes;
            gauge_sub(&self.resident_entries, 1);
            gauge_sub(&self.resident_bytes, evicted.bytes as u64);
            bump(&self.evictions);
        }
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = lock_shard(shard);
            gauge_sub(&self.resident_entries, guard.map.len() as u64);
            gauge_sub(&self.resident_bytes, guard.bytes as u64);
            guard.map.clear();
            guard.bytes = 0;
        }
    }

    /// Lock-free counter snapshot: every field is read from an atomic, so a
    /// metrics endpoint (or a test) can sample the cache without stopping a
    /// single shard — a `prepare` storm on every shard cannot delay this.
    /// The residency gauges are mirrors maintained under the shard locks at
    /// each insert/remove, so concurrent snapshots are at worst one in-flight
    /// mutation out of date, never drifted.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: read_counter(&self.hits),
            misses: read_counter(&self.misses),
            evictions: read_counter(&self.evictions),
            stale_drops: read_counter(&self.stale_drops),
            coalesced: read_counter(&self.coalesced),
            entries: read_counter(&self.resident_entries) as usize,
            bytes: read_counter(&self.resident_bytes) as usize,
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::engine::{IndexEngine, PrepareCounting};
    use crate::plan::BatchPlan;
    use crate::query::Query;
    use rayon::prelude::*;
    use rlc_graph::examples::fig2_graph;
    use rlc_graph::Label;

    fn constraint(labels: &[u16]) -> Constraint {
        Constraint::single(labels.iter().map(|&l| Label(l)).collect()).unwrap()
    }

    /// A one-shard cache so LRU order is deterministic in tests.
    fn one_shard(max_entries: usize, max_bytes: usize) -> PlanCache {
        PlanCache::with_config(PlanCacheConfig {
            shards: 1,
            max_entries,
            max_bytes,
        })
    }

    #[test]
    fn repeated_prepares_hit_after_the_first() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let counting = PrepareCounting::new(&engine);
        let cache = PlanCache::new();
        let c = constraint(&[1]);
        for _ in 0..5 {
            let plan = cache.prepare(&counting, &c).unwrap();
            assert_eq!(plan.constraint(), &c);
        }
        assert_eq!(counting.prepare_count(), 1, "one engine prepare, ever");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 4));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes >= PlanCache::entry_bytes(&c));
    }

    #[test]
    fn rejections_are_cached_too() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let counting = PrepareCounting::new(&engine);
        let cache = PlanCache::new();
        let too_long = constraint(&[0, 1, 2]);
        let expected = crate::query::QueryError::BlockTooLong {
            block: 0,
            len: 3,
            k: 2,
        };
        for _ in 0..3 {
            assert_eq!(
                cache.prepare(&counting, &too_long).err(),
                Some(expected.clone())
            );
        }
        assert_eq!(counting.prepare_count(), 1, "the rejection is resident");
    }

    #[test]
    fn lru_eviction_order_is_least_recently_used_first() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let cache = one_shard(2, usize::MAX);
        let c1 = constraint(&[0]);
        let c2 = constraint(&[1]);
        let c3 = constraint(&[2]);
        cache.prepare(&engine, &c1).unwrap();
        cache.prepare(&engine, &c2).unwrap();
        // Touch c1 so c2 becomes the least recently used…
        cache.prepare(&engine, &c1).unwrap();
        // …and inserting c3 must evict exactly c2.
        cache.prepare(&engine, &c3).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        let hits_before = cache.stats().hits;
        cache.prepare(&engine, &c1).unwrap();
        cache.prepare(&engine, &c3).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 2, "c1 and c3 survived");
        cache.prepare(&engine, &c2).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 2, "c2 was the victim");
    }

    #[test]
    fn byte_budget_bounds_the_resident_footprint() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let pool: Vec<Constraint> = (0..6u16).map(|l| constraint(&[l])).collect();
        // Room for roughly two entries (priced the way the cache prices
        // them: key floor + plan footprint), far below the entry budget.
        let sample = engine.prepare(&pool[0]).map(Arc::new);
        let budget = 2 * PlanCache::plan_bytes(&pool[0], &sample) + 1;
        let cache = one_shard(1024, budget);
        for c in &pool {
            cache.prepare(&engine, c).unwrap();
            assert!(
                cache.stats().bytes <= budget,
                "resident bytes must stay within the budget after every insert"
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 4, "the budget forced evictions");
        assert!(stats.entries <= 2);
    }

    #[test]
    fn stale_identities_are_dropped_not_reserved() {
        // The cross-batch face of the ABA fix: a cache populated against
        // index A must not serve A's plans to an engine over index B, even
        // though both engines are named "RLC" — and the stale entry is
        // removed, not left to shadow the fresh one.
        let graph = fig2_graph();
        let c = constraint(&[1]);
        let cache = one_shard(16, usize::MAX);
        let (index_a, _) = build_index(&graph, &BuildConfig::new(2));
        let plan_a = {
            let engine_a = IndexEngine::new(&graph, &index_a);
            cache.prepare(&engine_a, &c).unwrap()
        };
        drop(index_a);
        let (index_b, _) = build_index(&graph, &BuildConfig::new(2));
        let engine_b = IndexEngine::new(&graph, &index_b);
        let counting = PrepareCounting::new(&engine_b);
        let plan_b = cache.prepare(&counting, &c).unwrap();
        assert_eq!(counting.prepare_count(), 1, "B re-prepared");
        assert!(!Arc::ptr_eq(&plan_a, &plan_b), "A's plan was not re-served");
        let stats = cache.stats();
        assert_eq!(stats.stale_drops, 1);
        assert_eq!(stats.entries, 1, "the stale entry is gone");
        // B's plan is now resident.
        cache.prepare(&counting, &c).unwrap();
        assert_eq!(counting.prepare_count(), 1);
    }

    #[test]
    fn concurrent_rayon_workers_share_the_cache() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let counting = PrepareCounting::new(&engine);
        let cache = PlanCache::new();
        let pool: Vec<Constraint> = vec![
            constraint(&[0]),
            constraint(&[1]),
            constraint(&[0, 1]),
            Constraint::new(vec![vec![Label(0)], vec![Label(1)]]).unwrap(),
        ];
        let work: Vec<(u32, u32, usize)> = (0..200u32)
            .map(|i| (i % 6, (i * 7 + 1) % 6, (i as usize) % pool.len()))
            .collect();
        let answers: Vec<Result<bool, crate::query::QueryError>> = work
            .par_iter()
            .map(|&(s, t, which)| {
                let plan = cache.prepare(&counting, &pool[which])?;
                counting.evaluate_prepared(s, t, &plan)
            })
            .collect();
        for (&(s, t, which), answer) in work.iter().zip(&answers) {
            assert_eq!(
                *answer,
                engine.evaluate(&Query::new(s, t, pool[which].clone()))
            );
        }
        // Workers racing on first touch of a constraint coalesce on the
        // in-flight latch: the engine prepares each distinct constraint
        // EXACTLY once, no matter how many rayon workers miss concurrently.
        assert_eq!(
            counting.prepare_count(),
            pool.len(),
            "the latch must collapse concurrent misses to one prepare"
        );
        assert_eq!(cache.stats().hits + cache.stats().misses, work.len() as u64);
        // Every miss beyond the first per key waited on the latch.
        assert_eq!(
            cache.stats().misses,
            pool.len() as u64 + cache.stats().coalesced
        );
    }

    #[test]
    fn threads_hammering_one_key_compile_it_once() {
        // The single-prepare guarantee is structural (OnceLock), not a
        // timing accident: any number of OS threads calling prepare for the
        // same constraint, starting at any interleaving, yield exactly one
        // engine prepare per distinct constraint.
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let counting = PrepareCounting::new(&engine);
        let cache = PlanCache::new();
        let pool: Vec<Constraint> = (0..3u16).map(|l| constraint(&[l])).collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let cache = &cache;
                let counting = &counting;
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..8 {
                        let c = &pool[(worker + round) % pool.len()];
                        let plan = cache.prepare(counting, c).unwrap();
                        assert_eq!(plan.constraint(), c);
                    }
                });
            }
        });
        assert_eq!(
            counting.prepare_count(),
            pool.len(),
            "one prepare per distinct constraint across all threads"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 8);
        assert_eq!(stats.misses, pool.len() as u64 + stats.coalesced);
        assert_eq!(stats.entries, pool.len());
    }

    #[test]
    fn latches_do_not_hand_plans_across_identities() {
        // Two same-kind engines over different indexes miss on the same key
        // concurrently: each must end up with a plan resolved against its
        // own index (distinct latches per identity), never the other's.
        let graph = fig2_graph();
        let (index_a, _) = build_index(&graph, &BuildConfig::new(2));
        let (index_b, _) = build_index(&graph, &BuildConfig::new(3));
        let engine_a = IndexEngine::new(&graph, &index_a);
        let engine_b = IndexEngine::new(&graph, &index_b);
        let cache = one_shard(16, usize::MAX);
        // Too long for A (k = 2), fine for B (k = 3): the outcomes differ,
        // so any cross-identity handoff is observable.
        let c = constraint(&[0, 1, 2]);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| cache.prepare(&engine_a, &c));
            let b = scope.spawn(|| cache.prepare(&engine_b, &c));
            assert!(a.join().unwrap().is_err(), "A's k = 2 rejects the block");
            assert!(b.join().unwrap().is_ok(), "B's k = 3 accepts the block");
        });
        // And sequentially ever after, each engine sees its own outcome
        // (the loser of the publish race re-prepares via the stale path).
        assert!(cache.prepare(&engine_a, &c).is_err());
        assert!(cache.prepare(&engine_b, &c).is_ok());
    }

    #[test]
    fn clear_resets_residency_but_not_counters() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let cache = PlanCache::new();
        assert!(cache.is_empty());
        cache.prepare(&engine, &constraint(&[0])).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lock_free_counters_track_every_mutation_path() {
        // `stats()` reads only atomics; `len()` walks the shard locks.
        // Drive the cache through every residency mutation — insert,
        // replace-by-identity, LRU eviction, stale drop, clear — and the
        // gauge mirrors must agree with the locked ground truth at each step.
        let graph = fig2_graph();
        let check = |cache: &PlanCache| {
            let c = cache.stats();
            assert_eq!(c.entries, cache.len(), "entry gauge mirrors the shards");
        };
        let cache = one_shard(2, usize::MAX);
        let (index_a, _) = build_index(&graph, &BuildConfig::new(2));
        {
            let engine = IndexEngine::new(&graph, &index_a);
            for l in 0..4u16 {
                cache.prepare(&engine, &constraint(&[l])).unwrap();
                check(&cache); // inserts, then LRU evictions past entry 2
            }
        }
        assert!(cache.stats().evictions >= 2);
        drop(index_a);
        let (index_b, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index_b);
        cache.prepare(&engine, &constraint(&[3])).unwrap();
        check(&cache); // stale drop + re-insert under the new generation
        assert_eq!(cache.stats().stale_drops, 1);
        cache.clear();
        check(&cache);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn cached_and_uncached_plans_execute_identically() {
        let graph = fig2_graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let engine = IndexEngine::new(&graph, &index);
        let cache = PlanCache::new();
        let queries: Vec<Query> = (0..24u32)
            .map(|i| {
                let c = match i % 3 {
                    0 => constraint(&[1]),
                    1 => constraint(&[0, 1]),
                    _ => constraint(&[0, 1, 2]), // rejected by k = 2
                };
                Query::new(i % 6, (i * 5 + 2) % 6, c)
            })
            .collect();
        let plan = BatchPlan::new(&queries);
        let uncached = plan.execute(&engine);
        for _ in 0..3 {
            assert_eq!(plan.execute_cached(&engine, &cache), uncached);
        }
        // Three distinct constraints (one of them a cached rejection): three
        // misses total across the three repeated executions.
        assert_eq!(cache.stats().misses, 3);
    }
}
