//! Hot index swap: the epoch slot serving requests point at.
//!
//! An [`Epoch`] is one immutable serving configuration — the graph plus a
//! resident index (single `RLC3` or sharded `RSH1`) — identified by its
//! [`Generation`] stamp. The [`IndexSlot`] holds the current epoch behind
//! an `Arc`; readers take an O(1) snapshot and keep answering on it even
//! while `POST /admin/reload` swaps a new epoch in, so a reload never
//! drops or blocks an in-flight batch. Every batch prepares its
//! constraints on the epoch it snapshotted, so a swap leaves no prepared
//! plan behind to flush.
//!
//! The slot is a `Mutex<Arc<Epoch>>` with lock-held sections of a clone or
//! a pointer store — `ArcSwap` semantics without the lock-free pointer
//! juggling, because the workspace confines `unsafe` to the kernel module
//! and a correct lock-free `Arc` swap cannot be written without it. The
//! generation is mirrored into an `AtomicU64` so metrics and health
//! endpoints read it without touching the lock at all.

use crate::lock_recover;
use rlc_core::{Generation, IndexEngine, ReachabilityEngine, RlcIndex};
use rlc_graph::LabeledGraph;
use rlc_shard::{ShardedEngine, ShardedIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One immutable serving configuration: a graph and a resident index.
pub enum Epoch {
    /// A single-process [`RlcIndex`] served through [`IndexEngine`].
    Rlc {
        /// The indexed graph.
        graph: Arc<LabeledGraph>,
        /// The resident index.
        index: RlcIndex,
    },
    /// A vertex-partitioned [`ShardedIndex`] served through
    /// [`ShardedEngine`].
    Sharded {
        /// The indexed graph.
        graph: Arc<LabeledGraph>,
        /// The resident sharded index.
        index: ShardedIndex,
    },
}

impl Epoch {
    /// Wraps a single index as an epoch.
    pub fn rlc(graph: Arc<LabeledGraph>, index: RlcIndex) -> Self {
        Epoch::Rlc { graph, index }
    }

    /// Wraps a sharded index as an epoch.
    pub fn sharded(graph: Arc<LabeledGraph>, index: ShardedIndex) -> Self {
        Epoch::Sharded { graph, index }
    }

    /// The graph this epoch serves.
    pub fn graph(&self) -> &Arc<LabeledGraph> {
        match self {
            Epoch::Rlc { graph, .. } | Epoch::Sharded { graph, .. } => graph,
        }
    }

    /// The epoch's generation stamp (for sharded indexes, the folded
    /// per-shard stamp — any shard rebuild changes it).
    pub fn generation(&self) -> Generation {
        match self {
            Epoch::Rlc { index, .. } => index.generation(),
            Epoch::Sharded { index, .. } => index.generation(),
        }
    }

    /// The index's repetition bound `k`.
    pub fn k(&self) -> usize {
        match self {
            Epoch::Rlc { index, .. } => index.k(),
            Epoch::Sharded { index, .. } => index.k(),
        }
    }

    /// Short name of the resident index kind (`"rlc"` or `"sharded"`),
    /// exposed as the `kind` label of the `/metrics` index gauges.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Epoch::Rlc { .. } => "rlc",
            Epoch::Sharded { .. } => "sharded",
        }
    }

    /// Resident bytes of the serving index (for sharded epochs, summed
    /// across shards).
    pub fn index_bytes(&self) -> usize {
        match self {
            Epoch::Rlc { index, .. } => index.memory_bytes(),
            Epoch::Sharded { index, .. } => index.memory_bytes(),
        }
    }

    /// The single index's CSR-layout bytes — the packed layout is the
    /// resident one, so this equals [`Epoch::index_bytes`] there (the
    /// sharded index has no combined CSR to price).
    pub fn csr_index_bytes(&self) -> Option<usize> {
        match self {
            Epoch::Rlc { index, .. } => Some(index.csr_memory_bytes()),
            Epoch::Sharded { .. } => None,
        }
    }

    /// Runs `f` with an engine borrowing this epoch. Engine construction is
    /// a couple of pointer copies, so building one per batch is free; the
    /// borrow keeps the epoch alive for exactly the evaluation.
    pub fn with_engine<R>(&self, f: impl FnOnce(&dyn ReachabilityEngine) -> R) -> R {
        match self {
            Epoch::Rlc { graph, index } => f(&IndexEngine::new(graph, index)),
            Epoch::Sharded { graph, index } => f(&ShardedEngine::new(graph, index)),
        }
    }

    /// Loads an index blob for `graph`: a blob opening with the `RSH1`
    /// magic is a sharded manifest, anything else goes to
    /// [`RlcIndex::from_bytes`], which owns the single-index format, its
    /// magic and its version errors. Both decoders fully validate the blob
    /// (the `RSH1` path additionally pins it to `graph` by topology digest;
    /// the single-index format carries no digest, so its vertex count is
    /// cross-checked here). The loaded index mints a fresh in-process
    /// generation, so a reload is always observable as a stamp change.
    pub fn from_blob(graph: &Arc<LabeledGraph>, bytes: &[u8]) -> Result<Epoch, String> {
        if bytes.starts_with(&rlc_shard::MANIFEST_MAGIC.to_le_bytes()) {
            return ShardedIndex::from_bytes(bytes, graph)
                .map(|index| Epoch::sharded(Arc::clone(graph), index));
        }
        let index = RlcIndex::from_bytes(bytes)?;
        if index.vertex_count() != graph.vertex_count() {
            return Err(format!(
                "index blob covers {} vertices but the serving graph has {}",
                index.vertex_count(),
                graph.vertex_count()
            ));
        }
        Ok(Epoch::rlc(Arc::clone(graph), index))
    }
}

impl std::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Epoch::Rlc { .. } => "Rlc",
            Epoch::Sharded { .. } => "Sharded",
        };
        f.debug_struct("Epoch")
            .field("kind", &kind)
            .field("k", &self.k())
            .field("generation", &self.generation())
            .finish()
    }
}

/// The swap slot: current epoch plus a lock-free generation mirror.
#[derive(Debug)]
pub struct IndexSlot {
    current: Mutex<Arc<Epoch>>,
    generation: AtomicU64,
}

impl IndexSlot {
    /// Creates a slot serving `epoch`.
    pub fn new(epoch: Epoch) -> Self {
        let generation = epoch.generation().value();
        IndexSlot {
            current: Mutex::new(Arc::new(epoch)),
            generation: AtomicU64::new(generation),
        }
    }

    /// The current epoch. The lock is held for one `Arc` clone; the caller
    /// then evaluates entirely on its snapshot, unaffected by later swaps.
    pub fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&lock_recover(&self.current))
    }

    /// Swaps `epoch` in and returns the previous one. In-flight snapshots
    /// keep the old epoch alive until their batches finish; new snapshots
    /// see the new epoch. The generation mirror is updated under the same
    /// lock, so mirror and slot can never point at different epochs for a
    /// reader that takes the lock afterwards.
    pub fn swap(&self, epoch: Epoch) -> Arc<Epoch> {
        let next_generation = epoch.generation().value();
        let mut guard = lock_recover(&self.current);
        let previous = std::mem::replace(&mut *guard, Arc::new(epoch));
        self.generation.store(next_generation, Ordering::SeqCst);
        previous
    }

    /// The serving generation, read without the lock (metrics/health path).
    pub fn generation_value(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_core::{build_index, BuildConfig};
    use rlc_graph::examples::fig2_graph;
    use rlc_graph::Label;
    use rlc_shard::ShardBuildConfig;

    fn graph() -> Arc<LabeledGraph> {
        Arc::new(fig2_graph())
    }

    #[test]
    fn blob_magic_dispatch_loads_both_formats() {
        let graph = graph();
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let rlc_blob = index.to_bytes();
        let epoch = Epoch::from_blob(&graph, &rlc_blob).unwrap();
        assert!(matches!(epoch, Epoch::Rlc { .. }));
        assert_eq!(epoch.k(), 2);

        let (sharded, _) = ShardedIndex::build(&graph, &ShardBuildConfig::new(2, 2)).unwrap();
        let sharded_blob = sharded.to_bytes();
        let epoch = Epoch::from_blob(&graph, &sharded_blob).unwrap();
        assert!(matches!(epoch, Epoch::Sharded { .. }));
        assert_eq!(epoch.k(), 2);
    }

    #[test]
    fn hostile_blobs_are_rejected_with_reasons() {
        let graph = graph();
        assert!(Epoch::from_blob(&graph, b"")
            .unwrap_err()
            .contains("truncated"));
        assert!(Epoch::from_blob(&graph, b"XYZW rest")
            .unwrap_err()
            .contains("bad magic"));
        // Retired single-index formats are refused by the index loader's
        // own version error, not by a list of magics kept here.
        let (index, _) = build_index(&graph, &BuildConfig::new(2));
        let mut retired = index.to_bytes();
        retired[..4].copy_from_slice(&0x524C_4332u32.to_le_bytes());
        let err = Epoch::from_blob(&graph, &retired).unwrap_err();
        assert!(err.contains("version 2"), "{err}");
        // A valid blob for a *different* graph is refused.
        let mut builder = rlc_graph::GraphBuilder::with_capacity(2, 1);
        builder.add_edge(0, Label(0), 1);
        let small = Arc::new(builder.build());
        let (small_index, _) = build_index(&small, &BuildConfig::new(2));
        let err = Epoch::from_blob(&graph, &small_index.to_bytes()).unwrap_err();
        assert!(err.contains("vertices"), "{err}");
    }

    #[test]
    fn swap_is_observable_and_old_snapshots_survive() {
        let graph = graph();
        let (a, _) = build_index(&graph, &BuildConfig::new(2));
        let (b, _) = build_index(&graph, &BuildConfig::new(3));
        let slot = IndexSlot::new(Epoch::rlc(Arc::clone(&graph), a));
        let gen_a = slot.generation_value();
        let held = slot.snapshot();
        let previous = slot.swap(Epoch::rlc(Arc::clone(&graph), b));
        let gen_b = slot.generation_value();
        assert_ne!(gen_a, gen_b, "a reload is always a stamp change");
        assert_eq!(previous.generation().value(), gen_a);
        // The pre-swap snapshot still answers on the old epoch.
        assert_eq!(held.generation().value(), gen_a);
        assert_eq!(held.k(), 2);
        assert_eq!(slot.snapshot().k(), 3);
    }
}
