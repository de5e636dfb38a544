//! The boundary subsystem: portal vertices and per-shard reachability
//! expansion.
//!
//! A *portal* is a shard-local endpoint of a cut edge — the only places a
//! cross-shard path can enter or leave a shard. The stitcher
//! ([`crate::engine::ShardedEngine`]) moves between shards exclusively
//! through cut edges, and inside a shard it skips over arbitrarily long
//! stretches of whole block repetitions in one hop using that shard's RLC
//! index. The hop needs *enumeration* — "all vertices reachable from `v`
//! under `mr+` within this shard" — which the index's pair-query form
//! (`query(s, t, mr+)`) does not provide directly. [`ReachExpander`]
//! provides it by inverting the index's `Lin` sets once per shard:
//!
//! By Definition 4, `query(v, w, mr)` holds iff `(w, mr) ∈ Lout(v)`, or
//! `(v, mr) ∈ Lin(w)`, or some hub `x` has `(x, mr) ∈ Lout(v)` and
//! `(x, mr) ∈ Lin(w)`. With an inverted map `inv_lin[(h, mr)] = {w : (h,
//! mr) ∈ Lin(w)}`, the target set of `v` is the union of the hubs listed in
//! `Lout(v)` with `inv_lin[(v, mr)]` and `inv_lin[(hub, mr)]` for each of
//! those hubs — every case of the definition, so the enumeration is exactly
//! the set of vertices the index can prove reachable (which, by the index's
//! completeness theorem, is exactly the set reachable under `mr+` inside
//! the shard).

use rlc_core::catalog::MrId;
use rlc_core::index::RlcIndex;
use rlc_graph::{Edge, Partition, VertexId};
use std::collections::{HashMap, HashSet};

/// Per-shard target enumeration under an interned minimum repeat: the
/// index's `Lin` sets inverted by `(hub, mr)`. Built once per shard at
/// [`crate::ShardedIndex`] construction (and after a shard rebuild); the
/// size is exactly the shard's `Lin` entry count.
#[derive(Debug, Clone)]
pub struct ReachExpander {
    inv_lin: HashMap<(VertexId, MrId), Vec<VertexId>>,
}

impl ReachExpander {
    /// Inverts the `Lin` sets of `index` (vertex ids are shard-local).
    pub fn new(index: &RlcIndex) -> Self {
        let mut inv_lin: HashMap<(VertexId, MrId), Vec<VertexId>> = HashMap::new();
        for v in 0..index.vertex_count() as VertexId {
            for entry in index.lin(v) {
                inv_lin.entry((entry.hub, entry.mr)).or_default().push(v);
            }
        }
        ReachExpander { inv_lin }
    }

    /// Calls `visit` for every shard-local vertex reachable from `v` under
    /// `mr+` within the shard (duplicates possible — callers dedupe through
    /// their visited sets).
    ///
    /// `expanded` amortizes one search's hop work: many vertices share
    /// hubs, and a hub's inverted-`Lin` list is the same no matter which
    /// `v` reaches it, so a list already walked earlier in the **same
    /// search under the same `mr`** is skipped — every target on it was
    /// visited then. (The hub itself is still visited on every call: it is
    /// a reachable target of `v` in its own right.) Across calls sharing
    /// one `expanded` set, the union of visited targets therefore still
    /// equals the union of the per-vertex target sets, while total list
    /// work is bounded by the shard's index size instead of
    /// `|V| × |targets|`. Pass a fresh set per call to enumerate one
    /// vertex's full target set.
    pub fn for_each_target(
        &self,
        index: &RlcIndex,
        v: VertexId,
        mr: MrId,
        expanded: &mut HashSet<VertexId>,
        mut visit: impl FnMut(VertexId),
    ) {
        // Case 2 of Definition 4, Lin side: (v, mr) ∈ Lin(w). The owner v
        // doubles as the hub key of its own inverted list.
        if expanded.insert(v) {
            if let Some(targets) = self.inv_lin.get(&(v, mr)) {
                for &w in targets {
                    visit(w);
                }
            }
        }
        for entry in index.lout(v).run(mr) {
            // Case 2, Lout side: the hub itself is reachable…
            visit(entry.hub);
            // …and Case 1: every w whose Lin shares the hub. (v ⇝ hub and
            // hub ⇝ w under mr+ compose to v ⇝ w under mr+.)
            if expanded.insert(entry.hub) {
                if let Some(targets) = self.inv_lin.get(&(entry.hub, mr)) {
                    for &w in targets {
                        visit(w);
                    }
                }
            }
        }
    }

    /// Approximate resident heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let key = std::mem::size_of::<(VertexId, MrId)>();
        let header = std::mem::size_of::<Vec<VertexId>>();
        self.inv_lin
            .values()
            .map(|v| key + header + v.len() * std::mem::size_of::<VertexId>() + 16)
            .sum()
    }
}

/// The portal vertices of one shard, in local ids: `entries` are targets of
/// incoming cut edges (where cross-shard paths land), `exits` are sources of
/// outgoing cut edges (where they leave). Sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortalSet {
    /// Local ids of cut-edge targets inside this shard.
    pub entries: Vec<VertexId>,
    /// Local ids of cut-edge sources inside this shard.
    pub exits: Vec<VertexId>,
}

impl PortalSet {
    /// Collects the portals of `shard` from the partition's cut edges.
    pub fn from_cut_edges(partition: &Partition, shard: usize, cut_edges: &[Edge]) -> Self {
        let mut entries = Vec::new();
        let mut exits = Vec::new();
        for edge in cut_edges {
            if partition.shard_of(edge.source) == shard {
                exits.push(partition.locate(edge.source).1);
            }
            if partition.shard_of(edge.target) == shard {
                entries.push(partition.locate(edge.target).1);
            }
        }
        entries.sort_unstable();
        entries.dedup();
        exits.sort_unstable();
        exits.dedup();
        PortalSet { entries, exits }
    }

    /// Whether cross-shard paths can leave the shard.
    pub fn has_exits(&self) -> bool {
        !self.exits.is_empty()
    }

    /// Whether cross-shard paths can enter the shard.
    pub fn has_entries(&self) -> bool {
        !self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_core::{build_index, BuildConfig, RlcQuery};
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
    use rlc_graph::{Label, PartitionStrategy};
    use std::collections::HashSet;

    #[test]
    fn expander_enumerates_exactly_the_index_target_sets() {
        // The enumeration must match the pair query for every (v, w, mr):
        // no missing target (the stitcher would lose paths), no extra
        // target (it would fabricate reachability).
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 5));
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let expander = ReachExpander::new(&index);
        for (mr, seq) in index.catalog().iter().collect::<Vec<_>>() {
            for v in g.vertices() {
                let mut enumerated: HashSet<VertexId> = HashSet::new();
                // A fresh `expanded` set per vertex: the full target set.
                expander.for_each_target(&index, v, mr, &mut HashSet::new(), |w| {
                    enumerated.insert(w);
                });
                for w in g.vertices() {
                    let q = RlcQuery::new(v, w, seq.to_vec()).unwrap();
                    assert_eq!(
                        enumerated.contains(&w),
                        index.query(&q),
                        "target enumeration mismatch for ({v}, {w}, {seq:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_expanded_set_still_covers_the_union_of_target_sets() {
        // The hop-amortization contract: enumerating from many vertices
        // through ONE shared `expanded` set must visit, in union, exactly
        // the union of the per-vertex target sets (hub lists are walked
        // once, but no target — and no hub — is lost).
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 5));
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let expander = ReachExpander::new(&index);
        for (mr, _) in index.catalog().iter().collect::<Vec<_>>() {
            let mut shared_union: HashSet<VertexId> = HashSet::new();
            let mut expanded: HashSet<VertexId> = HashSet::new();
            let mut fresh_union: HashSet<VertexId> = HashSet::new();
            for v in g.vertices() {
                expander.for_each_target(&index, v, mr, &mut expanded, |w| {
                    shared_union.insert(w);
                });
                expander.for_each_target(&index, v, mr, &mut HashSet::new(), |w| {
                    fresh_union.insert(w);
                });
            }
            assert_eq!(shared_union, fresh_union, "mr {mr:?}");
        }
    }

    #[test]
    fn portals_are_the_cut_edge_endpoints() {
        let mut b = rlc_graph::GraphBuilder::new();
        // Vertices 0..4; edges 0→1 (intra with contiguous 2-shard split),
        // 1→2 (cut), 2→3 (intra), 3→0 (cut).
        for (s, t) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(s, Label(0), t);
        }
        let g = b.build();
        let p = Partition::new(&g, PartitionStrategy::Contiguous, 2).unwrap();
        let cut = p.cut_edges(&g);
        assert_eq!(cut.len(), 2);
        let shard0 = PortalSet::from_cut_edges(&p, 0, &cut);
        let shard1 = PortalSet::from_cut_edges(&p, 1, &cut);
        // Shard 0 owns globals {0, 1}: vertex 1 (local 1) exits via 1→2,
        // vertex 0 (local 0) is entered via 3→0.
        assert_eq!(shard0.exits, vec![1]);
        assert_eq!(shard0.entries, vec![0]);
        // Shard 1 owns globals {2, 3}: vertex 3 (local 1) exits via 3→0,
        // vertex 2 (local 0) is entered via 1→2.
        assert_eq!(shard1.exits, vec![1]);
        assert_eq!(shard1.entries, vec![0]);
        assert!(shard0.has_exits() && shard0.has_entries());
    }

    #[test]
    fn expander_memory_is_positive_for_nonempty_indexes() {
        let g = erdos_renyi(&SyntheticConfig::new(40, 3.0, 3, 9));
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        if index.entry_count() > 0 {
            assert!(ReachExpander::new(&index).memory_bytes() > 0);
        }
    }
}
