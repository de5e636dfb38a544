//! The `RSH1` manifest format: persistent form of a [`ShardedIndex`].
//!
//! A manifest carries the shard count and recursive `k`, the vertex→shard
//! assignment, the cut-edge list, and — per shard — the offset, length, and
//! 64-bit FNV-1a digest of that shard's `RLC3` blob, followed by the blobs
//! themselves. Shard subgraphs are *not* serialized: they are re-derived
//! from the graph the loader is given, and the loader cross-validates the
//! manifest against that graph (vertex count, a whole-graph topology
//! digest covering every edge, recomputed cut edges) so a manifest paired
//! with the wrong graph — even one differing only in intra-shard edges —
//! is rejected instead of silently answering for a different topology.
//!
//! The loader applies the same hardening discipline as `RLC3`/`ETC1`/`RLG1`:
//! untrusted size fields are bounded by the bytes actually present
//! (division form, immune to multiplication overflow) before any loop or
//! allocation they size, every id is range-checked, shard blob digests must
//! match, blob offsets must be exactly contiguous, and trailing bytes are
//! rejected. Loaded shard indexes mint fresh generation stamps (the `RLC3`
//! loader's contract), so a reloaded sharded index can never impersonate
//! the live one that wrote the manifest.

use crate::index::ShardedIndex;
use rayon::prelude::*;
use rlc_core::index::RlcIndex;
use rlc_graph::io::write_edge;
use rlc_graph::{LabeledGraph, Partition, Reader};

/// Manifest magic, "RSH1": the first four bytes of every manifest, as a
/// little-endian `u32`. Public so loaders that accept several blob kinds
/// (the serving crate's reload) dispatch on it without keeping a copy.
pub const MANIFEST_MAGIC: u32 = 0x5253_4831;

/// 64-bit FNV-1a over a byte slice — the per-shard blob digest. Not
/// cryptographic: it catches corruption and mix-ups, not adversaries (the
/// structural validation behind it is what bounds hostile input).
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streaming FNV-1a step, for digests over data that is never materialized
/// as one buffer (the whole-graph edge digest).
fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Digest of the indexed graph's full topology — vertex count and every
/// edge (source, label, target) in edge order. Stored in the manifest and
/// recomputed by the loader, so a manifest paired with a graph that
/// differs **anywhere** (including intra-shard edges, which the cut-edge
/// comparison alone cannot see) is rejected instead of silently answering
/// for the topology it was built on.
pub(crate) fn graph_digest(graph: &LabeledGraph) -> u64 {
    let mut hash = fnv1a64_update(
        0xcbf2_9ce4_8422_2325,
        &(graph.vertex_count() as u64).to_le_bytes(),
    );
    for edge in graph.edges() {
        hash = fnv1a64_update(hash, &edge.source.to_le_bytes());
        hash = fnv1a64_update(hash, &edge.label.0.to_le_bytes());
        hash = fnv1a64_update(hash, &edge.target.to_le_bytes());
    }
    hash
}

impl ShardedIndex {
    /// Serializes the sharded index to an `RSH1` manifest.
    ///
    /// Layout (all integers little-endian): header (`magic`, `k` as `u32`,
    /// shard count as `u32`, vertex count as `u64`, cut-edge count as
    /// `u64`, the whole-graph topology digest as `u64`), the per-vertex
    /// shard assignment (`u32` each), the cut edges
    /// (`u32` source, `u16` label, `u32` target each, in graph edge order),
    /// the shard table (`u64` blob offset, `u64` blob length, `u64` FNV-1a
    /// digest per shard), then the concatenated per-shard `RLC3` blobs.
    ///
    /// Returns an error instead of silently truncating when a field exceeds
    /// its on-disk width.
    pub fn try_to_bytes(&self) -> Result<Vec<u8>, String> {
        let blobs: Vec<Vec<u8>> = self
            .shards
            .iter()
            .map(|s| s.index.try_to_bytes())
            .collect::<Result<_, _>>()?;
        let k = u32::try_from(self.k).map_err(|_| format!("recursive k {} exceeds u32", self.k))?;
        let shard_count = u32::try_from(self.shards.len())
            .map_err(|_| format!("shard count {} exceeds u32", self.shards.len()))?;
        let mut buf = Vec::new();
        for word in [MANIFEST_MAGIC, k, shard_count] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for word in [
            self.partition.vertex_count() as u64,
            self.cut_edges.len() as u64,
            self.graph_digest,
        ] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for &shard in self.partition.assignment() {
            buf.extend_from_slice(&shard.to_le_bytes());
        }
        for &edge in &self.cut_edges {
            write_edge(&mut buf, edge);
        }
        let mut offset = 0u64;
        for blob in &blobs {
            for word in [offset, blob.len() as u64, fnv1a64(blob)] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            offset = offset
                .checked_add(blob.len() as u64)
                .ok_or_else(|| "total shard blob size exceeds u64".to_owned())?;
        }
        for blob in &blobs {
            buf.extend_from_slice(blob);
        }
        Ok(buf)
    }

    /// Serializes, panicking on field overflow (theoretical; see
    /// [`ShardedIndex::try_to_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.try_to_bytes()
            // rlc-analyze: allow(panic-free-library) — documented panicking wrapper; the fallible twin is try_to_bytes, and the overflow is theoretical
            .expect("sharded index exceeds manifest field widths")
    }

    /// Deserializes an `RSH1` manifest against the graph it indexes.
    ///
    /// Every structural invariant is validated: magic, `k ≥ 1`, at least
    /// one shard, assignment entries in shard range, cut edges in vertex
    /// range and actually crossing shards, the cut-edge list **equal to the
    /// one recomputed from `graph` and the assignment** (which also pins
    /// the manifest to the right graph), contiguous blob offsets, matching
    /// digests, per-shard `RLC3` validation, shard `k` and vertex counts
    /// consistent with the header and the assignment, and no trailing
    /// bytes. Corrupt or mismatched input yields a descriptive error,
    /// never a silently wrong index.
    pub fn from_bytes(data: &[u8], graph: &LabeledGraph) -> Result<Self, String> {
        let mut r = Reader::new(data);
        let magic = r.u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(format!("bad magic {magic:#x}, not an RSH1 shard manifest"));
        }
        let k = r.u32()? as usize;
        if k == 0 {
            return Err("corrupt shard manifest: recursive k must be at least 1".to_owned());
        }
        let shard_count = r.u32()? as usize;
        if shard_count == 0 {
            return Err("corrupt shard manifest: shard count must be at least 1".to_owned());
        }
        // The shard count sizes allocations (the partition's per-shard
        // lists, the shard table) before the table itself is reached:
        // bound it by the bytes present — every shard owes a 24-byte table
        // row — so a hostile header cannot drive a huge allocation.
        let shard_count = r.checked_len(shard_count, 24, "shard count")?;
        let n = r.u64_count()?;
        if n != graph.vertex_count() {
            return Err(format!(
                "shard manifest indexes {n} vertices but the supplied graph has {}; \
                 the manifest belongs to a different graph",
                graph.vertex_count()
            ));
        }
        let cut_count = r.u64_count()?;
        // The whole-graph digest pins the manifest to the exact topology
        // it was built on: intra-shard edges are invisible to the cut-edge
        // comparison below, so without this a graph differing only inside
        // a shard would silently answer for the wrong topology.
        if r.u64()? != graph_digest(graph) {
            return Err(
                "shard manifest graph digest does not match the supplied graph; the manifest \
                 belongs to a different graph"
                    .to_owned(),
            );
        }
        let n = r.checked_len(n, 4, "shard assignment")?;
        let partition = Partition::from_assignment(shard_count, r.u32s(n)?)
            .map_err(|e| format!("corrupt shard manifest: {e}"))?;
        let cut_count = r.checked_len(cut_count, 10, "cut edge table")?;
        let mut cut_edges = Vec::with_capacity(cut_count);
        for i in 0..cut_count {
            let edge = r.edge()?;
            for id in [edge.source, edge.target] {
                if id as usize >= n {
                    return Err(format!(
                        "corrupt shard manifest: cut edge {i} references vertex {id}, out of \
                         range for {n} vertices"
                    ));
                }
            }
            if !partition.is_cut(&edge) {
                return Err(format!(
                    "corrupt shard manifest: cut edge {i} ({} -> {}) does not cross shards \
                     under the stored assignment",
                    edge.source, edge.target
                ));
            }
            cut_edges.push(edge);
        }
        // The cut-edge list must be exactly what the assignment implies for
        // this graph — this rejects missing/forged entries and, crucially,
        // a manifest paired with the wrong graph.
        if cut_edges != partition.cut_edges(graph) {
            return Err(
                "corrupt shard manifest: stored cut edges do not match the supplied graph \
                 under the stored assignment"
                    .to_owned(),
            );
        }
        let shard_count = r.checked_len(shard_count, 24, "shard table")?;
        let mut expected_offset = 0u64;
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let (offset, len, digest) = (r.u64()?, r.u64()?, r.u64()?);
            if offset != expected_offset {
                return Err(format!(
                    "corrupt shard manifest: shard {i} blob offset {offset} is not contiguous \
                     (expected {expected_offset})"
                ));
            }
            expected_offset = expected_offset.checked_add(len).ok_or_else(|| {
                "corrupt shard manifest: shard blob offsets overflow u64".to_owned()
            })?;
            spans.push((len, digest));
        }
        let mut blobs: Vec<(usize, &[u8], u64)> = Vec::with_capacity(shard_count);
        for (i, (len, digest)) in spans.into_iter().enumerate() {
            let len = usize::try_from(len).unwrap_or(usize::MAX);
            blobs.push((i, r.take(len)?, digest));
        }
        r.finish()?;
        // Per-shard digesting and RLC3 validation are independent: fan them
        // out like the build path fans out the per-shard index builds.
        let loaded: Vec<Result<RlcIndex, String>> = blobs
            .par_iter()
            .map(|&(i, blob, digest)| {
                if fnv1a64(blob) != digest {
                    return Err(format!(
                        "corrupt shard manifest: shard {i} blob digest mismatch"
                    ));
                }
                let index = RlcIndex::from_bytes(blob)
                    .map_err(|e| format!("corrupt shard manifest: shard {i}: {e}"))?;
                if index.k() != k {
                    return Err(format!(
                        "corrupt shard manifest: shard {i} was built with k = {} but the header \
                         declares k = {k}",
                        index.k()
                    ));
                }
                if index.vertex_count() != partition.shard_vertices(i).len() {
                    return Err(format!(
                        "corrupt shard manifest: shard {i} index covers {} vertices but the \
                         assignment gives the shard {}",
                        index.vertex_count(),
                        partition.shard_vertices(i).len()
                    ));
                }
                Ok(index)
            })
            .collect();
        let indexes = loaded.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedIndex::assemble(
            graph, k, partition, cut_edges, indexes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ShardedEngine;
    use crate::index::ShardBuildConfig;
    use rlc_core::engine::ReachabilityEngine;
    use rlc_core::Query;
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
    use rlc_graph::{Label, PartitionStrategy};

    fn sample() -> LabeledGraph {
        erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 11))
    }

    fn build(g: &LabeledGraph, shards: usize) -> ShardedIndex {
        let config =
            ShardBuildConfig::new(2, shards).with_strategy(PartitionStrategy::Hash { seed: 5 });
        ShardedIndex::build(g, &config).unwrap().0
    }

    #[test]
    fn round_trip_preserves_answers_and_is_canonical() {
        let g = sample();
        let sharded = build(&g, 3);
        let blob = sharded.try_to_bytes().unwrap();
        let restored = ShardedIndex::from_bytes(&blob, &g).unwrap();
        assert_eq!(restored.k(), sharded.k());
        assert_eq!(restored.shard_count(), sharded.shard_count());
        assert_eq!(restored.cut_edges(), sharded.cut_edges());
        assert_eq!(restored.partition(), sharded.partition());
        // Canonical: re-serializing yields identical bytes.
        assert_eq!(restored.try_to_bytes().unwrap(), blob);
        // Fresh generations: a reloaded sharded index never impersonates
        // the one that wrote the manifest.
        assert_ne!(restored.generation(), sharded.generation());
        // And the answers are identical, per pair and grouped.
        let live = ShardedEngine::new(&g, &sharded);
        let loaded = ShardedEngine::new(&g, &restored);
        for s in (0..g.vertex_count() as u32).step_by(5) {
            for t in (0..g.vertex_count() as u32).step_by(7) {
                for labels in [vec![Label(0)], vec![Label(0), Label(1)]] {
                    let q = Query::rlc(s, t, labels).unwrap();
                    assert_eq!(live.evaluate(&q), loaded.evaluate(&q));
                }
            }
        }
    }

    #[test]
    fn every_prefix_truncation_is_rejected() {
        let g = sample();
        let blob = build(&g, 2).try_to_bytes().unwrap();
        for len in 0..blob.len() {
            assert!(
                ShardedIndex::from_bytes(&blob[..len], &g).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn header_corruptions_are_rejected_with_descriptive_errors() {
        let g = sample();
        let blob = build(&g, 2).try_to_bytes().unwrap();

        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(ShardedIndex::from_bytes(&bad, &g)
            .unwrap_err()
            .contains("magic"));

        // k = 0.
        let mut bad = blob.clone();
        bad[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(ShardedIndex::from_bytes(&bad, &g)
            .unwrap_err()
            .contains("k"));

        // Zero shards.
        let mut bad = blob.clone();
        bad[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(ShardedIndex::from_bytes(&bad, &g)
            .unwrap_err()
            .contains("shard count"));

        // Vertex count disagreeing with the graph.
        let mut bad = blob.clone();
        bad[12..20].copy_from_slice(&7u64.to_le_bytes());
        assert!(ShardedIndex::from_bytes(&bad, &g)
            .unwrap_err()
            .contains("different graph"));

        // Absurd cut-edge count: caught by the division-form bound before
        // any allocation.
        let mut bad = blob.clone();
        bad[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ShardedIndex::from_bytes(&bad, &g).is_err());

        // Absurd shard count over an otherwise plausible body: must be
        // caught by the division-form bound before the per-shard partition
        // lists (or the shard table) are allocated — the old code reached
        // `Partition::from_assignment` first and allocated ~100 GiB of
        // empty Vecs from a ~50 KB hostile blob.
        let mut bad = blob.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ShardedIndex::from_bytes(&bad, &g).unwrap_err();
        assert!(err.contains("shard count"), "unexpected error: {err}");

        // Trailing garbage.
        let mut bad = blob.clone();
        bad.push(0);
        assert!(ShardedIndex::from_bytes(&bad, &g).is_err());
    }

    #[test]
    fn bad_partition_maps_are_rejected() {
        let g = sample();
        let sharded = build(&g, 2);
        let blob = sharded.try_to_bytes().unwrap();
        // Assignment entries start at byte 36; point vertex 0 at shard 9.
        let mut bad = blob.clone();
        bad[36..40].copy_from_slice(&9u32.to_le_bytes());
        let err = ShardedIndex::from_bytes(&bad, &g).unwrap_err();
        assert!(err.contains("shard"), "unexpected error: {err}");
        // Flipping a vertex to the other shard desynchronizes the stored
        // cut edges from the recomputed ones.
        let original = u32::from_le_bytes(blob[36..40].try_into().unwrap());
        let mut bad = blob.clone();
        bad[36..40].copy_from_slice(&(1 - original).to_le_bytes());
        let err = ShardedIndex::from_bytes(&bad, &g).unwrap_err();
        assert!(
            err.contains("cut edge") || err.contains("shard"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn digest_mismatches_and_blob_corruption_are_rejected() {
        let g = sample();
        let sharded = build(&g, 2);
        let blob = sharded.try_to_bytes().unwrap();
        let table_start = 36 + 4 * g.vertex_count() + 10 * sharded.cut_edges().len();

        // Flip a digest byte: the (intact) blob no longer matches.
        let mut bad = blob.clone();
        bad[table_start + 16] ^= 0xFF;
        assert!(ShardedIndex::from_bytes(&bad, &g)
            .unwrap_err()
            .contains("digest"));

        // Flip a blob byte: the digest catches it first.
        let blob_start = table_start + 24 * sharded.shard_count();
        let mut bad = blob.clone();
        bad[blob_start + 8] ^= 0xFF;
        assert!(ShardedIndex::from_bytes(&bad, &g)
            .unwrap_err()
            .contains("digest"));

        // Non-contiguous offsets.
        let mut bad = blob.clone();
        bad[table_start..table_start + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(ShardedIndex::from_bytes(&bad, &g)
            .unwrap_err()
            .contains("contiguous"));
    }

    #[test]
    fn manifests_are_pinned_to_their_graph() {
        let g = sample();
        let other = erdos_renyi(&SyntheticConfig::new(50, 3.0, 3, 12));
        assert_eq!(g.vertex_count(), other.vertex_count());
        let blob = build(&g, 3).try_to_bytes().unwrap();
        // Same vertex count, different topology: the whole-graph digest
        // cannot match.
        let err = ShardedIndex::from_bytes(&blob, &other).unwrap_err();
        assert!(err.contains("different graph"), "unexpected error: {err}");
    }

    #[test]
    fn graphs_differing_only_in_intra_shard_edges_are_rejected() {
        // The cut-edge comparison alone cannot see intra-shard changes;
        // the whole-graph digest must. Rebuild the same edge list plus one
        // extra edge between two vertices of the same shard.
        let g = sample();
        let sharded = build(&g, 2);
        let blob = sharded.try_to_bytes().unwrap();
        let p = sharded.partition();
        let (u, v) = {
            let shard0 = p.shard_vertices(0);
            (shard0[0], shard0[1])
        };
        let mut edges: Vec<rlc_graph::Edge> = g.edges().collect();
        edges.push(rlc_graph::Edge::new(u, Label(0), v));
        let modified = LabeledGraph::from_edges(g.vertex_count(), &edges, g.labels().clone(), None);
        assert_eq!(
            p.cut_edges(&modified),
            sharded.cut_edges(),
            "the added edge must be intra-shard for this test to bite"
        );
        let err = ShardedIndex::from_bytes(&blob, &modified).unwrap_err();
        assert!(err.contains("different graph"), "unexpected error: {err}");
        // Flipping the stored digest itself is likewise rejected.
        let mut bad = blob.clone();
        bad[28] ^= 0xFF;
        let err = ShardedIndex::from_bytes(&bad, &g).unwrap_err();
        assert!(err.contains("different graph"), "unexpected error: {err}");
    }

    #[test]
    fn hostile_blob_lengths_error_instead_of_panicking() {
        // Huge per-shard blob lengths must surface as errors: the u64
        // offset accumulation is checked, and the remaining-bytes equality
        // runs before any slice, so neither an overflowed sum nor an
        // oversized length can reach `&buf[..len]`.
        let g = sample();
        let sharded = build(&g, 2);
        let blob = sharded.try_to_bytes().unwrap();
        let table_start = 36 + 4 * g.vertex_count() + 10 * sharded.cut_edges().len();
        // Shard 0 claims 2^63 bytes; shard 1's offset must then be 2^63
        // with another 2^63 + extra of length, overflowing the u64 total.
        let mut bad = blob.clone();
        bad[table_start + 8..table_start + 16].copy_from_slice(&(1u64 << 63).to_le_bytes());
        bad[table_start + 24..table_start + 32].copy_from_slice(&(1u64 << 63).to_le_bytes());
        bad[table_start + 32..table_start + 40]
            .copy_from_slice(&((1u64 << 63) + 1024).to_le_bytes());
        assert!(ShardedIndex::from_bytes(&bad, &g).is_err());
        // A single oversized length (no overflow) fails the section-size
        // equality before slicing.
        let mut bad = blob.clone();
        let huge = (blob.len() as u64) * 2;
        bad[table_start + 8..table_start + 16].copy_from_slice(&huge.to_le_bytes());
        bad[table_start + 24..table_start + 32].copy_from_slice(&huge.to_le_bytes());
        assert!(ShardedIndex::from_bytes(&bad, &g).is_err());
    }

    #[test]
    fn single_shard_manifests_round_trip() {
        let g = sample();
        let sharded = build(&g, 1);
        assert!(sharded.cut_edges().is_empty());
        let blob = sharded.try_to_bytes().unwrap();
        let restored = ShardedIndex::from_bytes(&blob, &g).unwrap();
        assert_eq!(restored.shard_count(), 1);
        assert_eq!(restored.try_to_bytes().unwrap(), blob);
    }
}
