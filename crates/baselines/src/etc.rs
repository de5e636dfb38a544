//! The extended transitive closure (ETC) baseline of §VI.
//!
//! ETC materializes, for every reachable ordered pair of vertices `(u, v)`,
//! the set of k-MRs of paths from `u` to `v`. It is built by a forward
//! kernel-based search from every vertex *without any pruning rules* —
//! exactly the construction the paper describes for its ETC baseline — and is
//! therefore both much slower to build and much larger than the RLC index
//! (Table IV), while answering queries by a single hash lookup.

use rlc_core::catalog::{MrCatalog, MrId};
use rlc_core::engine::Generation;
use rlc_core::repeats::minimum_repeat_len;
use rlc_core::RlcQuery;
use rlc_graph::{Label, LabeledGraph, Reader, VertexId};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Configuration for building an [`EtcIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtcBuildConfig {
    /// The recursive `k`.
    pub k: usize,
    /// Wall-clock budget; the paper caps ETC construction at 24 hours, this
    /// reproduction defaults to no cap and the harness passes explicit caps.
    pub time_budget: Option<Duration>,
    /// Entry budget (reachable-pair × MR records).
    pub max_records: Option<usize>,
}

impl EtcBuildConfig {
    /// Default configuration for a given `k` (no budget).
    pub fn new(k: usize) -> Self {
        EtcBuildConfig {
            k,
            time_budget: None,
            max_records: None,
        }
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the record budget.
    pub fn with_max_records(mut self, max: usize) -> Self {
        self.max_records = Some(max);
        self
    }
}

/// Build statistics of an [`EtcIndex`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EtcStats {
    /// Wall-clock build time.
    pub duration: Duration,
    /// Number of `(u, v, MR)` records stored.
    pub records: usize,
    /// Number of distinct reachable pairs stored.
    pub pairs: usize,
    /// Whether the build hit a budget and returned a partial closure.
    pub timed_out: bool,
}

/// The extended transitive closure: `(source, target) → { MrId }`.
#[derive(Debug, Clone)]
pub struct EtcIndex {
    k: usize,
    /// Number of vertices of the indexed graph; bounds every vertex id in
    /// `closure` (also enforced when deserializing untrusted blobs).
    vertices: usize,
    /// Each pair's minimum repeats in ascending id order, so equal closures
    /// hold, and serialize to, equal lists.
    closure: HashMap<(VertexId, VertexId), Vec<MrId>>,
    catalog: MrCatalog,
    stats: EtcStats,
    /// Construction-time generation stamp (see [`Generation`]): minted fresh
    /// by [`EtcIndex::build`] **and** [`EtcIndex::from_bytes`] — the `ETC1`
    /// wire format never carries it — so a stale engine artifact can never
    /// alias a rebuilt or reloaded closure. `Clone` copies the stamp (clones
    /// share content).
    generation: Generation,
}

impl EtcIndex {
    /// Builds the extended transitive closure of `graph`.
    pub fn build(graph: &LabeledGraph, config: &EtcBuildConfig) -> Self {
        assert!(config.k >= 1, "recursive k must be at least 1");
        let started = Instant::now();
        let deadline = config.time_budget.map(|b| started + b);
        let mut closure: HashMap<(VertexId, VertexId), Vec<MrId>> = HashMap::new();
        let mut catalog = MrCatalog::new();
        let mut records = 0usize;
        let mut timed_out = false;

        'roots: for root in graph.vertices() {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    timed_out = true;
                    break;
                }
            }
            if let Some(max) = config.max_records {
                if records >= max {
                    timed_out = true;
                    break;
                }
            }
            // Phase 1: enumerate all outgoing label sequences of length ≤ k.
            let mut seen: HashSet<(VertexId, Vec<Label>)> = HashSet::new();
            let mut queue: VecDeque<(VertexId, Vec<Label>)> = VecDeque::new();
            let mut frontiers: HashMap<Vec<Label>, Vec<VertexId>> = HashMap::new();
            queue.push_back((root, Vec::new()));
            while let Some((x, seq)) = queue.pop_front() {
                for (y, label) in graph.out_edges(x) {
                    let mut extended = seq.clone();
                    extended.push(label);
                    if !seen.insert((y, extended.clone())) {
                        continue;
                    }
                    let mr_len = minimum_repeat_len(&extended);
                    if mr_len <= config.k {
                        let mr = catalog.intern(&extended[..mr_len]);
                        if record(&mut closure, root, y, mr) {
                            records += 1;
                        }
                        if extended.len() + mr_len > config.k {
                            match frontiers.entry(extended[..mr_len].to_vec()) {
                                MapEntry::Occupied(mut o) => o.get_mut().push(y),
                                MapEntry::Vacant(v) => {
                                    v.insert(vec![y]);
                                }
                            }
                        }
                    }
                    if extended.len() < config.k {
                        queue.push_back((y, extended));
                    }
                }
            }
            // Phase 2: kernel-guided BFS per candidate, no pruning.
            for (kernel, frontier) in frontiers {
                let klen = kernel.len();
                let mr = catalog.intern(&kernel);
                let mut visited: HashSet<(VertexId, usize)> = HashSet::new();
                let mut queue: VecDeque<(VertexId, usize)> = VecDeque::new();
                for v in frontier {
                    if visited.insert((v, 0)) {
                        queue.push_back((v, 0));
                    }
                }
                let mut steps = 0u32;
                while let Some((x, state)) = queue.pop_front() {
                    steps += 1;
                    if steps.is_multiple_of(4096) {
                        if let Some(deadline) = deadline {
                            if Instant::now() >= deadline {
                                timed_out = true;
                                break 'roots;
                            }
                        }
                    }
                    let expected = kernel[state];
                    for (y, label) in graph.out_edges(x) {
                        if label != expected {
                            continue;
                        }
                        let next = (state + 1) % klen;
                        if !visited.insert((y, next)) {
                            continue;
                        }
                        if next == 0 && record(&mut closure, root, y, mr) {
                            records += 1;
                        }
                        queue.push_back((y, next));
                    }
                }
            }
        }

        // Lists fill in discovery order, and phase 2 walks `frontiers` in
        // hash order: sort them so the closure does not depend on either.
        for mrs in closure.values_mut() {
            mrs.sort_unstable();
        }
        let pairs = closure.len();
        EtcIndex {
            k: config.k,
            vertices: graph.vertex_count(),
            closure,
            catalog,
            stats: EtcStats {
                duration: started.elapsed(),
                records,
                pairs,
                timed_out,
            },
            generation: Generation::fresh(),
        }
    }

    /// The generation stamp minted when this closure was constructed (fresh
    /// on every build **and** every deserialization).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The recursive `k` the closure supports.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The catalog of minimum repeats referenced by the closure.
    pub fn catalog(&self) -> &MrCatalog {
        &self.catalog
    }

    /// Number of vertices of the indexed graph.
    pub fn vertex_count(&self) -> usize {
        self.vertices
    }

    /// Answers an RLC query by hash lookup.
    pub fn query(&self, query: &RlcQuery) -> bool {
        assert!(
            query.constraint.len() <= self.k,
            "constraint longer than the closure's recursive k"
        );
        let mr = match self.catalog.resolve(&query.constraint) {
            Some(mr) => mr,
            None => return false,
        };
        self.query_mr(query.source, query.target, mr)
    }

    /// Answers `(s, t, mr+)` for an already-resolved minimum repeat — the
    /// execute half of the engine layer's prepare/execute split (the
    /// resolution against [`EtcIndex::catalog`] happens once at prepare
    /// time).
    pub fn query_mr(&self, source: VertexId, target: VertexId, mr: MrId) -> bool {
        self.closure
            .get(&(source, target))
            .map(|mrs| mrs.contains(&mr))
            .unwrap_or(false)
    }

    /// Build statistics.
    pub fn stats(&self) -> &EtcStats {
        &self.stats
    }

    /// Number of `(u, v, MR)` records stored.
    pub fn record_count(&self) -> usize {
        self.stats.records
    }

    /// Estimated memory footprint in bytes: hash-map bucket overhead plus the
    /// stored keys and MR lists (matching how the paper sizes its Java
    /// hashmap-of-lists ETC implementation, scaled to this representation).
    pub fn memory_bytes(&self) -> usize {
        let per_pair =
            std::mem::size_of::<(VertexId, VertexId)>() + std::mem::size_of::<Vec<MrId>>() + 16; // hash-map bucket & control overhead
        self.closure.len() * per_pair
            + self.stats.records * std::mem::size_of::<MrId>()
            + self.catalog.memory_bytes()
    }

    /// Serializes the closure to a compact binary blob (magic `"ETC1"`).
    ///
    /// Layout (all integers little-endian): header (`k` as `u32`, vertex
    /// count as `u64`, catalog size as `u64`, pair count as `u64`, the
    /// timed-out flag as one byte), the catalog section
    /// ([`MrCatalog::encode`]), then per pair `u32` source, `u32` target,
    /// `u32` MR count and the `u32` MR ids in ascending order. Pairs are
    /// written in sorted order, so equal closures serialize to identical
    /// bytes. Returns an error instead of silently truncating when a field
    /// exceeds its on-disk width.
    pub fn try_to_bytes(&self) -> Result<Vec<u8>, String> {
        let k = u32::try_from(self.k).map_err(|_| format!("recursive k {} exceeds u32", self.k))?;
        let mut buf = Vec::with_capacity(32 + self.stats.records * 4 + self.closure.len() * 12);
        buf.extend_from_slice(&ETC_MAGIC.to_le_bytes());
        buf.extend_from_slice(&k.to_le_bytes());
        for count in [self.vertices, self.catalog.len(), self.closure.len()] {
            buf.extend_from_slice(&(count as u64).to_le_bytes());
        }
        buf.push(self.stats.timed_out as u8);
        self.catalog.encode(&mut buf)?;
        let mut pairs: Vec<(&(VertexId, VertexId), &Vec<MrId>)> = self.closure.iter().collect();
        pairs.sort_unstable_by_key(|(pair, _)| **pair);
        for (&(source, target), mrs) in pairs {
            let count = u32::try_from(mrs.len()).map_err(|_| {
                format!(
                    "pair ({source}, {target}) has {} minimum repeats, exceeding the u32 \
                     count field",
                    mrs.len()
                )
            })?;
            for word in [source, target, count] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            for mr in mrs {
                buf.extend_from_slice(&mr.0.to_le_bytes());
            }
        }
        Ok(buf)
    }

    /// Deserializes a closure produced by [`EtcIndex::try_to_bytes`].
    ///
    /// Every structural invariant is validated before use, with the same
    /// corruption-blob treatment as `RlcIndex::from_bytes`: untrusted size
    /// fields are bounded by the bytes actually present (division form, no
    /// multiplication overflow), catalog sequences must be distinct minimum
    /// repeats of at most `k` labels, vertex ids must be in range, MR lists
    /// must be strictly increasing and resolve in the catalog, pairs must be
    /// unique, and trailing bytes are rejected.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(data);
        let magic = r.u32()?;
        if magic != ETC_MAGIC {
            return Err(format!("bad magic {magic:#x}, not an ETC blob"));
        }
        let k = r.u32()? as usize;
        if k == 0 {
            return Err("corrupt ETC data: recursive k must be at least 1".to_owned());
        }
        let vertices = r.u64_count()?;
        if vertices > u32::MAX as usize {
            return Err("corrupt ETC data: vertex count exceeds the u32 id range".to_owned());
        }
        let catalog_len = r.u64_count()?;
        let pair_count = r.u64_count()?;
        let timed_out = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(format!(
                    "corrupt ETC data: timed-out flag must be 0 or 1, found {other}"
                ))
            }
        };
        let catalog = MrCatalog::decode(&mut r, catalog_len, k)?;
        let pair_count = r.checked_len(pair_count, 12, "pair table")?;
        let mut closure: HashMap<(VertexId, VertexId), Vec<MrId>> =
            HashMap::with_capacity(pair_count);
        let mut records = 0usize;
        for _ in 0..pair_count {
            let (source, target) = (r.u32()?, r.u32()?);
            for id in [source, target] {
                if id as usize >= vertices {
                    return Err(format!(
                        "corrupt ETC data: vertex id {id} out of range for {vertices} vertices"
                    ));
                }
            }
            let count = r.u32()? as usize;
            let count = r.checked_len(count, 4, "pair MR list")?;
            let mrs: Vec<MrId> = r.u32s(count)?.into_iter().map(MrId).collect();
            if mrs.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(format!(
                    "corrupt ETC data: minimum repeats of pair ({source}, {target}) are not \
                     strictly increasing"
                ));
            }
            // Ascending, so the last id is the largest.
            if let Some(mr) = mrs.last().filter(|mr| mr.index() >= catalog.len()) {
                return Err(format!(
                    "corrupt ETC data: pair ({source}, {target}) references unknown \
                     minimum repeat {}",
                    mr.0
                ));
            }
            records += mrs.len();
            if closure.insert((source, target), mrs).is_some() {
                return Err(format!(
                    "corrupt ETC data: pair ({source}, {target}) appears twice"
                ));
            }
        }
        r.finish()?;
        let pairs = closure.len();
        Ok(EtcIndex {
            k,
            vertices,
            closure,
            catalog,
            stats: EtcStats {
                duration: Duration::ZERO,
                records,
                pairs,
                timed_out,
            },
            // A deserialized closure is a new index structure: artifacts
            // resolved against whatever produced the blob must re-prepare.
            generation: Generation::fresh(),
        })
    }
}

/// Binary format magic of [`EtcIndex::try_to_bytes`] ("ETC1").
const ETC_MAGIC: u32 = 0x4554_4331;

fn record(
    closure: &mut HashMap<(VertexId, VertexId), Vec<MrId>>,
    source: VertexId,
    target: VertexId,
    mr: MrId,
) -> bool {
    let mrs = closure.entry((source, target)).or_default();
    if mrs.contains(&mr) {
        false
    } else {
        mrs.push(mr);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_query;
    use rlc_core::repeats::enumerate_minimum_repeats;
    use rlc_core::{build_index, BuildConfig};
    use rlc_graph::examples::{fig1_graph, fig2_graph};
    use rlc_graph::generate::{erdos_renyi, SyntheticConfig};

    #[test]
    fn fig2_example_queries() {
        let g = fig2_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let q1 = RlcQuery::from_names(&g, "v3", "v6", &["l2", "l1"]).unwrap();
        assert!(etc.query(&q1));
        let q3 = RlcQuery::from_names(&g, "v1", "v3", &["l1"]).unwrap();
        assert!(!etc.query(&q3));
        assert!(etc.record_count() > 0);
        assert!(etc.memory_bytes() > 0);
        assert!(!etc.stats().timed_out);
    }

    #[test]
    fn agrees_with_online_bfs_on_fig1() {
        let g = fig1_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let all_mrs = enumerate_minimum_repeats(g.label_count(), 2);
        for s in g.vertices() {
            for t in g.vertices() {
                for mr in &all_mrs {
                    let q = RlcQuery::new(s, t, mr.clone()).unwrap();
                    assert_eq!(bfs_query(&g, &q), etc.query(&q), "({s},{t},{mr:?})");
                }
            }
        }
    }

    #[test]
    fn agrees_with_rlc_index_on_random_graph() {
        let g = erdos_renyi(&SyntheticConfig::new(70, 3.0, 3, 21));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let (rlc, _) = build_index(&g, &BuildConfig::new(2));
        let all_mrs = enumerate_minimum_repeats(3, 2);
        for s in (0..g.vertex_count() as u32).step_by(5) {
            for t in (0..g.vertex_count() as u32).step_by(7) {
                for mr in &all_mrs {
                    let q = RlcQuery::new(s, t, mr.clone()).unwrap();
                    assert_eq!(etc.query(&q), rlc.query(&q), "({s},{t},{mr:?})");
                }
            }
        }
    }

    #[test]
    fn etc_is_larger_than_rlc_index() {
        // The whole point of the RLC index (Table IV): the closure records
        // one entry per reachable pair and MR, the index only per hub.
        let g = erdos_renyi(&SyntheticConfig::new(150, 4.0, 4, 8));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let (rlc, _) = build_index(&g, &BuildConfig::new(2));
        assert!(
            etc.record_count() > rlc.entry_count(),
            "ETC ({}) should store more records than the RLC index ({})",
            etc.record_count(),
            rlc.entry_count()
        );
    }

    #[test]
    fn record_budget_truncates_build() {
        let g = erdos_renyi(&SyntheticConfig::new(200, 4.0, 4, 9));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2).with_max_records(10));
        assert!(etc.stats().timed_out);
    }

    #[test]
    fn time_budget_truncates_build() {
        let g = erdos_renyi(&SyntheticConfig::new(2000, 5.0, 4, 9));
        let etc = EtcIndex::build(
            &g,
            &EtcBuildConfig::new(2).with_time_budget(Duration::from_nanos(1)),
        );
        assert!(etc.stats().timed_out);
    }

    #[test]
    fn unknown_constraint_is_false() {
        let g = fig2_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let q = RlcQuery::new(0, 1, vec![Label(42)]).unwrap();
        assert!(!etc.query(&q));
    }

    #[test]
    fn binary_round_trip_preserves_every_answer() {
        let g = erdos_renyi(&SyntheticConfig::new(60, 3.0, 3, 77));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let blob = etc.try_to_bytes().unwrap();
        let restored = EtcIndex::from_bytes(&blob).unwrap();
        assert_eq!(restored.k(), etc.k());
        assert_eq!(restored.vertex_count(), etc.vertex_count());
        assert_eq!(restored.record_count(), etc.record_count());
        assert!(!restored.stats().timed_out);
        let all_mrs = enumerate_minimum_repeats(3, 2);
        for s in g.vertices() {
            for t in g.vertices() {
                for mr in &all_mrs {
                    let q = RlcQuery::new(s, t, mr.clone()).unwrap();
                    assert_eq!(etc.query(&q), restored.query(&q), "({s},{t},{mr:?})");
                }
            }
        }
        // Serialization is canonical: re-serializing the restored closure
        // yields the same bytes.
        assert_eq!(restored.try_to_bytes().unwrap(), blob);
    }

    #[test]
    fn deserialized_closures_get_fresh_generations() {
        // The ETC1 wire format never carries the generation: every
        // deserialization mints a fresh one, and the blob bytes are
        // independent of the source's stamp.
        let g = fig2_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let blob = etc.try_to_bytes().unwrap();
        let once = EtcIndex::from_bytes(&blob).unwrap();
        let twice = EtcIndex::from_bytes(&blob).unwrap();
        assert_ne!(once.generation(), etc.generation());
        assert_ne!(twice.generation(), etc.generation());
        assert_ne!(once.generation(), twice.generation());
        assert_eq!(once.try_to_bytes().unwrap(), blob);
        assert_eq!(etc.clone().generation(), etc.generation());
    }

    #[test]
    fn timed_out_flag_survives_the_round_trip() {
        let g = erdos_renyi(&SyntheticConfig::new(200, 4.0, 4, 9));
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2).with_max_records(10));
        assert!(etc.stats().timed_out);
        let restored = EtcIndex::from_bytes(&etc.try_to_bytes().unwrap()).unwrap();
        assert!(restored.stats().timed_out);
    }

    #[test]
    fn corrupt_blobs_are_rejected_with_descriptive_errors() {
        let g = fig2_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let blob = etc.try_to_bytes().unwrap();

        // Truncations at every prefix length must error, never panic.
        for len in 0..blob.len() {
            assert!(EtcIndex::from_bytes(&blob[..len]).is_err(), "prefix {len}");
        }

        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(EtcIndex::from_bytes(&bad).unwrap_err().contains("magic"));

        // k = 0.
        let mut bad = blob.clone();
        bad[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(EtcIndex::from_bytes(&bad).unwrap_err().contains("k"));

        // Oversized catalog count: must be caught by the division-form bound
        // before any allocation.
        let mut bad = blob.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(EtcIndex::from_bytes(&bad).is_err());

        // Oversized pair count.
        let mut bad = blob.clone();
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(EtcIndex::from_bytes(&bad).is_err());

        // Invalid timed-out flag.
        let mut bad = blob.clone();
        bad[32] = 7;
        assert!(EtcIndex::from_bytes(&bad)
            .unwrap_err()
            .contains("timed-out"));

        // Trailing bytes.
        let mut bad = blob.clone();
        bad.push(0);
        assert!(EtcIndex::from_bytes(&bad).unwrap_err().contains("trailing"));
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let g = fig2_graph();
        let etc = EtcIndex::build(&g, &EtcBuildConfig::new(2));
        let blob = etc.try_to_bytes().unwrap();
        // Shrink the declared vertex count to 1: every stored pair with a
        // vertex id >= 1 must now be rejected.
        let mut bad = blob.clone();
        bad[8..16].copy_from_slice(&1u64.to_le_bytes());
        assert!(EtcIndex::from_bytes(&bad)
            .unwrap_err()
            .contains("out of range"));
        // Shrink the catalog count to 0 while keeping the pair table: MR
        // references must fail to resolve... unless the catalog bytes are
        // reinterpreted as pairs first, which still errors structurally.
        let mut bad = blob;
        bad[16..24].copy_from_slice(&0u64.to_le_bytes());
        assert!(EtcIndex::from_bytes(&bad).is_err());
    }
}
