//! The RLC index data structure and its query algorithm (§V-A, Algorithm 1).
//!
//! The index assigns to every vertex `v` two sets of entries:
//!
//! * `Lout(v) = {(w, MR) | v ⇝ w with a path whose label sequence is MR^+}`
//! * `Lin(v)  = {(u, MR) | u ⇝ v with a path whose label sequence is MR^+}`
//!
//! A query `(s, t, L+)` is true iff `(t, L) ∈ Lout(s)`, `(s, L) ∈ Lin(t)`, or
//! some hub `x` has `(x, L) ∈ Lout(s)` and `(x, L) ∈ Lin(t)` (Definition 4).
//!
//! # Layout
//!
//! Each side is one packed CSR table ([`PackedSide`]): a `row_ptr` array of
//! `n + 1` offsets and one contiguous array of `u64` keys
//! `(mr << 32) | hub_rank`, where `hub_rank` is the hub's access id. Every
//! row is sorted ascending, so the entries of one minimum repeat form a
//! contiguous *run* ordered by hub rank, and the third case of Definition 4
//! is a merge join over the queried MR's two runs (Algorithm 1) that
//! compares whole keys — no per-entry access-id lookup and no entry of any
//! other MR touched. The same four arrays are the `RLC3` on-disk format
//! ([`RlcIndex::to_bytes`]). The builder stages entries in its own
//! append-only form and packs once ([`RlcIndex::from_rows`]).

use crate::catalog::{MrCatalog, MrId};
use crate::engine::Generation;
use crate::order::VertexOrder;
use crate::query::RlcQuery;
use rlc_graph::{Label, Reader, VertexId};

/// One labelling entry: a hub vertex and the minimum repeat of a witnessing
/// path between the owner of the entry and the hub.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IndexEntry {
    /// The hub vertex (the root of the kernel-based search that created the
    /// entry).
    pub hub: VertexId,
    /// Interned minimum repeat of the witnessing path.
    pub mr: MrId,
}

/// Summary statistics of a built index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// The recursive `k` the index was built for.
    pub k: usize,
    /// Number of vertices covered.
    pub vertices: usize,
    /// Total number of entries across all `Lin` sets.
    pub lin_entries: usize,
    /// Total number of entries across all `Lout` sets.
    pub lout_entries: usize,
    /// Number of distinct minimum repeats appearing in entries.
    pub distinct_mrs: usize,
    /// Resident memory footprint in bytes (see [`RlcIndex::memory_bytes`]).
    pub memory_bytes: usize,
    /// Footprint of the CSR-packed layout in bytes, the figure the paper's
    /// Table IV reports. The packed layout is the only one, so this always
    /// equals `memory_bytes`.
    pub csr_memory_bytes: usize,
    /// Largest `|Lin(v)| + |Lout(v)|` over all vertices.
    pub max_entries_per_vertex: usize,
}

impl IndexStats {
    /// Total entries (`Lin` + `Lout`).
    pub fn total_entries(&self) -> usize {
        self.lin_entries + self.lout_entries
    }

    /// Resident memory footprint in mebibytes.
    pub fn memory_megabytes(&self) -> f64 {
        self.memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// CSR-packed footprint in mebibytes, as reported in Table IV.
    pub fn csr_memory_megabytes(&self) -> f64 {
        self.csr_memory_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// The sort key of an entry inside its row: minimum repeat in the high half,
/// the hub's access id in the low half. The builder stages entries in the
/// same form.
#[inline]
pub(crate) fn pack_key(mr: MrId, hub_rank: u32) -> u64 {
    (u64::from(mr.0) << 32) | u64::from(hub_rank)
}

#[inline]
pub(crate) fn key_mr(key: u64) -> MrId {
    MrId((key >> 32) as u32)
}

#[inline]
pub(crate) fn key_rank(key: u64) -> u32 {
    key as u32
}

/// The keys of `row` that carry `mr`: one contiguous run, because rows are
/// sorted by key and the minimum repeat is the key's high half.
#[inline]
fn mr_run(row: &[u64], mr: MrId) -> &[u64] {
    let tail = &row[row.partition_point(|&key| key_mr(key) < mr)..];
    &tail[..tail.partition_point(|&key| key_mr(key) == mr)]
}

/// One side of the labelling — every `Lout` row or every `Lin` row — in
/// packed CSR form.
#[derive(Debug, Clone)]
struct PackedSide {
    /// `row_ptr[v]..row_ptr[v + 1]` is the key range of vertex `v`; `n + 1`
    /// offsets, the last one equal to `keys.len()`.
    row_ptr: Vec<u32>,
    /// `(mr << 32) | hub_rank` per entry, strictly increasing within a row.
    keys: Vec<u64>,
}

impl PackedSide {
    /// Packs per-vertex rows of keys given in vertex-id order.
    fn from_rows<R>(rows: impl IntoIterator<Item = R>, order: &VertexOrder) -> Self
    where
        R: IntoIterator<Item = u64>,
    {
        let mut row_ptr = Vec::with_capacity(order.len() + 1);
        row_ptr.push(0u32);
        let mut keys: Vec<u64> = Vec::new();
        for row in rows {
            let start = keys.len();
            keys.extend(row);
            keys[start..].sort_unstable();
            debug_assert!(
                keys[start..].windows(2).all(|pair| pair[0] < pair[1]),
                "a row never holds the same (hub, MR) entry twice"
            );
            assert!(
                u32::try_from(keys.len()).is_ok(),
                "one side of the index exceeds the 2^32 entries a row offset can address"
            );
            row_ptr.push(keys.len() as u32);
        }
        assert_eq!(row_ptr.len(), order.len() + 1, "one row per vertex");
        keys.shrink_to_fit();
        PackedSide { row_ptr, keys }
    }

    #[inline]
    fn row(&self, v: usize) -> &[u64] {
        &self.keys[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize]
    }

    fn memory_bytes(&self) -> usize {
        self.row_ptr.capacity() * std::mem::size_of::<u32>()
            + self.keys.capacity() * std::mem::size_of::<u64>()
    }

    /// Reads one side of `n` rows holding `entries` keys, and checks it
    /// against every invariant the query procedure relies on; `side` names
    /// it in errors.
    fn decode(
        r: &mut Reader<'_>,
        n: usize,
        entries: usize,
        catalog_len: usize,
        side: &str,
    ) -> Result<Self, String> {
        let offsets = r.checked_len(n + 1, 4, "row offsets")?;
        let row_ptr = r.u32s(offsets)?;
        let entries = r.checked_len(entries, 8, "entry keys")?;
        let keys = r.u64s(entries)?;
        let packed = PackedSide { row_ptr, keys };
        packed.validate(side, catalog_len)?;
        Ok(packed)
    }

    /// The checks of [`PackedSide::decode`]. Kept out of line: inlined into
    /// the decoder, its key loop measured about 5 % slower.
    #[inline(never)]
    fn validate(&self, side: &str, catalog_len: usize) -> Result<(), String> {
        let n = self.row_ptr.len() - 1;
        if self.row_ptr[0] != 0
            || self.row_ptr[n] as usize != self.keys.len()
            || self.row_ptr.windows(2).any(|pair| pair[0] > pair[1])
        {
            return Err(format!(
                "corrupt index data: {side} row offsets are not monotone from 0 to the {} \
                 entries the side holds",
                self.keys.len()
            ));
        }
        for v in 0..n {
            let mut previous: Option<u64> = None;
            for &key in self.row(v) {
                if previous >= Some(key) {
                    return Err(format!(
                        "corrupt index data: {side} entries of vertex {v} are not strictly \
                         increasing by (minimum repeat, hub rank), so the merge join would \
                         miss or double-count them"
                    ));
                }
                if key_rank(key) as usize >= n {
                    return Err(format!(
                        "corrupt index data: {side} entry of vertex {v} has hub rank {} out of \
                         range for {n} vertices",
                        key_rank(key)
                    ));
                }
                if key_mr(key).index() >= catalog_len {
                    return Err(format!(
                        "corrupt index data: {side} entry of vertex {v} references unknown \
                         minimum repeat {}",
                        key_mr(key).0
                    ));
                }
                previous = Some(key);
            }
        }
        Ok(())
    }
}

/// A borrowed view of one `Lin(v)` or `Lout(v)` row, yielding
/// [`IndexEntry`] values in row order: ascending minimum-repeat id, then
/// ascending hub access id.
#[derive(Debug, Clone, Copy)]
pub struct EntryRow<'a> {
    keys: &'a [u64],
    /// The vertex order's processing sequence: hub rank → hub vertex.
    sequence: &'a [VertexId],
}

impl<'a> EntryRow<'a> {
    /// Number of entries in the row.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the row has no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The row's entries that carry `mr` (ascending hub access id).
    pub fn run(&self, mr: MrId) -> EntryRow<'a> {
        EntryRow {
            keys: mr_run(self.keys, mr),
            sequence: self.sequence,
        }
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> EntryIter<'a> {
        EntryIter {
            keys: self.keys.iter(),
            sequence: self.sequence,
        }
    }
}

impl<'a> IntoIterator for EntryRow<'a> {
    type Item = IndexEntry;
    type IntoIter = EntryIter<'a>;

    fn into_iter(self) -> EntryIter<'a> {
        self.iter()
    }
}

/// Iterator over the entries of an [`EntryRow`].
#[derive(Debug, Clone)]
pub struct EntryIter<'a> {
    keys: std::slice::Iter<'a, u64>,
    sequence: &'a [VertexId],
}

impl Iterator for EntryIter<'_> {
    type Item = IndexEntry;

    fn next(&mut self) -> Option<IndexEntry> {
        self.keys.next().map(|&key| IndexEntry {
            hub: self.sequence[key_rank(key) as usize],
            mr: key_mr(key),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl ExactSizeIterator for EntryIter<'_> {}

/// The target half of a query `(·, t, mr+)`, resolved once: `Lin(t)`'s run
/// for the minimum repeat and the key a direct `(t, mr)` entry would have.
/// Callers that test many sources against one target (the hybrid evaluator's
/// frontier loop, the sharded stitcher's local fast path) build it once per
/// query and call [`TargetProbe::reached_from`] per source.
#[derive(Clone, Copy)]
pub struct TargetProbe<'a> {
    index: &'a RlcIndex,
    lin_run: &'a [u64],
    target_key: u64,
}

impl TargetProbe<'_> {
    /// Whether `(s, t, mr+)` holds (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics when `s` is outside the indexed vertex range.
    #[inline]
    pub fn reached_from(&self, s: VertexId) -> bool {
        let index = self.index;
        let mr = key_mr(self.target_key);
        let lout_run = mr_run(index.lout.row(s as usize), mr);
        // Case 2 of Definition 4: direct entries.
        let source_key = pack_key(mr, index.order.aid(s));
        if lout_run.binary_search(&self.target_key).is_ok()
            || self.lin_run.binary_search(&source_key).is_ok()
        {
            return true;
        }
        // Case 1: merge join over the two runs. Both carry the same minimum
        // repeat, so comparing keys compares hub access ids.
        let (mut out, mut inn) = (lout_run, self.lin_run);
        while let (Some(a), Some(b)) = (out.first(), inn.first()) {
            match a.cmp(b) {
                std::cmp::Ordering::Less => out = &out[1..],
                std::cmp::Ordering::Greater => inn = &inn[1..],
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// The RLC index of a graph, built by [`crate::build::build_index`] or
/// loaded by [`RlcIndex::from_bytes`].
#[derive(Debug, Clone)]
pub struct RlcIndex {
    k: usize,
    order: VertexOrder,
    catalog: MrCatalog,
    lout: PackedSide,
    lin: PackedSide,
    /// Construction-time generation stamp (see [`Generation`]). Never
    /// serialized — the `RLC3` wire format does not carry it — so a loaded
    /// index can never impersonate a live one. `Clone` copies the stamp:
    /// clones share content, so artifacts resolved against one are valid
    /// against the other.
    generation: Generation,
}

impl RlcIndex {
    /// Packs per-vertex rows of [`pack_key`] keys (vertex-id order, keys in
    /// any order, no key twice in a row) into an index. The one constructor
    /// besides [`RlcIndex::from_bytes`]: the builder calls it once, after its
    /// last root.
    ///
    /// # Panics
    ///
    /// Panics when either side does not supply exactly one row per vertex
    /// of `order`, or holds 2^32 entries or more.
    pub(crate) fn from_rows<A, B>(
        k: usize,
        order: VertexOrder,
        catalog: MrCatalog,
        lout: impl IntoIterator<Item = A>,
        lin: impl IntoIterator<Item = B>,
    ) -> Self
    where
        A: IntoIterator<Item = u64>,
        B: IntoIterator<Item = u64>,
    {
        let lout = PackedSide::from_rows(lout, &order);
        let lin = PackedSide::from_rows(lin, &order);
        RlcIndex {
            k,
            order,
            catalog,
            lout,
            lin,
            generation: Generation::fresh(),
        }
    }

    /// [`RlcIndex::from_rows`] over rows of entries naming their hubs by
    /// vertex id, for tests that hand-roll an index.
    #[cfg(test)]
    pub(crate) fn from_entry_rows<A, B>(
        k: usize,
        order: VertexOrder,
        catalog: MrCatalog,
        lout: impl IntoIterator<Item = A>,
        lin: impl IntoIterator<Item = B>,
    ) -> Self
    where
        A: IntoIterator<Item = IndexEntry>,
        B: IntoIterator<Item = IndexEntry>,
    {
        let key = |entry: IndexEntry| pack_key(entry.mr, order.aid(entry.hub));
        let lout: Vec<Vec<u64>> = lout
            .into_iter()
            .map(|row| row.into_iter().map(key).collect())
            .collect();
        let lin: Vec<Vec<u64>> = lin
            .into_iter()
            .map(|row| row.into_iter().map(key).collect())
            .collect();
        RlcIndex::from_rows(k, order, catalog, lout, lin)
    }

    /// The recursive `k` this index supports: queries may use constraints of
    /// at most this many labels.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The generation stamp minted when this index structure was
    /// constructed (fresh on every build **and** every deserialization).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of vertices covered by the index.
    pub fn vertex_count(&self) -> usize {
        self.order.len()
    }

    /// The vertex processing order used to build the index.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// The catalog of minimum repeats referenced by entries.
    pub fn catalog(&self) -> &MrCatalog {
        &self.catalog
    }

    fn entry_row<'a>(&'a self, side: &'a PackedSide, v: VertexId) -> EntryRow<'a> {
        EntryRow {
            keys: side.row(v as usize),
            sequence: &self.order.sequence,
        }
    }

    /// The `Lin` entries of `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is outside the indexed vertex range.
    pub fn lin(&self, v: VertexId) -> EntryRow<'_> {
        self.entry_row(&self.lin, v)
    }

    /// The `Lout` entries of `v` (same contract as [`RlcIndex::lin`]).
    pub fn lout(&self, v: VertexId) -> EntryRow<'_> {
        self.entry_row(&self.lout, v)
    }

    /// Whether the index can answer a query with this constraint length.
    pub fn supports(&self, query: &RlcQuery) -> bool {
        !query.constraint.is_empty() && query.constraint.len() <= self.k
    }

    /// Answers an RLC query `(s, t, L+)` (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if the constraint is longer than the index's `k`; use
    /// [`RlcIndex::supports`] to check first when the constraint length is
    /// not statically known.
    pub fn query(&self, query: &RlcQuery) -> bool {
        assert!(
            self.supports(query),
            "constraint of length {} exceeds index recursive k = {}",
            query.constraint.len(),
            self.k
        );
        match self.catalog.resolve(&query.constraint) {
            // A constraint never recorded anywhere in the graph cannot be
            // satisfied by any path (completeness of the index).
            None => false,
            Some(mr) => self.query_interned(query.source, query.target, mr),
        }
    }

    /// Answers the Kleene-star variant `(s, t, L*)`, which additionally holds
    /// when `s = t` (the empty path).
    pub fn query_star(&self, query: &RlcQuery) -> bool {
        query.source == query.target || self.query(query)
    }

    /// Convenience wrapper: answers `(s, t, constraint+)` for a raw label
    /// slice, reducing it to its minimum repeat is *not* performed — the
    /// caller must pass a minimum repeat (as [`RlcQuery::new`] enforces).
    pub fn reaches(&self, source: VertexId, target: VertexId, constraint: &[Label]) -> bool {
        let query = RlcQuery::new(source, target, constraint.to_vec())
            // rlc-analyze: allow(panic-free-library) — documented precondition of this convenience wrapper; callers wanting an error path use RlcQuery::new directly
            .expect("constraint must be a non-empty minimum repeat");
        self.query(&query)
    }

    /// Resolves the target half of `(·, t, mr+)` once, for callers that test
    /// many sources against it (see [`TargetProbe`]).
    ///
    /// # Panics
    ///
    /// Panics when `t` is outside the indexed vertex range.
    #[inline]
    pub fn target_probe(&self, t: VertexId, mr: MrId) -> TargetProbe<'_> {
        TargetProbe {
            index: self,
            lin_run: mr_run(self.lin.row(t as usize), mr),
            target_key: pack_key(mr, self.order.aid(t)),
        }
    }

    /// Answers `(s, t, mr+)` for an already-resolved minimum repeat — the
    /// execute half of the prepare/execute split, mirroring
    /// `EtcIndex::query_mr`. The resolution against [`RlcIndex::catalog`]
    /// happens once at prepare time; callers holding an [`MrId`] (the engine
    /// layer, the sharded stitcher in `rlc-shard`) skip the per-call lookup.
    ///
    /// # Panics
    ///
    /// Panics when a vertex id is outside the indexed range (like
    /// [`RlcIndex::lin`]/[`RlcIndex::lout`]); engines range-check ids before
    /// calling.
    #[inline]
    pub fn query_mr(&self, s: VertexId, t: VertexId, mr: MrId) -> bool {
        self.query_interned(s, t, mr)
    }

    /// Core query procedure over an interned constraint: find the queried
    /// minimum repeat's run in `Lin(t)` and in `Lout(s)`, check the two
    /// direct keys, merge-join the runs.
    #[inline]
    pub(crate) fn query_interned(&self, s: VertexId, t: VertexId, mr: MrId) -> bool {
        self.target_probe(t, mr).reached_from(s)
    }

    /// Total number of entries.
    pub fn entry_count(&self) -> usize {
        self.lin.keys.len() + self.lout.keys.len()
    }

    /// Resident heap footprint in bytes, priced exactly: the two sides' row
    /// offsets and keys, the vertex-order arrays, and the MR catalog.
    pub fn memory_bytes(&self) -> usize {
        self.lout.memory_bytes()
            + self.lin.memory_bytes()
            + self.order.sequence.capacity() * std::mem::size_of::<VertexId>()
            + self.order.aid.capacity() * std::mem::size_of::<u32>()
            + self.catalog.memory_bytes()
    }

    /// Footprint of the CSR-packed layout in bytes, the figure Table IV-style
    /// reproductions report. The packed layout is the resident one, so this
    /// is [`RlcIndex::memory_bytes`].
    pub fn csr_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> IndexStats {
        let row_len = |side: &PackedSide, v: usize| side.row_ptr[v + 1] - side.row_ptr[v];
        let max_entries_per_vertex = (0..self.vertex_count())
            .map(|v| (row_len(&self.lin, v) + row_len(&self.lout, v)) as usize)
            .max()
            .unwrap_or(0);
        IndexStats {
            k: self.k,
            vertices: self.vertex_count(),
            lin_entries: self.lin.keys.len(),
            lout_entries: self.lout.keys.len(),
            distinct_mrs: self.catalog.len(),
            memory_bytes: self.memory_bytes(),
            csr_memory_bytes: self.csr_memory_bytes(),
            max_entries_per_vertex,
        }
    }

    /// Counts entries that are redundant in the sense of Definition 5: an
    /// entry is redundant if the reachability fact it encodes is already
    /// answerable through the remaining entries.
    ///
    /// Theorem 2 states the index built with all pruning rules enabled has no
    /// redundant entries (it is *condensed*); this is asserted in tests and
    /// exercised by the pruning ablation.
    pub fn redundant_entries(&self) -> usize {
        let mut redundant = 0;
        for v in 0..self.vertex_count() as VertexId {
            for entry in self.lin(v) {
                // Without (hub, mr) ∈ Lin(v): Case 2 via Lout(hub), or Case 1
                // through any hub other than the entry's own.
                let (s, t) = (entry.hub, v);
                if self.holds(&self.lout, s, t, entry.mr) || self.join_hub_exists(s, t, entry.mr, s)
                {
                    redundant += 1;
                }
            }
            for entry in self.lout(v) {
                let (s, t) = (v, entry.hub);
                if self.holds(&self.lin, t, s, entry.mr) || self.join_hub_exists(s, t, entry.mr, t)
                {
                    redundant += 1;
                }
            }
        }
        redundant
    }

    /// Whether the index contains no redundant entries (Theorem 2).
    pub fn is_condensed(&self) -> bool {
        self.redundant_entries() == 0
    }

    /// Whether `(hub, mr)` is an entry of `owner`'s row on `side`.
    fn holds(&self, side: &PackedSide, owner: VertexId, hub: VertexId, mr: MrId) -> bool {
        let key = pack_key(mr, self.order.aid(hub));
        side.row(owner as usize).binary_search(&key).is_ok()
    }

    /// Whether some hub other than `exclude` has `(hub, mr)` in both
    /// `Lout(s)` and `Lin(t)`.
    fn join_hub_exists(&self, s: VertexId, t: VertexId, mr: MrId, exclude: VertexId) -> bool {
        let excluded = pack_key(mr, self.order.aid(exclude));
        let lin_run = mr_run(self.lin.row(t as usize), mr);
        mr_run(self.lout.row(s as usize), mr)
            .iter()
            .any(|key| *key != excluded && lin_run.binary_search(key).is_ok())
    }

    /// Serializes the index to its binary representation (format version 3,
    /// magic `"RLC3"`): the packed arrays exactly as they sit in memory.
    ///
    /// Layout, all integers little-endian: a header (magic, `k` as `u32`,
    /// then vertex count `n`, catalog size, `Lout` entry count and `Lin`
    /// entry count as `u64`), the catalog section ([`MrCatalog::encode`]),
    /// the vertex order (`n` × `u32`, the vertex at each access id), then
    /// per side — `Lout` first — the `n + 1` row offsets (`u32`) and the
    /// entry keys (`u64`, `(mr << 32) | hub_rank`, strictly increasing
    /// within a row).
    ///
    /// Returns an explicit error instead of silently truncating when a field
    /// exceeds its on-disk width (`k` beyond `u32`, or a catalog sequence
    /// longer than `u16::MAX` labels).
    pub fn try_to_bytes(&self) -> Result<Vec<u8>, String> {
        let k = u32::try_from(self.k).map_err(|_| format!("recursive k {} exceeds u32", self.k))?;
        let mut buf = Vec::with_capacity(self.memory_bytes());
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&k.to_le_bytes());
        for count in [
            self.vertex_count(),
            self.catalog.len(),
            self.lout.keys.len(),
            self.lin.keys.len(),
        ] {
            buf.extend_from_slice(&(count as u64).to_le_bytes());
        }
        self.catalog.encode(&mut buf)?;
        for &v in &self.order.sequence {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for side in [&self.lout, &self.lin] {
            for &offset in &side.row_ptr {
                buf.extend_from_slice(&offset.to_le_bytes());
            }
            for &key in &side.keys {
                buf.extend_from_slice(&key.to_le_bytes());
            }
        }
        Ok(buf)
    }

    /// Serializes the index, panicking on field overflow (see
    /// [`RlcIndex::try_to_bytes`] for the fallible variant; overflow needs a
    /// recursive `k` beyond 65 535, so the panic is theoretical).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.try_to_bytes()
            // rlc-analyze: allow(panic-free-library) — documented panicking wrapper; the fallible twin is try_to_bytes, and overflow needs a recursive k beyond 65 535
            .expect("index exceeds binary format field widths")
    }

    /// Deserializes an index produced by [`RlcIndex::to_bytes`].
    ///
    /// Each array is decoded in bulk after its declared count has been
    /// bounded by the bytes actually present, then one pass validates every
    /// invariant the query procedure relies on: magic/version, `k ≥ 1`,
    /// catalog sequences distinct minimum repeats of at most `k` labels, the
    /// vertex order a bijection over the vertex ids, row offsets monotone
    /// from 0 to the declared entry count, keys strictly increasing within
    /// each row (the merge-join order, which also rules out duplicates),
    /// every hub rank below the vertex count, every minimum-repeat id inside
    /// the catalog, and no trailing bytes. Corrupt or truncated blobs yield
    /// a descriptive error, never a panic or a silently wrong index. Blobs
    /// of the retired `RLC2`/`RLC1` formats are recognised only to say so.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(data);
        match r.u32()? {
            MAGIC => {}
            magic @ (MAGIC_V1 | MAGIC_V2) => {
                return Err(format!(
                    "unsupported RLC index format version {}; rebuild and re-serialize the index",
                    magic - MAGIC_V1 + 1
                ))
            }
            magic => return Err(format!("bad magic {magic:#x}, not an RLC index blob")),
        }
        let k = r.u32()? as usize;
        if k == 0 {
            return Err("corrupt index data: recursive k must be at least 1".to_owned());
        }
        let n = r.u64_count()?;
        let catalog_len = r.u64_count()?;
        let lout_entries = r.u64_count()?;
        let lin_entries = r.u64_count()?;
        let catalog = MrCatalog::decode(&mut r, catalog_len, k)?;
        let n = r.checked_len(n, 4, "vertex order")?;
        let sequence = r.u32s(n)?;
        // The order must be a bijection between positions and vertex ids:
        // every id in range and none repeated (with exactly n positions this
        // also rules out missing ids, which would otherwise silently keep the
        // default access id 0 and corrupt every rank comparison downstream).
        let mut aid = vec![u32::MAX; n];
        for (pos, &v) in sequence.iter().enumerate() {
            let Some(slot) = aid.get_mut(v as usize) else {
                return Err(format!(
                    "corrupt index data: vertex order entry {pos} names vertex {v}, out of \
                     range for {n} vertices"
                ));
            };
            if *slot != u32::MAX {
                return Err(format!(
                    "corrupt index data: vertex {v} appears twice in the vertex order \
                     (positions {} and {pos}), so the order is not a permutation",
                    *slot
                ));
            }
            *slot = pos as u32;
        }
        let order = VertexOrder { sequence, aid };
        let lout = PackedSide::decode(&mut r, n, lout_entries, catalog.len(), "Lout")?;
        let lin = PackedSide::decode(&mut r, n, lin_entries, catalog.len(), "Lin")?;
        r.finish()?;
        Ok(RlcIndex {
            k,
            order,
            catalog,
            lout,
            lin,
            // A deserialized index is a new index structure: stale artifacts
            // from whatever produced the blob must re-prepare against it.
            generation: Generation::fresh(),
        })
    }

    /// Human-readable dump of all entries, with vertex/label names resolved
    /// against `graph` when available. Intended for debugging and examples.
    pub fn describe(&self, graph: &rlc_graph::LabeledGraph) -> String {
        let mut out = String::new();
        let vertex = |v: VertexId| {
            graph
                .vertex_name(v)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("v{v}"))
        };
        let mr = |id: MrId| {
            let seq = self.catalog.sequence(id);
            let parts: Vec<String> = seq
                .iter()
                .map(|l| {
                    graph
                        .labels()
                        .name(*l)
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("{l}"))
                })
                .collect();
            format!("({})", parts.join(","))
        };
        for v in 0..self.vertex_count() as VertexId {
            let fmt_entries = |entries: EntryRow<'_>| {
                entries
                    .iter()
                    .map(|e| format!("({},{})", vertex(e.hub), mr(e.mr)))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "{}: Lin = [{}], Lout = [{}]\n",
                vertex(v),
                fmt_entries(self.lin(v)),
                fmt_entries(self.lout(v)),
            ));
        }
        out
    }
}

/// Current binary format magic ("RLC3"): version 3 stores the packed CSR
/// arrays the index holds in memory; versions 1 and 2 stored per-vertex
/// entry lists in hub order.
const MAGIC: u32 = 0x524C_4333; // "RLC3"
/// Retired format magics, recognized only to produce a version error.
const MAGIC_V1: u32 = 0x524C_4331; // "RLC1"
const MAGIC_V2: u32 = 0x524C_4332; // "RLC2"
#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::order::{compute_order, OrderingStrategy};
    use rlc_graph::examples::fig2_graph;

    /// Magic, `k`, and the four `u64` counts.
    const HEADER_BYTES: usize = 4 + 4 + 4 * 8;

    /// Builds a tiny hand-rolled index for the two-vertex graph a -x-> b to
    /// exercise the query procedure without the builder.
    fn tiny_index() -> RlcIndex {
        let mut b = rlc_graph::GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        let g = b.build();
        let order = compute_order(&g, OrderingStrategy::InOutDegree);
        let x = g.labels().resolve("x").unwrap();
        let mut catalog = MrCatalog::new();
        let mr = catalog.intern(&[x]);
        let a = g.vertex_id("a").unwrap();
        assert_eq!((a, g.vertex_id("b").unwrap()), (0, 1));
        // Record a ⇝ b with (x)+ as a Case-2 entry on the Lin side.
        RlcIndex::from_entry_rows(
            2,
            order,
            catalog,
            [None, None],
            [None, Some(IndexEntry { hub: a, mr })],
        )
    }

    #[test]
    fn case2_entries_answer_queries() {
        let index = tiny_index();
        assert!(index.query_interned(0, 1, MrId(0)));
        assert!(!index.query_interned(1, 0, MrId(0)));
    }

    #[test]
    fn unknown_constraint_is_false() {
        let index = tiny_index();
        let q = RlcQuery::new(0, 1, vec![Label(99)]).unwrap();
        assert!(!index.query(&q));
    }

    #[test]
    #[should_panic(expected = "exceeds index recursive k")]
    fn over_long_constraint_panics() {
        let index = tiny_index();
        let q = RlcQuery::new(0, 1, vec![Label(0), Label(1), Label(2)]).unwrap();
        index.query(&q);
    }

    #[test]
    fn query_star_accepts_identical_endpoints() {
        let index = tiny_index();
        let q = RlcQuery::new(0, 0, vec![Label(5)]).unwrap();
        assert!(index.query_star(&q));
        assert!(!index.query(&q));
    }

    #[test]
    fn merge_join_finds_common_hub() {
        let mut b = rlc_graph::GraphBuilder::new();
        b.add_edge_named("s", "x", "h");
        b.add_edge_named("h", "x", "t");
        let g = b.build();
        let order = compute_order(&g, OrderingStrategy::InOutDegree);
        let x = g.labels().resolve("x").unwrap();
        let mut catalog = MrCatalog::new();
        let mr = catalog.intern(&[x]);
        let other = catalog.intern(&[Label(9)]);
        let s = g.vertex_id("s").unwrap();
        let h = g.vertex_id("h").unwrap();
        let t = g.vertex_id("t").unwrap();
        let only = |owner| {
            g.vertices()
                .map(move |v| (v == owner).then_some(IndexEntry { hub: h, mr }))
        };
        let index = RlcIndex::from_entry_rows(2, order, catalog, only(s), only(t));
        assert!(index.query_interned(s, t, mr));
        // A different constraint through the same hub must not match.
        assert!(!index.query_interned(s, t, other));
        // The probe form answers the same, target resolved once.
        let probe = index.target_probe(t, mr);
        assert!(probe.reached_from(s));
        assert!(!probe.reached_from(t));
    }

    #[test]
    fn row_views_yield_entries_by_minimum_repeat_then_hub_rank() {
        let g = fig2_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let mut seen = 0;
        for v in g.vertices() {
            for row in [index.lin(v), index.lout(v)] {
                let entries: Vec<IndexEntry> = row.iter().collect();
                assert_eq!(entries.len(), row.len());
                assert_eq!(row.is_empty(), entries.is_empty());
                let sort_keys: Vec<(MrId, u32)> = entries
                    .iter()
                    .map(|e| (e.mr, index.order().aid(e.hub)))
                    .collect();
                assert!(sort_keys.windows(2).all(|pair| pair[0] < pair[1]));
                for (mr, _) in index.catalog().iter() {
                    let run: Vec<IndexEntry> = row.run(mr).into_iter().collect();
                    let filtered: Vec<IndexEntry> =
                        entries.iter().copied().filter(|e| e.mr == mr).collect();
                    assert_eq!(run, filtered);
                }
                seen += entries.len();
            }
        }
        assert_eq!(seen, index.entry_count());
    }

    #[test]
    fn binary_round_trip_preserves_queries() {
        let g = fig2_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let bytes = index.to_bytes();
        let back = RlcIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.k(), index.k());
        assert_eq!(back.entry_count(), index.entry_count());
        assert_eq!(back.memory_bytes(), index.memory_bytes());
        for s in g.vertices() {
            for t in g.vertices() {
                for (_, seq) in index.catalog().iter() {
                    let q = RlcQuery::new(s, t, seq.to_vec()).unwrap();
                    assert_eq!(index.query(&q), back.query(&q));
                }
            }
        }
    }

    #[test]
    fn deserialized_indexes_get_fresh_generations() {
        // The wire format never carries generations: every deserialization
        // mints a fresh one, so a loaded index can never be confused with
        // the (possibly dropped) index that produced the blob — and the blob
        // itself is byte-identical regardless of the source's generation.
        let g = fig2_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let bytes = index.to_bytes();
        let once = RlcIndex::from_bytes(&bytes).unwrap();
        let twice = RlcIndex::from_bytes(&bytes).unwrap();
        assert_ne!(once.generation(), index.generation());
        assert_ne!(twice.generation(), index.generation());
        assert_ne!(once.generation(), twice.generation());
        assert_eq!(
            once.to_bytes(),
            bytes,
            "generation must not leak into the blob"
        );
        // Clones share content, so they share the stamp.
        assert_eq!(index.clone().generation(), index.generation());
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(RlcIndex::from_bytes(&[1, 2, 3]).is_err());
        let mut blob = tiny_index().to_bytes();
        blob[0] ^= 0xFF;
        assert!(RlcIndex::from_bytes(&blob).is_err());
        let blob = tiny_index().to_bytes();
        assert!(RlcIndex::from_bytes(&blob[..blob.len() - 3]).is_err());
    }

    /// Byte offsets of the sections of `index.to_bytes()`.
    struct Layout {
        order: usize,
        lout_ptr: usize,
        lout_keys: usize,
        lin_ptr: usize,
        lin_keys: usize,
    }

    fn layout(index: &RlcIndex) -> Layout {
        let catalog: usize = index.catalog().iter().map(|(_, s)| 2 + 2 * s.len()).sum();
        let offsets = 4 * (index.vertex_count() + 1);
        let order = HEADER_BYTES + catalog;
        let lout_ptr = order + 4 * index.vertex_count();
        let lout_keys = lout_ptr + offsets;
        let lin_ptr = lout_keys + 8 * index.lout.keys.len();
        Layout {
            order,
            lout_ptr,
            lout_keys,
            lin_ptr,
            lin_keys: lin_ptr + offsets,
        }
    }

    /// The Fig. 2 index, its blob, and the first `Lout` row holding at least
    /// two entries as `(byte offset of its first key, entry count)`.
    fn fig2_blob() -> (RlcIndex, Vec<u8>, (usize, usize)) {
        let (index, _) = build_index(&fig2_graph(), &BuildConfig::new(2));
        let blob = index.to_bytes();
        let at = layout(&index);
        assert_eq!(at.lin_keys + 8 * index.lin.keys.len(), blob.len());
        let ptr = &index.lout.row_ptr;
        let v = (0..index.vertex_count())
            .find(|&v| ptr[v + 1] - ptr[v] >= 2)
            .expect("some Lout row of Fig. 2 holds two entries");
        let row = (
            at.lout_keys + 8 * ptr[v] as usize,
            (ptr[v + 1] - ptr[v]) as usize,
        );
        (index, blob, row)
    }

    fn put(blob: &mut [u8], at: usize, bytes: &[u8]) {
        blob[at..at + bytes.len()].copy_from_slice(bytes);
    }

    fn rejected(blob: &[u8], expected: &str) {
        let err = RlcIndex::from_bytes(blob).unwrap_err();
        assert!(err.contains(expected), "unexpected error: {err}");
    }

    #[test]
    fn from_bytes_rejects_swapped_entries() {
        // The loader hole: two entries of one row exchanged. The `RLC2`
        // loader accepted the equivalent blob and the merge join then
        // answered `false` for true pairs.
        let (_, mut blob, (row, _)) = fig2_blob();
        let (first, second) = (
            blob[row..row + 8].to_vec(),
            blob[row + 8..row + 16].to_vec(),
        );
        put(&mut blob, row, &second);
        put(&mut blob, row + 8, &first);
        rejected(&blob, "strictly increasing");
    }

    #[test]
    fn from_bytes_rejects_duplicate_entries() {
        let (_, mut blob, (row, _)) = fig2_blob();
        let first = blob[row..row + 8].to_vec();
        put(&mut blob, row + 8, &first);
        rejected(&blob, "strictly increasing");
    }

    #[test]
    fn from_bytes_rejects_non_monotone_row_offsets() {
        let (index, mut blob, _) = fig2_blob();
        let at = layout(&index);
        // Row 1 starts beyond where row 2 starts: inside the key array, but
        // running backwards.
        let beyond = index.lin.row_ptr[2] + 1;
        assert!((beyond as usize) <= index.lin.keys.len());
        put(&mut blob, at.lin_ptr + 4, &beyond.to_le_bytes());
        rejected(&blob, "row offsets");
    }

    #[test]
    fn from_bytes_rejects_row_offsets_not_ending_at_the_entry_count() {
        let (index, blob, _) = fig2_blob();
        let at = layout(&index);
        let n = index.vertex_count();
        // Last offset one short of the keys present…
        let mut short = blob.clone();
        let last = index.lout.row_ptr[n] - 1;
        put(&mut short, at.lout_ptr + 4 * n, &last.to_le_bytes());
        rejected(&short, "row offsets");
        // …far beyond them (a row slice would run off the array)…
        let mut beyond = blob.clone();
        put(&mut beyond, at.lout_ptr + 4 * n, &u32::MAX.to_le_bytes());
        rejected(&beyond, "row offsets");
        // …and a first offset that skips entries.
        let mut skipped = blob;
        put(&mut skipped, at.lout_ptr, &1u32.to_le_bytes());
        rejected(&skipped, "row offsets");
    }

    #[test]
    fn from_bytes_rejects_out_of_range_hub_rank() {
        let (index, mut blob, (row, len)) = fig2_blob();
        // Raise the rank of the row's last key (keeping the row sorted) to
        // the vertex count.
        let last = row + 8 * (len - 1);
        put(
            &mut blob,
            last,
            &(index.vertex_count() as u32).to_le_bytes(),
        );
        rejected(&blob, "hub rank");
    }

    #[test]
    fn from_bytes_rejects_unknown_minimum_repeat_id() {
        let (index, mut blob, (row, len)) = fig2_blob();
        let last = row + 8 * (len - 1);
        put(
            &mut blob,
            last + 4,
            &(index.catalog().len() as u32).to_le_bytes(),
        );
        rejected(&blob, "unknown minimum repeat");
    }

    #[test]
    fn from_bytes_rejects_every_truncation_and_survives_every_byte_flip() {
        let (_, blob, _) = fig2_blob();
        for len in 0..blob.len() {
            assert!(
                RlcIndex::from_bytes(&blob[..len]).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
        // A flipped byte may still decode to a valid index (a label id, a
        // hub rank); what it must never do is panic — and whatever loads
        // must answer without panicking too.
        for at in 0..blob.len() {
            let mut bad = blob.clone();
            bad[at] ^= 0xFF;
            if let Ok(index) = RlcIndex::from_bytes(&bad) {
                let _ = index.redundant_entries();
            }
        }
    }

    #[test]
    fn from_bytes_rejects_duplicate_vertex_in_order() {
        let index = tiny_index();
        let order = layout(&index).order;
        let mut blob = index.to_bytes();
        // Overwrite the second order entry with a copy of the first, so one
        // vertex id appears twice and the other never.
        let first = blob[order..order + 4].to_vec();
        put(&mut blob, order + 4, &first);
        rejected(&blob, "not a permutation");
    }

    #[test]
    fn from_bytes_rejects_out_of_range_vertex_in_order() {
        let index = tiny_index();
        let order = layout(&index).order;
        let mut blob = index.to_bytes();
        put(&mut blob, order, &99u32.to_le_bytes());
        rejected(&blob, "vertex order");
    }

    #[test]
    fn from_bytes_rejects_version_1_blobs() {
        let mut blob = tiny_index().to_bytes();
        put(&mut blob, 0, &0x524C_4331u32.to_le_bytes());
        rejected(&blob, "version 1");
    }

    #[test]
    fn from_bytes_rejects_version_2_blobs() {
        // `RLC2` gets the treatment `RLC1` got: named, not converted.
        let mut blob = tiny_index().to_bytes();
        put(&mut blob, 0, &0x524C_4332u32.to_le_bytes());
        rejected(&blob, "version 2");
    }

    #[test]
    fn from_bytes_rejects_absurd_size_fields_without_allocating() {
        // A crafted header claiming 2^62 of anything must yield a
        // descriptive error from the division-form bound, before the
        // allocation the count would size: the vertex count (at header
        // offset 8), the catalog size (16), either entry count (24, 32).
        for (field, expected) in [
            (8, "vertex order"),
            (16, "catalog"),
            (24, "entry keys"),
            (32, "entry keys"),
        ] {
            let mut blob = tiny_index().to_bytes();
            put(&mut blob, field, &(1u64 << 62).to_le_bytes());
            rejected(&blob, expected);
        }
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut blob = tiny_index().to_bytes();
        blob.push(0);
        rejected(&blob, "trailing");
    }

    #[test]
    fn from_bytes_rejects_duplicate_catalog_sequence() {
        let mut blob = tiny_index().to_bytes();
        // Bump the catalog count to 2 and splice in a copy of the first
        // (and only) catalog sequence record.
        put(&mut blob, 16, &2u64.to_le_bytes());
        let record: Vec<u8> = blob[HEADER_BYTES..HEADER_BYTES + 4].to_vec();
        blob.splice(HEADER_BYTES + 4..HEADER_BYTES + 4, record);
        rejected(&blob, "duplicates");
    }

    #[test]
    fn from_bytes_rejects_reducible_catalog_sequence() {
        let mut blob = tiny_index().to_bytes();
        // Rewrite the only catalog sequence as (x, x), which is not its own
        // minimum repeat.
        let label: Vec<u8> = blob[HEADER_BYTES + 2..HEADER_BYTES + 4].to_vec();
        put(&mut blob, HEADER_BYTES, &2u16.to_le_bytes());
        blob.splice(HEADER_BYTES + 4..HEADER_BYTES + 4, label);
        rejected(&blob, "minimum repeat");
    }

    #[test]
    fn from_bytes_rejects_catalog_sequences_longer_than_k() {
        // The tiny index has k = 2, so no build of it can record a
        // three-label minimum repeat; `ETC1` always refused one.
        let mut blob = tiny_index().to_bytes();
        put(&mut blob, HEADER_BYTES, &3u16.to_le_bytes());
        let labels: Vec<u8> = [7u16, 8].iter().flat_map(|l| l.to_le_bytes()).collect();
        blob.splice(HEADER_BYTES + 4..HEADER_BYTES + 4, labels);
        rejected(&blob, "k = 2");
    }

    #[test]
    fn long_catalog_sequences_round_trip() {
        // 300 distinct labels form their own minimum repeat; the format-1
        // u8 length field would have wrapped to 44 and produced a blob that
        // round-trips to a different index.
        let mut b = rlc_graph::GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        let g = b.build();
        let order = compute_order(&g, OrderingStrategy::InOutDegree);
        let long: Vec<Label> = (0..300u16).map(Label).collect();
        let mut catalog = MrCatalog::new();
        let mr = catalog.intern(&long);
        let index = RlcIndex::from_entry_rows(
            300,
            order,
            catalog,
            [None, None],
            [None, Some(IndexEntry { hub: 0, mr })],
        );
        let back = RlcIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back.catalog().sequence(mr), &long[..]);
        assert_eq!(back.entry_count(), 1);
        assert!(back.query_interned(0, 1, mr));
    }

    #[test]
    fn stats_reflect_entries() {
        let index = tiny_index();
        let stats = index.stats();
        assert_eq!(stats.lin_entries, 1);
        assert_eq!(stats.lout_entries, 0);
        assert_eq!(stats.total_entries(), 1);
        assert_eq!(stats.distinct_mrs, 1);
        assert!(stats.memory_bytes > 0);
        assert!(stats.memory_megabytes() > 0.0);
        assert!(stats.csr_memory_bytes > 0);
        assert!(stats.csr_memory_megabytes() > 0.0);
        assert_eq!(stats.max_entries_per_vertex, 1);
    }

    #[test]
    fn memory_bytes_prices_the_packed_arrays_exactly() {
        let g = fig2_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let n = index.vertex_count();
        // Two sides of n + 1 row offsets and 8-byte keys, plus the order's
        // two n-long u32 arrays and the catalog: nothing estimated.
        let arrays = 2 * 4 * (n + 1) + 8 * index.entry_count() + 2 * 4 * n;
        assert_eq!(
            index.memory_bytes(),
            arrays + index.catalog().memory_bytes()
        );
        // The packed layout is the resident one, so the CSR figure is the
        // same number — and the blob is those arrays plus header and the
        // catalog's wire form, minus the access-id array it re-derives.
        assert_eq!(index.csr_memory_bytes(), index.memory_bytes());
        assert_eq!(index.stats().csr_memory_bytes, index.stats().memory_bytes);
        let catalog_wire = layout(&index).order - HEADER_BYTES;
        assert_eq!(
            index.to_bytes().len(),
            HEADER_BYTES + catalog_wire + arrays - 4 * n
        );
    }

    #[test]
    fn describe_uses_names() {
        let g = fig2_graph();
        let (index, _) = build_index(&g, &BuildConfig::new(2));
        let text = index.describe(&g);
        assert!(text.contains("v1"));
        assert!(text.contains("Lout"));
    }
}
