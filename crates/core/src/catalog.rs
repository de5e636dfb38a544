//! Interning of minimum repeats.
//!
//! The number of distinct minimum repeats appearing in an index is bounded by
//! `C = O(|L|^k)` (§V-C), which is tiny compared to the number of index
//! entries, so entries store a dense `MrId` instead of the sequence itself.
//! This keeps every index entry at 8 bytes and makes entry comparison a
//! single integer comparison.

use crate::repeats::is_minimum_repeat;
use rlc_graph::{Label, Reader};

/// Dense identifier of an interned minimum repeat.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MrId(pub u32);

impl MrId {
    /// The raw dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only interner for minimum repeats.
///
/// Ids are dense in intern order. Lookups binary-search a list of
/// `(lookup_key, id)` pairs sorted by key, then by sequence, so resolving a
/// constraint hashes nothing and, for constraints of at most three labels,
/// compares integers only. The catalog holds at most `C = O(|L|^k)`
/// sequences, so the `O(C)` insert into that list on a first intern is
/// cheap.
///
/// The catalog section of the `RLC3` and `ETC1` formats is written by
/// [`MrCatalog::encode`] and read back by [`MrCatalog::decode`].
#[derive(Debug, Clone, Default)]
pub struct MrCatalog {
    sequences: Vec<Vec<Label>>,
    /// `(lookup_key(sequence), id)` for every id, sorted by key, then by
    /// sequence, then by id.
    lookup: Vec<(u64, MrId)>,
}

/// A sequence's length (top 16 bits, saturating) and first three labels in
/// one integer. It determines every sequence of at most three labels, so the
/// catalog's lookups compare sequences only between equal keys.
#[inline]
fn lookup_key(seq: &[Label]) -> u64 {
    let len = seq.len().min(usize::from(u16::MAX)) as u64;
    seq.iter()
        .zip([32u32, 16, 0])
        .fold(len << 48, |key, (label, shift)| {
            key | u64::from(label.0) << shift
        })
}

impl MrCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a minimum repeat, returning its id.
    ///
    /// Debug-asserts that `mr` really is its own minimum repeat: the index
    /// must never record a reducible sequence.
    pub fn intern(&mut self, mr: &[Label]) -> MrId {
        debug_assert!(is_minimum_repeat(mr), "catalog only stores minimum repeats");
        match self.position(mr) {
            Ok(found) => self.lookup[found].1,
            Err(slot) => {
                let id = MrId(self.sequences.len() as u32);
                self.sequences.push(mr.to_vec());
                self.lookup.insert(slot, (lookup_key(mr), id));
                id
            }
        }
    }

    /// Looks up a sequence without interning it.
    #[inline]
    pub fn resolve(&self, mr: &[Label]) -> Option<MrId> {
        self.position(mr).ok().map(|found| self.lookup[found].1)
    }

    /// Where `mr` sits in the sorted lookup: `Ok` with its slot, or `Err`
    /// with the slot it would be inserted at. A branch-free binary search
    /// over the keys, then a scan of the (for short sequences, single) entry
    /// with an equal key.
    #[inline]
    fn position(&self, mr: &[Label]) -> Result<usize, usize> {
        let key = lookup_key(mr);
        let start = self.lookup.partition_point(|&(probe, _)| probe < key);
        for (slot, &(probe, id)) in (start..).zip(&self.lookup[start..]) {
            if probe != key {
                return Err(slot);
            }
            match self.sequences[id.index()].as_slice().cmp(mr) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return Ok(slot),
                std::cmp::Ordering::Greater => return Err(slot),
            }
        }
        Err(self.lookup.len())
    }

    /// Appends the catalog section: every sequence in id order, each a
    /// `u16` length followed by its `u16` labels.
    ///
    /// Returns an error instead of silently truncating a sequence longer
    /// than the `u16` length field.
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String> {
        for (id, seq) in self.iter() {
            let len = u16::try_from(seq.len()).map_err(|_| {
                format!(
                    "catalog sequence {} has {} labels, exceeding the u16 length field",
                    id.0,
                    seq.len()
                )
            })?;
            buf.extend_from_slice(&len.to_le_bytes());
            for label in seq {
                buf.extend_from_slice(&label.0.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Reads a catalog section of `count` sequences written by
    /// [`MrCatalog::encode`] for an index of recursive bound `k`: every
    /// sequence must be a minimum repeat of at most `k` labels, and no two
    /// may be equal.
    pub fn decode(r: &mut Reader<'_>, count: usize, k: usize) -> Result<Self, String> {
        let count = r.checked_len(count, 2, "catalog")?;
        let mut sequences = Vec::with_capacity(count);
        for i in 0..count {
            let len = usize::from(r.u16()?);
            if len > k {
                return Err(format!(
                    "corrupt catalog: sequence {i} has {len} labels but k = {k}"
                ));
            }
            let seq = (0..len)
                .map(|_| r.u16().map(Label))
                .collect::<Result<Vec<_>, _>>()?;
            if !is_minimum_repeat(&seq) {
                return Err(format!(
                    "corrupt catalog: sequence {i} is not a minimum repeat"
                ));
            }
            sequences.push(seq);
        }
        Self::from_sequences(sequences)
            .map_err(|i| format!("corrupt catalog: sequence {i} duplicates an earlier sequence"))
    }

    /// Builds a catalog from sequences given in id order, as a decoder reads
    /// them: one sort instead of one sorted insert per sequence, so a hostile
    /// blob listing many sequences costs `O(C log C)`, not `O(C^2)`.
    ///
    /// # Errors
    ///
    /// Returns the index of the first sequence that repeats an earlier one.
    fn from_sequences(sequences: Vec<Vec<Label>>) -> Result<Self, usize> {
        let mut catalog = MrCatalog {
            sequences,
            lookup: Vec::new(),
        };
        catalog.rebuild_lookup();
        // Equal sequences sit next to each other, in ascending id order.
        let first_repeat = catalog
            .lookup
            .windows(2)
            .filter(|pair| catalog.sequence(pair[0].1) == catalog.sequence(pair[1].1))
            .map(|pair| pair[1].1.index())
            .min();
        match first_repeat {
            Some(i) => Err(i),
            None => Ok(catalog),
        }
    }

    /// Returns the sequence for an id.
    pub fn sequence(&self, id: MrId) -> &[Label] {
        &self.sequences[id.index()]
    }

    /// Number of distinct minimum repeats interned.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total bytes used by the stored sequences (for index-size reporting).
    pub fn memory_bytes(&self) -> usize {
        self.sequences
            .iter()
            .map(|s| s.len() * std::mem::size_of::<Label>() + std::mem::size_of::<Vec<Label>>())
            .sum()
    }

    /// Rebuilds the sorted lookup from the sequence list.
    fn rebuild_lookup(&mut self) {
        let sequences = &self.sequences;
        self.lookup = sequences
            .iter()
            .zip(0u32..)
            .map(|(sequence, id)| (lookup_key(sequence), MrId(id)))
            .collect();
        // Stable: equal sequences keep ascending id order.
        self.lookup.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| sequences[a.1.index()].cmp(&sequences[b.1.index()]))
        });
    }

    /// Iterates over `(id, sequence)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MrId, &[Label])> + '_ {
        self.sequences
            .iter()
            .enumerate()
            .map(|(i, s)| (MrId(i as u32), s.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(ids: &[u16]) -> Vec<Label> {
        ids.iter().map(|&i| Label(i)).collect()
    }

    #[test]
    fn intern_is_idempotent() {
        let mut catalog = MrCatalog::new();
        let a = catalog.intern(&seq(&[0, 1]));
        let b = catalog.intern(&seq(&[1]));
        let a2 = catalog.intern(&seq(&[0, 1]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.sequence(a), &seq(&[0, 1])[..]);
    }

    #[test]
    fn resolve_does_not_intern() {
        let mut catalog = MrCatalog::new();
        catalog.intern(&seq(&[0]));
        assert!(catalog.resolve(&seq(&[1])).is_none());
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "minimum repeats")]
    fn interning_reducible_sequence_panics_in_debug() {
        let mut catalog = MrCatalog::new();
        catalog.intern(&seq(&[0, 0]));
    }

    #[test]
    fn sequences_sharing_a_lookup_key_resolve_apart() {
        // Past three labels the key holds only the length and a prefix, so
        // these four share one key and the lookup must compare sequences.
        let shared = [
            seq(&[0, 1, 2, 4]),
            seq(&[0, 1, 2, 3]),
            seq(&[0, 1, 2, 5]),
            seq(&[0, 1, 2, 0]),
        ];
        let mut catalog = MrCatalog::new();
        let ids: Vec<MrId> = shared.iter().map(|s| catalog.intern(s)).collect();
        assert_eq!(ids, (0..4).map(MrId).collect::<Vec<_>>());
        for (s, &id) in shared.iter().zip(&ids) {
            assert_eq!(catalog.resolve(s), Some(id));
            assert_eq!(catalog.intern(s), id);
        }
        assert_eq!(catalog.resolve(&seq(&[0, 1, 2, 6])), None);
        assert_eq!(catalog.resolve(&seq(&[0, 1, 2])), None);
        let rebuilt = MrCatalog::from_sequences(shared.to_vec()).unwrap();
        for (s, &id) in shared.iter().zip(&ids) {
            assert_eq!(rebuilt.resolve(s), Some(id));
        }
    }

    #[test]
    fn from_sequences_names_the_first_repeat() {
        let sequences = vec![
            seq(&[0]),
            seq(&[1, 0, 1, 1]),
            seq(&[0, 1]),
            seq(&[1, 0, 1, 1]),
            seq(&[0]),
        ];
        assert_eq!(MrCatalog::from_sequences(sequences).unwrap_err(), 3);
        let catalog = MrCatalog::from_sequences(vec![seq(&[1]), seq(&[0, 1])]).unwrap();
        assert_eq!(catalog.resolve(&seq(&[0, 1])), Some(MrId(1)));
        assert_eq!(catalog.resolve(&seq(&[1])), Some(MrId(0)));
    }

    #[test]
    fn iter_lists_all_sequences() {
        let mut catalog = MrCatalog::new();
        catalog.intern(&seq(&[0]));
        catalog.intern(&seq(&[0, 1]));
        let all: Vec<_> = catalog.iter().map(|(_, s)| s.to_vec()).collect();
        assert_eq!(all, vec![seq(&[0]), seq(&[0, 1])]);
    }
}
