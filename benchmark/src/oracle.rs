//! Ground truth that shares no code with the engines.
//!
//! A query `(s, t, B1+ ∘ … ∘ Bm+)` holds when some non-empty path from `s`
//! to `t` spells `B1` one or more times, then `B2` one or more times, and so
//! on. [`Adjacency::reaches`] decides that by breadth-first search over
//! `(vertex, block, offset)` states of the raw edge list: no index, no
//! kernel, no `rlc-*` type. It is slow on purpose; it runs on a seeded
//! sample.

use crate::gen::EdgeList;

/// Out-edges of the raw edge list in CSR form.
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<u32>,
    /// `(label, target)` per edge, grouped by source.
    edges: Vec<(u16, u32)>,
}

impl Adjacency {
    /// Groups `list`'s edges by source vertex.
    pub fn new(list: &EdgeList) -> Self {
        let mut offsets = vec![0u32; list.vertices + 1];
        for &(source, _, _) in &list.edges {
            offsets[source as usize + 1] += 1;
        }
        for v in 0..list.vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![(0u16, 0u32); list.edges.len()];
        for &(source, label, target) in &list.edges {
            let slot = &mut cursor[source as usize];
            edges[*slot as usize] = (label, target);
            *slot += 1;
        }
        Adjacency { offsets, edges }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(label, target)` out-edges of `v`.
    pub fn out(&self, v: u32) -> &[(u16, u32)] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Whether a path from `source` to `target` matches `blocks`, each block
    /// repeated one or more times, in order. Empty block lists and empty
    /// blocks match nothing.
    pub fn reaches(&self, source: u32, target: u32, blocks: &[Vec<u16>]) -> bool {
        if blocks.is_empty() || blocks.iter().any(Vec::is_empty) {
            return false;
        }
        // State = position in the concatenated blocks: `starts[b] + offset`
        // means "the next label must be blocks[b][offset]".
        let mut starts = Vec::with_capacity(blocks.len());
        let mut width = 0usize;
        for block in blocks {
            starts.push(width);
            width += block.len();
        }
        let last = blocks.len() - 1;
        let mut seen = vec![false; self.vertices() * width];
        let mut queue = std::collections::VecDeque::new();
        seen[source as usize * width] = true;
        queue.push_back((source, 0usize, 0usize));
        while let Some((v, block, offset)) = queue.pop_front() {
            let expected = blocks[block][offset];
            for &(label, next) in self.out(v) {
                if label != expected {
                    continue;
                }
                let mut push = |b: usize, o: usize| {
                    let slot = next as usize * width + starts[b] + o;
                    if !seen[slot] {
                        seen[slot] = true;
                        queue.push_back((next, b, o));
                    }
                };
                if offset + 1 < blocks[block].len() {
                    push(block, offset + 1);
                    continue;
                }
                // One repetition of `block` just ended at `next`: accept,
                // repeat the block, or move on to the following one.
                if block == last && next == target {
                    return true;
                }
                push(block, 0);
                if block < last {
                    push(block + 1, 0);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency(vertices: usize, edges: &[(u32, u16, u32)]) -> Adjacency {
        Adjacency::new(&EdgeList {
            vertices,
            labels: 3,
            edges: edges.to_vec(),
        })
    }

    #[test]
    fn single_block_needs_whole_repetitions_and_a_non_empty_path() {
        // 0 -a-> 1 -b-> 2 -a-> 3 -b-> 4, and 4 -a-> 5.
        let g = adjacency(6, &[(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4), (4, 0, 5)]);
        let ab = vec![vec![0u16, 1]];
        assert!(g.reaches(0, 2, &ab));
        assert!(g.reaches(0, 4, &ab));
        assert!(!g.reaches(0, 3, &ab), "half a repetition is not a match");
        assert!(!g.reaches(0, 5, &ab));
        assert!(!g.reaches(0, 0, &ab), "the empty path is not a match");
        assert!(!g.reaches(0, 1, &[vec![1u16]]));
    }

    #[test]
    fn a_cycle_reaches_its_own_start() {
        let g = adjacency(2, &[(0, 0, 1), (1, 0, 0)]);
        assert!(g.reaches(0, 0, &[vec![0u16]]));
        assert!(!g.reaches(0, 0, &[vec![0u16, 1]]));
    }

    #[test]
    fn concatenated_blocks_each_repeat_at_least_once_in_order() {
        // 0 -a-> 1 -a-> 2 -b-> 3 -b-> 4 -c-> 5
        let g = adjacency(6, &[(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 2, 5)]);
        let a_b = vec![vec![0u16], vec![1u16]];
        assert!(g.reaches(0, 3, &a_b));
        assert!(g.reaches(0, 4, &a_b));
        assert!(g.reaches(1, 4, &a_b));
        assert!(!g.reaches(0, 2, &a_b), "the second block must occur");
        assert!(!g.reaches(2, 4, &a_b), "the first block must occur");
        assert!(g.reaches(0, 5, &[vec![0u16], vec![1u16], vec![2u16]]));
        assert!(!g.reaches(0, 5, &[vec![1u16], vec![0u16], vec![2u16]]));
        assert!(!g.reaches(0, 1, &[]));
    }
}
