//! RLC query types (Definition 1) and the unified constraint model.
//!
//! Two layers live here:
//!
//! * [`RlcQuery`] — the paper's single-block query `(s, t, L+)`, the type the
//!   index layer ([`crate::index::RlcIndex`]) operates on;
//! * [`Constraint`] and [`Query`] — the unified query model of the engine
//!   layer: a constraint is a concatenation of Kleene-plus blocks
//!   `B1+ ∘ … ∘ Bm+`, and a plain RLC constraint is the one-block special
//!   case. Both are validated at construction, so every engine can assume a
//!   structurally well-formed constraint; the only evaluation-time errors
//!   left are engine/graph-specific (a block longer than an index's
//!   recursive `k`, a vertex id outside the evaluated graph).

use crate::repeats::{is_minimum_repeat, minimum_repeat};
use rlc_graph::{Label, LabeledGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A recursive label-concatenated reachability query `(s, t, L+)`:
/// does a path from `source` to `target` exist whose label sequence is one or
/// more repetitions of `constraint`?
///
/// The constraint must be its own minimum repeat (Definition 1); use
/// [`RlcQuery::new`] to have this checked, or [`RlcQuery::normalized`] to
/// reduce an arbitrary sequence to its MR first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RlcQuery {
    /// Source vertex `s`.
    pub source: VertexId,
    /// Target vertex `t`.
    pub target: VertexId,
    /// The label sequence `L` under the Kleene plus.
    pub constraint: Vec<Label>,
}

/// Errors raised when constructing or evaluating a query.
///
/// The first two variants are structural errors of single-block constraints
/// ([`RlcQuery::new`]); the block-indexed variants cover multi-block
/// [`Constraint`]s and engine-side validation. A well-formed [`Query`] can
/// hit exactly two errors at evaluation time: `BlockTooLong` against an
/// engine with a bounded recursive `k`, and `VertexOutOfRange` when its
/// vertex ids do not exist in the evaluated graph (queries are constructed
/// without a graph, so ids are validated at evaluation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The constraint is empty; `ε+` selects nothing under Definition 1.
    EmptyConstraint,
    /// The constraint is not its own minimum repeat, e.g. `(a, a)+`.
    ///
    /// Such constraints additionally restrict the path length (the even-path
    /// problem) and are outside the query class the index supports.
    NotMinimumRepeat {
        /// The offending constraint.
        constraint: Vec<Label>,
        /// Its minimum repeat, which would be the equivalent valid constraint
        /// *without* the implicit length restriction.
        minimum_repeat: Vec<Label>,
    },
    /// A block of a concatenated constraint is empty.
    EmptyBlock(usize),
    /// A block of a concatenated constraint is not its own minimum repeat.
    BlockNotMinimumRepeat(usize),
    /// A block is longer than the evaluating engine's recursive `k`.
    BlockTooLong {
        /// Index of the offending block.
        block: usize,
        /// Its length.
        len: usize,
        /// The engine's recursive `k`.
        k: usize,
    },
    /// The query's source or target vertex does not exist in the evaluated
    /// graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices in the graph.
        vertices: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyConstraint => write!(f, "RLC constraint must not be empty"),
            QueryError::NotMinimumRepeat {
                constraint,
                minimum_repeat,
            } => write!(
                f,
                "RLC constraint {constraint:?} is not a minimum repeat (MR is {minimum_repeat:?}); \
                 queries with L ≠ MR(L) impose a path-length constraint and are not supported"
            ),
            QueryError::EmptyBlock(i) => write!(f, "constraint block {i} is empty"),
            QueryError::BlockNotMinimumRepeat(i) => {
                write!(f, "constraint block {i} is not a minimum repeat")
            }
            QueryError::BlockTooLong { block, len, k } => write!(
                f,
                "constraint block {block} has {len} labels but the engine supports k = {k}"
            ),
            QueryError::VertexOutOfRange { vertex, vertices } => write!(
                f,
                "vertex {vertex} is out of range for a graph of {vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A validated recursive label-concatenated constraint `B1+ ∘ B2+ ∘ … ∘ Bm+`.
///
/// Every block is a non-empty minimum repeat and the block list is non-empty;
/// a plain RLC constraint `L+` is the one-block special case. Validation
/// happens once, in [`Constraint::new`] — engines receiving a `Constraint`
/// only have to check engine-specific limits (their recursive `k`).
///
/// `Constraint` implements `Hash`/`Eq`, so a [`crate::plan::BatchPlan`] can
/// group a mixed batch by constraint and prepare each distinct constraint
/// exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Constraint {
    blocks: Vec<Vec<Label>>,
}

impl Deserialize for Constraint {
    /// Deserializes and re-validates: a constraint from untrusted input goes
    /// through the same [`Constraint::new`] checks as one built in process.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a map for Constraint"))?;
        let blocks: Vec<Vec<Label>> = serde::map_field(entries, "blocks", "Constraint")?;
        Constraint::new(blocks).map_err(serde::Error::custom)
    }
}

impl Constraint {
    /// Creates a concatenated constraint, validating that the block list is
    /// non-empty and every block is a non-empty minimum repeat.
    pub fn new(blocks: Vec<Vec<Label>>) -> Result<Self, QueryError> {
        if blocks.is_empty() {
            return Err(QueryError::EmptyConstraint);
        }
        for (i, block) in blocks.iter().enumerate() {
            if block.is_empty() {
                return Err(QueryError::EmptyBlock(i));
            }
            if !is_minimum_repeat(block) {
                return Err(QueryError::BlockNotMinimumRepeat(i));
            }
        }
        Ok(Constraint { blocks })
    }

    /// Creates the one-block constraint `block+` (the plain RLC case).
    pub fn single(block: Vec<Label>) -> Result<Self, QueryError> {
        Self::new(vec![block])
    }

    /// The blocks of the concatenation.
    pub fn blocks(&self) -> &[Vec<Label>] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The single block when this is a plain RLC constraint, `None` for a
    /// true concatenation.
    pub fn as_single_block(&self) -> Option<&[Label]> {
        match self.blocks.as_slice() {
            [block] => Some(block),
            _ => None,
        }
    }

    /// The final block (the one index-backed engines answer by lookup).
    pub fn last_block(&self) -> &[Label] {
        self.blocks
            .last()
            // rlc-analyze: allow(panic-free-library) — every Constraint constructor rejects an empty block list, so last() is total here
            .expect("constraints have at least a block")
    }

    /// Length of the longest block.
    pub fn max_block_len(&self) -> usize {
        self.blocks.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks every block against an engine's recursive `k`, the one
    /// validation that cannot happen at construction because it depends on
    /// the evaluating engine.
    pub fn check_block_len(&self, k: usize) -> Result<(), QueryError> {
        for (i, block) in self.blocks.iter().enumerate() {
            if block.len() > k {
                return Err(QueryError::BlockTooLong {
                    block: i,
                    len: block.len(),
                    k,
                });
            }
        }
        Ok(())
    }
}

impl From<&RlcQuery> for Constraint {
    /// A validated [`RlcQuery`] constraint is by construction a valid
    /// one-block `Constraint`.
    fn from(query: &RlcQuery) -> Self {
        Constraint {
            blocks: vec![query.constraint.clone()],
        }
    }
}

/// A reachability query under the unified constraint model: does a path from
/// `source` to `target` exist whose label sequence matches
/// [`Query::constraint`]?
///
/// This is the type the [`crate::engine::ReachabilityEngine`] surface
/// evaluates; it subsumes both [`RlcQuery`] (one block) and the legacy
/// `ConcatQuery` (many blocks).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// Source vertex `s`.
    pub source: VertexId,
    /// Target vertex `t`.
    pub target: VertexId,
    /// The validated constraint.
    pub constraint: Constraint,
}

impl Query {
    /// Creates a query from an already-validated constraint.
    pub fn new(source: VertexId, target: VertexId, constraint: Constraint) -> Self {
        Query {
            source,
            target,
            constraint,
        }
    }

    /// Creates a plain RLC query `(s, t, labels+)`.
    pub fn rlc(source: VertexId, target: VertexId, labels: Vec<Label>) -> Result<Self, QueryError> {
        Ok(Query::new(source, target, Constraint::single(labels)?))
    }

    /// Creates a concatenated query `(s, t, B1+ ∘ … ∘ Bm+)`.
    pub fn concat(
        source: VertexId,
        target: VertexId,
        blocks: Vec<Vec<Label>>,
    ) -> Result<Self, QueryError> {
        Ok(Query::new(source, target, Constraint::new(blocks)?))
    }

    /// The constraint.
    pub fn constraint(&self) -> &Constraint {
        &self.constraint
    }
}

impl From<&RlcQuery> for Query {
    fn from(query: &RlcQuery) -> Self {
        Query {
            source: query.source,
            target: query.target,
            constraint: Constraint::from(query),
        }
    }
}

impl From<RlcQuery> for Query {
    fn from(query: RlcQuery) -> Self {
        Query::from(&query)
    }
}

impl RlcQuery {
    /// Creates a query, validating that the constraint is a non-empty minimum
    /// repeat.
    pub fn new(
        source: VertexId,
        target: VertexId,
        constraint: Vec<Label>,
    ) -> Result<Self, QueryError> {
        if constraint.is_empty() {
            return Err(QueryError::EmptyConstraint);
        }
        if !is_minimum_repeat(&constraint) {
            let mr = minimum_repeat(&constraint).to_vec();
            return Err(QueryError::NotMinimumRepeat {
                constraint,
                minimum_repeat: mr,
            });
        }
        Ok(RlcQuery {
            source,
            target,
            constraint,
        })
    }

    /// Creates a query after replacing the constraint by its minimum repeat.
    ///
    /// Useful when the constraint comes from user input and the caller wants
    /// the closest supported query rather than an error.
    pub fn normalized(
        source: VertexId,
        target: VertexId,
        constraint: &[Label],
    ) -> Result<Self, QueryError> {
        if constraint.is_empty() {
            return Err(QueryError::EmptyConstraint);
        }
        Ok(RlcQuery {
            source,
            target,
            constraint: minimum_repeat(constraint).to_vec(),
        })
    }

    /// Builds a query from vertex names and label names resolved against a
    /// graph, the ergonomic entry point used by the examples.
    pub fn from_names(
        graph: &LabeledGraph,
        source: &str,
        target: &str,
        labels: &[&str],
    ) -> Result<Self, String> {
        let s = graph
            .vertex_id(source)
            .ok_or_else(|| format!("unknown vertex {source:?}"))?;
        let t = graph
            .vertex_id(target)
            .ok_or_else(|| format!("unknown vertex {target:?}"))?;
        let constraint: Vec<Label> = labels
            .iter()
            .map(|name| {
                graph
                    .labels()
                    .resolve(name)
                    .ok_or_else(|| format!("unknown label {name:?}"))
            })
            .collect::<Result<_, _>>()?;
        RlcQuery::new(s, t, constraint).map_err(|e| e.to_string())
    }

    /// Number of labels in the constraint (must be at most the index's `k`).
    pub fn constraint_len(&self) -> usize {
        self.constraint.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_graph::examples::fig1_graph;

    #[test]
    fn valid_query_is_accepted() {
        let q = RlcQuery::new(0, 1, vec![Label(0), Label(1)]).unwrap();
        assert_eq!(q.constraint_len(), 2);
    }

    #[test]
    fn empty_constraint_is_rejected() {
        assert_eq!(
            RlcQuery::new(0, 1, vec![]).unwrap_err(),
            QueryError::EmptyConstraint
        );
    }

    #[test]
    fn non_mr_constraint_is_rejected_with_suggestion() {
        let err = RlcQuery::new(0, 1, vec![Label(0), Label(0)]).unwrap_err();
        match err {
            QueryError::NotMinimumRepeat { minimum_repeat, .. } => {
                assert_eq!(minimum_repeat, vec![Label(0)]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn normalized_reduces_to_mr() {
        let q = RlcQuery::normalized(0, 1, &[Label(0), Label(1), Label(0), Label(1)]).unwrap();
        assert_eq!(q.constraint, vec![Label(0), Label(1)]);
    }

    #[test]
    fn from_names_resolves_against_graph() {
        let g = fig1_graph();
        let q = RlcQuery::from_names(&g, "A14", "A19", &["debits", "credits"]).unwrap();
        assert_eq!(q.source, g.vertex_id("A14").unwrap());
        assert_eq!(q.constraint_len(), 2);
        assert!(RlcQuery::from_names(&g, "A14", "nope", &["debits"]).is_err());
        assert!(RlcQuery::from_names(&g, "A14", "A19", &["nope"]).is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let err = RlcQuery::new(0, 1, vec![Label(2), Label(2)]).unwrap_err();
        assert!(err.to_string().contains("not a minimum repeat"));
        assert!(QueryError::EmptyConstraint.to_string().contains("empty"));
        assert!(QueryError::EmptyBlock(3).to_string().contains("block 3"));
        assert!(QueryError::BlockNotMinimumRepeat(1)
            .to_string()
            .contains("block 1"));
        let err = QueryError::BlockTooLong {
            block: 0,
            len: 4,
            k: 2,
        };
        assert!(err.to_string().contains("k = 2"));
    }

    #[test]
    fn constraint_rejects_invalid_shapes_at_construction() {
        assert_eq!(
            Constraint::new(vec![]).unwrap_err(),
            QueryError::EmptyConstraint
        );
        assert_eq!(
            Constraint::new(vec![vec![Label(0)], vec![]]).unwrap_err(),
            QueryError::EmptyBlock(1)
        );
        assert_eq!(
            Constraint::new(vec![vec![Label(0), Label(0)]]).unwrap_err(),
            QueryError::BlockNotMinimumRepeat(0)
        );
        assert_eq!(
            Constraint::single(vec![]).unwrap_err(),
            QueryError::EmptyBlock(0)
        );
    }

    #[test]
    fn constraint_accessors() {
        let single = Constraint::single(vec![Label(0), Label(1)]).unwrap();
        assert_eq!(single.block_count(), 1);
        assert_eq!(single.as_single_block(), Some(&[Label(0), Label(1)][..]));
        assert_eq!(single.max_block_len(), 2);
        let multi = Constraint::new(vec![vec![Label(0)], vec![Label(1), Label(2)]]).unwrap();
        assert_eq!(multi.block_count(), 2);
        assert!(multi.as_single_block().is_none());
        assert_eq!(multi.last_block(), &[Label(1), Label(2)]);
        assert_eq!(multi.check_block_len(2), Ok(()));
        assert_eq!(
            multi.check_block_len(1),
            Err(QueryError::BlockTooLong {
                block: 1,
                len: 2,
                k: 1
            })
        );
    }

    #[test]
    fn query_constructors_and_conversions() {
        let q = Query::rlc(0, 1, vec![Label(0), Label(1)]).unwrap();
        assert_eq!(q.constraint().block_count(), 1);
        let q = Query::concat(0, 1, vec![vec![Label(0)], vec![Label(1)]]).unwrap();
        assert_eq!(q.constraint().block_count(), 2);
        assert!(Query::concat(0, 1, vec![]).is_err());

        let rlc = RlcQuery::new(2, 3, vec![Label(1)]).unwrap();
        let converted = Query::from(&rlc);
        assert_eq!(converted.source, 2);
        assert_eq!(converted.target, 3);
        assert_eq!(
            converted.constraint().as_single_block(),
            Some(&[Label(1)][..])
        );
        assert_eq!(Query::from(rlc.clone()), converted);
    }

    #[test]
    fn constraint_deserialization_revalidates() {
        let good = Constraint::new(vec![vec![Label(0)], vec![Label(1), Label(0)]]).unwrap();
        let json = serde_json::to_string(&good).unwrap();
        let back: Constraint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, good);
        // A hand-crafted blob with a reducible block must be rejected.
        let bad = "{\"blocks\":[[0,0]]}";
        assert!(serde_json::from_str::<Constraint>(bad).is_err());
    }
}
