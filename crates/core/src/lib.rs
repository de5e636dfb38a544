//! # rlc-core
//!
//! The **RLC index**: a reachability index for *recursive label-concatenated*
//! graph queries, reproducing
//! "A Reachability Index for Recursive Label-Concatenated Graph Queries"
//! (Zhang, Bonifati, Kapp, Haprian, Lozi — ICDE 2023).
//!
//! An RLC query `(s, t, L+)` asks whether the graph contains a path from `s`
//! to `t` whose sequence of edge labels is `L` repeated one or more times,
//! where `L` is a sequence of at most `k` labels (`k` is fixed when the index
//! is built). The index stores, per vertex, two small sets of
//! `(hub, minimum-repeat)` entries; a query is answered by a merge join over
//! the source's out-set and the target's in-set.
//!
//! ## Quick example
//!
//! ```
//! use rlc_graph::examples::fig1_graph;
//! use rlc_core::{RlcIndex, RlcQuery};
//!
//! let graph = fig1_graph();
//! let index = RlcIndex::build(&graph, 2);
//! // Does money flow from account A14 to A19 through a chain of
//! // debit/credit transactions?
//! let q = RlcQuery::from_names(&graph, "A14", "A19", &["debits", "credits"]).unwrap();
//! assert!(index.query(&q));
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`repeats`] | §III-A, §IV | minimum repeats, kernels, Theorem 1 |
//! | [`query`] | §III-B | the `RlcQuery` type and its validity rules |
//! | [`index`] | §V-A | the index structure and Algorithm 1 (query) |
//! | [`build`] | §IV, §V-B | Algorithm 2 (indexing), pruning rules PR1–PR3 |
//! | [`order`] | §V-B | vertex orderings (IN-OUT and ablation alternatives) |
//! | [`catalog`] | §V-C | interning of minimum repeats |
//! | [`hybrid`] | §VI-C | extended `a+ ∘ b+` queries (index + traversal) |
//! | [`kernel`] | — | bit-parallel frontier sets (one portable word-loop lane) |
//! | [`engine`] | — | the `ReachabilityEngine` evaluator abstraction (prepare/execute) |
//! | [`plan`] | — | the constraint-grouping `BatchPlan` for mixed query batches |
//! | [`cache`] | — | the cross-batch `PlanCache` of prepared constraints |
//! | [`verify`] | Theorems 2 & 3 | operational soundness/completeness checking |

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
pub mod cache;
pub mod catalog;
pub mod engine;
pub mod hybrid;
pub mod index;
// The one module allowed to contain unsafe code, for its counting
// allocator (`kernel::alloc_count`). `rlc-analyze`'s unsafe-confinement
// rule enforces the same boundary textually; this is the compiler-level
// backstop.
#[allow(unsafe_code)]
pub mod kernel;
pub mod order;
pub mod plan;
pub mod query;
pub mod repeats;
pub mod verify;

pub use build::{build_index, BuildConfig, BuildStats, KbsStrategy};
pub use cache::{CacheStats, PlanCache, PlanCacheConfig, PrepareOutcome};
pub use catalog::{MrCatalog, MrId};
pub use engine::{
    ArtifactTag, BlockIndex, Generation, HybridEngine, IndexEngine, PlanIdentity, PrepareCounting,
    Prepared, ReachabilityEngine,
};
pub use hybrid::{evaluate_blocks_with, prefix_frontier, repetition_closure};
pub use index::{EntryRow, IndexEntry, IndexStats, RlcIndex, TargetProbe};
pub use kernel::{kernel_name, FrontierSet};
pub use order::{compute_order, OrderingStrategy, VertexOrder};
pub use plan::BatchPlan;
pub use query::{Constraint, Query, QueryError, RlcQuery};
pub use verify::{verify_index, Mismatch, VerificationMode, VerificationReport};
