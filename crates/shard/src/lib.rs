//! # rlc-shard
//!
//! A **vertex-partitioned sharded engine** for the RLC index reproduction:
//! the route to graphs whose index does not fit one machine's budget.
//!
//! The graph is cut into `S` vertex-disjoint shards
//! ([`rlc_graph::partition`]: contiguous, hash, or degree-aware), one RLC
//! index is built per shard subgraph (fanned out across rayon workers), and
//! the cut edges — the only places a path can change shards — drive a
//! *boundary-hub stitcher* that answers cross-shard queries exactly:
//! intra-shard hop (one whole-repetition jump through the shard's index) →
//! portal → cut edge → portal → intra-shard hop, as a product search over
//! the prepared constraint's block structure. Same-shard pairs short-cut
//! through the local index alone whenever that is provably sufficient.
//!
//! [`ShardedEngine`] implements the full
//! [`ReachabilityEngine`](rlc_core::ReachabilityEngine) surface —
//! prepare/execute, grouped evaluation, plan identity — so everything built
//! on the engine seam (the `BatchPlan` batch planner, the `PlanCache`
//! cross-batch cache, the differential harness) drives a sharded deployment
//! unchanged. Its `plan_identity()` folds every shard's construction-time
//! generation stamp, so rebuilding **any** shard invalidates cached plans,
//! extending PR 4's ABA discipline to the aggregate.
//!
//! Sharded indexes persist as `RSH1` manifests (partition map, cut edges,
//! per-shard `RLC3` blob offsets and digests) with the same hardened
//! validation as the other binary formats in the workspace.
//!
//! ## Quick example
//!
//! ```
//! use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
//! use rlc_core::{Query, ReachabilityEngine};
//! use rlc_shard::{ShardBuildConfig, ShardedEngine, ShardedIndex};
//! use rlc_graph::Label;
//!
//! let graph = erdos_renyi(&SyntheticConfig::new(200, 3.0, 3, 42));
//! let (sharded, _stats) = ShardedIndex::build(&graph, &ShardBuildConfig::new(2, 4)).unwrap();
//! let engine = ShardedEngine::new(&graph, &sharded);
//! let q = Query::rlc(0, 7, vec![Label(0)]).unwrap();
//! let answer = engine.evaluate(&q).unwrap();
//! // Identical to any unsharded engine's answer — asserted by
//! // `engine::tests::stitched_answers_equal_unsharded_answers` and the
//! // workspace's `sharded_engines_match_unsharded_answers_and_errors`.
//! # let _ = answer;
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod boundary;
pub mod engine;
pub mod index;
mod persist;

pub use boundary::{PortalSet, ReachExpander};
pub use engine::{ShardedEngine, StitchCounts};
pub use index::{GraphShard, ShardBuildConfig, ShardStats, ShardedIndex, ShardedStats};
pub use persist::MANIFEST_MAGIC;
