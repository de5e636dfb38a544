//! # rlc
//!
//! Facade crate of the RLC index reproduction ("A Reachability Index for
//! Recursive Label-Concatenated Graph Queries", ICDE 2023). It re-exports the
//! public API of the workspace crates so downstream users can depend on a
//! single crate:
//!
//! * [`graph`] — edge-labeled graph substrate, generators, statistics, I/O;
//! * [`index`] — the RLC index, its builder, queries, hybrid evaluation, and
//!   the [`index::engine::ReachabilityEngine`] evaluator abstraction;
//! * [`baselines`] — online traversals (BFS, BiBFS, DFS) and the extended
//!   transitive closure, with their engine adapters;
//! * [`shard`] — the vertex-partitioned sharded engine: per-shard indexes,
//!   boundary-hub stitching, and the `RSH1` manifest format;
//! * [`workloads`] — query-set generation and the Table III dataset catalog;
//! * [`engines`] — the simulated graph engines used as Table V comparators;
//! * [`serve`] — the long-running HTTP query service: admission control,
//!   micro-batching through the shared `PlanCache`, and hot index swap;
//! * [`obs`] — the observability substrate: the lock-free metrics registry,
//!   the `span!` timing macro, query EXPLAIN trace trees, and the
//!   exposition-format renderer/parser behind `GET /metrics`.
//!
//! Every evaluator implements `ReachabilityEngine`, so the same code drives
//! the index, the online baselines and the simulated engines. The API is a
//! prepare/execute split: `prepare` compiles a constraint once, and
//! `evaluate_prepared` reuses the artifact across vertex pairs; one-shot
//! `evaluate` and the constraint-grouping `BatchPlan` build on top:
//!
//! ```
//! use rlc::prelude::*;
//!
//! let graph = rlc::graph::examples::fig1_graph();
//! let index = RlcIndex::build(&graph, 2);
//! let engine = IndexEngine::new(&graph, &index);
//! let rlc_query = RlcQuery::from_names(&graph, "A14", "A19", &["debits", "credits"]).unwrap();
//! let query = Query::from(&rlc_query);
//! assert_eq!(engine.evaluate(&query), Ok(true));
//!
//! // Prepare once, execute for many pairs:
//! let prepared = engine.prepare(query.constraint()).unwrap();
//! assert_eq!(engine.evaluate_prepared(query.source, query.target, &prepared), Ok(true));
//!
//! // Batches group by constraint so each distinct constraint is prepared once:
//! let batch = vec![query.clone(), query];
//! let plan = BatchPlan::new(&batch);
//! assert_eq!(plan.group_count(), 1);
//! assert_eq!(plan.execute(&engine), vec![Ok(true), Ok(true)]);
//!
//! // A PlanCache shares preparations across batches: repeated batches
//! // prepare each distinct constraint once per process, not per execution.
//! let cache = PlanCache::new();
//! for _ in 0..3 {
//!     assert_eq!(plan.execute_cached(&engine, &cache), vec![Ok(true), Ok(true)]);
//! }
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Edge-labeled graph substrate (re-export of [`rlc_graph`]).
pub use rlc_graph as graph;

/// The RLC index (re-export of [`rlc_core`]).
pub use rlc_core as index;

/// Baseline evaluators (re-export of [`rlc_baselines`]).
pub use rlc_baselines as baselines;

/// The vertex-partitioned sharded engine (re-export of [`rlc_shard`]).
pub use rlc_shard as shard;

/// Workload and dataset generation (re-export of [`rlc_workloads`]).
pub use rlc_workloads as workloads;

/// Simulated graph engines (re-export of [`rlc_engine_sim`]).
pub use rlc_engine_sim as engines;

/// The HTTP query service (re-export of [`rlc_serve`]).
pub use rlc_serve as serve;

/// Metrics, spans, and query EXPLAIN (re-export of [`rlc_obs`]).
pub use rlc_obs as obs;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use rlc_baselines::{
        BfsEngine, BiBfsEngine, DfsEngine, EtcBuildConfig, EtcEngine, EtcIndex,
    };
    pub use rlc_core::engine::{IndexEngine, PrepareCounting, Prepared, ReachabilityEngine};
    pub use rlc_core::{
        build_index, kernel_name, BatchPlan, BuildConfig, Constraint, PlanCache, Query, QueryError,
        RlcIndex, RlcQuery,
    };
    pub use rlc_graph::{GraphBuilder, Label, LabeledGraph, PartitionStrategy, VertexId};
    pub use rlc_serve::{Epoch, IndexSlot, ServeConfig, Server};
    pub use rlc_shard::{ShardBuildConfig, ShardedEngine, ShardedIndex};
    pub use rlc_workloads::{generate_query_set, QueryGenConfig};
}
