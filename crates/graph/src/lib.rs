//! # rlc-graph
//!
//! Edge-labeled directed graph substrate used by the RLC index reproduction
//! ("A Reachability Index for Recursive Label-Concatenated Graph Queries",
//! ICDE 2023).
//!
//! The crate provides:
//!
//! * [`LabeledGraph`] — an immutable, CSR-backed edge-labeled directed graph
//!   with both out- and in-adjacency, the representation every algorithm in
//!   the workspace runs on;
//! * [`GraphBuilder`] — an incremental builder with string interning for
//!   vertex names and edge labels;
//! * [`generate`] — synthetic graph generators (Erdős–Rényi, Barabási–Albert)
//!   and the Zipfian label assignment the paper uses for unlabeled inputs;
//! * [`stats`] — the graph statistics reported in Table III of the paper
//!   (self-loop count, directed triangle count, degree distribution);
//! * [`scc`] — Tarjan's strongly connected components, used by statistics and
//!   workload generation;
//! * [`io`] — edge-list persistence: a plain-text format and a hardened
//!   binary format whose loader validates untrusted blobs;
//! * [`bounds`] — the bounded [`Reader`] every binary decoder reads
//!   through, and the division-form count check (`checked_len`) it sizes
//!   untrusted allocations with;
//! * [`partition`] — vertex partitioning into disjoint shards with cut-edge
//!   enumeration and subgraph extraction (the substrate of `rlc-shard`);
//! * [`examples`] — the two illustrative graphs of the paper (Fig. 1 and
//!   Fig. 2), used throughout tests and examples.
//!
//! ## Quick example
//!
//! ```
//! use rlc_graph::{GraphBuilder, Label};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge_named("a", "knows", "b");
//! b.add_edge_named("b", "knows", "c");
//! let g = b.build();
//! assert_eq!(g.vertex_count(), 3);
//! assert_eq!(g.edge_count(), 2);
//! let knows: Label = g.labels().resolve("knows").unwrap();
//! let a = g.vertex_id("a").unwrap();
//! assert_eq!(g.out_edges(a).len(), 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod builder;
pub mod examples;
pub mod generate;
pub mod graph;
pub mod io;
pub mod label;
pub mod partition;
pub mod scc;
pub mod stats;

pub use bounds::{checked_len, LengthBoundError, ReadError, Reader};
pub use builder::GraphBuilder;
pub use graph::{Edge, LabeledGraph, VertexId};
pub use label::{Label, LabelInterner};
pub use partition::{Partition, PartitionStrategy};
pub use stats::GraphStats;
