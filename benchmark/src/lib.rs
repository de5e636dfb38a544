//! # rlc-benchmark
//!
//! The repository's one benchmark. It drives the system only through public
//! functions — `build_index`, `RlcIndex::{to_bytes, from_bytes, query_mr}`,
//! `ReachabilityEngine::{evaluate, prepare, evaluate_prepared}`,
//! `BatchPlan::{new, execute_cached}`, `PlanCache`, `repetition_closure`,
//! `ShardedIndex::build` / `ShardedEngine`, and `rlc_serve::Server` over
//! loopback TCP — one workload per process, and prints every metric by name
//! and unit after checking every answer.
//!
//! `README.md` beside this crate is the manual: what each workload is for,
//! what each metric means and which end-to-end metric it should move, and how
//! to read a trace file.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod fixture;
pub mod gen;
pub mod harness;
pub mod host;
pub mod http;
pub mod layers;
pub mod manifest;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
