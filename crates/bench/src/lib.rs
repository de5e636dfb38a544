//! # rlc-bench
//!
//! Reproduction harness for the paper's evaluation (§VI). Its one binary,
//! `run_all [experiment]`, regenerates a table, figure or ablation of the
//! paper by name, or all of them in order (see [`experiments`] for the
//! index). Performance of this workspace itself — kernel, index, planner,
//! cache, shards, HTTP — is measured by the separate `benchmark/` package,
//! not here.
//!
//! The library part holds the pieces shared by the experiments: parsing of
//! the common `--scale`/`--seed` options and measurement helpers.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod experiments;
pub mod measure;

pub use cli::CommonArgs;
pub use measure::{
    evaluate_capped, evaluate_query_set, median_duration, CappedTiming, QuerySetTiming,
};
