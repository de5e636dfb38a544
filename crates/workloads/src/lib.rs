//! # rlc-workloads
//!
//! Workload and dataset generation for the RLC index experiments:
//!
//! * [`querygen`] — generation of the 1000-true / 1000-false query sets the
//!   paper evaluates on every graph (§VI-c), validated with bidirectional
//!   search;
//! * [`datasets`] — the catalog of the thirteen real-world graphs of
//!   Table III together with structure-matched synthetic stand-ins (the
//!   module docs give the substitution rationale), plus the ER/BA
//!   configurations of the synthetic experiments;
//! * [`runner`] — small utilities shared by the paper's experiments: timing,
//!   unit formatting and plain-text table rendering.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod querygen;
pub mod runner;

pub use datasets::{table3_catalog, DatasetSpec, GeneratorKind};
pub use querygen::{generate_query_set, QueryGenConfig, QuerySet};
pub use runner::{format_bytes, format_duration, time, Table};
