//! # rlc-obs
//!
//! Workspace-wide observability with a hard overhead contract. Three
//! layers, all pure std and lock-free on every hot path:
//!
//! * **Metrics** ([`Registry`]): monotonic [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed power-of-two latency [`Histogram`]s whose recording is a
//!   few relaxed atomic adds, sharded per thread to keep concurrent
//!   recorders off each other's cache lines. Snapshots merge the shards
//!   observationally and answer p50/p90/p99/max.
//! * **Spans** ([`span!`]): RAII timers feeding histograms of the global
//!   registry, with a bounded ring-buffer journal of the last spans. When
//!   the global registry is disabled (the default), starting a span is one
//!   relaxed load — no clock read, no allocation.
//! * **EXPLAIN traces** ([`TraceNode`]): a machine-readable tree of
//!   per-query plan decisions (cache hit, shard route, per-phase
//!   timings) rendered as JSON, collected in a bounded
//!   [`TraceJournal`] served by `rlc-serve`'s `GET /admin/explain`.
//!
//! The exposition module ([`expo`]) renders `# TYPE`-annotated text with
//! cumulative histogram buckets, and parses it back — the e2e suite uses
//! the parser to validate `GET /metrics` output against the grammar.
//!
//! The global registry starts **disabled**: libraries instrument freely
//! and pay one atomic load per guarded site until something (a server, a
//! bench, a test) calls [`set_global_enabled`]. Observation never changes
//! answers — the engine differential runs with tracing enabled to prove
//! it.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expo;
mod hist;
mod registry;
mod span;
mod trace;

pub use hist::{Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use registry::{global, global_enabled, set_global_enabled, Counter, Gauge, Registry};
pub use span::{recent_spans, SpanEvent, SpanGuard};
pub use trace::{json_escape, TraceJournal, TraceNode};

/// Recovers the inner value of a poisoned mutex: every structure in this
/// crate is observational (counters, rings), so a panic mid-update can at
/// worst tear a statistic, never an answer — continuing beats poisoning
/// the whole process's telemetry.
pub(crate) fn lock_recover<'a, T>(lock: &'a std::sync::Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
