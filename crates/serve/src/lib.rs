//! `rlc-serve`: a long-running query service over the RLC engines.
//!
//! Everything below is pure std + the workspace's vendored crates — the
//! build environment has no registry access, so the HTTP layer is
//! hand-rolled over [`std::net::TcpListener`] with the same division-form
//! bounds discipline as the binary decoders
//! ([`rlc_graph::checked_len`] caps on header and body sizes, absolute
//! read deadlines against slow-loris clients).
//!
//! ## Architecture
//!
//! ```text
//! TcpListener ──► accept ──► bounded MPSC queue ──► worker pool (N threads)
//!                   │ queue full?                        │ parse + route
//!                   └─► preformatted 503 + Retry-After   ▼
//!                       (allocation-free shed)      micro-batcher
//!                                                        │ window ≤ batch_window
//!                                                        ▼
//!                                       BatchPlan::execute(engine)
//!                                                        ▲
//!                                  IndexSlot (epoch swap, generation stamps)
//! ```
//!
//! * **Admission control** ([`pool`]): a fixed worker pool drains a bounded
//!   queue; when the queue is full the listener *sheds* — it answers with a
//!   preformatted static `503` carrying `Retry-After` and closes, so
//!   overload can never grow memory. Requests that miss their per-request
//!   deadline are answered `504`.
//! * **Micro-batching** ([`batcher`]): single queries rendezvous for up to
//!   [`ServeConfig::batch_window`] and execute as one
//!   [`rlc_core::BatchPlan`] — concurrent same-constraint requests prepare
//!   once and share grouped traversals.
//! * **Hot swap** ([`swap`]): the serving index lives in an [`IndexSlot`]
//!   epoch slot. `POST /admin/reload` loads an `RLC3`/`RSH1` blob and swaps
//!   it in; in-flight batches finish on the epoch they snapshotted, and
//!   every response carries the generation stamp it was answered under, so
//!   clients (and the e2e tests) can prove no stale answer crossed a swap.
//! * **Observability** ([`metrics`], [`obs`]): `GET /metrics` serves a
//!   `# TYPE`-annotated exposition — server counters, index-footprint
//!   and queue gauges, latency histograms with cumulative buckets, and
//!   the engine-side span families from the global [`rlc_obs`] registry.
//!   Sampled batches execute through the EXPLAIN path and their plan
//!   traces are served as JSON by `GET /admin/explain?last=N`.
//!
//! See the README's *Serving* and *Observability* sections for the wire
//! protocol and exposition grammar.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod http;
pub mod listener;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod swap;

pub use batcher::{BatchAnswer, BatcherClient, MicroBatcher};
pub use listener::Server;
pub use metrics::{Counter, ServerMetrics};
pub use obs::{Route, ServeObs};
pub use pool::{PoolClient, WorkerPool};
pub use swap::{Epoch, IndexSlot};

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks a mutex, recovering from poisoning instead of panicking — the
/// serve crate's locks guard bookkeeping (pending queues, the epoch slot's
/// `Arc`), never partially built values, so continuing after another
/// thread's panic is always sound and keeps the server answering.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tunables of a [`Server`]. `Default` is sized for tests and small hosts;
/// production deployments raise `threads`/`queue_depth` to the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// TCP port to bind on loopback; `0` picks an ephemeral port (read it
    /// back from [`Server::addr`]).
    pub port: u16,
    /// Worker threads draining the accept queue (clamped to at least 1).
    pub threads: usize,
    /// Bounded accept-queue depth; a full queue sheds with `503`.
    pub queue_depth: usize,
    /// How long the micro-batcher waits after the first in-flight query for
    /// more to pile on before executing the batch. Zero disables the wait.
    pub batch_window: Duration,
    /// End-to-end per-request budget; a single query that cannot be
    /// answered by this deadline gets a preformatted `504`.
    pub request_deadline: Duration,
    /// Absolute deadline for *reading* one request (slow-loris guard): a
    /// client may trickle bytes, but the whole request must arrive within
    /// this budget or the connection is answered `408` and closed.
    pub read_deadline: Duration,
    /// Cap on the request line + headers, enforced while reading.
    pub max_header_bytes: usize,
    /// Cap on the declared `Content-Length`, enforced via
    /// [`rlc_graph::checked_len`] before the body is believed.
    pub max_body_bytes: usize,
    /// How many EXPLAIN trace trees the journal retains for
    /// `GET /admin/explain` (oldest evicted past the cap; `0` retains
    /// none).
    pub explain_capacity: usize,
    /// EXPLAIN sampling stride: every `explain_sample`-th batch executes
    /// through the diagnosed path and its plan trace is journaled. `1`
    /// traces every batch, `0` (the default) never — the serving fast
    /// path is untouched unless tracing is asked for.
    pub explain_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            threads: 4,
            queue_depth: 64,
            batch_window: Duration::from_millis(1),
            request_deadline: Duration::from_secs(2),
            read_deadline: Duration::from_secs(2),
            max_header_bytes: 8 << 10,
            max_body_bytes: 4 << 20,
            explain_capacity: 32,
            explain_sample: 0,
        }
    }
}
