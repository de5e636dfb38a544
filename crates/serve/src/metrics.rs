//! Server counters and the `GET /metrics` text exposition.
//!
//! Counters are monotonic `AtomicU64`s bumped with relaxed ordering (no memory is published through them) and read
//! observationally. The queue-depth pair is the one gauge: `queue_depth`
//! tracks jobs currently admitted-but-unfinished and `queue_depth_max`
//! records its high-water mark — the bench harness asserts the high-water
//! mark stays within the configured bound to prove shedding (not queue
//! growth) absorbs overload.

use rlc_obs::expo;
use std::sync::atomic::{AtomicU64, Ordering};

/// Names of the monotonic server counters (the queue gauges are managed by
/// [`ServerMetrics::queue_enter`]/[`ServerMetrics::queue_leave`] instead).
/// A counter's discriminant is its cell index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Connections accepted off the listener.
    Accepted,
    /// Responses answered `200`.
    Ok200,
    /// Responses answered `400` (malformed JSON, constraint rejections,
    /// bad framing, failed reloads).
    BadRequest400,
    /// Responses answered `404`.
    NotFound404,
    /// Responses answered `405` (known path, wrong method).
    MethodNotAllowed405,
    /// Responses answered `408` (slow-loris read deadline).
    Timeout408,
    /// Responses answered `413` (declared body over the cap).
    BodyTooLarge413,
    /// Responses answered `431` (head over the cap).
    HeadersTooLarge431,
    /// Connections shed with the preformatted `503` (queue full).
    Shed503,
    /// Requests answered the preformatted `504` (deadline exceeded).
    Deadline504,
    /// Single queries admitted to the micro-batcher.
    Queries,
    /// `POST /batch` requests executed.
    BatchRequests,
    /// Micro-batches executed by the batcher thread.
    Microbatches,
    /// Queries carried by those micro-batches (ratio to `Microbatches` is
    /// the realized coalescing factor).
    MicrobatchedQueries,
    /// Successful `POST /admin/reload` swaps.
    Reloads,
    /// Rejected `POST /admin/reload` blobs.
    ReloadFailures,
}

/// All counters, in discriminant order (which is also exposition order).
const ALL: [(Counter, &str); 16] = [
    (Counter::Accepted, "rlc_serve_accepted_total"),
    (Counter::Ok200, "rlc_serve_ok_total"),
    (Counter::BadRequest400, "rlc_serve_bad_request_total"),
    (Counter::NotFound404, "rlc_serve_not_found_total"),
    (
        Counter::MethodNotAllowed405,
        "rlc_serve_method_not_allowed_total",
    ),
    (Counter::Timeout408, "rlc_serve_read_timeout_total"),
    (Counter::BodyTooLarge413, "rlc_serve_body_too_large_total"),
    (
        Counter::HeadersTooLarge431,
        "rlc_serve_headers_too_large_total",
    ),
    (Counter::Shed503, "rlc_serve_shed_total"),
    (Counter::Deadline504, "rlc_serve_deadline_total"),
    (Counter::Queries, "rlc_serve_queries_total"),
    (Counter::BatchRequests, "rlc_serve_batch_requests_total"),
    (Counter::Microbatches, "rlc_serve_microbatches_total"),
    (
        Counter::MicrobatchedQueries,
        "rlc_serve_microbatched_queries_total",
    ),
    (Counter::Reloads, "rlc_serve_reloads_total"),
    (Counter::ReloadFailures, "rlc_serve_reload_failures_total"),
];

/// Shared counter block of one [`crate::Server`].
#[derive(Debug, Default)]
pub struct ServerMetrics {
    counters: [AtomicU64; ALL.len()],
    queue_depth: AtomicU64,
    queue_depth_max: AtomicU64,
}

impl ServerMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    fn cell(&self, which: Counter) -> &AtomicU64 {
        &self.counters[which as usize]
    }

    /// Increments `which` by one.
    pub fn bump(&self, which: Counter) {
        self.add(which, 1);
    }

    /// Increments `which` by `n`.
    pub fn add(&self, which: Counter, n: u64) {
        // rlc-analyze: allow(atomic-pairing) — monotonic stats counter; no memory is published through it
        self.cell(which).fetch_add(n, Ordering::Relaxed);
    }

    /// Reads `which` observationally.
    pub fn get(&self, which: Counter) -> u64 {
        // rlc-analyze: allow(atomic-pairing) — observational stats read; approximate by design
        self.cell(which).load(Ordering::Relaxed)
    }

    /// Records one job admitted to the worker queue, updating the
    /// high-water mark. Called *before* the queue insert so the gauge is an
    /// upper bound on true depth, never an undercount.
    pub fn queue_enter(&self) {
        // rlc-analyze: allow(atomic-pairing) — gauge + high-water mark; observational, no memory published
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        // rlc-analyze: allow(atomic-pairing) — monotonic max of an observational gauge
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a job leaving the queue (picked up by a worker, or bounced
    /// by admission control). Saturates at zero: a spurious extra leave
    /// (a bug, or a restart-raced counter) must read as an empty queue,
    /// not wrap the gauge to `u64::MAX` and poison every later sample.
    pub fn queue_leave(&self) {
        let _ = self
            .queue_depth
            // rlc-analyze: allow(atomic-pairing) — observational gauge decrement, saturating CAS loop
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                Some(depth.saturating_sub(1))
            });
    }

    /// Jobs currently admitted and unfinished.
    pub fn queue_depth(&self) -> u64 {
        // rlc-analyze: allow(atomic-pairing) — observational gauge read
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of [`ServerMetrics::queue_depth`] since start.
    pub fn queue_depth_max(&self) -> u64 {
        // rlc-analyze: allow(atomic-pairing) — observational gauge read
        self.queue_depth_max.load(Ordering::Relaxed)
    }

    /// Appends the server-counter and gauge families to an exposition
    /// document: a `# TYPE` declaration per family followed by its sample.
    /// The full `GET /metrics` document — these families plus the index
    /// gauges and latency histograms — is assembled by
    /// [`crate::obs::ServeObs::render_metrics`].
    pub fn write_exposition(&self, out: &mut String, generation: u64) {
        for (counter, name) in ALL {
            expo::write_type(out, name, "counter");
            expo::write_sample(out, name, &[], self.get(counter));
        }
        let gauges = [
            ("rlc_serve_queue_depth", self.queue_depth()),
            ("rlc_serve_queue_depth_max", self.queue_depth_max()),
            ("rlc_serve_generation", generation),
        ];
        for (name, value) in gauges {
            expo::write_type(out, name, "gauge");
            expo::write_sample(out, name, &[], value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_in_discriminant_order() {
        for (i, (counter, _)) in ALL.iter().enumerate() {
            assert_eq!(*counter as usize, i, "{counter:?} is out of place");
        }
    }

    #[test]
    fn every_counter_has_its_own_cell() {
        let metrics = ServerMetrics::new();
        for (i, (counter, _)) in ALL.iter().enumerate() {
            metrics.add(*counter, i as u64 + 1);
        }
        for (i, (counter, _)) in ALL.iter().enumerate() {
            assert_eq!(metrics.get(*counter), i as u64 + 1);
        }
    }

    #[test]
    fn queue_gauges_track_depth_and_high_water() {
        let metrics = ServerMetrics::new();
        metrics.queue_enter();
        metrics.queue_enter();
        metrics.queue_enter();
        metrics.queue_leave();
        assert_eq!(metrics.queue_depth(), 2);
        assert_eq!(metrics.queue_depth_max(), 3);
        metrics.queue_leave();
        metrics.queue_leave();
        assert_eq!(metrics.queue_depth(), 0);
        assert_eq!(metrics.queue_depth_max(), 3, "the mark is sticky");
    }

    /// Regression: an unpaired `queue_leave` (a bounce double-released, a
    /// bug in a future caller) used to wrap the depth gauge to `u64::MAX`,
    /// after which every `/metrics` scrape reported an 18-quintillion-deep
    /// queue forever. The gauge now saturates at zero.
    #[test]
    fn queue_leave_saturates_at_zero_instead_of_wrapping() {
        let metrics = ServerMetrics::new();
        metrics.queue_leave();
        assert_eq!(metrics.queue_depth(), 0, "no underflow wrap");
        metrics.queue_enter();
        metrics.queue_leave();
        metrics.queue_leave();
        metrics.queue_leave();
        assert_eq!(metrics.queue_depth(), 0);
        metrics.queue_enter();
        assert_eq!(metrics.queue_depth(), 1, "the gauge still counts up");
    }

    #[test]
    fn exposition_declares_every_family_exactly_once() {
        let metrics = ServerMetrics::new();
        metrics.bump(Counter::Accepted);
        let mut text = String::new();
        metrics.write_exposition(&mut text, 42);
        let expo = rlc_obs::expo::parse(&text).expect("counter families validate");
        assert_eq!(expo.value("rlc_serve_accepted_total"), Some(1.0));
        assert_eq!(expo.value("rlc_serve_generation"), Some(42.0));
        // One family per counter and the three server gauges — all
        // declared, none twice (parse enforces it).
        assert_eq!(expo.families.len(), ALL.len() + 3);
        assert_eq!(expo.samples.len(), expo.families.len());
    }
}
