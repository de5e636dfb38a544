//! Server-side observability: request/phase histograms, the EXPLAIN
//! journal, and the assembled `GET /metrics` exposition.
//!
//! [`ServeObs`] owns the serve layer's latency histograms directly (not
//! through the global registry) so concurrent servers — and concurrent
//! tests — never smear each other's distributions. The global
//! [`rlc_obs::Registry`] is still rendered into the exposition: the
//! engine-side span families (`rlc_plan_*`) and stitch
//! counters (`rlc_stitch_*`) land there, and their names are disjoint
//! from the `rlc_serve_*` families by convention.
//!
//! The EXPLAIN journal is fed by sampled batches: every
//! [`crate::ServeConfig::explain_sample`]-th micro-batch (and explicit
//! `POST /batch`) executes through
//! [`rlc_core::BatchPlan::execute_explained`] — same answers, plus a
//! [`TraceNode`] tree of per-query plan decisions — and the tree is
//! retained in a bounded ring served by `GET /admin/explain?last=N`.

use crate::metrics::ServerMetrics;
use crate::swap::Epoch;
use rlc_obs::{expo, Histogram, TraceJournal, TraceNode};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Route families of the per-request latency histogram. A route's
/// discriminant is its series index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /query`.
    Query,
    /// `POST /batch`.
    Batch,
    /// `POST /admin/reload` and `GET /admin/explain`.
    Admin,
    /// Everything else (`/healthz`, `/metrics`, 404s, …).
    Other,
}

impl Route {
    fn label(self) -> &'static str {
        match self {
            Route::Query => "query",
            Route::Batch => "batch",
            Route::Admin => "admin",
            Route::Other => "other",
        }
    }
}

/// One server's observability block: histograms, the trace journal, and
/// the sampling sequence. Shared by the workers and the batcher thread.
#[derive(Debug)]
pub struct ServeObs {
    journal: TraceJournal,
    explain_sample: u64,
    explain_seq: AtomicU64,
    /// End-to-end request latency, one series per [`Route`].
    requests: [Histogram; 4],
    /// Listener-to-worker handoff wait.
    queue_wait: Histogram,
    /// Reading + parsing one request within its limits.
    parse: Histogram,
    /// First arrival to batch seal in the micro-batcher.
    batch_window: Histogram,
    /// `BatchPlan` execution (micro-batches and explicit batches).
    execute: Histogram,
    /// Serializing + writing one JSON response.
    write: Histogram,
}

impl ServeObs {
    /// A fresh block retaining `explain_capacity` traces and sampling one
    /// batch in `explain_sample` for EXPLAIN (`0` disables sampling).
    pub fn new(explain_capacity: usize, explain_sample: u64) -> Self {
        ServeObs {
            journal: TraceJournal::new(explain_capacity),
            explain_sample,
            explain_seq: AtomicU64::new(0),
            requests: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
            queue_wait: Histogram::new(),
            parse: Histogram::new(),
            batch_window: Histogram::new(),
            execute: Histogram::new(),
            write: Histogram::new(),
        }
    }

    /// The EXPLAIN journal.
    pub fn journal(&self) -> &TraceJournal {
        &self.journal
    }

    /// Whether the batch claiming this tick should execute through the
    /// EXPLAIN path. Every `explain_sample`-th batch does (the first
    /// always qualifies, so `explain_sample == 1` means *every* batch);
    /// `explain_sample == 0` means never.
    pub fn should_explain(&self) -> bool {
        if self.explain_sample == 0 {
            return false;
        }
        // rlc-analyze: allow(atomic-pairing) — sampling ticket; no memory is published through it
        let tick = self.explain_seq.fetch_add(1, Ordering::Relaxed);
        tick.is_multiple_of(self.explain_sample)
    }

    /// Retains `trace` in the journal (oldest evicted past capacity).
    pub fn push_trace(&self, trace: TraceNode) {
        self.journal.push(trace);
    }

    /// Records one request's end-to-end latency under its route.
    pub fn record_request(&self, route: Route, elapsed: Duration) {
        self.requests[route as usize].record_duration(elapsed);
    }

    /// Records the listener-to-worker queue wait.
    pub fn record_queue_wait(&self, elapsed: Duration) {
        self.queue_wait.record_duration(elapsed);
    }

    /// Records reading + parsing one request.
    pub fn record_parse(&self, elapsed: Duration) {
        self.parse.record_duration(elapsed);
    }

    /// Records the micro-batch coalescing window (first arrival → seal).
    pub fn record_batch_window(&self, elapsed: Duration) {
        self.batch_window.record_duration(elapsed);
    }

    /// Records one `BatchPlan` execution.
    pub fn record_execute(&self, elapsed: Duration) {
        self.execute.record_duration(elapsed);
    }

    /// Records serializing + writing one response.
    pub fn record_write(&self, elapsed: Duration) {
        self.write.record_duration(elapsed);
    }

    /// The full `GET /metrics` document: server counters and gauges
    /// ([`ServerMetrics::write_exposition`]), index-footprint gauges for
    /// `epoch`, the serve latency histograms, and every series of the
    /// global registry (engine-side spans and stitch counters).
    pub fn render_metrics(
        &self,
        metrics: &ServerMetrics,
        generation: u64,
        epoch: &Epoch,
    ) -> String {
        let mut out = String::with_capacity(8 << 10);
        metrics.write_exposition(&mut out, generation);

        expo::write_type(&mut out, "rlc_serve_index_bytes", "gauge");
        expo::write_sample(
            &mut out,
            "rlc_serve_index_bytes",
            &[("kind", epoch.kind_name())],
            epoch.index_bytes(),
        );
        if let Some(csr_bytes) = epoch.csr_index_bytes() {
            expo::write_type(&mut out, "rlc_serve_index_csr_bytes", "gauge");
            expo::write_sample(&mut out, "rlc_serve_index_csr_bytes", &[], csr_bytes);
        }

        expo::write_type(&mut out, "rlc_serve_request_seconds", "histogram");
        for route in [Route::Query, Route::Batch, Route::Admin, Route::Other] {
            expo::write_histogram(
                &mut out,
                "rlc_serve_request_seconds",
                &[("route", route.label())],
                &self.requests[route as usize].snapshot(),
            );
        }
        let phases = [
            ("rlc_serve_queue_wait_seconds", &self.queue_wait),
            ("rlc_serve_parse_seconds", &self.parse),
            ("rlc_serve_batch_window_seconds", &self.batch_window),
            ("rlc_serve_execute_seconds", &self.execute),
            ("rlc_serve_write_seconds", &self.write),
        ];
        for (name, hist) in phases {
            expo::write_type(&mut out, name, "histogram");
            expo::write_histogram(&mut out, name, &[], &hist.snapshot());
        }

        // The engine-side families: span histograms (rlc_plan_*) and
        // stitch counters (rlc_stitch_*). Their names
        // are disjoint from everything written above, so the document
        // stays duplicate-free (the e2e smoke test parses it to prove
        // that).
        let global = rlc_obs::global();
        for (name, value) in global.counter_snapshots() {
            expo::write_type(&mut out, &name, "counter");
            expo::write_sample(&mut out, &name, &[], value);
        }
        for (name, value) in global.gauge_snapshots() {
            expo::write_type(&mut out, &name, "gauge");
            expo::write_sample(&mut out, &name, &[], value);
        }
        for (name, snap) in global.histogram_snapshots() {
            expo::write_type(&mut out, &name, "histogram");
            expo::write_histogram(&mut out, &name, &[], &snap);
        }
        out
    }

    /// The `GET /admin/explain` body: `{"ok":true,"count":…,"traces":[…]}`
    /// with the newest `last` retained trace trees first.
    pub fn explain_body(&self, last: usize) -> String {
        let traces = self.journal.last(last);
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"ok\":true,\"count\":{},\"traces\":[", traces.len());
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&trace.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_fires_on_the_configured_stride() {
        let obs = ServeObs::new(8, 3);
        let fired: Vec<bool> = (0..9).map(|_| obs.should_explain()).collect();
        assert_eq!(
            fired,
            vec![true, false, false, true, false, false, true, false, false]
        );
        let off = ServeObs::new(8, 0);
        assert!((0..5).all(|_| !off.should_explain()));
    }

    #[test]
    fn explain_body_is_valid_newest_first_json() {
        let obs = ServeObs::new(4, 1);
        for i in 0..6 {
            let mut node = TraceNode::new("batch");
            node.attr("seq", i);
            obs.push_trace(node);
        }
        let body = obs.explain_body(2);
        assert!(body.starts_with("{\"ok\":true,\"count\":2,\"traces\":["));
        let first = body.find("\"seq\":\"5\"").expect("newest trace first");
        let second = body.find("\"seq\":\"4\"").expect("then its predecessor");
        assert!(first < second);
        assert!(
            !body.contains("\"seq\":\"1\""),
            "capacity 4 evicted seq 0/1"
        );
    }

    #[test]
    fn empty_journal_renders_an_empty_trace_list() {
        let obs = ServeObs::new(4, 0);
        assert_eq!(
            obs.explain_body(10),
            "{\"ok\":true,\"count\":0,\"traces\":[]}"
        );
    }
}
