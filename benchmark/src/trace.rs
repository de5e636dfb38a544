//! Spans recorded from outside the crates.
//!
//! The traced run wraps each call into a layer's public functions in a span
//! (name, start, end, parent, operation id). Spans stay in memory and are
//! written once, at exit. A layer's *self time* is its spans' duration minus
//! the part their child spans cover. Nothing in the crates is instrumented:
//! spans inside the program are a later change.

use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" / "no operation".
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// The operation this span belongs to, or [`NONE`].
    pub op: u32,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u32 {
        // A handful of names per workload: a linear scan.
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u32
            }
        }
    }

    /// Runs `f` inside a span called `name` belonging to operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let name = self.name_id(name);
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Records a span measured elsewhere (a client thread's request phases,
    /// a duration a layer reported about itself).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Nanoseconds from the tracer's creation to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Totals per span name, self time included.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(self.names[span.name as usize]).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Summed duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return 0;
        };
        self.spans
            .iter()
            .filter(|span| span.name == id as u32)
            .map(|span| span.end_ns - span.start_ns)
            .sum()
    }

    /// The trace file: a name table, one `[name, start_ns, end_ns, parent,
    /// op]` row per span (`-1` for "none"; at most `max_spans` rows, the
    /// summary always covers all), and the per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64, max_spans: usize) -> String {
        let mut out = String::with_capacity(64 + 40 * self.spans.len().min(max_spans));
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"names\":[",
            self.spans.len()
        ));
        for (i, name) in self.names.iter().enumerate() {
            out.push_str(&format!("{}\"{name}\"", if i > 0 { "," } else { "" }));
        }
        out.push_str("],\"summary\":{");
        for (i, (name, time)) in self.summary().iter().enumerate() {
            out.push_str(&format!(
                "{}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                time.count,
                time.total_ns,
                time.self_ns
            ));
        }
        out.push_str("},\"spans\":[");
        let signed = |v: u32| if v == NONE { -1 } else { v as i64 };
        for (i, span) in self.spans.iter().take(max_spans).enumerate() {
            out.push_str(&format!(
                "{}[{},{},{},{},{}]",
                if i > 0 { ",\n" } else { "\n" },
                span.name,
                span.start_ns,
                span.end_ns,
                signed(span.parent),
                signed(span.op)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new();
        let root = tracer.record("op", 7, NONE, 0, 100);
        let child = tracer.record("engine.evaluate", 7, root, 10, 70);
        tracer.record("index.query_mr", 7, child, 20, 50);
        tracer.record("op", 8, NONE, 100, 130);
        let summary = tracer.summary();
        assert_eq!(
            summary["op"],
            LayerTime {
                count: 2,
                total_ns: 130,
                self_ns: 70
            }
        );
        assert_eq!(summary["engine.evaluate"].self_ns, 30);
        assert_eq!(summary["index.query_mr"].self_ns, 30);
        assert_eq!(tracer.total_ns("index.query_mr"), 30);
        assert_eq!(tracer.total_ns("absent"), 0);
    }

    #[test]
    fn nested_spans_record_parents_ops_and_ordered_times() {
        let mut tracer = Tracer::new();
        let answer = tracer.span("op", 3, |t| t.span("inner", 3, |_| 42));
        assert_eq!(answer, 42);
        assert_eq!(tracer.len(), 2);
        let (outer, inner) = (tracer.spans[0], tracer.spans[1]);
        assert_eq!((outer.parent, inner.parent, inner.op), (NONE, 0, 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = tracer.to_json("query-rlc", 1, 1);
        assert!(json.contains("\"spans_recorded\":2"));
        assert!(json.contains("\"names\":[\"op\",\"inner\"]"));
        assert_eq!(json.matches("\n[").count(), 1, "rows are capped: {json}");
    }
}
