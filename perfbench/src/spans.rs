//! In-memory span log for the traced run, written out when the run ends.
//!
//! Spans are recorded at the benchmark's own call boundaries: around trace
//! generation, driver construction, each `Driver::step_events` slice and
//! the final report (or the whole `run_prototype` call). Scheduler calls are far too many for a span each, so
//! every slice records its probe and victim call totals as aggregate
//! children: a child's duration is the host time its calls took inside
//! the slice, laid out from the slice's start, so a slice's self time is its duration
//! minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

use crate::timed::CallTotals;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `core.driver.step`.
    pub name: &'static str,
    /// Index of the enclosing span in the log, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds from the log's origin.
    pub start_ns: u64,
    /// Nanoseconds from the log's origin.
    pub end_ns: u64,
    /// Work counted inside the span: events for a step slice, calls for
    /// an aggregate scheduler child, 0 otherwise.
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one benchmark run, in opening order.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording `count` units of work inside it.
    pub fn close(&mut self, id: usize, count: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.count = count;
    }

    /// Records `totals` as an aggregate child of `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, totals: CallTotals) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + totals.nanos,
            count: totals.calls,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                span.name, span.start_ns, span.end_ns, span.count
            );
        }
        out
    }
}
