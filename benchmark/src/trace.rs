//! Spans around the calls the harness makes into the system under test.
//!
//! Spans are buffered in memory and written out after the pass. A span's
//! self time is its duration minus what its children cover, so the self
//! times of a pass's tree add up to the pass's wall time.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, e.g. `runtime.ingest_columns`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Which pass of the run the span belongs to.
    pub pass: u32,
    /// The input chunk being offered, where there is one.
    pub chunk: Option<u32>,
    /// Rows handed to the call.
    pub rows_in: u64,
    /// Matches (or rows) the call returned.
    pub out: u64,
}

/// An in-memory span buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        pass: u32,
        chunk: Option<u32>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pass,
            chunk,
            rows_in: 0,
            out: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span, recording the counts taken at its boundary.
    pub fn end(&mut self, id: SpanId, rows_in: u64, out: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.rows_in = rows_in;
        span.out = out;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the buffer as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {}, \"pass\": {}, \"chunk\": {}, \
                 \"rows_in\": {}, \"out\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                s.pass,
                opt(s.chunk.map(u64::from)),
                s.rows_in,
                s.out,
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children of one parent do not overlap (one
/// thread makes all the calls), so the covered part is the sum of their
/// durations, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered =
                s.end_ns.min(parent.end_ns).saturating_sub(s.start_ns.max(parent.start_ns));
            selfs[p] = selfs[p].saturating_sub(covered);
        }
    }
    selfs
}

/// Sum of the self times of `root` and everything below it.
pub fn tree_self_ns(spans: &[Span], root: SpanId) -> u64 {
    let selfs = self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    // A span's parent is opened before it, so one forward sweep suffices.
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some_and(|p| in_tree[p]) {
            in_tree[i] = true;
        }
    }
    selfs.iter().zip(&in_tree).filter(|(_, t)| **t).map(|(s, _)| s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, pass: 0, chunk: None, rows_in: 0, out: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("pass", 0, 1000, None),
            span("chunk", 100, 400, Some(0)),
            span("runtime.ingest_columns", 150, 350, Some(1)),
            span("chunk", 500, 900, Some(0)),
            span("runtime.shutdown", 900, 1000, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![1000 - 300 - 400 - 100, 300 - 200, 200, 400, 100]);
        // Nothing is lost or counted twice: the tree adds up to the pass.
        assert_eq!(tree_self_ns(&spans, 0), 1000);
        assert_eq!(tree_self_ns(&spans, 1), 300);
    }

    #[test]
    fn a_child_running_past_its_parent_is_clipped() {
        let spans = vec![span("pass", 0, 100, None), span("late", 80, 150, Some(0))];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn tracer_records_nested_spans_and_counts() {
        let mut t = Tracer::default();
        let pass = t.begin("pass", None, 2, None);
        let call = t.begin("runtime.poll", Some(pass), 2, Some(7));
        t.end(call, 0, 3);
        t.end(pass, 10, 3);
        let spans = t.spans();
        assert_eq!(spans[call].parent, Some(pass));
        assert_eq!((spans[call].chunk, spans[call].out), (Some(7), 3));
        assert!(spans[pass].end_ns >= spans[call].end_ns);
        assert!(t.to_json().contains("\"name\": \"runtime.poll\""));
    }
}
