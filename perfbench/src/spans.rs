//! Benchmark-side spans around each call into a layer's public entry point.
//!
//! Spans are kept in memory (name, start, end, parent span, operation id)
//! and written once at exit as Chrome trace-event JSON, the format
//! `greduce trace` emits and Perfetto loads. A disabled recorder costs one
//! branch per span, so the untraced runs time the same code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or operation name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span; pass it back to [`Recorder::close`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder that records only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Recorder {
        Recorder { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (spans already recorded are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::open`] (and any span left open
    /// inside it).
    pub fn close(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
            self.spans[top].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// All recorded spans, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Total seconds spent in spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// time its direct children cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Self time of spans named `name`, in seconds.
    #[must_use]
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_times().get(name).copied().unwrap_or(0.0)
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, timestamps in microseconds, with the operation id and the
    /// parent span index as arguments.
    #[must_use]
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_json_lists_every_span() {
        let mut rec = Recorder::new(true);
        rec.next_op();
        let outer = rec.open("outer");
        let inner = rec.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(inner);
        rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        let selfs = rec.self_times();
        let outer_total = spans[0].secs();
        assert!((selfs["outer"] + selfs["inner"] - outer_total).abs() < 1e-9);
        assert!(selfs["inner"] >= 0.002);
        let json = rec.chrome_json("test");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.open("x");
        rec.close(s);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.span("y", || 7), 7);
    }
}
