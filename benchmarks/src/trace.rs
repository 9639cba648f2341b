//! In-memory span recorder for the traced run.
//!
//! The harness wraps each call into a layer's public function in a span:
//! name, start, end, the span that caused it, and an operation id shared
//! by all spans of one unit / job / point. Spans live in memory and are
//! written out as JSON lines when the run ends. A layer's time is its
//! *self* time: its spans' durations minus the part their child spans
//! cover. Clock-free counters are kept beside the spans, at the same
//! boundaries.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `<crate>.<module>`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation (unit, job, point) this span belongs to.
    pub op: u64,
}

/// Records spans and counters for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
            on: true,
        }
    }

    /// A tracer that records nothing: every call is one branch. The
    /// untraced passes hand this to code that takes a tracer.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Set the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    ///
    /// # Panics
    /// Panics if spans are closed out of order — a harness bug.
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span with no children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Add to a clock-free counter.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if !self.on {
            return;
        }
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    /// A counter's value (0 if never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// All counters, by name.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name, seconds: each span's duration minus the
    /// durations of its direct children (children run inside the parent
    /// on one thread, so they never overlap each other).
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns.max(0) as f64 / 1e9;
        }
        out
    }

    /// Sum of all self times — the wall time the spans account for.
    #[must_use]
    pub fn covered_s(&self) -> f64 {
        self.self_times().values().sum()
    }

    /// Write one JSON object per span, then one per counter.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(out, r#"{{"counter":"{name}","value":{value}}}"#)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        // Hand-built spans so the arithmetic is exact.
        t.spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 1_000,
                parent: None,
                op: 7,
            },
            Span {
                name: "inner",
                start_ns: 100,
                end_ns: 400,
                parent: Some(0),
                op: 7,
            },
            Span {
                name: "inner",
                start_ns: 500,
                end_ns: 900,
                parent: Some(0),
                op: 7,
            },
        ];
        let st = t.self_times();
        assert!((st["outer"] - 300e-9).abs() < 1e-15);
        assert!((st["inner"] - 700e-9).abs() < 1e-15);
        assert!((t.covered_s() - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span_and_share_the_op() {
        let mut t = Tracer::new();
        t.set_op(3);
        let a = t.enter("a");
        let got = t.span("b", || 5);
        t.exit(a);
        assert_eq!(got, 5);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans().iter().all(|s| s.op == 3));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        t.count("n", 2.0);
        t.count("n", 1.0);
        assert_eq!(t.counter("n"), 3.0);
        assert_eq!(t.counter("absent"), 0.0);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let a = t.enter("a");
        assert_eq!(t.span("b", || 5), 5);
        t.exit(a);
        t.count("n", 1.0);
        assert!(t.spans().is_empty() && t.counters().is_empty());
    }
}
