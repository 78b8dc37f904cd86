//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into the
//! public functions of each crate. Every span carries the id of the
//! operation (session, campaign round, design pass) it belongs to, its
//! start and end in nanoseconds since the recorder was created, and the
//! index of the span that was open when it began. Nothing is written until
//! [`Tracer::write_jsonl`] runs at the end of the benchmark.
//!
//! With tracing off every call is one branch and no clock read, so the
//! same code path serves the untraced and the traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; inert when tracing is off.
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_op: u64,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            next_op: 0,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an operation");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        self.op = self.next_op;
        self.next_op += 1;
        self.begin(name)
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NONE),
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes the span `open`, which must be the innermost open one.
    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans closed out of order");
        self.spans[open.0 as usize].end_ns = end;
    }

    /// Records `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Adds a child span of the innermost open span with a known duration,
    /// laid out from `start_ns`; for durations measured by the program
    /// itself (the lint driver's per-pass stage timer).
    pub fn record(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied().unwrap_or(NONE),
        });
    }

    /// Start of the innermost open span, or now.
    pub fn open_start_ns(&self) -> u64 {
        match self.open.last() {
            Some(&i) => self.spans[i as usize].start_ns,
            None => self.now_ns(),
        }
    }

    /// Summarises the recorded spans: per span name, the summed self time
    /// (duration minus the part covered by direct children); plus the
    /// number of operations and their summed wall time.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut ops = 0u64;
        let mut op_ns = 0u64;
        for (s, child) in self.spans.iter().zip(child_ns) {
            *layers.entry(s.name).or_default() += s.dur_ns().saturating_sub(child);
            if s.parent == NONE {
                ops += 1;
                op_ns += s.dur_ns();
            }
        }
        Summary { layers, ops, op_ns }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregated self times of a trace.
pub struct Summary {
    /// Span name → summed self time in ns.
    pub layers: BTreeMap<&'static str, u64>,
    /// Root spans (operations).
    pub ops: u64,
    /// Summed wall time of the operations, in ns.
    pub op_ns: u64,
}

impl Summary {
    /// Self time of `name` per operation, in milliseconds.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        let ns = self.layers.get(name).copied().unwrap_or(0);
        ns as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// Summed self time of `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0) as f64 / 1e9
    }
}
