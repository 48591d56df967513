//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records its name, start, end, parent span and the id of the op
//! it belongs to. Spans are kept in memory and written out once, at exit.
//! Self time is a span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(base: Instant) -> Tracer {
        Tracer {
            base,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn base(&self) -> Instant {
        self.base
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name, op);
        let out = f();
        self.end(idx);
        out
    }

    /// Appends another thread's spans (parents re-indexed).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.base.duration_since(self.base).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Mean duration of the spans called `name`, in µs (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.end_ns - s.start_ns));
        crate::common::ratio(total as f64 / 1e3, n as f64)
    }

    /// Per span name: (calls, total self time in ns). Children of one
    /// parent run sequentially on one thread, so the part of a parent
    /// they cover is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// One JSON object per line: name, op, start, end, parent.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
