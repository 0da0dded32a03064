//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions:
//! name, start, end, parent span and one id per statement. They stay in
//! memory until the run ends and are then written out as JSON lines. A
//! layer's self time is its span's duration minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `relational.parse`.
    pub name: &'static str,
    /// Statement the call served.
    pub stmt: u64,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Span store of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts at `epoch` (share it between
    /// threads so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, stmt: u64) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            stmt,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record a finished child of `parent` whose duration was measured
    /// elsewhere (the engine's own `elapsed_us`). Only its length is
    /// known, so it is placed at the parent's start.
    pub fn child_of(&mut self, parent: usize, name: &'static str, us: u64) {
        let p = &self.spans[parent];
        let span = Span {
            name,
            stmt: p.stmt,
            parent: Some(parent),
            start_ns: p.start_ns,
            end_ns: (p.start_ns + us * 1_000).min(p.end_ns),
        };
        self.spans.push(span);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: calls, total µs, self µs (total minus child cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_us += s.us();
            e.self_us += (s.us() - child_us[i]).max(0.0);
        }
        out
    }

    /// Mean duration (µs) of the spans called `name`; 0 when none.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0usize, 0.0), |(n, sum), s| (n + 1, sum + s.us()));
        crate::stats::ratio(sum, n as f64)
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"stmt\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.stmt, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed duration minus child cover, µs.
    pub self_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("root", 1);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let child = t.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        t.child_of(root, "measured", 1);
        let st = t.self_times();
        let (r, c) = (st["root"], st["child"]);
        assert_eq!((r.calls, c.calls), (1, 1));
        assert!(r.self_us >= 0.0 && r.self_us < r.total_us, "{r:?}");
        let covered = r.total_us - r.self_us;
        assert!((covered - c.total_us - 1.0).abs() < 1e-6, "{r:?} {c:?}");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.jsonl().lines().count() == 3);
    }
}
