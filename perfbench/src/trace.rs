//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each public call
//! into a layer (name, start, end, parent, op id), kept in a `Vec`, and
//! written out once the run ends, so recording costs two clock reads and
//! a push. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    op: u64,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (pass it to [`Spans::close`], or
    /// as the parent of nested spans).
    pub fn open(&mut self, name: &'static str, parent: usize, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
    }

    /// Records a span that ran from `start` to `end`.
    pub fn push_interval(
        &mut self,
        name: &'static str,
        parent: usize,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        };
        self.spans.push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn wrap<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per span name: (count, total ns, self ns), where self time is the
    /// span's duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns","parent","op"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::default();
        let op = spans.open("op", ROOT, 7);
        spans.wrap("child", op, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.close(op);
        let summary = spans.summary();
        let (n, total, own) = summary["op"];
        let (_, child_total, _) = summary["child"];
        assert_eq!(n, 1);
        assert_eq!(own, total - child_total);
        assert!(child_total >= 2_000_000);
        assert!(spans.to_json_lines().contains("\"parent\":0"));
    }
}
