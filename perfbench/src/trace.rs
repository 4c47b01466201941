//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers exactly one public call, made from here.
//!
//! Spans stay in memory while the run measures and are written out once
//! it ends. A span's *self time* is its duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span buffer. When disabled, [`Trace::span`] is a plain
/// call: no clock reads, no allocation.
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool, origin: Instant) -> Self {
        Trace {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose end is set by [`Trace::close`]; `None` when off.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Moves `other`'s spans into this buffer (re-basing parent indices).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times in microseconds, per span name and request id (the self
    /// times of one request's spans of one name are summed: a restart that
    /// opens two tables is one sample).
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut by: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by.entry(s.name).or_default().entry(s.req).or_default() += t as f64 / 1e3;
        }
        by
    }

    /// Writes every span as one CSV line:
    /// `id,parent,req,name,start_ns,end_ns,self_ns`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("id,parent,req,name,start_ns,end_ns,self_ns\n");
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{},{t}",
                s.req, s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_rebases_parents() {
        let mut a = Trace::new(true, Instant::now());
        a.spans.push(Span {
            name: "root",
            start: 0,
            end: 100,
            parent: None,
            req: 1,
        });
        a.spans.push(Span {
            name: "child",
            start: 10,
            end: 40,
            parent: Some(0),
            req: 1,
        });
        let mut b = Trace::new(true, Instant::now());
        b.spans.push(Span {
            name: "root",
            start: 0,
            end: 50,
            parent: None,
            req: 2,
        });
        b.spans.push(Span {
            name: "child",
            start: 0,
            end: 50,
            parent: Some(0),
            req: 2,
        });
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.self_times(), vec![70, 30, 0, 50]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now());
        assert_eq!(t.span("x", 0, None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
