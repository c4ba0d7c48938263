//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls the benchmark makes into the
//! program's public functions; the program itself carries no
//! instrumentation. Each span has a name, a start and an end, the span
//! that caused it and the request it belongs to. Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's interned names.
    pub name: usize,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; shared by all spans of one request.
    pub request: u64,
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Interns a span name once, so recording a span never allocates for
    /// its name.
    pub fn name(&mut self, name: &str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i;
        }
        self.names.push(name.to_string());
        self.names.len() - 1
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its handle.
    pub fn open(&mut self, name: usize, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes the span `handle` and returns its duration, ns.
    pub fn close(&mut self, handle: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[handle];
        span.end = end;
        end - span.start
    }

    /// Adds an already-measured span (used by the self-tests).
    #[cfg(test)]
    fn push(&mut self, name: usize, start: u64, end: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request: 0,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, ns: its duration minus the part of its
    /// interval that its children cover (overlapping children count once,
    /// and a child running past its parent counts only inside it).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                let duration = span.end.saturating_sub(span.start);
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start;
                for (s, e) in kids {
                    let s = s.max(reach);
                    let e = e.min(span.end);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                duration - covered.min(duration)
            })
            .collect()
    }

    /// Median self time per span name, µs, in name order.
    pub fn median_self_us(&self) -> BTreeMap<String, f64> {
        self.median_by_name(self.self_times())
    }

    /// Median duration (including children) per span name, µs.
    pub fn median_total_us(&self) -> BTreeMap<String, f64> {
        self.median_by_name(self.spans.iter().map(|s| s.end.saturating_sub(s.start)))
    }

    /// Median per span name, µs, of one value in ns per span.
    fn median_by_name(&self, ns: impl IntoIterator<Item = u64>) -> BTreeMap<String, f64> {
        let mut by_name: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (span, v) in self.spans.iter().zip(ns) {
            by_name.entry(span.name).or_default().push(v as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (self.names[name].clone(), crate::stats::median(&v)))
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one CSV row: `request,span,parent,name,start_ns,end_ns,self_ns`.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "request,span,parent,name,start_ns,end_ns,self_ns")?;
        for (i, (span, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                span.request, i, parent, self.names[span.name], span.start, span.end, t
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_interval() {
        let mut t = Tracer::new();
        let root = t.name("root");
        let leaf = t.name("leaf");
        let p = t.push(root, 0, 100, None);
        // Overlapping children [10,30] and [20,40] cover [10,40]; the
        // third runs past the parent and counts only up to 100.
        t.push(leaf, 10, 30, Some(p));
        t.push(leaf, 20, 40, Some(p));
        t.push(leaf, 90, 120, Some(p));
        let st = t.self_times();
        assert_eq!(st[0], 100 - 30 - 10);
        assert_eq!(&st[1..], &[20, 20, 30]);
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let mut t = Tracer::new();
        let n = t.name("x");
        let a = t.push(n, 0, 1_000, None);
        let b = t.push(n, 100, 600, Some(a));
        t.push(n, 200, 300, Some(b));
        let st = t.self_times();
        // `a` loses b's whole interval; b loses its child's.
        assert_eq!(st, vec![500, 400, 100]);
        assert_eq!(
            st.iter().sum::<u64>(),
            1_000,
            "self times partition the root"
        );
    }

    #[test]
    fn live_spans_nest_and_name_once() {
        let mut t = Tracer::new();
        let outer = t.name("outer");
        let inner = t.name("inner");
        assert_eq!(t.name("outer"), outer);
        let o = t.open(outer, None, 7);
        let i = t.open(inner, Some(o), 7);
        std::hint::black_box((0..1_000).sum::<u64>());
        t.close(i);
        t.close(o);
        let st = t.self_times();
        assert!(st[0] + st[1] <= t.spans[o].end - t.spans[o].start);
        let medians = t.median_self_us();
        assert_eq!(medians.len(), 2);
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap().lines().count(), 3);
    }
}
