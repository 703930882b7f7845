//! In-memory spans, recorded by the benchmark around its calls into each
//! layer of the library (the library itself carries no hooks).
//!
//! A span has a name, a start and an end, the bytes it processed, and the
//! span that caused it. Per-layer numbers are aggregated from spans by
//! name; a span's *self time* is its duration minus the part of its
//! interval that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was recorded at, e.g. `kernel.interior`.
    pub name: &'static str,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin (`>= start_ns`).
    pub end_ns: u64,
    /// Input bytes the call processed.
    pub bytes: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span log with a common time origin. A span's id is its index.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the origin (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under `parent`; it stays open until [`close`](Trace::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, parent, now, now, 0)
    }

    /// Closes span `id`, crediting it with `bytes`.
    pub fn close(&mut self, id: usize, bytes: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.bytes = bytes;
    }

    /// Records a finished span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            bytes,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, parent, start, end, bytes);
        out
    }

    /// Drops every span recorded after the first `len` (a warm-up pass).
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span of `spans` (indexed like `spans`): its duration
/// minus the union of its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Spans of one name, aggregated.
#[derive(Debug, Clone, Default)]
pub struct LayerStat {
    /// Spans of this name.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Summed input bytes.
    pub bytes: u64,
    /// Every span's duration, ascending.
    pub durations: Vec<u64>,
}

impl LayerStat {
    /// Input MiB per second of span time.
    pub fn mib_s(&self) -> f64 {
        mib(self.bytes) / (self.total_ns as f64 / 1e9)
    }

    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count as f64
    }

    /// Median span duration in microseconds.
    pub fn median_us(&self) -> f64 {
        let v = &self.durations;
        v[v.len() / 2] as f64 / 1e3
    }

    /// Mean span duration per input byte, in nanoseconds.
    pub fn ns_per_byte(&self) -> f64 {
        self.total_ns as f64 / self.bytes as f64
    }
}

/// Aggregates `spans` by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let stat = out.entry(span.name).or_default();
        stat.count += 1;
        stat.total_ns += span.duration_ns();
        stat.self_ns += self_ns;
        stat.bytes += span.bytes;
        stat.durations.push(span.duration_ns());
    }
    for stat in out.values_mut() {
        stat.durations.sort_unstable();
    }
    out
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("reach", None, 0, 100),
            // Overlapping children count once: [10, 50) is 40 ns.
            span("kernel", Some(0), 10, 30),
            span("kernel", Some(0), 20, 50),
            // A child running past its parent counts only inside it.
            span("join", Some(0), 90, 120),
            // A grandchild reduces its own parent, not the root.
            span("alphabet", Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("a", None, 5, 25), span("b", None, 10, 12)];
        assert_eq!(self_times(&spans), vec![20, 2]);
    }

    #[test]
    fn summary_groups_by_name() {
        let mut spans = vec![span("p", None, 0, 40), span("c", Some(0), 0, 10)];
        spans.push(Span {
            bytes: 1 << 20,
            ..span("c", Some(0), 20, 30)
        });
        let summary = summarize(&spans);
        let c = &summary["c"];
        assert_eq!((c.count, c.total_ns, c.self_ns), (2, 20, 20));
        assert_eq!(summary["p"].self_ns, 20);
        assert!((c.mib_s() - 1.0 / 20e-9).abs() < 1e-3);
    }

    #[test]
    fn open_and_close_nest_real_time() {
        let mut trace = Trace::new();
        let root = trace.open("root", None);
        trace.time("child", Some(root), 3, || std::hint::black_box(1 + 1));
        trace.close(root, 3);
        let spans = trace.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].bytes, 3);
    }
}
