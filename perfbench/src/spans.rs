//! The benchmark's own spans, recorded around each call it makes into a
//! layer. They stay in memory while the run measures and are written out
//! when it ends; nothing here reaches into the program's own tracing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's single wall-clock source.
pub fn clock() -> Instant {
    // check: allow(det-wallclock) the benchmark measures wall time by definition
    Instant::now()
}

/// One timed call. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `core.test` or `batch.job`.
    pub name: String,
    /// Start, in seconds since the run began.
    pub start: f64,
    /// End, in seconds since the run began.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Gene (or batch job) the call worked on.
    pub gene: Option<String>,
}

/// Count, total and self time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: usize,
    /// Summed durations, seconds.
    pub total: f64,
    /// Summed self times, seconds.
    pub self_time: f64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, gene: Option<&str>) -> usize {
        let t = self.now();
        self.push(Span {
            name: name.to_string(),
            start: t,
            end: t,
            parent,
            gene: gene.map(str::to_string),
        })
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        let t = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = t;
        }
    }

    /// Add a span whose times are already known (a batch job rebuilt
    /// from the batch observer).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total += span.end - span.start;
            t.self_time += own;
        }
        out
    }

    /// One JSON object per line: name, start, end, self time, parent
    /// and gene of every span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (span, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let gene = span
                .gene
                .as_deref()
                .map_or("null".to_string(), |g| format!("\"{g}\""));
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"self\":{:?},\"parent\":{parent},\"gene\":{gene}}}",
                span.name, span.start, span.end, own
            );
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`: time covered
/// by at least one interval, overlaps counted once.
pub fn union_length(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    covered
}

/// Self time of each span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(kids) = span.parent.and_then(|p| children.get_mut(p)) {
            kids.push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| (span.end - span.start) - union_length(span.start, span.end, kids))
        .collect()
}
