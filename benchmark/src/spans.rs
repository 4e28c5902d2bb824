//! The harness's own spans: one per call into a layer, recorded from
//! outside the program under test, kept in memory and written out when
//! the run ends.
//!
//! A span carries the `pcomm` traffic its rank issued while it was open
//! and the `obs` counters/histogram sums the layer recorded inside it, so
//! counts are taken at the same boundary as the time. A span's *self*
//! time is its duration minus the part of that interval its children
//! cover ([`self_ns`]).

use std::fmt::Write as _;
use std::time::Instant;

use pcomm::{Comm, CommStats};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub rank: usize,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Communication this rank issued inside the span.
    pub comm: CommStats,
    /// Counts attached at the span boundary, plus every `obs` counter and
    /// histogram sum (`<name>.sum`) the layer recorded inside it.
    pub counts: Vec<(String, u64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Records the spans of one thread (one rank, or the harness's main
/// thread). Ids are local until [`merge`] renumbers them.
pub struct Tracer<'a> {
    epoch: Instant,
    rank: usize,
    comm: Option<&'a Comm>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl<'a> Tracer<'a> {
    /// `comm` is the rank's communicator (for per-span traffic deltas);
    /// `None` on a thread that is not a rank.
    pub fn new(epoch: Instant, rank: usize, comm: Option<&'a Comm>) -> Self {
        Tracer {
            epoch,
            rank,
            comm,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` under a span named `name`, nested in whatever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32,
            parent: self.open.last().map(|&i| i as u32),
            name,
            rank: self.rank,
            start_ns: 0,
            end_ns: 0,
            comm: CommStats::default(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        // A recorder of its own per span: the layer's metrics land here
        // and nowhere else, so they can be read per call.
        let rec = obs::Recorder::install(self.rank);
        let before = self.comm.map(|c| c.stats());
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let span = &mut self.spans[idx];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let (Some(c), Some(b)) = (self.comm, before) {
            span.comm = c.stats() - b;
        }
        let metrics = rec.finish().metrics;
        span.counts.extend(metrics.counters);
        span.counts.extend(
            metrics
                .hists
                .into_iter()
                .map(|(k, h)| (format!("{k}.sum"), h.sum)),
        );
        self.open.pop();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: u64) {
        let idx = *self.open.last().expect("count() outside any span");
        self.spans[idx].counts.push((key.to_string(), value));
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenate per-thread recordings into one trace with unique ids.
/// Roots of every part after the first become children of `root` (the
/// first part's first span).
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len() as u32;
        for mut s in part {
            s.id += base;
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None if base > 0 => Some(0),
                None => None,
            };
            out.push(s);
        }
    }
    out
}

/// Self time of `span`: its duration minus the union of its children's
/// intervals (clipped to the span — children on other threads may overlap
/// one another).
pub fn self_ns(spans: &[Span], span: &Span) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|&(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Share of `span`'s duration its children account for.
pub fn child_cover(spans: &[Span], span: &Span) -> f64 {
    let dur = span.end_ns - span.start_ns;
    if dur == 0 {
        return 1.0;
    }
    1.0 - self_ns(spans, span) as f64 / dur as f64
}

/// The trace document written to `out/<workload>.trace.json`.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    );
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"rank\": {}, \
             \"workload\": \"{workload}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
             \"bytes_sent\": {}, \"msgs_sent\": {}, \"wait_ns\": {}, \"counts\": {{",
            sp.id,
            sp.name,
            sp.rank,
            sp.start_ns,
            sp.end_ns,
            self_ns(spans, sp),
            sp.comm.bytes_sent,
            sp.comm.msgs_sent,
            sp.comm.wait_nanos,
        );
        for (j, (k, v)) in sp.counts.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {v}");
        }
        let _ = writeln!(s, "}}}}{}", if i + 1 < spans.len() { "," } else { "" });
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            rank: 0,
            start_ns,
            end_ns,
            comm: CommStats::default(),
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_parent_minus_sibling_children() {
        // Two disjoint children: 100 − (30 + 20).
        let spans = vec![
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 40),
            sp(2, Some(0), 50, 70),
        ];
        assert_eq!(self_ns(&spans, &spans[0]), 50);
        assert_eq!(self_ns(&spans, &spans[1]), 30);
        assert!((child_cover(&spans, &spans[0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grandchildren_count_against_their_parent_only() {
        let spans = vec![
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 90),
            sp(2, Some(1), 20, 50),
        ];
        assert_eq!(self_ns(&spans, &spans[0]), 20);
        assert_eq!(self_ns(&spans, &spans[1]), 50);
        assert_eq!(self_ns(&spans, &spans[2]), 30);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Children on parallel ranks overlap; one pokes past the parent.
        let spans = vec![
            sp(0, None, 100, 200),
            sp(1, Some(0), 110, 160),
            sp(2, Some(0), 140, 180),
            sp(3, Some(0), 120, 130),
            sp(4, Some(0), 190, 250),
        ];
        // Cover = [110,180] ∪ [190,200] = 80.
        assert_eq!(self_ns(&spans, &spans[0]), 20);
    }

    #[test]
    fn tracer_nests_and_merge_reparents() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, 0, None);
        main.span("root", |t| {
            t.span("a", |t| t.count("items", 3));
            t.span("b", |t| t.span("c", |_| ()));
        });
        let mut rank1 = Tracer::new(epoch, 1, None);
        rank1.span("rank", |t| t.span("layer", |_| ()));
        let all = merge(vec![main.finish(), rank1.finish()]);
        let names: Vec<_> = all.iter().map(|s| (s.name, s.id, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", 0, None),
                ("a", 1, Some(0)),
                ("b", 2, Some(0)),
                ("c", 3, Some(2)),
                ("rank", 4, Some(0)),
                ("layer", 5, Some(4)),
            ]
        );
        assert_eq!(all[1].count("items"), 3);
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
        let doc = obs::JsonValue::parse(&trace_json("w", 7, &all)).expect("trace parses");
        assert_eq!(doc.get("spans").and_then(|s| s.as_arr()).unwrap().len(), 6);
    }
}
