//! Per-rank span recording.
//!
//! Each simulated rank is an OS thread, so the recorder is thread-local:
//! a single-producer bounded buffer that span guards push completed events
//! into (the lock-free "ring" degenerates to plain single-threaded pushes —
//! there is never a second producer on a rank's buffer). Sequence numbers
//! are logical (assigned at span *entry* in program order), so the tree
//! structure of a trace is deterministic even when wall-clock timings are
//! perturbed by oversubscription.

use std::cell::RefCell;
use std::time::Instant;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Counters sampled at span entry and exit; events store the delta.
///
/// `work_ns` is the deterministic estimated-nanosecond work counter
/// (`pcomm::work`); the rest mirror the per-rank communication counters.
/// `obs` has no dependency on the runtime, so the values come from a
/// thread-local provider registered with [`set_thread_counter_provider`];
/// with no provider every field reads as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Deterministic estimated work, nanoseconds.
    pub work_ns: u64,
    /// Bytes pushed to other ranks' mailboxes.
    pub bytes_sent: u64,
    /// Bytes consumed from this rank's mailbox.
    pub bytes_recv: u64,
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Point-to-point messages received.
    pub msgs_recv: u64,
    /// Nanoseconds blocked waiting for messages.
    pub wait_ns: u64,
}

impl CounterSet {
    /// Element-wise saturating difference (exit − entry snapshots).
    pub fn saturating_sub(self, rhs: CounterSet) -> CounterSet {
        CounterSet {
            work_ns: self.work_ns.saturating_sub(rhs.work_ns),
            bytes_sent: self.bytes_sent.saturating_sub(rhs.bytes_sent),
            bytes_recv: self.bytes_recv.saturating_sub(rhs.bytes_recv),
            msgs_sent: self.msgs_sent.saturating_sub(rhs.msgs_sent),
            msgs_recv: self.msgs_recv.saturating_sub(rhs.msgs_recv),
            wait_ns: self.wait_ns.saturating_sub(rhs.wait_ns),
        }
    }

    /// Element-wise sum, for aggregating repeated spans of one stage.
    pub fn merge(self, rhs: CounterSet) -> CounterSet {
        CounterSet {
            work_ns: self.work_ns + rhs.work_ns,
            bytes_sent: self.bytes_sent + rhs.bytes_sent,
            bytes_recv: self.bytes_recv + rhs.bytes_recv,
            msgs_sent: self.msgs_sent + rhs.msgs_sent,
            msgs_recv: self.msgs_recv + rhs.msgs_recv,
            wait_ns: self.wait_ns + rhs.wait_ns,
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (dot-separated convention, e.g. `summa.stage`).
    pub name: &'static str,
    /// Display track: 0 is the rank's main thread, ≥ 1 are batch workers.
    pub track: u16,
    /// Nesting depth at entry (0 = root).
    pub depth: u16,
    /// Logical sequence number assigned at span entry; deterministic for a
    /// deterministic program, unlike wall-clock timestamps.
    pub seq: u32,
    /// Optional single key/value attribute (e.g. `stage = 3`).
    pub arg: Option<(&'static str, i64)>,
    /// Wall-clock nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Counter deltas over the span.
    pub counters: CounterSet,
}

/// Finished recording of one rank: events plus the rank's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// The rank whose thread recorded this trace.
    pub rank: usize,
    /// Completed spans in completion order; sort by `seq` for entry order.
    pub events: Vec<SpanEvent>,
    /// The rank's metrics registry at finish time.
    pub metrics: MetricsSnapshot,
    /// Events discarded because the buffer reached capacity.
    pub dropped: u64,
}

struct State {
    rank: usize,
    epoch: Instant,
    next_seq: u32,
    depth: u16,
    cap: usize,
    dropped: u64,
    events: Vec<SpanEvent>,
    metrics: MetricsRegistry,
}

impl State {
    fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    fn into_trace(self) -> RankTrace {
        RankTrace {
            rank: self.rank,
            events: self.events,
            metrics: self.metrics.snapshot(),
            dropped: self.dropped,
        }
    }
}

thread_local! {
    /// Stack of recorders: the innermost installed recorder receives all
    /// spans and metrics of this thread.
    static REC: RefCell<Vec<State>> = const { RefCell::new(Vec::new()) };
    /// Thread-local counter provider (the runtime's per-rank counters).
    static PROVIDER: RefCell<Option<fn() -> CounterSet>> = const { RefCell::new(None) };
}

/// Register the function spans use to sample [`CounterSet`] on this thread.
/// The runtime calls this once per rank thread; without it counters read
/// zero and spans still record wall-clock durations.
pub fn set_thread_counter_provider(f: fn() -> CounterSet) {
    PROVIDER.with(|p| *p.borrow_mut() = Some(f));
}

fn read_counters() -> CounterSet {
    PROVIDER.with(|p| p.borrow().map(|f| f()).unwrap_or_default())
}

/// True when a recorder is installed on this thread.
pub fn enabled() -> bool {
    REC.with(|r| !r.borrow().is_empty())
}

/// The epoch of this thread's innermost recorder, if one is installed.
/// Batch drivers capture it before spawning workers so worker span offsets
/// share the rank's timebase.
pub fn epoch() -> Option<Instant> {
    REC.with(|r| r.borrow().last().map(|s| s.epoch))
}

/// The rank of this thread's innermost recorder, if one is installed.
pub fn rank() -> Option<usize> {
    REC.with(|r| r.borrow().last().map(|s| s.rank))
}

/// A started wall-clock timer: the workspace's sanctioned facade over
/// `std::time::Instant` for ad-hoc durations. The `xlint` `instant-now`
/// rule confines raw `Instant::now()` calls to the observability and
/// runtime layers, so application code measures time through one type that
/// could later be virtualized (simulated clocks, deterministic replay)
/// without touching call sites.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed seconds as a float.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Default event-buffer capacity (per rank). Pipelines at reproduction
/// scale stay far below this; overflow drops events and counts them.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Handle that owns a recorder installation; see [`Recorder::install`].
pub struct Recorder;

impl Recorder {
    /// Install a fresh recorder on this thread (stacking over any existing
    /// one) with [`DEFAULT_CAPACITY`]. The returned guard uninstalls on
    /// drop; call [`RecorderGuard::finish`] to keep the recording.
    pub fn install(rank: usize) -> RecorderGuard {
        Self::with_capacity(rank, DEFAULT_CAPACITY)
    }

    /// [`Recorder::install`] with an explicit event-buffer capacity.
    pub fn with_capacity(rank: usize, cap: usize) -> RecorderGuard {
        // First recorder of the process resolves the allocation-tracking
        // switch (reading the environment allocates, so the allocator
        // itself never can).
        crate::alloc::init_from_env();
        REC.with(|r| {
            r.borrow_mut().push(State {
                rank,
                epoch: Instant::now(),
                next_seq: 0,
                depth: 0,
                cap,
                dropped: 0,
                events: Vec::with_capacity(cap.min(1024)),
                metrics: MetricsRegistry::default(),
            })
        });
        RecorderGuard { installed: true }
    }
}

/// RAII handle for an installed recorder.
pub struct RecorderGuard {
    installed: bool,
}

impl RecorderGuard {
    /// Uninstall the recorder and return everything it captured.
    pub fn finish(mut self) -> RankTrace {
        self.installed = false;
        REC.with(|r| r.borrow_mut().pop())
            .expect("recorder stack corrupted: finish without install")
            .into_trace()
    }
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        if self.installed {
            REC.with(|r| r.borrow_mut().pop());
        }
    }
}

/// Clone the current recorder's capture without uninstalling it. Used by
/// pipelines that run under a caller-installed recorder but still derive
/// their own timing summary.
pub fn snapshot() -> Option<RankTrace> {
    REC.with(|r| {
        r.borrow().last().map(|s| RankTrace {
            rank: s.rank,
            events: s.events.clone(),
            metrics: s.metrics.snapshot(),
            dropped: s.dropped,
        })
    })
}

/// RAII span guard; records a [`SpanEvent`] into the thread's recorder on
/// drop. Inactive (free to construct and drop) when no recorder was
/// installed at entry.
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    arg: Option<(&'static str, i64)>,
    seq: u32,
    depth: u16,
    start_ns: u64,
    at_enter: CounterSet,
}

/// Open a span. Prefer the [`crate::span!`] macro.
pub fn span_start(name: &'static str, arg: Option<(&'static str, i64)>) -> SpanGuard {
    REC.with(|r| {
        let mut stack = r.borrow_mut();
        match stack.last_mut() {
            None => SpanGuard {
                active: false,
                name,
                arg: None,
                seq: 0,
                depth: 0,
                start_ns: 0,
                at_enter: CounterSet::default(),
            },
            Some(s) => {
                let seq = s.next_seq;
                s.next_seq += 1;
                let depth = s.depth;
                s.depth += 1;
                // Note the entry in the flight recorder, which also feeds
                // the monitor's stage and epoch; the guard closes it on
                // drop, keeping the two balanced.
                crate::blackbox::record(crate::blackbox::BbKind::SpanOpen, name, depth as u64, 0);
                let start_ns = s.epoch.elapsed().as_nanos() as u64;
                SpanGuard {
                    active: true,
                    name,
                    arg,
                    seq,
                    depth,
                    start_ns,
                    at_enter: read_counters(),
                }
            }
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        crate::blackbox::record(
            crate::blackbox::BbKind::SpanClose,
            self.name,
            self.depth as u64,
            0,
        );
        let at_exit = read_counters();
        REC.with(|r| {
            let mut stack = r.borrow_mut();
            // The recorder may have been finished while this guard was
            // open; the span is then silently lost, by design.
            let Some(s) = stack.last_mut() else { return };
            let end_ns = s.epoch.elapsed().as_nanos() as u64;
            s.depth = self.depth;
            s.push(SpanEvent {
                name: self.name,
                track: 0,
                depth: self.depth,
                seq: self.seq,
                arg: self.arg,
                start_ns: self.start_ns,
                dur_ns: end_ns.saturating_sub(self.start_ns),
                counters: at_exit.saturating_sub(self.at_enter),
            });
        });
    }
}

/// Record an already-measured span (e.g. a joined worker thread's interval)
/// as a child of the currently open span, on display track `track`.
/// `start_ns` is relative to the recorder's [`epoch`]. No-op without a
/// recorder.
pub fn emit_span(
    name: &'static str,
    track: u16,
    start_ns: u64,
    dur_ns: u64,
    counters: CounterSet,
    arg: Option<(&'static str, i64)>,
) {
    REC.with(|r| {
        let mut stack = r.borrow_mut();
        let Some(s) = stack.last_mut() else { return };
        let seq = s.next_seq;
        s.next_seq += 1;
        let depth = s.depth;
        s.push(SpanEvent {
            name,
            track,
            depth,
            seq,
            arg,
            start_ns,
            dur_ns,
            counters,
        });
    });
}

/// Fold a detached registry (e.g. a worker thread's) into this thread's
/// recorder. Merging is associative and commutative, so the result is
/// independent of worker scheduling. No-op without a recorder.
pub fn absorb_metrics(other: &MetricsSnapshot) {
    REC.with(|r| {
        if let Some(s) = r.borrow_mut().last_mut() {
            s.metrics.absorb(other);
        }
    });
}

/// Add `n` to counter `name` in the current recorder. Prefer
/// [`crate::counter!`].
pub fn counter_add(name: &'static str, n: u64) {
    REC.with(|r| {
        if let Some(s) = r.borrow_mut().last_mut() {
            s.metrics.counter_add(name, n);
            crate::blackbox::record(crate::blackbox::BbKind::Counter, name, n, 0);
        }
    });
}

/// Set gauge `name` in the current recorder. Prefer [`crate::gauge!`].
pub fn gauge_set(name: &'static str, v: i64) {
    REC.with(|r| {
        if let Some(s) = r.borrow_mut().last_mut() {
            s.metrics.gauge_set(name, v);
        }
    });
}

/// Raise gauge `name` to at least `v` in the current recorder — the
/// watermark-probe primitive (locally max, like the cross-rank merge).
pub fn gauge_max(name: &'static str, v: i64) {
    REC.with(|r| {
        if let Some(s) = r.borrow_mut().last_mut() {
            s.metrics.gauge_max(name, v);
        }
    });
}

/// [`gauge_max`] for names built at runtime (interned on first sight,
/// bounded by the name-space size — stage × subsystem in practice).
pub fn gauge_max_owned(name: &str, v: i64) {
    REC.with(|r| {
        if let Some(s) = r.borrow_mut().last_mut() {
            s.metrics.gauge_max_owned(name, v);
        }
    });
}

/// Record `v` into histogram `name` in the current recorder. Prefer
/// [`crate::hist!`].
pub fn hist_record(name: &'static str, v: u64) {
    REC.with(|r| {
        if let Some(s) = r.borrow_mut().last_mut() {
            s.metrics.hist_record(name, v);
        }
    });
}

/// A span and its children, reconstructed from the flat event list.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span itself.
    pub event: SpanEvent,
    /// Child spans in entry order.
    pub children: Vec<SpanNode>,
}

/// Rebuild the span forest of one rank from its flat events. Events are
/// ordered by logical sequence number (entry order); a span's parent is
/// the nearest preceding span one level shallower, which is exact because
/// spans on a rank nest strictly.
pub fn span_forest(events: &[SpanEvent]) -> Vec<SpanNode> {
    let mut ordered: Vec<&SpanEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.seq);
    let mut roots: Vec<SpanNode> = Vec::new();
    // Stack of indices into the forest: path[d] addresses the open node at
    // depth d as a chain of child indices from the roots.
    let mut path: Vec<usize> = Vec::new();
    for ev in ordered {
        let depth = ev.depth as usize;
        path.truncate(depth);
        let node = SpanNode {
            event: *ev,
            children: Vec::new(),
        };
        if depth == 0 {
            roots.push(node);
            path.clear();
            path.push(roots.len() - 1);
        } else {
            // Walk down the current path to the parent and append.
            let mut cur: &mut SpanNode = &mut roots[path[0]];
            for &i in &path[1..depth.min(path.len())] {
                cur = &mut cur.children[i];
            }
            cur.children.push(node);
            let idx = cur.children.len() - 1;
            path.truncate(depth);
            path.push(idx);
        }
    }
    roots
}

/// A canonical signature of a trace's span *structure*: names and nesting
/// with runs of identical sibling subtrees collapsed to a single
/// occurrence. Collapsing makes the signature invariant to cardinality that
/// legitimately scales with the grid — q SUMMA stages, p-1 gather receives
/// — so the same pipeline produces the same signature on every rank of
/// every grid size (a run of one compares equal to a run of many).
pub fn structure_signature(events: &[SpanEvent]) -> String {
    fn sig(node: &SpanNode) -> String {
        let inner = collapse(&node.children);
        if inner.is_empty() {
            node.event.name.to_string()
        } else {
            format!("{}({})", node.event.name, inner)
        }
    }
    fn collapse(nodes: &[SpanNode]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for n in nodes {
            let s = sig(n);
            if parts.last() != Some(&s) {
                parts.push(s);
            }
        }
        parts.join(" ")
    }
    collapse(&span_forest(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_noops() {
        assert!(!enabled());
        let g = span_start("nothing", Some(("k", 1)));
        drop(g);
        counter_add("c", 1);
        hist_record("h", 7);
        assert!(snapshot().is_none());
    }

    #[test]
    fn nesting_depth_and_seq_are_deterministic() {
        let collect = || {
            let rec = Recorder::install(3);
            {
                let _a = span_start("a", None);
                {
                    let _b = span_start("b", Some(("i", 1)));
                }
                {
                    let _c = span_start("c", None);
                }
            }
            rec.finish()
        };
        let t1 = collect();
        let t2 = collect();
        assert_eq!(t1.rank, 3);
        // Completion order: b, c, a. Entry order (seq): a=0, b=1, c=2.
        let names: Vec<&str> = t1.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c", "a"]);
        let seqs: Vec<u32> = t1.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 0]);
        let depths: Vec<u16> = t1.events.iter().map(|e| e.depth).collect();
        assert_eq!(depths, vec![1, 1, 0]);
        // Structure is identical run to run even though timings differ.
        let strip = |t: &RankTrace| {
            t.events
                .iter()
                .map(|e| (e.name, e.seq, e.depth, e.arg))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&t1), strip(&t2));
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let rec = Recorder::with_capacity(0, 2);
        for _ in 0..5 {
            let _g = span_start("x", None);
        }
        let t = rec.finish();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn stacked_recorders_restore_outer() {
        let outer = Recorder::install(0);
        {
            let _o = span_start("outer_span", None);
        }
        let inner = Recorder::install(1);
        {
            let _i = span_start("inner_span", None);
        }
        let ti = inner.finish();
        assert_eq!(ti.events.len(), 1);
        assert_eq!(ti.events[0].name, "inner_span");
        {
            let _o2 = span_start("outer_again", None);
        }
        let to = outer.finish();
        let names: Vec<&str> = to.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["outer_span", "outer_again"]);
    }

    #[test]
    fn forest_reconstruction_and_signature() {
        let rec = Recorder::install(0);
        {
            let _r = span_start("root", None);
            for i in 0..3 {
                let _s = span_start("stage", Some(("i", i)));
                let _k = span_start("kernel", None);
            }
            let _t = span_start("tail", None);
        }
        let t = rec.finish();
        let forest = span_forest(&t.events);
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].event.name, "root");
        assert_eq!(forest[0].children.len(), 4);
        assert_eq!(forest[0].children[0].children[0].event.name, "kernel");
        assert_eq!(structure_signature(&t.events), "root(stage(kernel) tail)");
    }

    #[test]
    fn emit_span_lands_under_open_parent() {
        let rec = Recorder::install(0);
        {
            let _b = span_start("batch", None);
            emit_span(
                "worker",
                1,
                10,
                20,
                CounterSet {
                    work_ns: 5,
                    ..Default::default()
                },
                Some(("tasks", 7)),
            );
            emit_span(
                "worker",
                2,
                12,
                18,
                CounterSet::default(),
                Some(("tasks", 3)),
            );
        }
        let t = rec.finish();
        let forest = span_forest(&t.events);
        assert_eq!(forest[0].event.name, "batch");
        assert_eq!(forest[0].children.len(), 2);
        assert_eq!(forest[0].children[0].event.track, 1);
        assert_eq!(structure_signature(&t.events), "batch(worker)");
    }

    #[test]
    fn provider_deltas_reach_events() {
        use std::cell::Cell;
        thread_local! { static FAKE: Cell<u64> = const { Cell::new(0) }; }
        fn provider() -> CounterSet {
            CounterSet {
                work_ns: FAKE.with(Cell::get),
                ..Default::default()
            }
        }
        set_thread_counter_provider(provider);
        let rec = Recorder::install(0);
        {
            let _g = span_start("work", None);
            FAKE.with(|f| f.set(f.get() + 42));
        }
        let t = rec.finish();
        assert_eq!(t.events[0].counters.work_ns, 42);
    }
}
