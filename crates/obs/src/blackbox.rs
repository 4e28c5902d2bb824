//! Per-rank black-box flight recorder.
//!
//! A fixed-size ring buffer per rank thread, recording span open/close
//! events, counter deltas, and the runtime's send/recv/collective records
//! at always-on cost (one uncontended mutex lock plus a clock read —
//! tens of nanoseconds per event; there is no off switch, so every
//! benchmark number includes it). When a run
//! aborts — deadlock watchdog, rank panic, finalize leak audit — the
//! runtime calls [`dump_once`] with its world's rings and each is written
//! to `blackbox-rank{r}.json`: the last N events, the allocation ledger's
//! process-wide live and peak bytes, and the rank's last completed
//! pipeline stage. Rings of other worlds in the same process (a sibling
//! test's, say) are not dumped: they would overwrite the aborting world's
//! files of the same rank.
//! "Rank 3 hung" becomes a readable straggler/progress report.
//!
//! The same ring is the live monitor's view of its rank: beside the
//! events it keeps the innermost open span, a count of span opens (the
//! progress epoch), cumulative done/total items ([`add_items`]), the time
//! of the last event, and whether the rank is still running. A
//! [`RankRing`] handle samples them from another thread ([`RankSample`]).
//!
//! Rings are installed per thread ([`RankRing::install`], RAII like the
//! span recorder) and double-registered in a process-global registry
//! ([`installed`]) so a process-level panic hook can dump every ring
//! there is. Recording locks only the thread's own ring; the lock is
//! uncontended except during a dump or a monitor sample.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::JsonValue;

/// Default ring capacity (events retained per rank). Sized to hold the
/// tail of a pipeline run — a few stages of spans plus their messages —
/// while keeping a ring under 200 KiB.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What a ring event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbKind {
    /// A span opened; `a` = nesting depth.
    SpanOpen,
    /// A span closed; `a` = nesting depth.
    SpanClose,
    /// A counter was bumped; `a` = the delta.
    Counter,
    /// A point-to-point send; `a` = payload bytes, `b` = destination rank.
    Send,
    /// A point-to-point receive; `a` = payload bytes, `b` = source rank.
    Recv,
    /// A collective entered; `a`/`b` are caller-defined (comm id, seq).
    Coll,
    /// A free-form marker from the runtime.
    Mark,
}

impl BbKind {
    /// Stable lowercase name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            BbKind::SpanOpen => "span_open",
            BbKind::SpanClose => "span_close",
            BbKind::Counter => "counter",
            BbKind::Send => "send",
            BbKind::Recv => "recv",
            BbKind::Coll => "coll",
            BbKind::Mark => "mark",
        }
    }
}

/// One recorded event. `seq` is a per-ring logical sequence number (total
/// events ever recorded, so `seq` of the oldest retained event tells how
/// many wrapped away); `t_ns` is wall-clock since the ring was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbEvent {
    /// Logical sequence number (monotonic per ring, survives wrapping).
    pub seq: u64,
    /// Nanoseconds since the ring was created.
    pub t_ns: u64,
    /// Event kind.
    pub kind: BbKind,
    /// Static name (span/counter name, payload type, comm scope).
    pub name: &'static str,
    /// Kind-specific value (see [`BbKind`]).
    pub a: u64,
    /// Kind-specific value (see [`BbKind`]).
    pub b: u64,
}

/// One sampled rank: a consistent copy of a ring's live state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSample {
    pub rank: usize,
    /// Innermost open span name, `"-"` when idle.
    pub stage: &'static str,
    /// Span opens so far — logical program order, so deterministic.
    pub epoch: u64,
    /// Pipeline items retired (cumulative).
    pub done: u64,
    /// Pipeline items announced (cumulative; `done <= total` once a chunk
    /// retires).
    pub total: u64,
    /// Nanoseconds since the ring's last event.
    pub hb_age_ns: u64,
    /// Whether the owning rank thread still has the ring installed.
    pub active: bool,
}

struct Ring {
    rank: usize,
    epoch: Instant,
    cap: usize,
    next_seq: u64,
    /// Ring storage; once `events.len() == cap`, `head` is the index of
    /// the oldest event and new events overwrite from there.
    events: Vec<BbEvent>,
    head: usize,
    /// Events overwritten by the wrap — lost to the postmortem. Reported
    /// as `events_dropped` in the dump instead of vanishing silently.
    dropped: u64,
    /// Names of the open spans, innermost last.
    stages: Vec<&'static str>,
    span_opens: u64,
    done: u64,
    total: u64,
    last_ns: u64,
    active: bool,
}

impl Ring {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, kind: BbKind, name: &'static str, a: u64, b: u64) {
        self.last_ns = self.now_ns();
        match kind {
            BbKind::SpanOpen => {
                self.stages.push(name);
                self.span_opens += 1;
            }
            BbKind::SpanClose => {
                self.stages.pop();
            }
            _ => {}
        }
        if self.cap == 0 {
            return;
        }
        let ev = BbEvent {
            seq: self.next_seq,
            t_ns: self.last_ns,
            kind,
            name,
            a,
            b,
        };
        self.next_seq += 1;
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events oldest → newest.
    fn snapshot(&self) -> Vec<BbEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    fn sample(&self) -> RankSample {
        RankSample {
            rank: self.rank,
            stage: self.stages.last().copied().unwrap_or("-"),
            epoch: self.span_opens,
            done: self.done,
            total: self.total,
            hb_age_ns: self.now_ns().saturating_sub(self.last_ns),
            active: self.active,
        }
    }
}

type Shared = Arc<Mutex<Ring>>;

/// All installed rings, for [`installed`].
static REGISTRY: Mutex<Vec<Shared>> = Mutex::new(Vec::new());

thread_local! {
    /// Stack of rings installed on this thread; events go to the
    /// innermost.
    static HANDLE: RefCell<Vec<Shared>> = const { RefCell::new(Vec::new()) };
}

/// A shareable handle on one rank's ring. The world creates one per rank
/// before spawning them: the rank thread installs it and the world's
/// monitor keeps a clone to [`RankRing::sample`], also after the rank
/// has finished.
#[derive(Clone)]
pub struct RankRing(Shared);

impl RankRing {
    /// A fresh ring for `rank` with [`DEFAULT_RING_CAPACITY`].
    pub fn new(rank: usize) -> RankRing {
        RankRing::with_capacity(rank, DEFAULT_RING_CAPACITY)
    }

    /// A fresh ring for `rank` retaining `cap` events.
    fn with_capacity(rank: usize, cap: usize) -> RankRing {
        RankRing(Arc::new(Mutex::new(Ring {
            rank,
            epoch: Instant::now(),
            cap,
            next_seq: 0,
            events: Vec::with_capacity(cap.min(1024)),
            head: 0,
            dropped: 0,
            stages: Vec::new(),
            span_opens: 0,
            done: 0,
            total: 0,
            last_ns: 0,
            active: true,
        })))
    }

    /// Install this ring on the current thread. Stacks over any existing
    /// ring (the innermost receives events), so a test can interpose its
    /// own ring under a runtime-installed one.
    pub fn install(&self) -> BlackboxGuard {
        REGISTRY.lock().unwrap().push(self.0.clone());
        HANDLE.with(|h| h.borrow_mut().push(self.0.clone()));
        BlackboxGuard {
            ring: self.0.clone(),
        }
    }

    /// The ring's live state as of now.
    pub fn sample(&self) -> RankSample {
        self.0.lock().unwrap().sample()
    }
}

/// RAII handle for an installed ring; uninstalls (and unregisters) on
/// drop and marks the ring inactive. Call [`BlackboxGuard::finish`] to
/// keep the recording.
pub struct BlackboxGuard {
    ring: Shared,
}

/// Install a fresh flight-recorder ring for `rank` on this thread,
/// retaining `cap` events.
pub fn install_with_capacity(rank: usize, cap: usize) -> BlackboxGuard {
    RankRing::with_capacity(rank, cap).install()
}

impl BlackboxGuard {
    /// Events recorded so far, oldest → newest, without uninstalling.
    pub fn snapshot(&self) -> Vec<BbEvent> {
        self.ring.lock().unwrap().snapshot()
    }

    /// Events lost to ring wrap so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Uninstall and return the recording.
    pub fn finish(self) -> Vec<BbEvent> {
        self.snapshot()
    }
}

impl Drop for BlackboxGuard {
    fn drop(&mut self) {
        HANDLE.with(|h| {
            let mut stack = h.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|r| Arc::ptr_eq(r, &self.ring)) {
                stack.remove(pos);
            }
        });
        let mut reg = REGISTRY.lock().unwrap();
        if let Some(pos) = reg.iter().rposition(|r| Arc::ptr_eq(r, &self.ring)) {
            reg.remove(pos);
        }
        if let Ok(mut ring) = self.ring.lock() {
            ring.last_ns = ring.now_ns();
            ring.active = false;
        }
    }
}

/// Run `f` on this thread's innermost ring, if any. The no-ring fast path
/// is one thread-local check.
#[inline]
fn with_ring(f: impl FnOnce(&mut Ring)) {
    let _ = HANDLE.try_with(|h| {
        if let Some(ring) = h.borrow().last() {
            f(&mut ring.lock().unwrap());
        }
    });
}

/// Record one event into this thread's innermost ring, if any.
#[inline]
pub fn record(kind: BbKind, name: &'static str, a: u64, b: u64) {
    with_ring(|r| r.push(kind, name, a, b));
}

/// Pipeline progress for the monitor: announce `total` more items and
/// retire `done` of them on this thread's innermost ring. Both counters
/// are cumulative.
pub fn add_items(done: u64, total: u64) {
    with_ring(|r| {
        r.done += done;
        r.total += total;
        r.last_ns = r.now_ns();
    });
}

// --- dumps -----------------------------------------------------------------

static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static DUMPED: AtomicBool = AtomicBool::new(false);

/// Set the directory black-box dumps are written to. The default is
/// `$TMPDIR/pastis-blackbox`, so deliberate aborts in test suites never
/// litter the working directory; the `pastis` binary redirects dumps next
/// to its other outputs.
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    *DUMP_DIR.lock().unwrap() = Some(dir.into());
}

fn dump_dir() -> PathBuf {
    DUMP_DIR
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join("pastis-blackbox"))
}

/// Create the dump directory ahead of time. Called once at world launch
/// (and by [`set_dump_dir`]'s callers when they redirect dumps) so the
/// abort paths never create directories themselves — several rank threads
/// can race into [`dump_once`], and an abort-time mkdir is both a race
/// and a syscall a dying process may not get to finish.
pub fn ensure_dump_dir() {
    let _ = std::fs::create_dir_all(dump_dir());
}

/// Re-arm [`dump_once`] (tests that force several aborts in one process).
pub fn reset_dump_once() {
    DUMPED.store(false, Relaxed);
}

/// Every ring currently installed on any thread of the process — what a
/// process-level panic hook dumps, where no world's rings are at hand.
pub fn installed() -> Vec<RankRing> {
    REGISTRY
        .lock()
        .unwrap()
        .iter()
        .cloned()
        .map(RankRing)
        .collect()
}

/// Dump `rings`, once per process: the first abort path to get here wins
/// and later calls are no-ops (secondary panics cascade behind a primary
/// abort; one postmortem is the readable one). Returns the paths written,
/// empty when already dumped or `rings` is empty.
pub fn dump_once(rings: &[RankRing], reason: &str) -> Vec<PathBuf> {
    if DUMPED.swap(true, Relaxed) {
        return Vec::new();
    }
    dump_all(rings, reason)
}

/// The rank's most recently completed pipeline stage, read from the ring:
/// the newest `SpanClose` of a `pastis.*` stage span (the `pastis.run`
/// root doesn't count — it closes only when everything is done).
pub fn last_completed_stage(events: &[BbEvent]) -> Option<&'static str> {
    events
        .iter()
        .rev()
        .find(|e| {
            e.kind == BbKind::SpanClose && e.name.starts_with("pastis.") && e.name != "pastis.run"
        })
        .map(|e| e.name)
}

fn rank_doc(rank: usize, events: &[BbEvent], dropped: u64, reason: &str) -> JsonValue {
    let num = |n: u64| JsonValue::Num(n as f64);
    let evs = events
        .iter()
        .map(|e| {
            JsonValue::obj([
                ("seq", num(e.seq)),
                ("t_ns", num(e.t_ns)),
                ("kind", JsonValue::Str(e.kind.name().into())),
                ("name", JsonValue::Str(e.name.into())),
                ("a", num(e.a)),
                ("b", num(e.b)),
            ])
        })
        .collect();
    JsonValue::obj([
        ("schema", JsonValue::Str("blackbox".into())),
        ("version", JsonValue::Num(2.0)),
        ("rank", num(rank as u64)),
        ("reason", JsonValue::Str(reason.into())),
        (
            "events_wrapped",
            num(events.first().map(|e| e.seq).unwrap_or(0)),
        ),
        // The ring's own overwrite count: how many events the postmortem lost.
        ("events_dropped", num(dropped)),
        (
            "last_completed_stage",
            match last_completed_stage(events) {
                Some(name) => JsonValue::Str(name.into()),
                None => JsonValue::Null,
            },
        ),
        ("alloc_tracking", JsonValue::Bool(crate::alloc::tracking())),
        (
            "live_bytes_total",
            JsonValue::Num(crate::alloc::live_bytes() as f64),
        ),
        (
            "peak_bytes_total",
            JsonValue::Num(crate::alloc::peak_bytes() as f64),
        ),
        ("events", JsonValue::Arr(evs)),
    ])
}

/// Dump `rings` unconditionally (prefer [`dump_once`] from abort paths).
/// One `blackbox-rank{r}.json` per ring; a write failure skips that ring
/// (the process is aborting — best effort).
fn dump_all(rings: &[RankRing], reason: &str) -> Vec<PathBuf> {
    // The directory was created at world launch ([`ensure_dump_dir`]);
    // creating it here, per dump call, raced when several ranks aborted
    // at once.
    let dir = dump_dir();
    let mut written = Vec::new();
    for RankRing(ring) in rings {
        let (rank, events, dropped) = {
            let r = ring.lock().unwrap();
            (r.rank, r.snapshot(), r.dropped)
        };
        let path = dir.join(format!("blackbox-rank{rank}.json"));
        let doc = rank_doc(rank, &events, dropped, reason);
        if std::fs::write(&path, format!("{doc}\n")).is_ok() {
            written.push(path);
        }
    }
    written
}

/// Canonical signature of a ring's event *structure*: `kind:name` tokens
/// with timestamps, sequence numbers, and payload values stripped, and
/// runs of identical consecutive tokens collapsed (the same collapsing
/// rule as [`crate::structure_signature`]), so the signature is invariant
/// to wall-clock perturbation and to cardinality that scales with the
/// grid.
pub fn signature(events: &[BbEvent]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for e in events {
        let tok = format!("{}:{}", e.kind.name(), e.name);
        if parts.last() != Some(&tok) {
            parts.push(tok);
        }
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let g = install_with_capacity(0, 4);
        for i in 0..10u64 {
            record(BbKind::Mark, "m", i, 0);
        }
        assert_eq!(g.dropped(), 6, "10 events into a 4-slot ring drop 6");
        let evs = g.finish();
        assert_eq!(evs.len(), 4);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(evs[3].a, 9);
    }

    #[test]
    fn no_ring_records_are_noops() {
        assert!(HANDLE.with(|h| h.borrow().is_empty()), "no ring installed");
        record(BbKind::Mark, "nowhere", 1, 2);
    }

    #[test]
    fn stacked_rings_innermost_wins() {
        let outer = RankRing::new(0).install();
        let inner = install_with_capacity(0, 8);
        record(BbKind::Mark, "inner_only", 0, 0);
        let got = inner.finish();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "inner_only");
        record(BbKind::Mark, "outer_now", 0, 0);
        let got = outer.finish();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "outer_now");
    }

    #[test]
    fn stage_follows_innermost_span_and_epoch_counts_opens() {
        let ring = RankRing::new(0);
        let _g = ring.install();
        assert_eq!(ring.sample().stage, "-");
        record(BbKind::SpanOpen, "live.outer", 0, 0);
        record(BbKind::SpanOpen, "live.inner", 1, 0);
        record(BbKind::Send, "u64", 8, 1);
        record(BbKind::Coll, "barrier", 2, 0);
        record(BbKind::Counter, "c", 1, 0);
        let s = ring.sample();
        assert_eq!((s.stage, s.epoch), ("live.inner", 2));
        record(BbKind::SpanClose, "live.inner", 1, 0);
        assert_eq!(ring.sample().stage, "live.outer");
        record(BbKind::SpanClose, "live.outer", 0, 0);
        let s = ring.sample();
        assert_eq!((s.stage, s.epoch), ("-", 2), "closes do not count");
        assert!(s.active);
    }

    #[test]
    fn add_items_accumulates() {
        let ring = RankRing::new(0);
        let _g = ring.install();
        add_items(0, 10);
        add_items(3, 0);
        add_items(4, 2);
        let s = ring.sample();
        assert_eq!((s.done, s.total), (7, 12));
    }

    #[test]
    fn drop_deactivates_and_a_reinstalled_rank_starts_at_zero() {
        let ring = RankRing::new(5);
        let g = ring.install();
        record(BbKind::SpanOpen, "run.one", 0, 0);
        add_items(2, 3);
        drop(g);
        let s = ring.sample();
        assert!(!s.active);
        assert_eq!((s.stage, s.epoch, s.done, s.total), ("run.one", 1, 2, 3));

        let again = RankRing::new(5);
        let _g2 = again.install();
        let fresh = again.sample();
        assert!(fresh.active);
        assert_eq!(
            (fresh.stage, fresh.epoch, fresh.done, fresh.total),
            ("-", 0, 0, 0)
        );
        add_items(1, 1);
        assert_eq!(ring.sample().done, 2, "the old ring no longer records");
    }

    #[test]
    fn last_stage_skips_run_root_and_opens() {
        let g = RankRing::new(3).install();
        record(BbKind::SpanOpen, "pastis.run", 0, 0);
        record(BbKind::SpanOpen, "pastis.fasta", 1, 0);
        record(BbKind::SpanClose, "pastis.fasta", 1, 0);
        record(BbKind::SpanOpen, "pastis.form_a", 1, 0);
        let evs = g.finish();
        assert_eq!(last_completed_stage(&evs), Some("pastis.fasta"));
        assert_eq!(last_completed_stage(&[]), None);
    }

    #[test]
    fn signature_collapses_runs_and_strips_values() {
        let mk = |seq, kind, name: &'static str, a| BbEvent {
            seq,
            t_ns: seq * 1000,
            kind,
            name,
            a,
            b: 0,
        };
        let evs = [
            mk(0, BbKind::SpanOpen, "s", 0),
            mk(1, BbKind::Send, "u32", 40),
            mk(2, BbKind::Send, "u32", 80),
            mk(3, BbKind::SpanClose, "s", 0),
        ];
        assert_eq!(signature(&evs), "span_open:s send:u32 span_close:s");
        // Different timestamps/payloads, same structure.
        let evs2 = [
            mk(7, BbKind::SpanOpen, "s", 0),
            mk(9, BbKind::Send, "u32", 8),
            mk(11, BbKind::SpanClose, "s", 0),
        ];
        assert_eq!(signature(&evs), signature(&evs2));
    }

    #[test]
    fn dump_writes_rank_files() {
        let dir = std::env::temp_dir().join(format!("bbtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        set_dump_dir(&dir);
        let ring = RankRing::new(5);
        let g = ring.install();
        record(BbKind::SpanOpen, "pastis.run", 0, 0);
        record(BbKind::SpanOpen, "pastis.fasta", 1, 0);
        record(BbKind::SpanClose, "pastis.fasta", 1, 0);
        let paths = dump_all(&[ring], "test abort");
        drop(g);
        assert_eq!(paths.len(), 1, "only the given ring is dumped");
        let mine = &paths[0];
        assert!(mine.ends_with("blackbox-rank5.json"));
        let text = std::fs::read_to_string(mine).unwrap();
        let doc = JsonValue::parse(&text).expect("dump parses");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("blackbox"));
        assert_eq!(
            doc.get("last_completed_stage").and_then(|v| v.as_str()),
            Some("pastis.fasta")
        );
        assert_eq!(doc.get("version").and_then(|v| v.as_f64()), Some(2.0));
        assert!(doc.get("live_bytes_total").is_some());
        assert!(doc.get("live_bytes_by_subsystem").is_none());
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("test abort")
        );
        assert_eq!(
            doc.get("events_dropped").and_then(|v| v.as_f64()),
            Some(0.0),
            "unwrapped ring reports zero drops"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
