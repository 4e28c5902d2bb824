//! `obs::live` — lock-light per-rank progress cells for the live telemetry
//! plane.
//!
//! Each rank thread installs a [`ProgressCell`] (see [`install`]); the span
//! layer ([`crate::span_start`] / guard drop) and pipeline chunk boundaries
//! publish into it with plain atomic stores. An out-of-band monitor thread
//! (`pcomm::monitor`) samples every cell with [`sample`] and aggregates the
//! rows into `status.json` snapshots and the refreshing `pastis --monitor`
//! table.
//!
//! Design constraints, in order:
//!
//! 1. **Ledger-clean**: cells are shared-memory only. No mailboxes, no
//!    collectives, nothing the pcheck conformance ledger or the finalize
//!    leak audit can see. The "heartbeat channel" is the monitor thread
//!    reading these atomics — a nonblocking gather that never touches the
//!    critical path.
//! 2. **Lock-light**: the hot paths ([`span_open`], [`span_close`],
//!    [`touch`], [`add_items`]) are a relaxed flag load when the plane is
//!    disabled, and a handful of relaxed atomic stores when enabled. The
//!    only lock is the stage-name intern table, hit once per *distinct*
//!    span name per thread (a thread-local cache absorbs repeats).
//! 3. **Deterministic observables**: `epoch` counts span opens and
//!    `done`/`total` count pipeline items — logical program-order facts
//!    that are bit-identical across perturbation seeds, so monitor
//!    snapshots can be structure-checked in tests. The wall-clock field
//!    (`hb_ns`) is explicitly nondeterministic and excluded from those
//!    checks.
//!
//! Cells carry no memory figure: ranks are threads of one process and the
//! allocation ledger ([`crate::alloc`]) is process-wide, so the monitor
//! samples it once per snapshot instead of once per rank.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use crate::Stopwatch;

/// Stage id published by an idle cell (no span currently open).
const IDLE: u64 = u64::MAX;

/// Master switch for the telemetry plane. Off (the default) every hook is a
/// single relaxed load (DESIGN.md §14 has the end-to-end on/off cost).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable the plane. `pcomm::monitor::configure` flips this on;
/// nothing in `obs` does.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether the plane is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Monotonic clock shared by all heartbeat stamps, started on first use so
/// `hb_ns` values from different ranks are comparable.
fn plane_clock() -> &'static Stopwatch {
    static CLOCK: OnceLock<Stopwatch> = OnceLock::new();
    CLOCK.get_or_init(Stopwatch::start)
}

/// One rank's live progress: every field a plain atomic so the monitor
/// thread can sample without synchronizing with the rank.
#[derive(Debug)]
pub struct ProgressCell {
    /// Interned id of the innermost open span (see [`stage_name`]), or
    /// [`IDLE`].
    stage: AtomicU64,
    /// Count of span opens on this rank — the progress epoch. Monotone,
    /// deterministic in program order.
    epoch: AtomicU64,
    /// Pipeline items completed (cumulative; alignment tasks).
    done: AtomicU64,
    /// Pipeline items announced (cumulative; `done <= total` once a chunk
    /// retires).
    total: AtomicU64,
    /// Last heartbeat stamp, ns on the shared [`plane_clock`].
    hb_ns: AtomicU64,
    /// Whether the owning rank thread is still between install and drop.
    active: AtomicBool,
}

impl ProgressCell {
    fn new() -> ProgressCell {
        ProgressCell {
            stage: AtomicU64::new(IDLE),
            epoch: AtomicU64::new(0),
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
            hb_ns: AtomicU64::new(0),
            active: AtomicBool::new(true),
        }
    }

    fn beat(&self) {
        self.hb_ns.store(plane_clock().elapsed_ns(), Relaxed);
    }
}

/// One sampled row of the plane: a racy-but-consistent copy of a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSample {
    pub rank: usize,
    /// Innermost open span name, `"-"` when idle.
    pub stage: String,
    pub epoch: u64,
    pub done: u64,
    pub total: u64,
    /// Heartbeat age is `sample_ns - hb_ns` on the same clock.
    pub hb_ns: u64,
    pub active: bool,
}

/// Cell registry, indexed by rank. Slots are replaced (fresh `Arc`) on
/// [`install`] so a stale thread from a previous world can never write into
/// a new run's cell.
static CELLS: Mutex<Vec<Option<Arc<ProgressCell>>>> = Mutex::new(Vec::new());

/// Stage-name intern table: id -> name. Append-only; ids are stable for the
/// process lifetime.
static STAGE_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    /// The owning rank thread's handle: its cell plus the open-span stage
    /// stack (so `span_close` can restore the enclosing stage).
    static TL: RefCell<Option<TlState>> = const { RefCell::new(None) };
    /// Per-thread intern cache keyed by the `&'static str` pointer, so the
    /// global table lock is hit once per distinct name per thread.
    static INTERN_CACHE: RefCell<HashMap<usize, u64>> = RefCell::new(HashMap::new());
}

struct TlState {
    cell: Arc<ProgressCell>,
    stack: Vec<u64>,
}

fn intern(name: &'static str) -> u64 {
    INTERN_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if let Some(&id) = cache.get(&(name.as_ptr() as usize)) {
            return id;
        }
        let mut table = STAGE_NAMES.lock().unwrap();
        let id = match table.iter().position(|&n| n == name) {
            Some(i) => i as u64,
            None => {
                table.push(name);
                (table.len() - 1) as u64
            }
        };
        cache.insert(name.as_ptr() as usize, id);
        id
    })
}

/// Resolve an interned stage id back to its name.
fn stage_name(id: u64) -> String {
    if id == IDLE {
        return "-".into();
    }
    let table = STAGE_NAMES.lock().unwrap();
    table
        .get(id as usize)
        .map(|s| (*s).to_string())
        .unwrap_or_else(|| format!("stage#{id}"))
}

/// RAII guard returned by [`install`]: marks the cell inactive (with a
/// final heartbeat) and detaches the thread-local handle on drop.
pub struct LiveGuard {
    cell: Arc<ProgressCell>,
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.cell.beat();
        self.cell.active.store(false, Relaxed);
        TL.with(|tl| *tl.borrow_mut() = None);
    }
}

/// Install a fresh progress cell for `rank` on the current thread. Cheap
/// whether or not the plane is enabled (cells update only when it is); the
/// runtime installs unconditionally next to the black-box ring.
/// Clear the cell registry. Called once per world launch (before its
/// ranks install and before the monitor thread spawns), so a monitor
/// never samples stale cells left by a previous world in the same
/// process — those would read as progress epochs jumping backwards.
pub fn reset() {
    CELLS.lock().unwrap().clear();
}

pub fn install(rank: usize) -> LiveGuard {
    let cell = Arc::new(ProgressCell::new());
    {
        let mut cells = CELLS.lock().unwrap();
        if cells.len() <= rank {
            cells.resize_with(rank + 1, || None);
        }
        cells[rank] = Some(Arc::clone(&cell));
    }
    cell.beat();
    TL.with(|tl| {
        *tl.borrow_mut() = Some(TlState {
            cell: Arc::clone(&cell),
            stack: Vec::with_capacity(16),
        })
    });
    LiveGuard { cell }
}

/// Span-open hook: publish `name` as the current stage and bump the
/// progress epoch. Called from the recorder's `span_start` next to the
/// black-box `SpanOpen` record.
pub fn span_open(name: &'static str) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    TL.with(|tl| {
        if let Some(st) = tl.borrow_mut().as_mut() {
            let id = intern(name);
            st.stack.push(id);
            st.cell.stage.store(id, Relaxed);
            st.cell.epoch.fetch_add(1, Relaxed);
            st.cell.beat();
        }
    });
}

/// Span-close hook: restore the enclosing stage (or idle).
pub fn span_close() {
    if !ENABLED.load(Relaxed) {
        return;
    }
    TL.with(|tl| {
        if let Some(st) = tl.borrow_mut().as_mut() {
            st.stack.pop();
            let id = st.stack.last().copied().unwrap_or(IDLE);
            st.cell.stage.store(id, Relaxed);
            st.cell.beat();
        }
    });
}

/// Heartbeat-only hook: stamp the clock and refresh the live-bytes sample
/// without changing stage or epoch. Piggybacked on every collective entry
/// so a rank deep in a long exchange still reads as alive.
pub fn touch() {
    if !ENABLED.load(Relaxed) {
        return;
    }
    TL.with(|tl| {
        if let Some(st) = tl.borrow().as_ref() {
            st.cell.beat();
        }
    });
}

/// Pipeline chunk boundary: announce `total` more items and retire `done`
/// of them. Both counters are cumulative and monotone.
pub fn add_items(done: u64, total: u64) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    TL.with(|tl| {
        if let Some(st) = tl.borrow().as_ref() {
            st.cell.total.fetch_add(total, Relaxed);
            st.cell.done.fetch_add(done, Relaxed);
            st.cell.beat();
        }
    });
}

/// Sample ranks `0..p` of the plane (rows for never-installed ranks are
/// absent). The monitor thread's gather: reads every cell's atomics without
/// synchronizing with the rank threads.
pub fn sample(p: usize) -> Vec<RankSample> {
    let cells = CELLS.lock().unwrap();
    cells
        .iter()
        .take(p)
        .enumerate()
        .filter_map(|(rank, slot)| {
            let c = slot.as_ref()?;
            Some(RankSample {
                rank,
                stage: stage_name(c.stage.load(Relaxed)),
                epoch: c.epoch.load(Relaxed),
                done: c.done.load(Relaxed),
                total: c.total.load(Relaxed),
                hb_ns: c.hb_ns.load(Relaxed),
                active: c.active.load(Relaxed),
            })
        })
        .collect()
}

/// Current ns on the shared plane clock — the reference point for
/// heartbeat-age computations.
pub fn now_ns() -> u64 {
    plane_clock().elapsed_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plane is process-global state; serialize the tests that toggle
    /// [`ENABLED`] so they cannot observe each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Hooks are inert until the plane is enabled, and cells then track
    /// stage/epoch/items through a span open/close cycle.
    #[test]
    fn cell_tracks_spans_and_items() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = install(0);
        set_enabled(false);
        span_open("quiet.span");
        assert_eq!(sample(1)[0].epoch, 0, "disabled plane must not record");

        set_enabled(true);
        span_open("live.outer");
        span_open("live.inner");
        add_items(3, 10);
        let s = &sample(1)[0];
        assert_eq!(s.stage, "live.inner");
        assert_eq!(s.epoch, 2);
        assert_eq!((s.done, s.total), (3, 10));
        assert!(s.active);

        span_close();
        assert_eq!(sample(1)[0].stage, "live.outer");
        span_close();
        assert_eq!(sample(1)[0].stage, "-");
        set_enabled(false);
    }

    /// Reinstalling a rank replaces the slot with a fresh cell, and the
    /// guard drop marks the cell inactive.
    #[test]
    fn reinstall_resets_and_drop_deactivates() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let g = install(5);
        span_open("run.one");
        assert_eq!(sample(6).last().unwrap().epoch, 1);
        drop(g);
        assert!(!sample(6).last().unwrap().active);

        let _g2 = install(5);
        let s = sample(6);
        let row = s.last().unwrap();
        assert_eq!(row.epoch, 0, "fresh install must reset the epoch");
        assert!(row.active);
        set_enabled(false);
    }
}
