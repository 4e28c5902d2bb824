//! Allocation accounting: a tagging global allocator plus explicit
//! `HeapSize` watermark probes.
//!
//! The pipeline is memory-bound long before it is compute-bound (the
//! extreme-scale PASTIS successor exists because SpGEMM accumulators and
//! the PSG outgrow node RAM), so bytes get the same treatment as seconds:
//!
//! - **Tagging allocator** ([`TrackingAlloc`], installed as the workspace
//!   `#[global_allocator]`): every allocation is attributed to the
//!   *subsystem* of the innermost active span on the allocating thread
//!   (the span machinery maintains a per-thread current tag; see
//!   [`subsystem_id`]). Per-subsystem live bytes, peaks, and allocation
//!   counts live in global atomics sampled by [`stats`] and dumped into
//!   black-box files. Tracking is **default-on in debug, opt-in in
//!   release** via the `ALLOC_TRACK` env switch ([`init_from_env`]); while
//!   off, every path is a single relaxed load + branch over the system
//!   allocator.
//! - **Watermark probes** ([`HeapSize`], [`probe`]): big structures
//!   (sequence stores, SpGEMM accumulators, PSG triples, alignment
//!   scratch) report their heap footprint explicitly into max-merged
//!   gauges (`mem.watermark.*`), so release runs get deterministic
//!   watermarks for the scaling projector even with the allocator hook
//!   off.
//!
//! The allocator **never changes layouts or adds headers** — it forwards
//! every call to [`System`] unchanged and only bumps counters — so
//! toggling tracking at any point of the process lifetime is sound:
//! memory allocated while tracking was off is freed correctly while it is
//! on, and vice versa (such frees merely smear the per-subsystem live
//! counts, which is why peaks, not exact lives, are the reported
//! quantity).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering::Relaxed};

/// Subsystem tags allocations are attributed to, in tag order. The last
/// entry (`other`) absorbs untagged threads and unknown span prefixes.
pub const SUBSYSTEMS: [&str; 8] = [
    "pastis", "pcomm", "sparse", "align", "seqstore", "mcl", "bench", "other",
];

/// Number of subsystem tags.
pub const N_SUBSYSTEMS: usize = SUBSYSTEMS.len();

const OTHER: u8 = (N_SUBSYSTEMS - 1) as u8;

/// Map a span name to its subsystem tag by the prefix before the first
/// `.` — `summa.stage` and `spgemm` count as `sparse`, `fasta` as
/// `seqstore`, `obsperf` as `bench`; anything unknown lands in `other`.
pub fn subsystem_id(span_name: &str) -> u8 {
    let prefix = &span_name[..span_name.find('.').unwrap_or(span_name.len())];
    let idx = match prefix {
        "pastis" => 0,
        "pcomm" => 1,
        "sparse" | "summa" | "spgemm" => 2,
        "align" => 3,
        "seqstore" | "fasta" => 4,
        "mcl" => 5,
        "bench" | "obsperf" | "alnperf" => 6,
        _ => N_SUBSYSTEMS - 1,
    };
    idx as u8
}

// --- tracking switch -------------------------------------------------------

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Resolve the tracking switch from the environment if it has not been
/// set yet: `ALLOC_TRACK=1` forces on, `ALLOC_TRACK=0` forces off,
/// otherwise tracking defaults on under `debug_assertions` and off in
/// release. Called by `Recorder::install` (reading the environment
/// allocates, so the allocator itself can never do this — before the
/// first call every allocation simply forwards untracked).
pub fn init_from_env() {
    if STATE.load(Relaxed) != UNINIT {
        return;
    }
    let on = match std::env::var("ALLOC_TRACK") {
        Ok(v) if v == "0" => false,
        Ok(v) if v == "1" => true,
        _ => cfg!(debug_assertions),
    };
    STATE.store(if on { ON } else { OFF }, Relaxed);
}

/// Force the tracking switch (tests and benchmark harnesses; overrides
/// any earlier [`init_from_env`] resolution).
pub fn set_tracking(on: bool) {
    STATE.store(if on { ON } else { OFF }, Relaxed);
}

/// True when allocation tracking is currently on.
pub fn tracking() -> bool {
    STATE.load(Relaxed) == ON
}

// --- per-thread tag --------------------------------------------------------

thread_local! {
    /// The subsystem of the innermost active span on this thread; spans
    /// save and restore it RAII-style. A plain `Cell` — the allocator
    /// reads it on every tracked allocation and must never risk a
    /// re-entrant `RefCell` borrow.
    static CUR_TAG: Cell<u8> = const { Cell::new(OTHER) };
}

/// Set the thread's subsystem tag, returning the previous one (span
/// entry). Crate-internal: the span guards are the only writers.
pub(crate) fn swap_tag(tag: u8) -> u8 {
    CUR_TAG.try_with(|c| c.replace(tag)).unwrap_or(OTHER)
}

/// Restore a previously swapped-out tag (span exit).
pub(crate) fn set_tag(tag: u8) {
    let _ = CUR_TAG.try_with(|c| c.set(tag));
}

fn cur_tag() -> usize {
    let t = CUR_TAG.try_with(|c| c.get()).unwrap_or(OTHER) as usize;
    t.min(N_SUBSYSTEMS - 1)
}

// --- global accounting -----------------------------------------------------

struct SubsysCounters {
    live: AtomicI64,
    peak: AtomicI64,
    win_peak: AtomicI64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
}

static PER: [SubsysCounters; N_SUBSYSTEMS] = [const {
    SubsysCounters {
        live: AtomicI64::new(0),
        peak: AtomicI64::new(0),
        win_peak: AtomicI64::new(0),
        allocs: AtomicU64::new(0),
        alloc_bytes: AtomicU64::new(0),
    }
}; N_SUBSYSTEMS];

static LIVE_TOTAL: AtomicI64 = AtomicI64::new(0);
static PEAK_TOTAL: AtomicI64 = AtomicI64::new(0);
static WIN_PEAK_TOTAL: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    let size = size as i64;
    let s = &PER[cur_tag()];
    let live = s.live.fetch_add(size, Relaxed) + size;
    s.peak.fetch_max(live, Relaxed);
    s.win_peak.fetch_max(live, Relaxed);
    s.allocs.fetch_add(1, Relaxed);
    s.alloc_bytes.fetch_add(size as u64, Relaxed);
    let total = LIVE_TOTAL.fetch_add(size, Relaxed) + size;
    PEAK_TOTAL.fetch_max(total, Relaxed);
    WIN_PEAK_TOTAL.fetch_max(total, Relaxed);
}

fn note_dealloc(size: usize) {
    let size = size as i64;
    // Frees are attributed to the *current* tag, which may differ from the
    // allocating one (a structure built under `pastis` freed under
    // `sparse`). Per-subsystem lives therefore smear across tags — peaks
    // are the reported quantity — while the process-wide total is exact.
    PER[cur_tag()].live.fetch_sub(size, Relaxed);
    LIVE_TOTAL.fetch_sub(size, Relaxed);
}

/// One subsystem's allocation counters at a sampling instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubsystemUsage {
    /// Live bytes currently attributed to the subsystem (clamped at zero:
    /// cross-subsystem frees can drive the raw counter negative).
    pub live_bytes: i64,
    /// High-water mark of the subsystem's live bytes.
    pub peak_bytes: i64,
    /// Allocation calls attributed to the subsystem.
    pub allocs: u64,
    /// Total bytes ever allocated under the subsystem's tag.
    pub alloc_bytes: u64,
}

/// A full sample of the allocator's accounting state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Whether tracking was on when the sample was taken (all counters
    /// read zero if it never was).
    pub tracking: bool,
    /// Per-subsystem counters, indexed like [`SUBSYSTEMS`].
    pub per: [SubsystemUsage; N_SUBSYSTEMS],
    /// Exact process-wide live bytes.
    pub live_total: i64,
    /// Exact process-wide high-water mark.
    pub peak_total: i64,
}

/// Sample the allocator's accounting state (racy across threads by
/// nature; each counter is individually consistent).
pub fn stats() -> AllocStats {
    let mut out = AllocStats {
        tracking: tracking(),
        live_total: LIVE_TOTAL.load(Relaxed),
        peak_total: PEAK_TOTAL.load(Relaxed),
        ..Default::default()
    };
    for (i, s) in PER.iter().enumerate() {
        out.per[i] = SubsystemUsage {
            live_bytes: s.live.load(Relaxed).max(0),
            peak_bytes: s.peak.load(Relaxed).max(0),
            allocs: s.allocs.load(Relaxed),
            alloc_bytes: s.alloc_bytes.load(Relaxed),
        };
    }
    out
}

/// Total allocation calls across all subsystems (the steady-state
/// zero-allocation tests' observable).
pub fn total_allocs() -> u64 {
    PER.iter().map(|s| s.allocs.load(Relaxed)).sum()
}

/// Per-subsystem peak live bytes observed since the last
/// [`begin_window`], plus the process-wide window peak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowPeaks {
    /// Peak live bytes per subsystem within the window, indexed like
    /// [`SUBSYSTEMS`].
    pub per: [i64; N_SUBSYSTEMS],
    /// Process-wide peak live bytes within the window.
    pub total: i64,
}

/// Open a peak-sampling window: window peaks restart from the current
/// live values. The pipeline brackets each stage with a window so the
/// trace report can show per-stage peak live bytes by subsystem. Windows
/// are process-global — with several ranks allocating concurrently the
/// attribution is a cross-rank aggregate, which is exactly the per-node
/// quantity an out-of-core batch sizer budgets for.
pub fn begin_window() {
    for s in &PER {
        s.win_peak.store(s.live.load(Relaxed), Relaxed);
    }
    WIN_PEAK_TOTAL.store(LIVE_TOTAL.load(Relaxed), Relaxed);
}

/// Read the current window's peaks (see [`begin_window`]).
pub fn window_peaks() -> WindowPeaks {
    let mut out = WindowPeaks {
        total: WIN_PEAK_TOTAL.load(Relaxed).max(0),
        ..Default::default()
    };
    for (i, s) in PER.iter().enumerate() {
        out.per[i] = s.win_peak.load(Relaxed).max(0);
    }
    out
}

// --- the allocator ---------------------------------------------------------

/// The tagging global allocator: a layout-preserving pass-through to
/// [`System`] that, while tracking is on, attributes every allocation to
/// the current thread's subsystem tag. Installed once, in this module,
/// as the workspace's `#[global_allocator]` (the `alloc-confinement`
/// xlint rule keeps it that way).
pub struct TrackingAlloc;

// SAFETY: every method forwards the caller's pointer/layout to `System`
// unchanged and returns its result unchanged; the only additional work is
// relaxed atomic counter bumps, which allocate nothing and cannot
// observe or alter the allocation itself.
unsafe impl GlobalAlloc for TrackingAlloc {
    // SAFETY: pass-through; see the impl-level comment.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarding the caller's layout to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && STATE.load(Relaxed) == ON {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: pass-through; see the impl-level comment.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarding the caller's layout to the system allocator.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && STATE.load(Relaxed) == ON {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: pass-through; see the impl-level comment.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if STATE.load(Relaxed) == ON {
            note_dealloc(layout.size());
        }
        // SAFETY: `ptr`/`layout` come from a matching `alloc` per the
        // GlobalAlloc contract and are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: pass-through; see the impl-level comment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: contract forwarding, as in `dealloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && STATE.load(Relaxed) == ON {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// The workspace's global allocator. Every crate that links `obs`
/// (everything above the runtime) allocates through the tracker; with
/// tracking off the overhead is one relaxed load per call.
#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

// --- watermark probes ------------------------------------------------------

/// Heap footprint of a structure, in bytes, **excluding** the structure's
/// own inline size. Implementations are estimates good to the capacity of
/// the backing buffers — the consumers (watermark gauges, growth-law
/// projection) want magnitudes, not audits.
pub trait HeapSize {
    /// Estimated heap bytes owned by `self`.
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

/// Approximate per-entry overhead of a `BTreeMap` beyond the key/value
/// payload (node headers, unused slots in non-full nodes).
pub const BTREE_ENTRY_OVERHEAD: usize = 16;

impl<K, V> HeapSize for std::collections::BTreeMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.len() * (std::mem::size_of::<K>() + std::mem::size_of::<V>() + BTREE_ENTRY_OVERHEAD)
    }
}

/// Record `bytes` into the max-merged watermark gauge `name` (convention:
/// `mem.watermark.<structure>`). Gauges merge by max across probes,
/// workers, and ranks, so the merged snapshot holds each structure's
/// high-water mark. No-op without a recorder.
pub fn watermark(name: &'static str, bytes: u64) {
    crate::span::gauge_max(name, i64::try_from(bytes).unwrap_or(i64::MAX));
}

/// [`watermark`] of a structure's [`HeapSize`].
pub fn probe<T: HeapSize + ?Sized>(name: &'static str, value: &T) {
    watermark(name, value.heap_bytes() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracking switch, the ledgers and the window are process-global
    /// and `cargo test` runs tests on parallel threads: the tests that
    /// read exact ledger movements hold this lock so one's frees cannot
    /// land inside the other's measurement.
    static GLOBAL_LEDGER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn ledger_lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_LEDGER
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn subsystem_prefixes_map() {
        assert_eq!(SUBSYSTEMS[subsystem_id("pastis.fasta") as usize], "pastis");
        assert_eq!(SUBSYSTEMS[subsystem_id("summa.stage") as usize], "sparse");
        assert_eq!(SUBSYSTEMS[subsystem_id("align.overlap") as usize], "align");
        assert_eq!(SUBSYSTEMS[subsystem_id("pcomm.bcast") as usize], "pcomm");
        assert_eq!(SUBSYSTEMS[subsystem_id("mystery") as usize], "other");
        assert_eq!(SUBSYSTEMS[subsystem_id("fasta") as usize], "seqstore");
    }

    #[test]
    fn tracked_allocations_hit_the_tagged_subsystem() {
        let _serial = ledger_lock();
        set_tracking(true);
        let tag = subsystem_id("align.test");
        let before = stats().per[tag as usize];
        let prev = swap_tag(tag);
        // A Vec big enough to dodge any size-class noise.
        let v: Vec<u64> = Vec::with_capacity(1 << 12);
        let mid = stats().per[tag as usize];
        drop(v);
        set_tag(prev);
        assert!(
            mid.alloc_bytes >= before.alloc_bytes + (1 << 15),
            "allocation not attributed: before={before:?} mid={mid:?}"
        );
        assert!(mid.allocs > before.allocs);
        assert!(stats().peak_total > 0);
    }

    #[test]
    fn window_peaks_restart_at_begin() {
        let _serial = ledger_lock();
        set_tracking(true);
        let prev = swap_tag(subsystem_id("sparse.win"));
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        begin_window();
        let base = window_peaks().total;
        // Sibling tests outside this module still allocate and free small
        // buffers against the same process-wide total; the growth probe is
        // sized so their noise cannot mask it.
        let w: Vec<u8> = Vec::with_capacity(1 << 22);
        let grown = window_peaks().total;
        assert!(
            grown >= base + (1 << 21),
            "window did not capture growth: base={base} grown={grown}"
        );
        drop(w);
        drop(v);
        set_tag(prev);
    }

    #[test]
    fn heap_size_estimates() {
        let v: Vec<u32> = Vec::with_capacity(100);
        assert_eq!(v.heap_bytes(), 400);
        let s = String::with_capacity(32);
        assert_eq!(s.heap_bytes(), 32);
        let mut m = std::collections::BTreeMap::new();
        m.insert(1u64, 2u64);
        assert_eq!(m.heap_bytes(), 16 + BTREE_ENTRY_OVERHEAD);
    }

    #[test]
    fn watermark_gauges_merge_by_max() {
        let rec = crate::Recorder::install(0);
        watermark("mem.watermark.test_probe", 100);
        watermark("mem.watermark.test_probe", 900);
        watermark("mem.watermark.test_probe", 300);
        let t = rec.finish();
        assert_eq!(t.metrics.gauges["mem.watermark.test_probe"], 900);
    }
}
