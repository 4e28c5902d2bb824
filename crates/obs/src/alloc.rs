//! Allocation accounting: one process-wide ledger behind the global
//! allocator, plus explicit `HeapSize` watermark probes.
//!
//! The pipeline is memory-bound long before it is compute-bound (the
//! extreme-scale PASTIS successor exists because SpGEMM accumulators and
//! the PSG outgrow node RAM), so bytes get the same treatment as seconds:
//!
//! - **The ledger** ([`TrackingAlloc`], installed as the workspace
//!   `#[global_allocator]`): exact process-wide live bytes, their
//!   high-water mark and one allocation counter, in global atomics.
//!   Tracking is **default-on in debug, opt-in in release** via the
//!   `ALLOC_TRACK` env switch ([`init_from_env`]); while off, every path
//!   is a single relaxed load + branch over the system allocator.
//! - **Peak windows** ([`peak_during`]): the high-water mark of the live
//!   total while a closure runs. Windows nest and run concurrently — ranks
//!   are threads of one process, so a window reads the *process* footprint
//!   during its extent, the per-node quantity a memory budget bounds.
//! - **Watermark probes** ([`HeapSize`], [`probe`]): big structures
//!   (sequence stores, SpGEMM accumulators, PSG triples, alignment
//!   scratch) report their heap footprint explicitly into max-merged
//!   gauges (`mem.watermark.*`), so release runs get deterministic
//!   watermarks (the `pastis --trace` structure table) even with the
//!   allocator hook off.
//!
//! There is no attribution below the process total: the allocator
//! **never changes layouts or adds headers** — it forwards every call to
//! [`System`] unchanged and only bumps counters — so a free cannot be
//! charged to whoever allocated the block, and any split by subsystem or
//! by rank would print columns that exceed their own total. The same
//! property makes toggling tracking at any point of the process lifetime
//! sound: memory allocated while tracking was off is freed correctly while
//! it is on, and vice versa.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering::Relaxed};

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

// --- the ledger ------------------------------------------------------------

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Peak windows open at once, process-wide (one bit of [`OPEN`] each):
/// 32 ranks two deep — a stage window around a batch window.
const WINDOW_SLOTS: usize = 64;

/// Bit `i` set: slot `i` is claimed and tracked allocations raise
/// `WINDOW_PEAK[i]`.
static OPEN: AtomicU64 = AtomicU64::new(0);
static WINDOW_PEAK: [AtomicI64; WINDOW_SLOTS] = [const { AtomicI64::new(0) }; WINDOW_SLOTS];

fn note_alloc(size: usize) {
    let size = size as i64;
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    let mut open = OPEN.load(Relaxed);
    while open != 0 {
        WINDOW_PEAK[open.trailing_zeros() as usize].fetch_max(live, Relaxed);
        open &= open - 1;
    }
}

fn note_dealloc(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

/// Exact process-wide live bytes (zero if tracking never was on; clamped
/// at zero, since blocks allocated before tracking was switched on are
/// freed against the ledger).
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed).max(0) as u64
}

/// High-water mark of [`live_bytes`] over the process lifetime.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

/// Tracked allocation calls so far (the steady-state zero-allocation
/// tests' observable).
pub fn total_allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// A claimed window slot; dropping it gives the slot back, also when the
/// windowed closure unwinds.
struct WindowSlot(usize);

impl WindowSlot {
    fn claim() -> Option<WindowSlot> {
        if !tracking() {
            return None;
        }
        let mut open = OPEN.load(Relaxed);
        loop {
            let i = (!open).trailing_zeros() as usize;
            if i == WINDOW_SLOTS {
                return None;
            }
            match OPEN.compare_exchange_weak(open, open | 1 << i, Relaxed, Relaxed) {
                Ok(_) => {
                    // The slot still holds its previous owner's peak; the
                    // window starts at this store.
                    WINDOW_PEAK[i].store(LIVE.load(Relaxed), Relaxed);
                    return Some(WindowSlot(i));
                }
                Err(now) => open = now,
            }
        }
    }
}

impl Drop for WindowSlot {
    fn drop(&mut self) {
        OPEN.fetch_and(!(1 << self.0), Relaxed);
    }
}

/// Run `f` and report the peak of the process-wide live bytes while it
/// ran. Windows nest (an outer window sees everything an inner one saw)
/// and windows on other threads neither reset nor shorten this one. The
/// peak is `None` — never a wrong number — when tracking is off or all
/// [`WINDOW_SLOTS`] slots are taken.
///
/// Every atomic here is `Relaxed`: the slots carry statistics and publish
/// no other data. The price is at the window's edges only — an allocation
/// on *another* thread racing the open or the close may or may not count.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, Option<i64>) {
    let slot = WindowSlot::claim();
    let r = f();
    let peak = slot.map(|s| WINDOW_PEAK[s.0].load(Relaxed).max(0));
    (r, peak)
}

// --- the allocator ---------------------------------------------------------

/// The counting global allocator: a layout-preserving pass-through to
/// [`System`] that, while tracking is on, books every allocation and free
/// in the process-wide ledger. Installed once, in this module,
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
/// the backing buffers — the consumer (the watermark gauges) wants
/// magnitudes, not audits.
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

    // `cargo test` runs these beside the rest of the crate's tests, which
    // allocate and free against the same ledger: every assertion is a
    // lower bound around a probe far larger than that noise, and nothing
    // here turns tracking off (`tests/peak_windows.rs` does, in a process
    // of its own).

    #[test]
    fn window_peaks_restart_at_begin() {
        set_tracking(true);
        // Live before the window opens: part of its baseline, and a peak
        // reached before the window must not leak into it.
        let before: Vec<u8> = Vec::with_capacity(1 << 24);
        drop(before);
        let held: Vec<u8> = Vec::with_capacity(1 << 16);
        let base = live_bytes() as i64;
        let ((), grown) = peak_during(|| drop(Vec::<u8>::with_capacity(1 << 22)));
        let grown = grown.expect("tracking is on and a slot is free");
        assert!(
            grown >= base + (1 << 22) - (1 << 20),
            "window did not capture growth: base={base} grown={grown}"
        );
        assert!(
            grown < base + (1 << 24) - (1 << 20),
            "window remembers a peak from before it opened: base={base} grown={grown}"
        );
        assert!(peak_bytes() as i64 >= grown);
        drop(held);
    }

    #[test]
    fn outer_window_sees_what_an_inner_window_saw() {
        set_tracking(true);
        let (inner, outer) = peak_during(|| {
            let ((), first) = peak_during(|| drop(Vec::<u8>::with_capacity(1 << 23)));
            // A second, smaller inner window must not erase the first
            // from the outer one.
            let ((), second) = peak_during(|| drop(Vec::<u8>::with_capacity(1 << 16)));
            (first.expect("inner"), second.expect("inner"))
        });
        let outer = outer.expect("outer");
        assert!(
            outer >= inner.0 - (1 << 20),
            "outer={outer} inner={inner:?}"
        );
        assert!(
            inner.1 < inner.0 - (1 << 22),
            "each window starts afresh: {inner:?}"
        );
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
