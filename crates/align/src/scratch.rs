//! Reusable DP buffers shared by all alignment kernels.
//!
//! Every kernel needs a handful of growable buffers (DP rows, direction
//! bytes, query profiles). Allocating them per call dominates small
//! alignments and fragments the heap in batch runs, so they live in an
//! [`AlignScratch`] arena instead: buffers are cleared and refilled but
//! never shrunk, so once the arena has seen the largest task of a batch,
//! subsequent alignments perform no heap allocation at all. The public
//! kernel entry points route through a thread-local arena (one per batch
//! worker thread); callers that manage their own threads can pass an
//! explicit arena to the `*_with` variants.

use std::cell::RefCell;

use crate::striped::{L16, L16W, L32, L32W};

/// Buffers for one in-flight banded x-drop extension.
#[derive(Default)]
pub(crate) struct XdropScratch {
    /// Previous row's H and F, indexed by absolute column (at least
    /// `n + 1` long; only the live window holds meaningful values).
    pub(crate) row_h: Vec<i32>,
    pub(crate) row_f: Vec<i32>,
    /// The row being written; swapped with `row_*` when it completes.
    pub(crate) spare_h: Vec<i32>,
    pub(crate) spare_f: Vec<i32>,
    /// All rows' traceback bytes, concatenated.
    pub(crate) dir_flat: Vec<u8>,
    /// Per-row `(lo, start, len)` slices into `dir_flat`.
    pub(crate) dir_rows: Vec<(usize, usize, usize)>,
}

/// One lane configuration's worth of striped-kernel state. The profile
/// caches remember which `(query, matrix)` they hold: in many-vs-one
/// batches the same query arrives back to back, and the O(Σ·m) profile
/// build is skipped when the key matches. The key stores a copy of the
/// query bytes (verified on hit), so a freed-and-reallocated query buffer
/// at the same address cannot alias a stale profile. Forward and reverse
/// profiles cache independently — the traceback start-cell pass runs on
/// the reversed query, and sharing one slot would make the two passes
/// evict each other on every pair.
#[derive(Default)]
pub(crate) struct StripedBufs<T, const L: usize> {
    pub(crate) prof: Vec<[T; L]>,
    pub(crate) prof_key: Option<(Vec<u8>, usize)>,
    pub(crate) rprof: Vec<[T; L]>,
    pub(crate) rprof_key: Option<(Vec<u8>, usize)>,
    pub(crate) h_store: Vec<[T; L]>,
    pub(crate) h_load: Vec<[T; L]>,
    pub(crate) e: Vec<[T; L]>,
}

/// Arena of reusable buffers for the alignment kernels. See the module
/// docs; construct with [`AlignScratch::new`] or use the thread-local via
/// [`with_scratch`].
#[derive(Default)]
pub struct AlignScratch {
    // Smith–Waterman rows: the scalar reference's over the full matrix,
    // the striped traceback's lane fill over the start→end rectangle.
    pub(crate) h_prev: Vec<i32>,
    pub(crate) h_curr: Vec<i32>,
    pub(crate) f_row: Vec<i32>,
    /// Direction bytes, one per cell of the matrix or rectangle either
    /// fill ran on.
    pub(crate) dirs: Vec<u8>,
    // Striped kernel state per SIMD dispatch level (see
    // `dispatch::SimdLevel`): portable SLP lanes, i16 with i32
    // overflow-fallback.
    pub(crate) slp16: StripedBufs<i16, L16>,
    pub(crate) slp32: StripedBufs<i32, L32>,
    // AVX2 wide lanes (the AVX2 and AVX-512 levels).
    pub(crate) avx16: StripedBufs<i16, L16W>,
    pub(crate) avx32: StripedBufs<i32, L32W>,
    // X-drop extension state.
    pub(crate) xd: XdropScratch,
    /// Reversed prefixes for the leftward x-drop extension and the striped
    /// traceback's start-cell pass.
    pub(crate) rev_a: Vec<u8>,
    pub(crate) rev_b: Vec<u8>,
}

impl<T, const L: usize> StripedBufs<T, L> {
    fn heap_bytes(&self) -> usize {
        let lane = std::mem::size_of::<[T; L]>();
        (self.prof.capacity()
            + self.rprof.capacity()
            + self.h_store.capacity()
            + self.h_load.capacity()
            + self.e.capacity())
            * lane
            + self.prof_key.as_ref().map_or(0, |(k, _)| k.capacity())
            + self.rprof_key.as_ref().map_or(0, |(k, _)| k.capacity())
    }
}

impl obs::HeapSize for AlignScratch {
    fn heap_bytes(&self) -> usize {
        let i32s = |v: &Vec<i32>| v.capacity() * 4;
        let xd = &self.xd;
        i32s(&self.h_prev)
            + i32s(&self.h_curr)
            + i32s(&self.f_row)
            + self.dirs.capacity()
            + self.slp16.heap_bytes()
            + self.slp32.heap_bytes()
            + self.avx16.heap_bytes()
            + self.avx32.heap_bytes()
            + i32s(&xd.row_h)
            + i32s(&xd.row_f)
            + i32s(&xd.spare_h)
            + i32s(&xd.spare_f)
            + xd.dir_flat.capacity()
            + xd.dir_rows.capacity() * std::mem::size_of::<(usize, usize, usize)>()
            + self.rev_a.capacity()
            + self.rev_b.capacity()
    }
}

impl AlignScratch {
    pub fn new() -> Self {
        AlignScratch::default()
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<AlignScratch> = RefCell::new(AlignScratch::new());
}

/// Run `f` with this thread's alignment scratch arena. The arena persists
/// for the thread's lifetime, so repeated kernel calls reuse its buffers.
/// Every call re-probes the arena's footprint into the `align.scratch`
/// watermark gauge (an O(1) capacity sum; no-op without a recorder), so
/// the memory observatory sees the arena at its largest.
pub fn with_scratch<R>(f: impl FnOnce(&mut AlignScratch) -> R) -> R {
    TLS_SCRATCH.with(|s| {
        let arena = &mut *s.borrow_mut();
        let r = f(arena);
        obs::alloc::probe("mem.watermark.align.scratch", arena);
        r
    })
}
