//! Lane-parallel ("striped") Smith–Waterman — the fast local-alignment
//! engine (Farrar, *Bioinformatics* 2007).
//!
//! The query is laid out in `LANES` interleaved segments so the inner loop
//! updates a whole lane vector of DP cells with straight-line arithmetic on
//! lane arrays. The same kernel is instantiated at two lane widths and
//! chosen once per process by [`crate::dispatch`]: AVX2 lanes
//! (`[i16; 16]` / `[i32; 8]`, compiled under `target_feature(avx2)`) and
//! portable SLP lanes (`[i16; 8]` / `[i32; 4]`, written so LLVM
//! autovectorizes them on stable Rust — no intrinsics). DP values and the
//! argmax scan are lane-layout independent, so both widths return
//! bit-identical results. Vertical gaps that cross segment boundaries are
//! repaired by Farrar's lazy-F loop, extended here with the E update that
//! keeps the recurrence *exactly* the textbook affine-gap SW (the common
//! SWPS3-style shortcut forbids insertion-after-deletion and would diverge
//! from the scalar reference).
//!
//! Scores run in saturating i16 lanes; negative saturation is harmless for
//! local alignment (values below zero never decide a cell) and positive
//! saturation is detected by headroom check, falling back to an i32-lane
//! pass.
//!
//! Tracebacks use the forward score pass's end cell, an optional reverse
//! pass, and one rerun of the DP in i32 lanes: the reverse pass over the
//! reversed prefixes locates the alignment *start* cell (the
//! farthest-from-the-end cell attaining the best score, so the rectangle
//! covers every optimal path) when the end cell's whole prefix would hold
//! many direction bytes; then [`crate::smith_waterman`]'s direction bytes
//! are filled in lanes on the start→end rectangle and its own walk runs
//! back from the end cell. The rectangle holds every optimal path and its
//! last cell is its row-major-first maximum, so the resulting
//! [`AlignStats`] is bit-identical to the full-matrix scalar engine.

use seqstore::SIGMA;

use crate::dispatch::{self, SimdLevel};
use crate::lanes::Gap;
use crate::scratch::{with_scratch, AlignScratch, StripedBufs};
use crate::stats::AlignStats;
use crate::sw::{self, smith_waterman_with};
use crate::AlignParams;

/// Portable lane counts: 16 bytes of state per vector, mirroring one SSE
/// register — wide enough for SLP autovectorization, small enough to spill
/// nowhere.
pub(crate) const L16: usize = 8;
pub(crate) const L32: usize = 4;

/// AVX2 lane counts: 32 bytes of state per vector (one YMM register).
pub(crate) const L16W: usize = 16;
pub(crate) const L32W: usize = 8;

const NEG16: i16 = i16::MIN / 2;
const NEG32: i32 = i32::MIN / 4;

/// Highest best-score the i16 kernel reports as exact: one matrix score of
/// headroom below saturation, so any pass that could have clipped is redone
/// in i32 lanes.
const I16_SAFE: i32 = i16::MAX as i32 - 12;

/// Smallest end-cell prefix (in DP cells) for which the traceback runs the
/// reverse start-cell pass. The pass is a second striped score pass over
/// the prefix, and the lane rerun it would shorten costs about as much per
/// cell, so it pays for memory only: below this, the prefix's direction
/// bytes (one per cell, 1 MiB here) are simply filled.
const SPAN_PASS_MIN: usize = 1 << 20;

/// Move each lane's value to the next lane, filling lane 0 with `fill` —
/// the striped layout's "previous query row" permutation.
#[inline]
fn shift_in<T: Copy, const L: usize>(v: [T; L], fill: T) -> [T; L] {
    let mut out = [fill; L];
    out[1..].copy_from_slice(&v[..L - 1]);
    out
}

/// Smallest valid query index whose cell in the finished column equals
/// `target`. Lane `l` covers the contiguous query block starting at
/// `l·seg`, so a lane-major scan visits cells in ascending query order.
#[inline]
fn min_query_at<T: Copy + PartialEq, const L: usize>(
    h_store: &[[T; L]],
    target: T,
    seg: usize,
    m: usize,
) -> Option<usize> {
    for (l, base) in (0..L).map(|l| (l, l * seg)) {
        if base >= m {
            break;
        }
        for (s, col) in h_store.iter().enumerate().take(seg.min(m - base)) {
            if col[l] == target {
                return Some(base + s);
            }
        }
    }
    None
}

/// Largest valid query index whose cell in the finished column equals
/// `target` — the descending-order dual of [`min_query_at`], used by the
/// reverse start-cell pass.
#[inline]
fn max_query_at<T: Copy + PartialEq, const L: usize>(
    h_store: &[[T; L]],
    target: T,
    seg: usize,
    m: usize,
) -> Option<usize> {
    for l in (0..L).rev() {
        let base = l * seg;
        if base >= m {
            continue;
        }
        for s in (0..seg.min(m - base)).rev() {
            if h_store[s][l] == target {
                return Some(base + s);
            }
        }
    }
    None
}

macro_rules! striped_kernel {
    ($(#[$attr:meta])* $name:ident, $ty:ty, $lanes:expr, $neg:expr, $rev:literal) => {
        /// Score-only striped pass. Returns `(best, end_i, end_j)` with
        /// 1-based inclusive indices, or `(0, 0, 0)` when nothing scores
        /// positive. In forward mode (`rev = false`) the end cell is
        /// chosen exactly as the scalar engine's row-major argmax would;
        /// in reverse mode it is the *componentwise largest* `(i, j)`
        /// attaining the best — run on reversed sequences this yields the
        /// componentwise-smallest start over all optimal paths.
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)] // scratch arenas threaded explicitly
        fn $name(
            r: &[u8],
            c: &[u8],
            params: &AlignParams,
            prof: &mut Vec<[$ty; $lanes]>,
            prof_key: &mut Option<(Vec<u8>, usize)>,
            h_store: &mut Vec<[$ty; $lanes]>,
            h_load: &mut Vec<[$ty; $lanes]>,
            e_buf: &mut Vec<[$ty; $lanes]>,
        ) -> (i32, usize, usize) {
            const L: usize = $lanes;
            const NEG: $ty = $neg;
            let (m, n) = (r.len(), c.len());
            debug_assert!(m > 0 && n > 0);
            let seg = m.div_ceil(L);
            let open = (params.gap_open + params.gap_extend) as $ty;
            let ext = params.gap_extend as $ty;

            // Striped query profile: prof[x·seg + s][l] = score(r[q], x)
            // for q = l·seg + s. Padding rows (q ≥ m) score NEG, which
            // keeps their H at or below every bound a valid cell sets, so
            // they can never decide a column maximum. The profile depends
            // only on `(r, matrix)`, so it is rebuilt only when either
            // differs from what the arena already holds — candidate batches
            // arrive grouped by query row, making back-to-back hits the
            // common case.
            let mat_addr = params.matrix as *const _ as usize;
            let cached = prof.len() == SIGMA * seg
                && matches!(prof_key, Some((q, ma)) if *ma == mat_addr && q.as_slice() == r);
            if cached {
                obs::counter!("align.prof_cache_hits", 1);
            } else {
                prof.clear();
                prof.resize(SIGMA * seg, [NEG; L]);
                for s in 0..seg {
                    for l in 0..L {
                        let q = l * seg + s;
                        if q < m {
                            let row = &params.matrix.scores[r[q] as usize];
                            for (x, &sc) in row.iter().enumerate() {
                                prof[x * seg + s][l] = sc as $ty;
                            }
                        }
                    }
                }
                match prof_key {
                    Some((q, ma)) => {
                        q.clear();
                        q.extend_from_slice(r);
                        *ma = mat_addr;
                    }
                    None => *prof_key = Some((r.to_vec(), mat_addr)),
                }
            }

            h_store.clear();
            h_store.resize(seg, [0; L]);
            h_load.clear();
            h_load.resize(seg, [0; L]);
            e_buf.clear();
            e_buf.resize(seg, [NEG; L]);

            let mut best: $ty = 0;
            let (mut best_i, mut best_j) = (0usize, 0usize);

            for j in 0..n {
                let pcol = &prof[c[j] as usize * seg..(c[j] as usize + 1) * seg];
                std::mem::swap(h_store, h_load);
                // v_h carries the diagonal source H(q−1, j−1): the previous
                // column's last segment row shifted down one lane, with the
                // local-alignment boundary H = 0 entering lane 0.
                let mut v_h = shift_in(h_load[seg - 1], 0 as $ty);
                let mut v_f = [NEG; L];
                let mut v_cmax = [NEG; L];
                // The lane dimension is the vector: each step below is a
                // straight-line load → lane-wise op → store block over
                // `[T; L]` values, the shape LLVM's SLP vectorizer turns
                // into single vector instructions (paddsw/pmaxsw etc.).
                for (((p, e), hs), hl) in pcol
                    .iter()
                    .zip(e_buf.iter_mut())
                    .zip(h_store.iter_mut())
                    .zip(h_load.iter())
                {
                    let p = *p;
                    let mut e_v = *e;
                    let mut h = [0 as $ty; L];
                    for l in 0..L {
                        h[l] = v_h[l].saturating_add(p[l]).max(e_v[l]).max(v_f[l]).max(0);
                    }
                    *hs = h;
                    let mut ho = [0 as $ty; L];
                    for l in 0..L {
                        v_cmax[l] = v_cmax[l].max(h[l]);
                        ho[l] = h[l].saturating_sub(open);
                    }
                    for l in 0..L {
                        e_v[l] = e_v[l].saturating_sub(ext).max(ho[l]);
                        v_f[l] = v_f[l].saturating_sub(ext).max(ho[l]);
                    }
                    *e = e_v;
                    v_h = *hl;
                }

                // Lazy F: vertical gaps crossing segment boundaries
                // re-enter shifted one lane and propagate until they can
                // neither raise an H nor open a better gap downstream
                // (Farrar's termination test). H corrections must also lift
                // E for the next column — that is what keeps this the exact
                // affine recurrence.
                'lazy: for _wrap in 0..L {
                    v_f = shift_in(v_f, NEG);
                    for s in 0..seg {
                        let mut h = h_store[s];
                        let mut live = false;
                        for l in 0..L {
                            live |= v_f[l] > h[l].saturating_sub(open);
                        }
                        if !live {
                            break 'lazy;
                        }
                        let mut e = e_buf[s];
                        for l in 0..L {
                            h[l] = h[l].max(v_f[l]);
                            v_cmax[l] = v_cmax[l].max(h[l]);
                            e[l] = e[l].max(h[l].saturating_sub(open));
                            v_f[l] = v_f[l].saturating_sub(ext);
                        }
                        h_store[s] = h;
                        e_buf[s] = e;
                    }
                }

                let mut cmax = v_cmax[0];
                for l in 1..L {
                    if v_cmax[l] > cmax {
                        cmax = v_cmax[l];
                    }
                }
                let cmax32 = cmax as i32;
                if $rev {
                    // Track the componentwise *largest* cell attaining the
                    // best: on any column that attains it, take the column
                    // (max j) and lift the max row seen so far.
                    if cmax > best {
                        best = cmax;
                        let q = max_query_at(h_store, cmax, seg, m)
                            .expect("column max must come from a valid lane");
                        best_i = q + 1;
                        best_j = j + 1;
                    } else if cmax32 > 0 && cmax == best {
                        if let Some(q) = max_query_at(h_store, cmax, seg, m) {
                            best_i = best_i.max(q + 1);
                        }
                        best_j = j + 1;
                    }
                } else {
                    // Reproduce the scalar row-major argmax (the first
                    // strictly improving cell = lexicographically smallest
                    // (i, j) attaining the maximum). Columns arrive in j
                    // order, so a strict improvement takes this column's
                    // smallest attaining row, and a tie relocates only if
                    // this column attains the best in a smaller row than
                    // recorded.
                    if cmax > best {
                        best = cmax;
                        let q = min_query_at(h_store, cmax, seg, m)
                            .expect("column max must come from a valid lane");
                        best_i = q + 1;
                        best_j = j + 1;
                    } else if cmax32 > 0 && cmax == best && best_i > 1 {
                        if let Some(q) = min_query_at(h_store, cmax, seg, m) {
                            if q + 1 < best_i {
                                best_i = q + 1;
                                best_j = j + 1;
                            }
                        }
                    }
                }
            }
            (best as i32, best_i, best_j)
        }
    };
}

// Portable SLP-lane instantiations (the pre-dispatch kernels).
striped_kernel!(kernel_i16, i16, L16, NEG16, false);
striped_kernel!(kernel_i32, i32, L32, NEG32, false);
striped_kernel!(kernel_i16_rev, i16, L16, NEG16, true);
striped_kernel!(kernel_i32_rev, i32, L32, NEG32, true);

// AVX2-width instantiations. `inline(always)` folds each kernel body into
// its `target_feature(avx2)` wrapper below, so LLVM vectorizes the lane
// loops at YMM width; the wrappers are the only callers.
#[cfg(target_arch = "x86_64")]
striped_kernel!(
    #[inline(always)]
    kernel_i16_w,
    i16,
    L16W,
    NEG16,
    false
);
#[cfg(target_arch = "x86_64")]
striped_kernel!(
    #[inline(always)]
    kernel_i32_w,
    i32,
    L32W,
    NEG32,
    false
);
#[cfg(target_arch = "x86_64")]
striped_kernel!(
    #[inline(always)]
    kernel_i16_w_rev,
    i16,
    L16W,
    NEG16,
    true
);
#[cfg(target_arch = "x86_64")]
striped_kernel!(
    #[inline(always)]
    kernel_i32_w_rev,
    i32,
    L32W,
    NEG32,
    true
);

/// Run one lane configuration, selecting the forward or reverse profile
/// cache. Forward and reverse passes run on different query bytes (the
/// reverse pass reverses the prefix), so each keeps its own cached
/// profile.
macro_rules! run_config {
    ($fwd:ident, $rev:ident, $r:expr, $c:expr, $params:expr, $b:expr, $reverse:expr) => {{
        let b = $b;
        if $reverse {
            $rev(
                $r,
                $c,
                $params,
                &mut b.rprof,
                &mut b.rprof_key,
                &mut b.h_store,
                &mut b.h_load,
                &mut b.e,
            )
        } else {
            $fwd(
                $r,
                $c,
                $params,
                &mut b.prof,
                &mut b.prof_key,
                &mut b.h_store,
                &mut b.h_load,
                &mut b.e,
            )
        }
    }};
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `target_feature` makes this fn unsafe to call; the only callers
// are the `SimdLevel::Avx2` dispatch arms, reached exclusively after
// runtime AVX2 detection (`dispatch::level()`, or the explicit checks in
// `striped_score_at_level` and the lane tests).
unsafe fn avx2_i16(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    b: &mut StripedBufs<i16, L16W>,
    reverse: bool,
) -> (i32, usize, usize) {
    run_config!(kernel_i16_w, kernel_i16_w_rev, r, c, params, b, reverse)
}

// SAFETY: same contract as `avx2_i16` — called only from the
// `SimdLevel::Avx2` dispatch arms after runtime detection.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_i32(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    b: &mut StripedBufs<i32, L32W>,
    reverse: bool,
) -> (i32, usize, usize) {
    run_config!(kernel_i32_w, kernel_i32_w_rev, r, c, params, b, reverse)
}

/// One striped score pass at the dispatched SIMD level, i16 lanes with
/// automatic i32 overflow fallback. `reverse = true` selects the
/// max-attaining argmax (start-cell mode).
fn striped_pass(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
    reverse: bool,
) -> (i32, usize, usize) {
    striped_pass_at(dispatch::level(), r, c, params, scratch, reverse)
}

/// [`striped_pass`] pinned to an explicit SIMD level, which must be
/// available on this host. Benchmarks and the lane tests use it to run
/// both lanes inside one process (the dispatcher's level is cached for the
/// process lifetime).
fn striped_pass_at(
    lv: SimdLevel,
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
    reverse: bool,
) -> (i32, usize, usize) {
    // Refused before any lane runs: the lanes' Farrar loop and the
    // traceback's E scan both assume non-negative gap costs.
    Gap::of(params);
    let (m, n) = (r.len(), c.len());
    if m == 0 || n == 0 {
        return (0, 0, 0);
    }
    pcomm::work::record_class((m * n) as u64, pcomm::work::CostClass::SwStripedCell);
    let (best, bi, bj) = match lv {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers pass Avx2 only after runtime detection.
        SimdLevel::Avx2 => unsafe { avx2_i16(r, c, params, &mut scratch.avx16, reverse) },
        _ => run_config!(
            kernel_i16,
            kernel_i16_rev,
            r,
            c,
            params,
            &mut scratch.slp16,
            reverse
        ),
    };
    if best < I16_SAFE {
        return (best, bi, bj);
    }
    // The i16 lanes may have saturated; redo the whole pass in i32 lanes.
    pcomm::work::record_class((m * n) as u64, pcomm::work::CostClass::SwStripedCell);
    match lv {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers pass Avx2 only after runtime detection.
        SimdLevel::Avx2 => unsafe { avx2_i32(r, c, params, &mut scratch.avx32, reverse) },
        _ => run_config!(
            kernel_i32,
            kernel_i32_rev,
            r,
            c,
            params,
            &mut scratch.slp32,
            reverse
        ),
    }
}

/// Score-only striped local alignment: `(score, (r_end, c_end))` with
/// exclusive span ends, identical to the span ends [`crate::smith_waterman`]
/// reports. O(m) memory, no traceback.
pub fn striped_score(r: &[u8], c: &[u8], params: &AlignParams) -> (i32, (u32, u32)) {
    with_scratch(|s| striped_score_with(r, c, params, s))
}

/// [`striped_score`] with an explicit scratch arena.
pub(crate) fn striped_score_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> (i32, (u32, u32)) {
    let (best, bi, bj) = striped_pass(r, c, params, scratch, false);
    (best, (bi as u32, bj as u32))
}

/// [`striped_score`] pinned to an explicit SIMD level, ignoring the
/// process-wide dispatch decision. Requesting [`SimdLevel::Avx2`] on a
/// host without AVX2 silently runs the SLP lanes instead (same results —
/// every lane width is bit-identical). Benchmark/test entry point.
pub fn striped_score_at_level(
    level: SimdLevel,
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
) -> (i32, (u32, u32)) {
    let lv = match level {
        SimdLevel::Avx2 if !dispatch::avx2_available() => SimdLevel::Slp,
        other => other,
    };
    with_scratch(|s| {
        let (best, bi, bj) = striped_pass_at(lv, r, c, params, s, false);
        (best, (bi as u32, bj as u32))
    })
}

/// Full local alignment on the striped engine. Returns [`AlignStats`]
/// bit-identical to [`crate::smith_waterman`].
pub fn striped_align(r: &[u8], c: &[u8], params: &AlignParams) -> AlignStats {
    with_scratch(|s| striped_align_with(r, c, params, s))
}

/// [`striped_align`] with an explicit scratch arena.
pub(crate) fn striped_align_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> AlignStats {
    let (best, bi, bj) = striped_pass(r, c, params, scratch, false);
    striped_traceback_with(r, c, params, best, (bi as u32, bj as u32), scratch)
}

/// Reverse start-cell pass: the componentwise-smallest `(i, j)` any
/// optimal path ending at `(bi, bj)` starts in, found by rerunning the
/// striped score on the reversed prefixes and taking the componentwise
/// *largest* cell attaining the best. The rectangle it spans therefore
/// contains every optimal path — in particular the one the scalar engine
/// traces — which is what makes the shrunk rerun bit-identical. Returns
/// `(1, 1)` (no shrink) when the prefix is below [`SPAN_PASS_MIN`] or when
/// the reverse score fails its sanity check.
fn span_start_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    score: i32,
    bi: usize,
    bj: usize,
    scratch: &mut AlignScratch,
) -> (usize, usize) {
    if bi * bj < SPAN_PASS_MIN {
        return (1, 1);
    }
    let mut ra = std::mem::take(&mut scratch.rev_a);
    let mut rb = std::mem::take(&mut scratch.rev_b);
    ra.clear();
    ra.extend(r[..bi].iter().rev());
    rb.clear();
    rb.extend(c[..bj].iter().rev());
    let (rbest, ti, tj) = striped_pass(&ra, &rb, params, scratch, true);
    scratch.rev_a = ra;
    scratch.rev_b = rb;
    // The reversed prefix problem has the same optimum (reverse both
    // members of any path). Guarded at runtime so an impossible mismatch
    // degrades to the unshrunk rectangle instead of a wrong traceback.
    debug_assert_eq!(rbest, score, "reverse pass must reproduce the best score");
    if rbest == score && ti >= 1 && tj >= 1 {
        obs::counter!("align.span_pass", 1);
        (bi - ti + 1, bj - tj + 1)
    } else {
        (1, 1)
    }
}

/// Traceback pass alone: given the `(score, end)` that [`striped_score`]
/// reported for the same `(r, c, params)`, produce the full
/// [`AlignStats`], bit-identical to [`crate::smith_waterman`], without
/// repeating the score pass. Callers that can rule a pair out from its
/// score and end cell alone run the score pass, decide, and call this only
/// for the pairs that remain.
///
/// # Panics
///
/// On a negative gap cost or `gap_open + gap_extend > 2^28` (see
/// [`AlignParams`]).
pub fn striped_traceback(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    score: i32,
    end: (u32, u32),
) -> AlignStats {
    with_scratch(|s| striped_traceback_with(r, c, params, score, end, s))
}

/// [`striped_traceback`] with an explicit scratch arena: the optional
/// reverse start-cell pass, then the direction bytes of the start→end
/// rectangle filled in lanes and [`crate::smith_waterman`]'s walk back
/// from its last cell. Every cell before `end` in row-major order scores
/// below `score` in the full matrix, and no local alignment inside the
/// rectangle outscores its full-matrix counterpart, so `end` is also the
/// rectangle's row-major-first maximum: the walk starts where the full
/// engine's does and follows the same path back.
pub(crate) fn striped_traceback_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    score: i32,
    end: (u32, u32),
    scratch: &mut AlignScratch,
) -> AlignStats {
    // A zero score comes with end `(0, 0)`: the rectangle is empty and the
    // walk returns the zero alignment.
    let (bi, bj) = (end.0 as usize, end.1 as usize);
    let (i_lo, j_lo) = span_start_with(r, c, params, score, bi, bj, scratch);
    let rect = sw::traceback_in_lanes(&r[i_lo - 1..bi], &c[j_lo - 1..bj], params, score, scratch);
    // A rectangle whose last cell does not score `score` is impossible by
    // the argument above; release degrades to the scalar reference on the
    // full prefix rather than report a different alignment.
    debug_assert!(
        rect.is_some(),
        "rectangle's end cell disagrees with the score pass"
    );
    let (mut stats, di, dj) = match rect {
        Some(st) => (st, (i_lo - 1) as u32, (j_lo - 1) as u32),
        None => (
            smith_waterman_with(&r[..bi], &c[..bj], params, scratch),
            0,
            0,
        ),
    };
    stats.r_span = (stats.r_span.0 + di, stats.r_span.1 + di);
    stats.c_span = (stats.c_span.0 + dj, stats.c_span.1 + dj);
    stats.r_len = r.len() as u32;
    stats.c_len = c.len() as u32;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::NEG_INF;
    use crate::sw::smith_waterman;
    use seqstore::encode_seq;

    #[test]
    fn matches_scalar_on_fixed_cases() {
        let cases: [(&[u8], &[u8]); 6] = [
            (b"MKVLAWHERTYCC", b"MKVLAWHERTYCC"),
            (b"MKVLAWHERTYDDDD", b"MKVLAWCCCHERTYDDDD"),
            (b"CCCCWWWWHHHHGGGG", b"TTTTWWWWHHHHVVVV"),
            (b"AAAAAAAA", b"WWWWWWWW"),
            (b"A", b"A"),
            (
                b"MKVLAWHERTYACDEFGHIKLMNPQRSTVWY",
                b"MKVIAWHETYACDEFGHLKLMNPQRSTVWY",
            ),
        ];
        let p = AlignParams::default();
        for (a, b) in cases {
            let (ea, eb) = (encode_seq(a), encode_seq(b));
            assert_eq!(
                striped_align(&ea, &eb, &p),
                smith_waterman(&ea, &eb, &p),
                "case {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn matches_scalar_on_random_pairs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        let mut p = AlignParams::default();
        for round in 0..60 {
            // Vary gap costs to exercise tie-breaks and gap paths.
            p.gap_open = [11, 5, 0][round % 3];
            p.gap_extend = [1, 2, 1][round % 3];
            let m = rng.random_range(1..90);
            let n = rng.random_range(1..90);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..24u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..24u8)).collect();
            assert_eq!(
                striped_align(&a, &b, &p),
                smith_waterman(&a, &b, &p),
                "a={a:?} b={b:?}"
            );
        }
    }

    /// End cells of the textbook affine-gap recurrence over the full H
    /// matrix, as `[forward, reverse]`: the row-major-first cell attaining
    /// the best (the scalar engine's argmax) and the componentwise-largest
    /// one (largest row and largest column over every cell attaining it).
    /// `(0, 0, 0)` for both when nothing scores positive.
    fn reference_ends(r: &[u8], c: &[u8], p: &AlignParams) -> [(i32, usize, usize); 2] {
        let (m, n) = (r.len(), c.len());
        let (open, ext) = (p.gap_open + p.gap_extend, p.gap_extend);
        let mut h = vec![vec![0i32; n + 1]; m + 1];
        let mut f = vec![NEG_INF; n + 1];
        for i in 1..=m {
            let mut e = NEG_INF;
            for j in 1..=n {
                e = (e - ext).max(h[i][j - 1] - open);
                f[j] = (f[j] - ext).max(h[i - 1][j] - open);
                let diag = h[i - 1][j - 1] + p.matrix.score(r[i - 1], c[j - 1]);
                h[i][j] = diag.max(e).max(f[j]).max(0);
            }
        }
        let best = h.iter().flatten().copied().max().unwrap_or(0);
        let cells: Vec<(usize, usize)> = (1..=m)
            .flat_map(|i| (1..=n).map(move |j| (i, j)))
            .filter(|&(i, j)| best > 0 && h[i][j] == best)
            .collect();
        let Some(&(fi, fj)) = cells.first() else {
            return [(0, 0, 0); 2];
        };
        let ri = cells.iter().map(|&(i, _)| i).max().unwrap();
        let rj = cells.iter().map(|&(_, j)| j).max().unwrap();
        [(best, fi, fj), (best, ri, rj)]
    }

    #[test]
    fn all_lane_widths_match_scalar() {
        // Every instantiation the dispatcher can pick — SLP always, AVX2
        // when the host has it — forward and reverse. The i16 kernels are
        // driven through the dispatch arms of `striped_pass_at`; the i32
        // kernels directly on the same pairs, and through the arms once
        // the i16 lanes saturate (below).
        use rand::prelude::*;
        let mut levels = vec![SimdLevel::Slp];
        if dispatch::avx2_available() {
            levels.push(SimdLevel::Avx2);
        }
        let mut rng = StdRng::seed_from_u64(31);
        let mut seq = |lo: usize, hi: usize| -> Vec<u8> {
            let len = rng.random_range(lo..hi);
            (0..len).map(|_| rng.random_range(0..24u8)).collect()
        };
        let core = seq(12, 13);
        let mut scratch = AlignScratch::new();
        for round in 0..40 {
            let p = AlignParams {
                gap_open: [11, 5, 0][round % 3],
                gap_extend: [1, 2, 1][round % 3],
                ..Default::default()
            };
            let (a, b) = if round % 2 == 0 {
                (seq(1, 120), seq(1, 120))
            } else {
                // `a` carries the shared core twice, so the best score is
                // attained in two rows and the forward and reverse end
                // cells differ.
                (
                    [
                        seq(0, 30),
                        core.clone(),
                        seq(0, 30),
                        core.clone(),
                        seq(0, 30),
                    ]
                    .concat(),
                    [seq(0, 30), core.clone(), seq(0, 30)].concat(),
                )
            };
            let want = reference_ends(&a, &b, &p);
            for (reverse, want) in [false, true].into_iter().zip(want) {
                for &lv in &levels {
                    assert_eq!(
                        striped_pass_at(lv, &a, &b, &p, &mut scratch, reverse),
                        want,
                        "{lv:?} i16 reverse={reverse} a={a:?} b={b:?}"
                    );
                }
                let slp32 = run_config!(
                    kernel_i32,
                    kernel_i32_rev,
                    &a,
                    &b,
                    &p,
                    &mut scratch.slp32,
                    reverse
                );
                assert_eq!(slp32, want, "Slp i32 reverse={reverse} a={a:?} b={b:?}");
                #[cfg(target_arch = "x86_64")]
                if dispatch::avx2_available() {
                    // SAFETY: AVX2 presence just checked.
                    let avx32 = unsafe { avx2_i32(&a, &b, &p, &mut scratch.avx32, reverse) };
                    assert_eq!(avx32, want, "Avx2 i32 reverse={reverse} a={a:?} b={b:?}");
                }
            }
        }
        // Past i16 saturation: n+1 tryptophans against n score 11·n, first
        // reached at (n, n) and last at (n+1, n).
        let n = 2980;
        let w = encode_seq(b"W")[0];
        let (a, b) = (vec![w; n + 1], vec![w; n]);
        let p = AlignParams::default();
        let best = 11 * n as i32;
        assert!(best >= I16_SAFE);
        for &lv in &levels {
            let fwd = striped_pass_at(lv, &a, &b, &p, &mut scratch, false);
            assert_eq!(fwd, (best, n, n), "{lv:?} i32 forward");
            let rev = striped_pass_at(lv, &a, &b, &p, &mut scratch, true);
            assert_eq!(rev, (best, n + 1, n), "{lv:?} i32 reverse");
        }
    }

    #[test]
    fn score_only_matches_full() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(13);
        let p = AlignParams::default();
        for _ in 0..30 {
            let m = rng.random_range(1..70);
            let n = rng.random_range(1..70);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..20u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..20u8)).collect();
            let st = smith_waterman(&a, &b, &p);
            let (score, end) = striped_score(&a, &b, &p);
            assert_eq!(score, st.score);
            if st.score > 0 {
                assert_eq!(end, (st.r_span.1, st.c_span.1));
            }
        }
    }

    #[test]
    fn i16_overflow_falls_back_to_i32() {
        // 3500 tryptophans self-aligned score 3500·11 = 38500 > i16::MAX,
        // forcing the wide-lane rerun (and, at 3500² cells, the reverse
        // start-cell pass in i32 lanes too).
        let s = vec![seqstore::encode_seq(b"W")[0]; 3500];
        let p = AlignParams::default();
        let (score, _) = striped_score(&s, &s, &p);
        assert_eq!(score, 38500);
        let st = striped_align(&s, &s, &p);
        assert_eq!(st.score, 38500);
        assert_eq!(st.matches, 3500);
        assert_eq!(st.r_span, (0, 3500));
    }

    #[test]
    fn span_pass_keeps_traceback_identical() {
        // Big enough to trigger the reverse start-cell pass (an end-cell
        // prefix of at least `SPAN_PASS_MIN` cells), with the alignment
        // confined to a small shared core so the rectangle actually
        // shrinks; at three gap settings, over 20 and 4 letters.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(53);
        let rec = obs::Recorder::install(0);
        let mut cases = 0;
        for (gap_open, gap_extend) in [(11, 1), (2, 2), (0, 1)] {
            let p = AlignParams {
                gap_open,
                gap_extend,
                ..AlignParams::default()
            };
            for sigma in [20u8, 4] {
                let core: Vec<u8> = (0..60).map(|_| rng.random_range(0..sigma)).collect();
                let mut seq = |len: usize| -> Vec<u8> {
                    (0..len).map(|_| rng.random_range(0..sigma)).collect()
                };
                let (mut a, mut b) = (seq(1100), seq(1100));
                a.splice(1040..1040, core.iter().copied());
                b.splice(1020..1020, core.iter().copied());
                let st = smith_waterman(&a, &b, &p);
                assert!(st.r_span.1 as usize * st.c_span.1 as usize >= SPAN_PASS_MIN);
                assert_eq!(
                    striped_align(&a, &b, &p),
                    st,
                    "gaps ({gap_open},{gap_extend})"
                );
                cases += 1;
            }
        }
        let trace = rec.finish();
        assert_eq!(trace.metrics.counters.get("align.span_pass"), Some(&cases));
    }

    #[test]
    fn profile_cache_reuse_is_exact() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let p = AlignParams::default();
        let mut scratch = AlignScratch::new();
        let queries: Vec<Vec<u8>> = (0..4)
            .map(|_| (0..50).map(|_| rng.random_range(0..24u8)).collect())
            .collect();
        // Same arena throughout: the second inner iteration hits the
        // profile cache, query changes between outer iterations evict it.
        for q in queries.iter().cycle().take(12) {
            for _ in 0..2 {
                let t: Vec<u8> = (0..40).map(|_| rng.random_range(0..24u8)).collect();
                assert_eq!(
                    striped_align_with(q, &t, &p, &mut scratch),
                    smith_waterman(q, &t, &p),
                );
            }
        }
    }

    #[test]
    fn prefiltered_matches_full_and_culls() {
        use crate::{prefiltered_align_outcome, PrefilterOutcome};
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(21);
        let p = AlignParams::default();
        for _ in 0..40 {
            let m = rng.random_range(1..60);
            let n = rng.random_range(1..60);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..24u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..24u8)).collect();
            let full = smith_waterman(&a, &b, &p);
            match prefiltered_align_outcome(&a, &b, &p, 1) {
                PrefilterOutcome::Passed(st) => {
                    assert!(full.score >= 1);
                    assert_eq!(st, full);
                }
                _ => assert!(full.score < 1),
            }
            assert!(!matches!(
                prefiltered_align_outcome(&a, &b, &p, full.score + 1),
                PrefilterOutcome::Passed(_)
            ));
        }
    }

    #[test]
    fn long_gap_widens_band() {
        // An alignment whose path wanders 200 cells off the end-cell
        // diagonal (identical flanks around a 200-residue insertion): the
        // rectangle rerun must hold the whole detour.
        let flank_a = b"MKVLAWHERTYCDEFGHIKLMNPQRSTVWYAADDEEFFGGHH".repeat(4);
        let mut a = encode_seq(&flank_a);
        let mut b = a.clone();
        let insert = vec![encode_seq(b"G")[0]; 200];
        b.splice(b.len() / 2..b.len() / 2, insert);
        a.extend_from_slice(&encode_seq(&flank_a));
        b.extend_from_slice(&encode_seq(&flank_a));
        let p = AlignParams::default();
        assert_eq!(striped_align(&a, &b, &p), smith_waterman(&a, &b, &p));
    }
}
