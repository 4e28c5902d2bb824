//! Lanes for the x-drop open interior: phase 2 of
//! [`super::extend_gapped_at`], in i32 lanes, bit-identical to the scalar
//! row down to every direction byte.
//!
//! The scalar row is sequential only because `best`, and with it the
//! liveness floor, may rise mid-row. Between two rises the floor is
//! constant, so each *constant-floor segment* is computed in lanes. The
//! first lane whose H raises `best` ends the segment: the lanes up to it
//! are committed, the front moves, and the next segment starts at the
//! following column under the raised floor. Three facts make the lanes
//! exact:
//!
//! 1. *Everything but E is vertical.* diag, F and `H0 = max(diag, F)` read
//!    only the row above.
//! 2. *E needs only the floor-masked `H0`.* A cell's E opens from its left
//!    neighbour's stored H, which is `H0`, E itself or `NEG_INF` (dead).
//!    Opening from an E-derived H costs `open ≥ ext` (`gap_open ≥ 0`), so
//!    it never beats extending that E, and
//!    `E[l] = max(M[l−1] − open, E[l−1] − ext)` with
//!    `M = H0 ≥ floor ? H0 : NEG_INF` gives the scalar E exactly.
//!    Unrolled over a chunk, `E[l] = max(c, X[l]) − l·ext`: `c` is the
//!    E of the chunk's first cell and `X` the exclusive prefix max of
//!    `M[t] − open + (t+1)·ext`, a scan that does not read `c`. The carry
//!    into the next chunk is `max(c, X_all) − L·ext`, one max and one
//!    subtract, so the chunk-to-chunk dependency stays short.
//! 3. *Plain i32 arithmetic equals the scalar `saturating_sub`.* Every E
//!    is at least `NEG_INF − open`, and the precondition
//!    [`crate::lanes::Gap::of`] asserts (`0 ≤ gap_open, gap_extend` and
//!    `gap_open + gap_extend ≤ 2^27`) keeps every intermediate inside
//!    i32 at sixteen lanes too, where the scan adds up to `15·ext`.
//!
//! The direction byte's `E_EXTEND` bit reads the *true* stored H of the
//! left neighbour, because with `gap_open = 0` an E-derived H ties with
//! the extension; it is taken from the lane-shifted stored H once E is
//! known. Residue codes are below `SIGMA`, as the scalar lookup requires.
//!
//! The kernel is written once (`interior_kernel!`) and instantiated per
//! [`SimdLevel`] over the lane operations of [`crate::lanes`], which the
//! Smith–Waterman traceback kernel shares: sixteen AVX-512 lanes, eight
//! AVX2 lanes, four SSE2 lanes for the SLP level.

use seqstore::SIGMA;

use super::Front;
use crate::dispatch::SimdLevel;
#[cfg(any(test, not(target_arch = "x86_64")))]
use crate::lanes::portable;
use crate::lanes::{arr, arr_mut, Gap, E_EXTEND, F_EXTEND, H_DIAG, H_FROM_E, H_FROM_F, NEG_INF};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{avx2, avx512, sse2};

/// One row's open interior: cells `k = 0 .. w` at columns `col0 + k` of
/// row `i`, each with its diagonal predecessor and the cell above inside
/// the previous row's window.
pub(super) struct Interior<'a> {
    pub(super) i: usize,
    pub(super) col0: usize,
    /// H of the row above at columns `col0 − 1 ..= col0 + w − 1`: entry
    /// `k` is cell `k`'s diagonal predecessor, entry `k + 1` the cell
    /// above it.
    pub(super) above_h: &'a [i32],
    /// F of the row above at the interior's columns.
    pub(super) above_f: &'a [i32],
    /// The residue each cell's diagonal move consumes (`b[col0 − 1 + k]`).
    pub(super) b: &'a [u8],
    /// The substitution-matrix row of this row's residue.
    pub(super) scores: &'a [i8; SIGMA],
    pub(super) out_h: &'a mut [i32],
    pub(super) out_f: &'a mut [i32],
    pub(super) out_d: &'a mut [u8],
}

/// An open-interior kernel: computes `row`, given `(stored H, E)` of the
/// cell left of the interior, and returns the same pair for its last cell.
pub(super) type Kernel = fn(Gap, &mut Front, Interior<'_>, (i32, i32)) -> (i32, i32);

/// The kernel of level `lv`, which must be available on this host.
pub(super) fn kernel(lv: SimdLevel) -> Kernel {
    match lv {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => interior_avx512_detected,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => interior_avx2_detected,
        _ => interior_slp,
    }
}

/// [`interior_sse2`] behind a safe signature.
#[cfg(target_arch = "x86_64")]
fn interior_slp(gap: Gap, front: &mut Front, row: Interior<'_>, carry: (i32, i32)) -> (i32, i32) {
    // SAFETY: SSE2 is part of the x86-64 baseline, so every x86-64 host
    // has it.
    unsafe { interior_sse2(gap, front, row, carry) }
}

/// [`interior_avx2`] behind a safe signature.
#[cfg(target_arch = "x86_64")]
fn interior_avx2_detected(
    gap: Gap,
    front: &mut Front,
    row: Interior<'_>,
    carry: (i32, i32),
) -> (i32, i32) {
    // SAFETY: `kernel` hands this function out only for `SimdLevel::Avx2`,
    // which callers pass only after runtime detection.
    unsafe { interior_avx2(gap, front, row, carry) }
}

/// [`interior_avx512`] behind a safe signature.
#[cfg(target_arch = "x86_64")]
fn interior_avx512_detected(
    gap: Gap,
    front: &mut Front,
    row: Interior<'_>,
    carry: (i32, i32),
) -> (i32, i32) {
    // SAFETY: `kernel` hands this function out only for
    // `SimdLevel::Avx512`, which callers pass only after runtime detection.
    unsafe { interior_avx512(gap, front, row, carry) }
}

/// How often each lane path ran on this thread, so the differential test
/// can require that it exercised all of them.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Paths {
    /// Rows wider than one chunk.
    pub(super) multi_chunk: u64,
    /// Partial last chunks.
    pub(super) partial: u64,
    /// Segments ended by a rise with interior cells left after it.
    pub(super) restarts: u64,
}

#[cfg(test)]
thread_local! {
    pub(super) static PATHS: std::cell::Cell<Paths> = const {
        std::cell::Cell::new(Paths { multi_chunk: 0, partial: 0, restarts: 0 })
    };
}

#[cfg(test)]
fn note(f: impl FnOnce(&mut Paths)) {
    PATHS.with(|p| {
        let mut v = p.get();
        f(&mut v);
        p.set(v);
    });
}

/// The interior kernel over the lane operations of module `$lanes`.
macro_rules! interior_kernel {
    ($(#[$attr:meta])* $name:ident, $lanes:ident) => {
        $(#[$attr])*
        fn $name(gap: Gap, front: &mut Front, row: Interior<'_>, carry: (i32, i32)) -> (i32, i32) {
            use $lanes::*;
            let Interior {
                i,
                col0,
                above_h,
                above_f,
                b,
                scores,
                out_h,
                out_f,
                out_d,
            } = row;
            let w = out_h.len();
            #[cfg(test)]
            if w > L {
                note(|p| p.multi_chunk += 1);
            }
            let tbl = table(scores);
            let (neg, open, ext) = (splat(NEG_INF), splat(gap.open), splat(gap.ext));
            let (dead_below, scan_fill) = (splat(NEG_INF / 2), splat(i32::MIN));
            // Lane l adds (l + 1)·ext − open before the E scan and
            // subtracts l·ext after it. No offset exceeds (L − 1)·ext, which
            // the precondition keeps inside i32 at sixteen lanes.
            let z_off = from_array(std::array::from_fn(|l| l as i32 * gap.ext + (gap.ext - gap.open)));
            let e_off = from_array(std::array::from_fn(|l| l as i32 * gap.ext));
            let (src_d, src_e, src_f) = (
                splat(H_DIAG as i32),
                splat(H_FROM_E as i32),
                splat(H_FROM_F as i32),
            );
            let (bit_e, bit_f) = (splat(E_EXTEND as i32), splat(F_EXTEND as i32));

            let (mut h_in, mut e_in) = carry;
            let mut k = 0;
            while k < w {
                // A constant-floor segment from cell k: live ⇔ H > floor − 1.
                let floor = splat(front.floor - 1);
                let best = splat(front.best);
                let mut c = (h_in - gap.open).max(e_in - gap.ext);
                let mut h_prev = splat(h_in);
                loop {
                    let n = (w - k).min(L);
                    let full = n == L;
                    // A partial last chunk reads and writes only its `n`
                    // lanes; the rest hold dead cells.
                    let (dg, up_h, up_f, score) = if full {
                        (
                            load(arr(&above_h[k..])),
                            load(arr(&above_h[k + 1..])),
                            load(arr(&above_f[k..])),
                            scores_of(&tbl, arr(&b[k..])),
                        )
                    } else {
                        #[cfg(test)]
                        note(|p| p.partial += 1);
                        (
                            load_part(&above_h[k..k + n]),
                            load_part(&above_h[k + 1..=k + n]),
                            load_part(&above_f[k..k + n]),
                            scores_part(&tbl, &b[k..k + n]),
                        )
                    };
                    let diag = select(gt(dg, dead_below), add(dg, score), neg);
                    let f_open = sub(up_h, open);
                    let f_ext = sub(up_f, ext);
                    let f = max(f_open, f_ext);
                    let h1 = max(diag, neg);
                    let h0 = max(h1, f);
                    let scan = prefix_max(add(select(gt(h0, floor), h0, neg), z_off));
                    let e = sub(max(splat(c), shift_in(scan_fill, scan)), e_off);
                    let h = max(h0, e);
                    let live = gt(h, floor);
                    let h_out = select(live, h, neg);
                    // Ties resolve diag > E > F, each later source winning
                    // strictly.
                    let src = max(
                        max(and(gt(diag, neg), src_d), and(gt(e, h1), src_e)),
                        and(gt(f, max(h1, e)), src_f),
                    );
                    let e_extends = gt(e, sub(shift_in(h_prev, h_out), open));
                    let bits = or(and(e_extends, bit_e), and(gt(f_ext, f_open), bit_f));
                    let dir = and(live, or(src, bits));
                    if full {
                        store(h_out, arr_mut(&mut out_h[k..]));
                        store(select(live, f, neg), arr_mut(&mut out_f[k..]));
                        store_dirs(dir, arr_mut(&mut out_d[k..]));
                    } else {
                        store_part(h_out, &mut out_h[k..k + n]);
                        store_part(select(live, f, neg), &mut out_f[k..k + n]);
                        store_dirs_part(dir, &mut out_d[k..k + n]);
                    }
                    let rise = mask_bits(and(live, gt(h, best))) & ((1u32 << n) - 1);
                    if rise != 0 {
                        let r = rise.trailing_zeros() as usize;
                        (h_in, e_in) = (lane(h_out, r), lane(e, r));
                        front.set(h_in, (i, col0 + k + r));
                        k += r + 1;
                        #[cfg(test)]
                        if k < w {
                            note(|p| p.restarts += 1);
                        }
                        break;
                    }
                    k += n;
                    if k == w {
                        (h_in, e_in) = (lane(h_out, n - 1), lane(e, n - 1));
                        break;
                    }
                    c = c.max(last(scan)) - (L as i32 - 1) * gap.ext - gap.ext;
                    h_prev = h_out;
                }
            }
            (h_in, e_in)
        }
    };
}

// The SLP level: SSE2 (the x86-64 baseline) where it exists, plain Rust
// elsewhere. The plain-Rust lanes are also built for the tests, which run
// them on every host.
#[cfg(target_arch = "x86_64")]
interior_kernel!(
    #[target_feature(enable = "sse2")]
    interior_sse2,
    sse2
);
#[cfg(not(target_arch = "x86_64"))]
interior_kernel!(interior_slp, portable);
#[cfg(all(test, target_arch = "x86_64"))]
interior_kernel!(interior_portable, portable);
#[cfg(target_arch = "x86_64")]
interior_kernel!(
    #[target_feature(enable = "avx2")]
    interior_avx2,
    avx2
);
#[cfg(target_arch = "x86_64")]
interior_kernel!(
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    interior_avx512,
    avx512
);

/// The plain-Rust lanes, for the differential test.
#[cfg(test)]
pub(super) const PORTABLE: Kernel = {
    #[cfg(target_arch = "x86_64")]
    {
        interior_portable
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        interior_slp
    }
};
