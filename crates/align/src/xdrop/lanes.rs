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
//!    [`crate::xdrop_align_with`] asserts (`0 ≤ gap_open, gap_extend` and
//!    `gap_open + gap_extend ≤ 2^28`) keeps every intermediate inside i32.
//!
//! The direction byte's `E_EXTEND` bit reads the *true* stored H of the
//! left neighbour, because with `gap_open = 0` an E-derived H ties with
//! the extension; it is taken from the lane-shifted stored H once E is
//! known. Residue codes are below `SIGMA`, as the scalar lookup requires.
//!
//! The kernel is written once (`interior_kernel!`) and instantiated per
//! [`SimdLevel`] over a module of lane operations: eight AVX2 lanes, and for
//! the SLP level four SSE2 lanes on x86-64 (whose baseline includes SSE2)
//! or four plain-Rust lanes elsewhere. A partial last chunk runs the same
//! lane code on masked loads and stores; there is no scalar remainder loop.

use seqstore::SIGMA;

use super::{Front, Gap, E_EXTEND, F_EXTEND, H_DIAG, H_FROM_E, H_FROM_F, NEG_INF};
use crate::dispatch::SimdLevel;

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

/// The first `N` entries of `s` as an array.
#[inline(always)]
fn arr<T, const N: usize>(s: &[T]) -> &[T; N] {
    s[..N].try_into().expect("chunk inside the interior")
}

#[inline(always)]
fn arr_mut<T, const N: usize>(s: &mut [T]) -> &mut [T; N] {
    (&mut s[..N]).try_into().expect("chunk inside the interior")
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
            // subtracts l·ext after it. No intermediate exceeds 7·ext, which
            // the precondition keeps inside i32.
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

/// Portable lanes: `[i32; 4]` in plain Rust, with wrapping arithmetic as
/// the vector instructions have. LLVM does not vectorize them, so x86-64
/// runs [`sse2`] instead.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod portable {
    use seqstore::SIGMA;

    use super::NEG_INF;

    pub(super) const L: usize = 4;
    pub(super) type V = [i32; L];
    pub(super) type Table = [i8; SIGMA];

    #[inline(always)]
    fn map2(a: V, b: V, f: impl Fn(i32, i32) -> i32) -> V {
        std::array::from_fn(|l| f(a[l], b[l]))
    }

    #[inline(always)]
    pub(super) fn table(row: &[i8; SIGMA]) -> Table {
        *row
    }

    #[inline(always)]
    pub(super) fn scores_of(t: &Table, b: &[u8; L]) -> V {
        std::array::from_fn(|l| t[b[l] as usize] as i32)
    }

    #[inline(always)]
    pub(super) fn splat(x: i32) -> V {
        [x; L]
    }

    #[inline(always)]
    pub(super) fn from_array(a: [i32; L]) -> V {
        a
    }

    #[inline(always)]
    pub(super) fn load(s: &[i32; L]) -> V {
        *s
    }

    #[inline(always)]
    pub(super) fn store(v: V, out: &mut [i32; L]) {
        *out = v;
    }

    #[inline(always)]
    pub(super) fn store_dirs(v: V, out: &mut [u8; L]) {
        *out = v.map(|x| x as u8);
    }

    /// Lanes `< s.len()` from `s`, the rest `NEG_INF`.
    #[inline(always)]
    pub(super) fn load_part(s: &[i32]) -> V {
        std::array::from_fn(|l| s.get(l).copied().unwrap_or(NEG_INF))
    }

    #[inline(always)]
    pub(super) fn scores_part(t: &Table, b: &[u8]) -> V {
        std::array::from_fn(|l| b.get(l).map_or(0, |&r| t[r as usize] as i32))
    }

    #[inline(always)]
    pub(super) fn store_part(v: V, out: &mut [i32]) {
        for (o, x) in out.iter_mut().zip(v) {
            *o = x;
        }
    }

    #[inline(always)]
    pub(super) fn store_dirs_part(v: V, out: &mut [u8]) {
        for (o, x) in out.iter_mut().zip(v) {
            *o = x as u8;
        }
    }

    #[inline(always)]
    pub(super) fn add(a: V, b: V) -> V {
        map2(a, b, i32::wrapping_add)
    }

    #[inline(always)]
    pub(super) fn sub(a: V, b: V) -> V {
        map2(a, b, i32::wrapping_sub)
    }

    #[inline(always)]
    pub(super) fn max(a: V, b: V) -> V {
        map2(a, b, i32::max)
    }

    /// All ones where `a > b`.
    #[inline(always)]
    pub(super) fn gt(a: V, b: V) -> V {
        map2(a, b, |x, y| -((x > y) as i32))
    }

    #[inline(always)]
    pub(super) fn and(a: V, b: V) -> V {
        map2(a, b, |x, y| x & y)
    }

    #[inline(always)]
    pub(super) fn or(a: V, b: V) -> V {
        map2(a, b, |x, y| x | y)
    }

    /// `a` where the mask is set, else `b`.
    #[inline(always)]
    pub(super) fn select(m: V, a: V, b: V) -> V {
        std::array::from_fn(|l| (m[l] & a[l]) | (!m[l] & b[l]))
    }

    /// `cur` moved up one lane, `prev`'s last lane entering at lane 0.
    #[inline(always)]
    pub(super) fn shift_in(prev: V, cur: V) -> V {
        [prev[3], cur[0], cur[1], cur[2]]
    }

    /// Inclusive prefix max.
    #[inline(always)]
    pub(super) fn prefix_max(v: V) -> V {
        let v = max(v, [i32::MIN, v[0], v[1], v[2]]);
        max(v, [i32::MIN, i32::MIN, v[0], v[1]])
    }

    #[inline(always)]
    pub(super) fn last(v: V) -> i32 {
        v[L - 1]
    }

    #[inline(always)]
    pub(super) fn lane(v: V, l: usize) -> i32 {
        v[l]
    }

    /// One bit per lane, set where the mask is.
    #[inline(always)]
    pub(super) fn mask_bits(m: V) -> u32 {
        (0..L).fold(0, |bits, l| bits | (((m[l] < 0) as u32) << l))
    }
}

/// SSE2 lanes: one `__m128i` of four i32. SSE2 is part of the x86-64
/// baseline, so these need no detection. It has no signed i32 max, blend or
/// byte shuffle: max and select are compare-and-mask, and scores are scalar
/// lookups. Every function carries the feature, so each inlines into
/// [`interior_sse2`].
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    use seqstore::SIGMA;

    use super::NEG_INF;

    pub(super) const L: usize = 4;
    pub(super) type V = __m128i;
    pub(super) type Table = [i8; SIGMA];

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn table(row: &[i8; SIGMA]) -> Table {
        *row
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn scores_of(t: &Table, b: &[u8; L]) -> V {
        let s = |l: usize| t[b[l] as usize] as i32;
        _mm_setr_epi32(s(0), s(1), s(2), s(3))
    }

    /// [`scores_of`] for fewer than `L` residues; the other lanes score 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn scores_part(t: &Table, b: &[u8]) -> V {
        let s = |l: usize| b.get(l).map_or(0, |&r| t[r as usize] as i32);
        _mm_setr_epi32(s(0), s(1), s(2), s(3))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn splat(x: i32) -> V {
        _mm_set1_epi32(x)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn from_array(a: [i32; L]) -> V {
        _mm_setr_epi32(a[0], a[1], a[2], a[3])
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn load(s: &[i32; L]) -> V {
        // SAFETY: `s` is the 16 bytes `loadu` reads, at any alignment.
        unsafe { _mm_loadu_si128(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn store(v: V, out: &mut [i32; L]) {
        // SAFETY: `out` is the 16 bytes `storeu` writes, at any alignment.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
    }

    /// Lanes `< s.len()` from `s`, the rest `NEG_INF`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn load_part(s: &[i32]) -> V {
        let x = |l: usize| s.get(l).copied().unwrap_or(NEG_INF);
        _mm_setr_epi32(x(0), x(1), x(2), x(3))
    }

    /// The first `out.len()` lanes of `v`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn store_part(v: V, out: &mut [i32]) {
        let mut all = [0; L];
        store(v, &mut all);
        for (o, x) in out.iter_mut().zip(all) {
            *o = x;
        }
    }

    /// The low byte of every lane, in lane order.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn dir_bytes(v: V) -> u32 {
        let words = _mm_packs_epi32(v, v);
        _mm_cvtsi128_si32(_mm_packus_epi16(words, words)) as u32
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn store_dirs(v: V, out: &mut [u8; L]) {
        *out = dir_bytes(v).to_le_bytes();
    }

    /// The first `out.len()` lanes of [`store_dirs`].
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn store_dirs_part(v: V, out: &mut [u8]) {
        let packed = dir_bytes(v);
        for (l, o) in out.iter_mut().enumerate() {
            *o = (packed >> (8 * l)) as u8;
        }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn add(a: V, b: V) -> V {
        _mm_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn sub(a: V, b: V) -> V {
        _mm_sub_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn max(a: V, b: V) -> V {
        select(gt(a, b), a, b)
    }

    /// All ones where `a > b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn gt(a: V, b: V) -> V {
        _mm_cmpgt_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn and(a: V, b: V) -> V {
        _mm_and_si128(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn or(a: V, b: V) -> V {
        _mm_or_si128(a, b)
    }

    /// `a` where the mask is set, else `b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn select(m: V, a: V, b: V) -> V {
        _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b))
    }

    /// `cur` moved up one lane, `prev`'s last lane entering at lane 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn shift_in(prev: V, cur: V) -> V {
        _mm_or_si128(_mm_slli_si128::<4>(cur), _mm_srli_si128::<12>(prev))
    }

    /// Inclusive prefix max: shifts by 1 and 2 lanes, `i32::MIN` entering
    /// at lane 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn prefix_max(v: V) -> V {
        let fill = _mm_set1_epi32(i32::MIN);
        let v = max(v, shift_in(fill, v));
        max(
            v,
            _mm_or_si128(_mm_slli_si128::<8>(v), _mm_srli_si128::<8>(fill)),
        )
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn last(v: V) -> i32 {
        _mm_cvtsi128_si32(_mm_shuffle_epi32::<0xff>(v))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn lane(v: V, l: usize) -> i32 {
        let mut out = [0; L];
        store(v, &mut out);
        out[l]
    }

    /// One bit per lane, set where the mask is.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn mask_bits(m: V) -> u32 {
        _mm_movemask_ps(_mm_castsi128_ps(m)) as u32
    }
}

/// AVX2 lanes: one `__m256i` of eight i32. Every function carries the
/// feature, so each inlines into [`interior_avx2`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use seqstore::SIGMA;

    use super::NEG_INF;

    pub(super) const L: usize = 8;
    pub(super) type V = __m256i;
    /// Matrix-row entries `0..16` and `8..24`, each one `pshufb` table.
    pub(super) type Table = (__m128i, __m128i);

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn table(row: &[i8; SIGMA]) -> Table {
        // SAFETY: both 16-byte reads lie inside the 24-byte row; `loadu`
        // has no alignment requirement.
        unsafe {
            (
                _mm_loadu_si128(row.as_ptr().cast()),
                _mm_loadu_si128(row[8..].as_ptr().cast()),
            )
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn scores_of(t: &Table, b: &[u8; L]) -> V {
        // SAFETY: `b` is the 8 bytes `loadl` reads.
        scores_at(t, unsafe { _mm_loadl_epi64(b.as_ptr().cast()) })
    }

    /// [`scores_of`] for fewer than `L` residues; the other lanes score 0.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn scores_part(t: &Table, b: &[u8]) -> V {
        let packed = b.iter().rev().fold(0u64, |x, &r| x << 8 | r as u64);
        scores_at(t, _mm_cvtsi64_si128(packed as i64))
    }

    /// The scores of the residue codes in the low 8 bytes of `idx`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn scores_at(t: &Table, idx: __m128i) -> V {
        let lo = _mm_shuffle_epi8(t.0, idx);
        let hi = _mm_shuffle_epi8(t.1, _mm_sub_epi8(idx, _mm_set1_epi8(8)));
        let high_code = _mm_cmpgt_epi8(idx, _mm_set1_epi8(15));
        _mm256_cvtepi8_epi32(_mm_blendv_epi8(lo, hi, high_code))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn splat(x: i32) -> V {
        _mm256_set1_epi32(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn from_array(a: [i32; L]) -> V {
        _mm256_setr_epi32(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn load(s: &[i32; L]) -> V {
        // SAFETY: `s` is the 32 bytes `loadu` reads, at any alignment.
        unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn store(v: V, out: &mut [i32; L]) {
        // SAFETY: `out` is the 32 bytes `storeu` writes, at any alignment.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) }
    }

    /// All ones in the lanes below `n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn part_mask(n: usize) -> V {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Lanes `< s.len()` from `s`, the rest `NEG_INF`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn load_part(s: &[i32]) -> V {
        let m = part_mask(s.len());
        // SAFETY: `maskload` reads only the lanes `m` selects, which lie
        // inside `s`.
        let v = unsafe { _mm256_maskload_epi32(s.as_ptr(), m) };
        select(m, v, _mm256_set1_epi32(NEG_INF))
    }

    /// The first `out.len()` lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn store_part(v: V, out: &mut [i32]) {
        // SAFETY: `maskstore` writes only the lanes the mask selects, which
        // lie inside `out`.
        unsafe { _mm256_maskstore_epi32(out.as_mut_ptr(), part_mask(out.len()), v) }
    }

    /// The low byte of every lane, in lane order, in the low 8 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dir_bytes(v: V) -> __m128i {
        // Gather each 128-bit half's four low bytes into its first dword,
        // then bring the two dwords together.
        #[rustfmt::skip]
        let low_bytes = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let halves = _mm256_shuffle_epi8(v, low_bytes);
        let both = _mm256_permutevar8x32_epi32(halves, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
        _mm256_castsi256_si128(both)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn store_dirs(v: V, out: &mut [u8; L]) {
        // SAFETY: `out` is the 8 bytes `storel` writes.
        unsafe { _mm_storel_epi64(out.as_mut_ptr().cast(), dir_bytes(v)) }
    }

    /// The first `out.len()` lanes of [`store_dirs`].
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn store_dirs_part(v: V, out: &mut [u8]) {
        let packed = _mm_cvtsi128_si64(dir_bytes(v)) as u64;
        for (l, o) in out.iter_mut().enumerate() {
            *o = (packed >> (8 * l)) as u8;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn add(a: V, b: V) -> V {
        _mm256_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn sub(a: V, b: V) -> V {
        _mm256_sub_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn max(a: V, b: V) -> V {
        _mm256_max_epi32(a, b)
    }

    /// All ones where `a > b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn gt(a: V, b: V) -> V {
        _mm256_cmpgt_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn and(a: V, b: V) -> V {
        _mm256_and_si256(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn or(a: V, b: V) -> V {
        _mm256_or_si256(a, b)
    }

    /// `a` where the mask is set, else `b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn select(m: V, a: V, b: V) -> V {
        _mm256_blendv_epi8(b, a, m)
    }

    /// `cur` moved up one lane, `prev`'s last lane entering at lane 0:
    /// `[prev.hi | cur.lo]`, then a 4-byte align within each half.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn shift_in(prev: V, cur: V) -> V {
        _mm256_alignr_epi8::<12>(cur, _mm256_permute2x128_si256::<0x03>(cur, prev))
    }

    /// Inclusive prefix max: shifts by 1, 2 and 4 lanes, `i32::MIN`
    /// entering at lane 0.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn prefix_max(v: V) -> V {
        let fill = _mm256_set1_epi32(i32::MIN);
        let v = max(v, shift_in(fill, v));
        let v = max(
            v,
            _mm256_alignr_epi8::<8>(v, _mm256_permute2x128_si256::<0x03>(v, fill)),
        );
        max(v, _mm256_permute2x128_si256::<0x03>(v, fill))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn last(v: V) -> i32 {
        _mm256_extract_epi32::<7>(v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn lane(v: V, l: usize) -> i32 {
        let mut out = [0; L];
        store(v, &mut out);
        out[l]
    }

    /// One bit per lane, set where the mask is.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn mask_bits(m: V) -> u32 {
        _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32
    }
}
