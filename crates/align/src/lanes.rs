//! Lane operations shared by the two i32 lane kernels — the x-drop open
//! interior (`xdrop::lanes`) and the Smith–Waterman traceback rerun
//! (`sw`) — and the pieces of the affine-gap DP both write: the
//! direction-byte layout, the dead-cell value and the gap costs.
//!
//! Each kernel is one macro body instantiated once per module of lane
//! operations below: eight AVX2 lanes, and for the SLP level four SSE2
//! lanes on x86-64 (whose baseline includes SSE2) or four plain-Rust lanes
//! elsewhere. Every module exports the same names (`L`, `V`, `Table`,
//! `splat`, `load`, `prefix_max`, …), so a kernel body reads the same at
//! every level. A partial last chunk runs the same lane code on masked
//! loads and stores; there is no scalar remainder loop.

use crate::AlignParams;

// Direction byte of one DP cell, written by the scalar and lane kernels of
// both engines and read by their traceback walks.
pub(crate) const H_SRC_MASK: u8 = 0b11; // H's source: one of the four below
pub(crate) const H_STOP: u8 = 0; // local start (SW) or dead cell (x-drop)
pub(crate) const H_DIAG: u8 = 1;
pub(crate) const H_FROM_E: u8 = 2; // gap in r (consumes c)
pub(crate) const H_FROM_F: u8 = 3; // gap in c (consumes r)
pub(crate) const E_EXTEND: u8 = 1 << 2; // E came from E (else from H)
pub(crate) const F_EXTEND: u8 = 1 << 3; // F came from F (else from H)

/// Score of an unreachable cell: far enough below zero that no sum of
/// scores reaches it, far enough above `i32::MIN` that subtracting a gap
/// cost cannot wrap.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

/// Largest `gap_open + gap_extend` the lane kernels accept: far enough
/// from `i32` overflow that no lane or scalar step saturates.
pub(crate) const MAX_GAP_COST: i32 = 1 << 28;

/// Affine gap costs carried as one value: `open` is the full price of a
/// gap's first column (`gap_open + gap_extend`), `ext` of each further one.
#[derive(Clone, Copy)]
pub(crate) struct Gap {
    pub(crate) open: i32,
    pub(crate) ext: i32,
}

impl Gap {
    /// The gap costs of `params`, which must meet the lane kernels'
    /// precondition (documented on [`AlignParams`]).
    ///
    /// # Panics
    ///
    /// On a negative gap cost or `gap_open + gap_extend > 2^28`. The lane
    /// E scan equals the scalar recurrence only when opening a gap costs at
    /// least extending one (`gap_open ≥ 0`) and no intermediate leaves
    /// `i32`.
    pub(crate) fn of(params: &AlignParams) -> Gap {
        assert!(
            (0..=MAX_GAP_COST).contains(&params.gap_open)
                && (0..=MAX_GAP_COST - params.gap_open).contains(&params.gap_extend),
            "lane kernels need gap_open, gap_extend >= 0 and gap_open + gap_extend <= 2^28"
        );
        Gap {
            open: params.gap_open + params.gap_extend,
            ext: params.gap_extend,
        }
    }
}

/// The first `N` entries of `s` as an array.
#[inline(always)]
pub(crate) fn arr<T, const N: usize>(s: &[T]) -> &[T; N] {
    s[..N].try_into().expect("chunk inside the row")
}

#[inline(always)]
pub(crate) fn arr_mut<T, const N: usize>(s: &mut [T]) -> &mut [T; N] {
    (&mut s[..N]).try_into().expect("chunk inside the row")
}

/// Portable lanes: `[i32; 4]` in plain Rust, with wrapping arithmetic as
/// the vector instructions have. LLVM does not vectorize them, so x86-64
/// runs [`sse2`] instead.
#[cfg(any(test, not(target_arch = "x86_64")))]
pub(crate) mod portable {
    use seqstore::SIGMA;

    use super::NEG_INF;

    pub(crate) const L: usize = 4;
    pub(crate) type V = [i32; L];
    pub(crate) type Table = [i8; SIGMA];

    #[inline(always)]
    fn map2(a: V, b: V, f: impl Fn(i32, i32) -> i32) -> V {
        std::array::from_fn(|l| f(a[l], b[l]))
    }

    #[inline(always)]
    pub(crate) fn table(row: &[i8; SIGMA]) -> Table {
        *row
    }

    #[inline(always)]
    pub(crate) fn scores_of(t: &Table, b: &[u8; L]) -> V {
        std::array::from_fn(|l| t[b[l] as usize] as i32)
    }

    #[inline(always)]
    pub(crate) fn splat(x: i32) -> V {
        [x; L]
    }

    #[inline(always)]
    pub(crate) fn from_array(a: [i32; L]) -> V {
        a
    }

    #[inline(always)]
    pub(crate) fn load(s: &[i32; L]) -> V {
        *s
    }

    #[inline(always)]
    pub(crate) fn store(v: V, out: &mut [i32; L]) {
        *out = v;
    }

    #[inline(always)]
    pub(crate) fn store_dirs(v: V, out: &mut [u8; L]) {
        *out = v.map(|x| x as u8);
    }

    /// Lanes `< s.len()` from `s`, the rest `NEG_INF`.
    #[inline(always)]
    pub(crate) fn load_part(s: &[i32]) -> V {
        std::array::from_fn(|l| s.get(l).copied().unwrap_or(NEG_INF))
    }

    #[inline(always)]
    pub(crate) fn scores_part(t: &Table, b: &[u8]) -> V {
        std::array::from_fn(|l| b.get(l).map_or(0, |&r| t[r as usize] as i32))
    }

    #[inline(always)]
    pub(crate) fn store_part(v: V, out: &mut [i32]) {
        for (o, x) in out.iter_mut().zip(v) {
            *o = x;
        }
    }

    #[inline(always)]
    pub(crate) fn store_dirs_part(v: V, out: &mut [u8]) {
        for (o, x) in out.iter_mut().zip(v) {
            *o = x as u8;
        }
    }

    #[inline(always)]
    pub(crate) fn add(a: V, b: V) -> V {
        map2(a, b, i32::wrapping_add)
    }

    #[inline(always)]
    pub(crate) fn sub(a: V, b: V) -> V {
        map2(a, b, i32::wrapping_sub)
    }

    #[inline(always)]
    pub(crate) fn max(a: V, b: V) -> V {
        map2(a, b, i32::max)
    }

    /// All ones where `a > b`.
    #[inline(always)]
    pub(crate) fn gt(a: V, b: V) -> V {
        map2(a, b, |x, y| -((x > y) as i32))
    }

    #[inline(always)]
    pub(crate) fn and(a: V, b: V) -> V {
        map2(a, b, |x, y| x & y)
    }

    #[inline(always)]
    pub(crate) fn or(a: V, b: V) -> V {
        map2(a, b, |x, y| x | y)
    }

    /// `a` where the mask is set, else `b`.
    #[inline(always)]
    pub(crate) fn select(m: V, a: V, b: V) -> V {
        std::array::from_fn(|l| (m[l] & a[l]) | (!m[l] & b[l]))
    }

    /// `cur` moved up one lane, `prev`'s last lane entering at lane 0.
    #[inline(always)]
    pub(crate) fn shift_in(prev: V, cur: V) -> V {
        [prev[3], cur[0], cur[1], cur[2]]
    }

    /// Inclusive prefix max.
    #[inline(always)]
    pub(crate) fn prefix_max(v: V) -> V {
        let v = max(v, [i32::MIN, v[0], v[1], v[2]]);
        max(v, [i32::MIN, i32::MIN, v[0], v[1]])
    }

    #[inline(always)]
    pub(crate) fn last(v: V) -> i32 {
        v[L - 1]
    }

    #[inline(always)]
    pub(crate) fn lane(v: V, l: usize) -> i32 {
        v[l]
    }

    /// One bit per lane, set where the mask is.
    #[inline(always)]
    pub(crate) fn mask_bits(m: V) -> u32 {
        (0..L).fold(0, |bits, l| bits | (((m[l] < 0) as u32) << l))
    }
}

/// SSE2 lanes: one `__m128i` of four i32. SSE2 is part of the x86-64
/// baseline, so these need no detection. It has no signed i32 max, blend or
/// byte shuffle: max and select are compare-and-mask, and scores are scalar
/// lookups. Every function carries the feature, so each inlines into the
/// kernel instantiated over it.
#[cfg(target_arch = "x86_64")]
pub(crate) mod sse2 {
    use std::arch::x86_64::*;

    use seqstore::SIGMA;

    use super::NEG_INF;

    pub(crate) const L: usize = 4;
    pub(crate) type V = __m128i;
    pub(crate) type Table = [i8; SIGMA];

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn table(row: &[i8; SIGMA]) -> Table {
        *row
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn scores_of(t: &Table, b: &[u8; L]) -> V {
        let s = |l: usize| t[b[l] as usize] as i32;
        _mm_setr_epi32(s(0), s(1), s(2), s(3))
    }

    /// [`scores_of`] for fewer than `L` residues; the other lanes score 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn scores_part(t: &Table, b: &[u8]) -> V {
        let s = |l: usize| b.get(l).map_or(0, |&r| t[r as usize] as i32);
        _mm_setr_epi32(s(0), s(1), s(2), s(3))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn splat(x: i32) -> V {
        _mm_set1_epi32(x)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn from_array(a: [i32; L]) -> V {
        _mm_setr_epi32(a[0], a[1], a[2], a[3])
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn load(s: &[i32; L]) -> V {
        // SAFETY: `s` is the 16 bytes `loadu` reads, at any alignment.
        unsafe { _mm_loadu_si128(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn store(v: V, out: &mut [i32; L]) {
        // SAFETY: `out` is the 16 bytes `storeu` writes, at any alignment.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
    }

    /// Lanes `< s.len()` from `s`, the rest `NEG_INF`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn load_part(s: &[i32]) -> V {
        let x = |l: usize| s.get(l).copied().unwrap_or(NEG_INF);
        _mm_setr_epi32(x(0), x(1), x(2), x(3))
    }

    /// The first `out.len()` lanes of `v`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn store_part(v: V, out: &mut [i32]) {
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
    pub(crate) fn store_dirs(v: V, out: &mut [u8; L]) {
        *out = dir_bytes(v).to_le_bytes();
    }

    /// The first `out.len()` lanes of [`store_dirs`].
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn store_dirs_part(v: V, out: &mut [u8]) {
        let packed = dir_bytes(v);
        for (l, o) in out.iter_mut().enumerate() {
            *o = (packed >> (8 * l)) as u8;
        }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn add(a: V, b: V) -> V {
        _mm_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn sub(a: V, b: V) -> V {
        _mm_sub_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn max(a: V, b: V) -> V {
        select(gt(a, b), a, b)
    }

    /// All ones where `a > b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn gt(a: V, b: V) -> V {
        _mm_cmpgt_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn and(a: V, b: V) -> V {
        _mm_and_si128(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn or(a: V, b: V) -> V {
        _mm_or_si128(a, b)
    }

    /// `a` where the mask is set, else `b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn select(m: V, a: V, b: V) -> V {
        _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b))
    }

    /// `cur` moved up one lane, `prev`'s last lane entering at lane 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn shift_in(prev: V, cur: V) -> V {
        _mm_or_si128(_mm_slli_si128::<4>(cur), _mm_srli_si128::<12>(prev))
    }

    /// Inclusive prefix max: shifts by 1 and 2 lanes, `i32::MIN` entering
    /// at lane 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn prefix_max(v: V) -> V {
        let fill = _mm_set1_epi32(i32::MIN);
        let v = max(v, shift_in(fill, v));
        max(
            v,
            _mm_or_si128(_mm_slli_si128::<8>(v), _mm_srli_si128::<8>(fill)),
        )
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn last(v: V) -> i32 {
        _mm_cvtsi128_si32(_mm_shuffle_epi32::<0xff>(v))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn lane(v: V, l: usize) -> i32 {
        let mut out = [0; L];
        store(v, &mut out);
        out[l]
    }

    /// One bit per lane, set where the mask is.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn mask_bits(m: V) -> u32 {
        _mm_movemask_ps(_mm_castsi128_ps(m)) as u32
    }
}

/// AVX2 lanes: one `__m256i` of eight i32. Every function carries the
/// feature, so each inlines into the kernel instantiated over it.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    use seqstore::SIGMA;

    use super::NEG_INF;

    pub(crate) const L: usize = 8;
    pub(crate) type V = __m256i;
    /// Matrix-row entries `0..16` and `8..24`, each one `pshufb` table.
    pub(crate) type Table = (__m128i, __m128i);

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn table(row: &[i8; SIGMA]) -> Table {
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
    pub(crate) fn scores_of(t: &Table, b: &[u8; L]) -> V {
        // SAFETY: `b` is the 8 bytes `loadl` reads.
        scores_at(t, unsafe { _mm_loadl_epi64(b.as_ptr().cast()) })
    }

    /// [`scores_of`] for fewer than `L` residues; the other lanes score 0.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn scores_part(t: &Table, b: &[u8]) -> V {
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
    pub(crate) fn splat(x: i32) -> V {
        _mm256_set1_epi32(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn from_array(a: [i32; L]) -> V {
        _mm256_setr_epi32(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn load(s: &[i32; L]) -> V {
        // SAFETY: `s` is the 32 bytes `loadu` reads, at any alignment.
        unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn store(v: V, out: &mut [i32; L]) {
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
    pub(crate) fn load_part(s: &[i32]) -> V {
        let m = part_mask(s.len());
        // SAFETY: `maskload` reads only the lanes `m` selects, which lie
        // inside `s`.
        let v = unsafe { _mm256_maskload_epi32(s.as_ptr(), m) };
        select(m, v, _mm256_set1_epi32(NEG_INF))
    }

    /// The first `out.len()` lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn store_part(v: V, out: &mut [i32]) {
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
    pub(crate) fn store_dirs(v: V, out: &mut [u8; L]) {
        // SAFETY: `out` is the 8 bytes `storel` writes.
        unsafe { _mm_storel_epi64(out.as_mut_ptr().cast(), dir_bytes(v)) }
    }

    /// The first `out.len()` lanes of [`store_dirs`].
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn store_dirs_part(v: V, out: &mut [u8]) {
        let packed = _mm_cvtsi128_si64(dir_bytes(v)) as u64;
        for (l, o) in out.iter_mut().enumerate() {
            *o = (packed >> (8 * l)) as u8;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn add(a: V, b: V) -> V {
        _mm256_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn sub(a: V, b: V) -> V {
        _mm256_sub_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn max(a: V, b: V) -> V {
        _mm256_max_epi32(a, b)
    }

    /// All ones where `a > b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn gt(a: V, b: V) -> V {
        _mm256_cmpgt_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn and(a: V, b: V) -> V {
        _mm256_and_si256(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn or(a: V, b: V) -> V {
        _mm256_or_si256(a, b)
    }

    /// `a` where the mask is set, else `b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn select(m: V, a: V, b: V) -> V {
        _mm256_blendv_epi8(b, a, m)
    }

    /// `cur` moved up one lane, `prev`'s last lane entering at lane 0:
    /// `[prev.hi | cur.lo]`, then a 4-byte align within each half.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn shift_in(prev: V, cur: V) -> V {
        _mm256_alignr_epi8::<12>(cur, _mm256_permute2x128_si256::<0x03>(cur, prev))
    }

    /// Inclusive prefix max: shifts by 1, 2 and 4 lanes, `i32::MIN`
    /// entering at lane 0.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn prefix_max(v: V) -> V {
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
    pub(crate) fn last(v: V) -> i32 {
        _mm256_extract_epi32::<7>(v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn lane(v: V, l: usize) -> i32 {
        let mut out = [0; L];
        store(v, &mut out);
        out[l]
    }

    /// One bit per lane, set where the mask is.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn mask_bits(m: V) -> u32 {
        _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{striped_align, xdrop_align};

    #[test]
    fn gap_precondition_holds_for_both_engines() {
        // The one statement of the precondition, at its edges, and both
        // lane engines refusing a pair of gap costs outside it.
        let with = |gap_open, gap_extend| AlignParams {
            gap_open,
            gap_extend,
            ..AlignParams::default()
        };
        for (open, ext) in [(0, 0), (0, MAX_GAP_COST), (MAX_GAP_COST - 1, 1), (11, 1)] {
            let g = Gap::of(&with(open, ext));
            assert_eq!((g.open, g.ext), (open + ext, ext));
        }
        let s = seqstore::encode_seq(b"MKVLAWHERTY");
        let refusal = |run: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("gap costs outside the precondition must be refused");
            match err.downcast::<String>() {
                Ok(msg) => *msg,
                Err(err) => err.downcast_ref::<&str>().unwrap_or(&"").to_string(),
            }
        };
        for (open, ext) in [(-1, 1), (11, -1), (MAX_GAP_COST, 1)] {
            let p = with(open, ext);
            let xdrop = refusal(&|| {
                xdrop_align(&s, &s, 2, 2, 3, &p);
            });
            let striped = refusal(&|| {
                striped_align(&s, &s, &p);
            });
            for msg in [xdrop, striped] {
                assert!(
                    msg.contains("gap_open, gap_extend >= 0"),
                    "({open},{ext}): {msg:?}"
                );
            }
        }
    }
}
