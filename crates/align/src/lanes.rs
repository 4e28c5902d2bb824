//! Lane operations shared by the two i32 lane kernels — the x-drop open
//! interior (`xdrop::lanes`) and the Smith–Waterman traceback rerun
//! (`sw`) — and the pieces of the affine-gap DP both write: the
//! direction-byte layout, the dead-cell value and the gap costs.
//!
//! Each kernel is one macro body instantiated once per module of lane
//! operations below: sixteen AVX-512 lanes, eight AVX2 lanes, and for the
//! SLP level four SSE2 lanes on x86-64 (whose baseline includes SSE2) or
//! four plain-Rust lanes elsewhere. Every module exports the same names
//! (`L`, `V`, `Table`, `splat`, `load`, `prefix_max`, …), so a kernel body
//! reads the same at every level. A compare yields a vector of all-ones
//! lanes at every level; at AVX-512 LLVM keeps such masks in k-registers,
//! so the kernels compile to native masked instructions without a mask
//! type of their own. A partial last chunk runs the same lane code on
//! masked loads and stores; there is no scalar remainder loop.

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
/// from `i32` overflow that no lane or scalar step saturates. The E scan
/// adds up to `(L − 1)·ext` to a lane value, and `15 · 2^27` plus any score
/// or `NEG_INF` stays inside `i32` at sixteen lanes.
pub(crate) const MAX_GAP_COST: i32 = 1 << 27;

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
    /// On a negative gap cost or `gap_open + gap_extend > 2^27`. The lane
    /// E scan equals the scalar recurrence only when opening a gap costs at
    /// least extending one (`gap_open ≥ 0`) and no intermediate leaves
    /// `i32`.
    pub(crate) fn of(params: &AlignParams) -> Gap {
        assert!(
            (0..=MAX_GAP_COST).contains(&params.gap_open)
                && (0..=MAX_GAP_COST - params.gap_open).contains(&params.gap_extend),
            "lane kernels need gap_open, gap_extend >= 0 and gap_open + gap_extend <= 2^27"
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

/// AVX-512 lanes: one `__m512i` of sixteen i32. Every function carries
/// the level's three features (`avx512f`, `avx512bw`, `avx512vl`,
/// detected together by `dispatch`), so each inlines into the kernel
/// instantiated over it.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use std::arch::x86_64::*;

    use seqstore::SIGMA;

    use super::NEG_INF;

    pub(crate) const L: usize = 16;
    pub(crate) type V = __m512i;
    /// Matrix-row entries `0..16` and `16..24`, widened to i32: the two
    /// halves of one `vpermt2d` lookup.
    pub(crate) type Table = (__m512i, __m512i);

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn table(row: &[i8; SIGMA]) -> Table {
        // SAFETY: the 16-byte read at 0 and the 8-byte read at 16 lie
        // inside the 24-byte row; neither load has an alignment
        // requirement.
        unsafe {
            (
                _mm512_cvtepi8_epi32(_mm_loadu_si128(row.as_ptr().cast())),
                _mm512_cvtepi8_epi32(_mm_loadl_epi64(row[16..].as_ptr().cast())),
            )
        }
    }

    /// The lanes below `n`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    fn part_mask(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// The lanes a vector mask holds, as a k-mask: its sign bits, as
    /// `mask_bits` at the narrower levels reads them.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    fn k_of(m: V) -> __mmask16 {
        _mm512_cmplt_epi32_mask(m, _mm512_setzero_si512())
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn scores_of(t: &Table, b: &[u8; L]) -> V {
        // SAFETY: `b` is the 16 bytes `loadu` reads, at any alignment.
        let idx = _mm512_cvtepu8_epi32(unsafe { _mm_loadu_si128(b.as_ptr().cast()) });
        // Bit 4 of a code picks the second half, bits 0..4 the entry.
        _mm512_permutex2var_epi32(t.0, idx, t.1)
    }

    /// [`scores_of`] for fewer than `L` residues; the other lanes score 0.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn scores_part(t: &Table, b: &[u8]) -> V {
        let m = part_mask(b.len());
        // SAFETY: the masked load reads only the bytes `m` selects, which
        // lie inside `b`.
        let idx = _mm512_cvtepu8_epi32(unsafe { _mm_maskz_loadu_epi8(m, b.as_ptr().cast()) });
        _mm512_maskz_permutex2var_epi32(m, t.0, idx, t.1)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn splat(x: i32) -> V {
        _mm512_set1_epi32(x)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn from_array(a: [i32; L]) -> V {
        load(&a)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn load(s: &[i32; L]) -> V {
        // SAFETY: `s` is the 64 bytes `loadu` reads, at any alignment.
        unsafe { _mm512_loadu_si512(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn store(v: V, out: &mut [i32; L]) {
        // SAFETY: `out` is the 64 bytes `storeu` writes, at any alignment.
        unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), v) }
    }

    /// Lanes `< s.len()` from `s`, the rest `NEG_INF`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn load_part(s: &[i32]) -> V {
        // SAFETY: the masked load reads only the lanes the mask selects,
        // which lie inside `s`.
        unsafe { _mm512_mask_loadu_epi32(splat(NEG_INF), part_mask(s.len()), s.as_ptr()) }
    }

    /// The first `out.len()` lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn store_part(v: V, out: &mut [i32]) {
        // SAFETY: the masked store writes only the lanes the mask selects,
        // which lie inside `out`.
        unsafe { _mm512_mask_storeu_epi32(out.as_mut_ptr(), part_mask(out.len()), v) }
    }

    /// The low byte of every lane, in lane order (`vpmovdb`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn store_dirs(v: V, out: &mut [u8; L]) {
        // SAFETY: `out` is the 16 bytes `storeu` writes, at any alignment.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), _mm512_cvtepi32_epi8(v)) }
    }

    /// The first `out.len()` lanes of [`store_dirs`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn store_dirs_part(v: V, out: &mut [u8]) {
        // SAFETY: the masked store writes only the bytes the mask selects,
        // which lie inside `out`.
        unsafe {
            _mm512_mask_cvtepi32_storeu_epi8(out.as_mut_ptr().cast(), part_mask(out.len()), v)
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn add(a: V, b: V) -> V {
        _mm512_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn sub(a: V, b: V) -> V {
        _mm512_sub_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn max(a: V, b: V) -> V {
        _mm512_max_epi32(a, b)
    }

    /// All ones where `a > b`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn gt(a: V, b: V) -> V {
        _mm512_maskz_mov_epi32(_mm512_cmpgt_epi32_mask(a, b), splat(-1))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn and(a: V, b: V) -> V {
        _mm512_and_si512(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn or(a: V, b: V) -> V {
        _mm512_or_si512(a, b)
    }

    /// `a` where the mask is set, else `b`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn select(m: V, a: V, b: V) -> V {
        _mm512_mask_blend_epi32(k_of(m), b, a)
    }

    /// `cur` moved up one lane, `prev`'s last lane entering at lane 0:
    /// lanes 15..31 of `[prev | cur]` (`valignd`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn shift_in(prev: V, cur: V) -> V {
        _mm512_alignr_epi32::<15>(cur, prev)
    }

    /// Inclusive prefix max: shifts by 1, 2, 4 and 8 lanes, `i32::MIN`
    /// entering at lane 0.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn prefix_max(v: V) -> V {
        let fill = splat(i32::MIN);
        let v = max(v, _mm512_alignr_epi32::<15>(v, fill));
        let v = max(v, _mm512_alignr_epi32::<14>(v, fill));
        let v = max(v, _mm512_alignr_epi32::<12>(v, fill));
        max(v, _mm512_alignr_epi32::<8>(v, fill))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn last(v: V) -> i32 {
        _mm_extract_epi32::<3>(_mm512_extracti32x4_epi32::<3>(v))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn lane(v: V, l: usize) -> i32 {
        let mut out = [0; L];
        store(v, &mut out);
        out[l]
    }

    /// One bit per lane, set where the mask is.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(crate) fn mask_bits(m: V) -> u32 {
        k_of(m) as u32
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_lanes_equal_portable() {
        if !crate::dispatch::avx512_available() {
            return;
        }
        // SAFETY: the AVX-512 level's features were detected above.
        unsafe { avx512_equal_portable() }
    }

    /// Every `avx512` operation against `portable` run on the four
    /// quarters of its sixteen lanes; the cross-lane ones (`shift_in`,
    /// `prefix_max`) chain the quarters as the wider lanes must.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    fn avx512_equal_portable() {
        use avx512 as w;
        use portable as p;
        use rand::prelude::*;
        use seqstore::SIGMA;
        type Q = [i32; 4];

        // Closures inherit the function's target features.
        let get = |v: w::V| -> [i32; 16] {
            let mut out = [0; 16];
            w::store(v, &mut out);
            out
        };
        fn quarter(a: &[i32; 16], q: usize) -> Q {
            *arr(&a[4 * q..])
        }
        /// Sixteen lanes from four portable results.
        fn join(f: impl Fn(usize) -> Q) -> [i32; 16] {
            let qs: [Q; 4] = std::array::from_fn(f);
            std::array::from_fn(|l| qs[l / 4][l % 4])
        }
        /// A portable mask from the bits of lanes `4q .. 4q + 4`.
        fn mask_of(bits: u32, q: usize) -> Q {
            std::array::from_fn(|l| -((bits >> (4 * q + l) & 1) as i32))
        }
        /// All ones in the lanes whose bit is set.
        fn mask16(bits: u32) -> [i32; 16] {
            std::array::from_fn(|l| -((bits >> l & 1) as i32))
        }
        fn bits_of(f: impl Fn(usize) -> Q) -> u32 {
            (0..4).fold(0, |bits, q| bits | p::mask_bits(f(q)) << (4 * q))
        }

        let mut rng = StdRng::seed_from_u64(0xa512);
        let pool = [
            i32::MIN,
            i32::MIN + 1,
            NEG_INF,
            NEG_INF / 2,
            -1,
            0,
            1,
            i32::MAX,
        ];
        let value = |rng: &mut StdRng| -> i32 {
            match rng.random_range(0..4) {
                0 => pool[rng.random_range(0..pool.len())],
                1 => rng.random_range(-40..40),
                _ => rng.random(),
            }
        };

        // Scores: every code in every lane, codes ≥ 16 included, for every
        // matrix row; partial loads score 0 past their end.
        for row in &crate::BLOSUM62.scores {
            let (tw, tp) = (w::table(row), p::table(row));
            for start in 0..SIGMA {
                let b: [u8; 16] = std::array::from_fn(|l| ((start + l) % SIGMA) as u8);
                let want = join(|q| p::scores_of(&tp, arr(&b[4 * q..])));
                assert_eq!(get(w::scores_of(&tw, &b)), want, "scores_of from {start}");
                for n in 1..=16 {
                    let want =
                        join(|q| p::scores_part(&tp, &b[(4 * q).min(n)..(4 * q + 4).min(n)]));
                    assert_eq!(get(w::scores_part(&tw, &b[..n])), want, "scores_part {n}");
                }
            }
        }

        for case in 0..2000 {
            let a: [i32; 16] = std::array::from_fn(|_| value(&mut rng));
            let b: [i32; 16] = std::array::from_fn(|_| value(&mut rng));
            let bits: u16 = rng.random();
            let (va, vb) = (w::load(&a), w::load(&b));
            let m = w::gt(va, vb);
            let ctx = || format!("case {case}: a={a:?} b={b:?} bits={bits:#x}");
            let lanewise = |f: fn(Q, Q) -> Q| join(|q| f(quarter(&a, q), quarter(&b, q)));
            assert_eq!(get(w::add(va, vb)), lanewise(p::add), "add {}", ctx());
            assert_eq!(get(w::sub(va, vb)), lanewise(p::sub), "sub {}", ctx());
            assert_eq!(get(w::max(va, vb)), lanewise(p::max), "max {}", ctx());
            assert_eq!(get(w::or(va, vb)), lanewise(p::or), "or {}", ctx());
            assert_eq!(
                w::mask_bits(m),
                bits_of(|q| p::gt(quarter(&a, q), quarter(&b, q))),
                "gt {}",
                ctx()
            );
            let bits = bits as u32;
            let vm = w::load(&mask16(bits));
            assert_eq!(
                get(m),
                join(|q| p::gt(quarter(&a, q), quarter(&b, q))),
                "gt {}",
                ctx()
            );
            assert_eq!(get(w::and(va, vb)), lanewise(p::and), "and {}", ctx());
            assert_eq!(w::mask_bits(vm), bits, "mask_bits {}", ctx());
            assert_eq!(
                get(w::select(vm, va, vb)),
                join(|q| p::select(mask_of(bits, q), quarter(&a, q), quarter(&b, q))),
                "select {}",
                ctx()
            );
            // `b` is the previous chunk: its last quarter enters the first.
            let want = join(|q| {
                let prev = quarter(if q == 0 { &b } else { &a }, (q + 3) % 4);
                p::shift_in(prev, quarter(&a, q))
            });
            assert_eq!(get(w::shift_in(vb, va)), want, "shift_in {}", ctx());
            let mut carry = i32::MIN;
            let want = join(|q| p::prefix_max(quarter(&a, q)));
            let want: [i32; 16] = std::array::from_fn(|l| {
                carry = carry.max(want[l]);
                carry
            });
            assert_eq!(get(w::prefix_max(va)), want, "prefix_max {}", ctx());
            assert_eq!(w::last(va), p::last(quarter(&a, 3)), "last {}", ctx());
            for l in 0..16 {
                assert_eq!(w::lane(va, l), p::lane(quarter(&a, l / 4), l % 4));
            }
            assert_eq!(get(w::splat(a[0])), join(|_| p::splat(a[0])));
            assert_eq!(
                get(w::from_array(a)),
                join(|q| p::from_array(quarter(&a, q)))
            );

            // Partial loads and stores, and direction bytes, at every n;
            // lanes past n are neither read nor written.
            let dirs = |f: &dyn Fn(&mut [u8; 24])| {
                let mut out = [0xa5; 24];
                f(&mut out);
                out
            };
            let want = dirs(&|out| {
                for q in 0..4 {
                    p::store_dirs(quarter(&a, q), arr_mut(&mut out[4 * q..]));
                }
            });
            let got = dirs(&|out| w::store_dirs(va, arr_mut(out)));
            assert_eq!(got, want, "store_dirs {}", ctx());
            for n in 1..=16 {
                let want = join(|q| p::load_part(&a[(4 * q).min(n)..(4 * q + 4).min(n)]));
                assert_eq!(get(w::load_part(&a[..n])), want, "load_part {n} {}", ctx());
                let stored = |f: &dyn Fn(&mut [i32; 24])| {
                    let mut out = [0x5a5a; 24];
                    f(&mut out);
                    out
                };
                let want = stored(&|out| {
                    for q in 0..4 {
                        p::store_part(quarter(&a, q), &mut out[(4 * q).min(n)..(4 * q + 4).min(n)]);
                    }
                });
                let got = stored(&|out| w::store_part(va, &mut out[..n]));
                assert_eq!(got, want, "store_part {n} {}", ctx());
                let want = dirs(&|out| {
                    for q in 0..4 {
                        let part = &mut out[(4 * q).min(n)..(4 * q + 4).min(n)];
                        p::store_dirs_part(quarter(&a, q), part);
                    }
                });
                let got = dirs(&|out| w::store_dirs_part(va, &mut out[..n]));
                assert_eq!(got, want, "store_dirs_part {n} {}", ctx());
            }
        }
    }
}
