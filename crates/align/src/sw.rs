//! Affine-gap Smith–Waterman local alignment with full traceback
//! (Smith & Waterman 1981; the SW mode of PASTIS, paper §IV-E).
//!
//! One matrix of direction bytes, two ways to fill it, one walk back over
//! it. [`smith_waterman`] is the scalar reference: it fills row by row and
//! keeps the row-major-first maximum as the end cell. The striped engine's
//! traceback ([`traceback_in_lanes`]) already knows the end cell and its
//! score from the score pass, so it fills the same bytes in i32 lanes
//! ([`fill_kernel`]), with no maximum to track, and walks from the
//! rectangle's last cell.
//!
//! The lane fill is the x-drop interior's E scan (`xdrop::lanes`) without a
//! floor: every cell is live and H is clamped at 0.
//! 1. *Everything but E is vertical.* diag, F and `H0 = max(diag, F, 0)`
//!    read only the row above.
//! 2. *E needs only `H0`.* Opening a gap from an E-derived H costs
//!    `open ≥ ext`, so it never beats extending that E, and
//!    `E[l] = max(c, X[l]) − l·ext`: `c` is the E of the chunk's first
//!    cell and `X` the exclusive prefix max of `H0[t] − open + (t+1)·ext`.
//!    The carry into the next chunk is `max(c, X_all) − L·ext`.
//! 3. *Plain i32 arithmetic is exact* under the gap precondition
//!    [`Gap::of`] asserts.
//!
//! Ties resolve diag > E > F > stop, each later source winning strictly;
//! the `E_EXTEND` bit compares E with the left neighbour's true H, shifted
//! in across lanes.

use seqstore::SIGMA;

use crate::dispatch::{self, SimdLevel};
#[cfg(any(test, not(target_arch = "x86_64")))]
use crate::lanes::portable;
use crate::lanes::{
    arr, arr_mut, Gap, E_EXTEND, F_EXTEND, H_DIAG, H_FROM_E, H_FROM_F, H_SRC_MASK, H_STOP, NEG_INF,
};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{avx2, avx512, sse2};
use crate::matrix::ScoringMatrix;
use crate::scratch::{with_scratch, AlignScratch};
use crate::stats::AlignStats;
use crate::AlignParams;

/// Local alignment of `r` against `c` (base-index sequences).
///
/// Returns the best-scoring local alignment; the zero-score alignment (empty
/// spans) is returned when nothing scores positive. Gap of length L costs
/// `gap_open + L·gap_extend`.
pub fn smith_waterman(r: &[u8], c: &[u8], params: &AlignParams) -> AlignStats {
    with_scratch(|s| smith_waterman_with(r, c, params, s))
}

/// [`smith_waterman`] on an explicit scratch arena (no per-call heap
/// allocation once the arena is warm).
pub(crate) fn smith_waterman_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> AlignStats {
    let (m, n) = (r.len(), c.len());
    if m == 0 || n == 0 {
        return zero_alignment(r, c);
    }
    // Work accounting: full m×n DP.
    pcomm::work::record_class((m * n) as u64, pcomm::work::CostClass::SwCell);
    let open = params.gap_open + params.gap_extend;
    let ext = params.gap_extend;

    scratch.h_prev.clear();
    scratch.h_prev.resize(n + 1, 0);
    scratch.h_curr.clear();
    scratch.h_curr.resize(n + 1, 0);
    scratch.f_row.clear();
    scratch.f_row.resize(n + 1, NEG_INF);
    scratch.dirs.clear();
    scratch.dirs.resize(m * n, 0);
    let h_prev = &mut scratch.h_prev;
    let h_curr = &mut scratch.h_curr;
    let f_row = &mut scratch.f_row;
    let dirs = &mut scratch.dirs;

    let mut best = 0i32;
    let mut best_cell = (0usize, 0usize); // (i, j), 1-based ends

    for i in 1..=m {
        let mut e = NEG_INF;
        h_curr[0] = 0;
        let ri = r[i - 1];
        for j in 1..=n {
            let mut dir = 0u8;
            // E: gap in r (consume c[j-1]).
            let e_open = h_curr[j - 1] - open;
            let e_ext = e - ext;
            e = if e_ext > e_open {
                dir |= E_EXTEND;
                e_ext
            } else {
                e_open
            };
            // F: gap in c (consume r[i-1]).
            let f_open = h_prev[j] - open;
            let f_ext = f_row[j] - ext;
            f_row[j] = if f_ext > f_open {
                dir |= F_EXTEND;
                f_ext
            } else {
                f_open
            };
            let diag = h_prev[j - 1] + params.matrix.score(ri, c[j - 1]);
            // Tie-break preferring diagonal, then E, then F, then stop —
            // fixed order keeps tracebacks deterministic.
            let mut h = 0i32;
            let mut src = H_STOP;
            if diag > h {
                h = diag;
                src = H_DIAG;
            }
            if e > h {
                h = e;
                src = H_FROM_E;
            }
            if f_row[j] > h {
                h = f_row[j];
                src = H_FROM_F;
            }
            h_curr[j] = h;
            dirs[(i - 1) * n + (j - 1)] = dir | src;
            if h > best {
                best = h;
                best_cell = (i, j);
            }
        }
        std::mem::swap(h_prev, h_curr);
    }

    if best == 0 {
        return zero_alignment(r, c);
    }
    walk(r, c, dirs, best, best_cell)
}

/// The empty alignment of `r` and `c`: score 0, empty spans.
fn zero_alignment(r: &[u8], c: &[u8]) -> AlignStats {
    AlignStats {
        r_len: r.len() as u32,
        c_len: c.len() as u32,
        ..Default::default()
    }
}

/// The traceback walk: follow the direction bytes of the `r.len() ×
/// c.len()` matrix `dirs` (row-major) back from `end` (1-based), an
/// alignment of `score`, to its start.
fn walk(r: &[u8], c: &[u8], dirs: &[u8], score: i32, end: (usize, usize)) -> AlignStats {
    let n = c.len();
    let mut stats = zero_alignment(r, c);
    stats.score = score;
    let (mut i, mut j) = end;
    stats.r_span.1 = i as u32;
    stats.c_span.1 = j as u32;
    #[derive(PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let mut state = State::H;
    loop {
        let dir = dirs[(i - 1) * n + (j - 1)];
        match state {
            State::H => match dir & H_SRC_MASK {
                H_STOP => break,
                H_DIAG => {
                    stats.align_len += 1;
                    if r[i - 1] == c[j - 1] {
                        stats.matches += 1;
                    }
                    i -= 1;
                    j -= 1;
                    if i == 0 || j == 0 {
                        break;
                    }
                }
                H_FROM_E => state = State::E,
                _ => state = State::F,
            },
            State::E => {
                stats.align_len += 1;
                let extended = dir & E_EXTEND != 0;
                j -= 1;
                if !extended {
                    state = State::H;
                }
                if j == 0 {
                    break;
                }
            }
            State::F => {
                stats.align_len += 1;
                let extended = dir & F_EXTEND != 0;
                i -= 1;
                if !extended {
                    state = State::H;
                }
                if i == 0 {
                    break;
                }
            }
        }
    }
    stats.r_span.0 = i as u32;
    stats.c_span.0 = j as u32;
    stats
}

/// The traceback of an alignment whose end cell is the last cell of
/// `r × c`, scoring `score`: fill the direction bytes in the dispatched
/// lanes, then walk back from `(r.len(), c.len())`. The striped engine calls it on the
/// start→end rectangle, whose last cell is its row-major-first maximum, so
/// the walk is [`smith_waterman`]'s. `None` when that cell does not score
/// `score`, which a correct end cell rules out.
///
/// # Panics
///
/// On gap costs [`Gap::of`] refuses.
pub(crate) fn traceback_in_lanes(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    score: i32,
    scratch: &mut AlignScratch,
) -> Option<AlignStats> {
    if r.is_empty() || c.is_empty() {
        return (score == 0).then(|| zero_alignment(r, c));
    }
    let last = fill_in_lanes(fill_kernel(dispatch::level()), r, c, params, scratch);
    (score > 0 && last == score).then(|| walk(r, c, &scratch.dirs, score, (r.len(), c.len())))
}

/// Fill `scratch.dirs` for non-empty `r × c` with `fill` and return H of
/// the last cell.
fn fill_in_lanes(
    fill: Fill,
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> i32 {
    let gap = Gap::of(params);
    let (m, n) = (r.len(), c.len());
    pcomm::work::record_class((m * n) as u64, pcomm::work::CostClass::SwCell);
    scratch.h_prev.clear();
    scratch.h_prev.resize(n + 1, 0);
    scratch.h_curr.clear();
    scratch.h_curr.resize(n + 1, 0);
    scratch.f_row.clear();
    scratch.f_row.resize(n, NEG_INF);
    scratch.dirs.clear();
    scratch.dirs.resize(m * n, 0);
    fill(gap, r, c, params.matrix, scratch)
}

/// A lane fill of a whole `r × c` matrix: the direction bytes into
/// `scratch.dirs`, H of the last cell returned. `scratch.h_prev` and
/// `h_curr` hold `c.len() + 1` zeros, `f_row` `c.len()` times `NEG_INF`,
/// `dirs` `r.len() · c.len()` bytes.
pub(crate) type Fill = fn(Gap, &[u8], &[u8], &ScoringMatrix, &mut AlignScratch) -> i32;

/// The fill of level `lv`, which must be available on this host.
pub(crate) fn fill_kernel(lv: SimdLevel) -> Fill {
    match lv {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => fill_avx512_detected,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => fill_avx2_detected,
        _ => fill_slp,
    }
}

/// [`fill_sse2`] behind a safe signature.
#[cfg(target_arch = "x86_64")]
fn fill_slp(gap: Gap, r: &[u8], c: &[u8], matrix: &ScoringMatrix, s: &mut AlignScratch) -> i32 {
    // SAFETY: SSE2 is part of the x86-64 baseline, so every x86-64 host
    // has it.
    unsafe { fill_sse2(gap, r, c, matrix, s) }
}

/// [`fill_avx2`] behind a safe signature.
#[cfg(target_arch = "x86_64")]
fn fill_avx2_detected(
    gap: Gap,
    r: &[u8],
    c: &[u8],
    matrix: &ScoringMatrix,
    s: &mut AlignScratch,
) -> i32 {
    // SAFETY: `fill_kernel` hands this function out only for
    // `SimdLevel::Avx2`, which callers pass only after runtime detection.
    unsafe { fill_avx2(gap, r, c, matrix, s) }
}

/// [`fill_avx512`] behind a safe signature.
#[cfg(target_arch = "x86_64")]
fn fill_avx512_detected(
    gap: Gap,
    r: &[u8],
    c: &[u8],
    matrix: &ScoringMatrix,
    s: &mut AlignScratch,
) -> i32 {
    // SAFETY: `fill_kernel` hands this function out only for
    // `SimdLevel::Avx512`, which callers pass only after runtime detection.
    unsafe { fill_avx512(gap, r, c, matrix, s) }
}

/// The fill over the lane operations of module `$lanes`.
macro_rules! sw_fill {
    ($(#[$attr:meta])* $name:ident, $lanes:ident) => {
        $(#[$attr])*
        fn $name(
            gap: Gap,
            r: &[u8],
            c: &[u8],
            matrix: &ScoringMatrix,
            s: &mut AlignScratch,
        ) -> i32 {
            use $lanes::*;
            let n = c.len();
            let AlignScratch {
                h_prev,
                h_curr,
                f_row,
                dirs,
                ..
            } = s;
            let (zero, open, ext) = (splat(0), splat(gap.open), splat(gap.ext));
            let scan_fill = splat(i32::MIN);
            // Lane l adds (l + 1)·ext − open before the E scan and
            // subtracts l·ext after it.
            let z_off = from_array(std::array::from_fn(|l| l as i32 * gap.ext + (gap.ext - gap.open)));
            let e_off = from_array(std::array::from_fn(|l| l as i32 * gap.ext));
            let (src_d, src_e, src_f) = (
                splat(H_DIAG as i32),
                splat(H_FROM_E as i32),
                splat(H_FROM_F as i32),
            );
            let (bit_e, bit_f) = (splat(E_EXTEND as i32), splat(F_EXTEND as i32));
            for (&ri, row_d) in r.iter().zip(dirs.chunks_exact_mut(n)) {
                let scores: &[i8; SIGMA] = &matrix.scores[ri as usize];
                let tbl = table(scores);
                // Column 0 holds H = 0 and no E, so column 1's E opens
                // from it.
                let mut c_e = -gap.open;
                let mut h_left = zero;
                let mut k = 0;
                while k < n {
                    let w = (n - k).min(L);
                    let full = w == L;
                    // A partial last chunk reads and writes only its `w`
                    // lanes.
                    let (dg, up_h, up_f, score) = if full {
                        (
                            load(arr(&h_prev[k..])),
                            load(arr(&h_prev[k + 1..])),
                            load(arr(&f_row[k..])),
                            scores_of(&tbl, arr(&c[k..])),
                        )
                    } else {
                        (
                            load_part(&h_prev[k..k + w]),
                            load_part(&h_prev[k + 1..=k + w]),
                            load_part(&f_row[k..k + w]),
                            scores_part(&tbl, &c[k..k + w]),
                        )
                    };
                    let diag = add(dg, score);
                    let f_open = sub(up_h, open);
                    let f_ext = sub(up_f, ext);
                    let f = max(f_open, f_ext);
                    let h1 = max(diag, zero);
                    let h0 = max(h1, f);
                    let scan = prefix_max(add(h0, z_off));
                    let e = sub(max(splat(c_e), shift_in(scan_fill, scan)), e_off);
                    let h = max(h0, e);
                    let src = max(
                        max(and(gt(diag, zero), src_d), and(gt(e, h1), src_e)),
                        and(gt(f, max(h1, e)), src_f),
                    );
                    let e_extends = gt(e, sub(shift_in(h_left, h), open));
                    let bits = or(and(e_extends, bit_e), and(gt(f_ext, f_open), bit_f));
                    let dir = or(src, bits);
                    if full {
                        store(h, arr_mut(&mut h_curr[k + 1..]));
                        store(f, arr_mut(&mut f_row[k..]));
                        store_dirs(dir, arr_mut(&mut row_d[k..]));
                    } else {
                        store_part(h, &mut h_curr[k + 1..=k + w]);
                        store_part(f, &mut f_row[k..k + w]);
                        store_dirs_part(dir, &mut row_d[k..k + w]);
                    }
                    c_e = c_e.max(last(scan)) - L as i32 * gap.ext;
                    h_left = h;
                    k += w;
                }
                std::mem::swap(h_prev, h_curr);
            }
            h_prev[n]
        }
    };
}

// The SLP level: SSE2 (the x86-64 baseline) where it exists, plain Rust
// elsewhere; the plain-Rust lanes are also built for the tests.
#[cfg(target_arch = "x86_64")]
sw_fill!(
    #[target_feature(enable = "sse2")]
    fill_sse2,
    sse2
);
#[cfg(not(target_arch = "x86_64"))]
sw_fill!(fill_slp, portable);
#[cfg(all(test, target_arch = "x86_64"))]
sw_fill!(fill_portable, portable);
#[cfg(target_arch = "x86_64")]
sw_fill!(
    #[target_feature(enable = "avx2")]
    fill_avx2,
    avx2
);
#[cfg(target_arch = "x86_64")]
sw_fill!(
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    fill_avx512,
    avx512
);

/// The plain-Rust lanes, for the differential test.
#[cfg(test)]
const FILL_PORTABLE: Fill = {
    #[cfg(target_arch = "x86_64")]
    {
        fill_portable
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        fill_slp
    }
};

#[cfg(test)]
mod tests {
    use super::*;
    use seqstore::encode_seq;

    fn sw(a: &[u8], b: &[u8]) -> AlignStats {
        smith_waterman(&encode_seq(a), &encode_seq(b), &AlignParams::default())
    }

    #[test]
    fn identical_sequences_align_fully() {
        let s = b"MKVLAWHERTYCC";
        let st = sw(s, s);
        assert_eq!(st.matches as usize, s.len());
        assert_eq!(st.align_len as usize, s.len());
        assert_eq!(st.r_span, (0, s.len() as u32));
        assert!((st.ani() - 1.0).abs() < 1e-12);
        let want: i32 = encode_seq(s).iter().map(|&b| BLOSUM62_DIAG(b)).sum();
        assert_eq!(st.score, want);
    }

    #[allow(non_snake_case)]
    fn BLOSUM62_DIAG(b: u8) -> i32 {
        crate::BLOSUM62.diag(b)
    }

    #[test]
    fn single_mismatch_is_diagonal() {
        let st = sw(b"MKVLAWHERTY", b"MKVLAFHERTY");
        assert_eq!(st.align_len, 11);
        assert_eq!(st.matches, 10);
    }

    #[test]
    fn gap_is_taken_when_cheaper() {
        // A deletion of 3 residues; flanks long enough to pay the gap.
        let a = b"MKVLAWHERTYDDDD"; // 15
        let b = b"MKVLAWCCCHERTYDDDD"; // insertion CCC
        let st = sw(a, b);
        assert_eq!(st.r_span, (0, 15));
        assert_eq!(st.c_span, (0, 18));
        assert_eq!(st.matches, 15);
        assert_eq!(st.align_len, 18);
        // Score: 15 identities − (11 + 3).
        let ident: i32 = encode_seq(a).iter().map(|&x| BLOSUM62_DIAG(x)).sum();
        assert_eq!(st.score, ident - 14);
    }

    #[test]
    fn trims_unrelated_flanks() {
        // Shared core WWWWHHHH surrounded by unrelated residues.
        let st = sw(b"CCCCWWWWHHHHGGGG", b"TTTTWWWWHHHHVVVV");
        assert!(st.matches >= 8);
        let (b0, e0) = st.r_span;
        assert!(b0 >= 4 && e0 <= 12, "span {b0}..{e0}");
    }

    #[test]
    fn unrelated_sequences_score_low() {
        let st = sw(b"AAAAAAAA", b"WWWWWWWW");
        assert_eq!(st.score, 0);
        assert_eq!(st.align_len, 0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(sw(b"", b"ACD").score, 0);
        assert_eq!(sw(b"ACD", b"").score, 0);
        assert_eq!(sw(b"", b"").score, 0);
    }

    #[test]
    fn symmetric_score() {
        let (a, b) = (b"MKVLAWHERTYAC", b"MKVIAWHETYAC");
        let s1 = sw(a, b);
        let s2 = sw(b, a);
        assert_eq!(s1.score, s2.score);
        assert_eq!(s1.matches, s2.matches);
        assert_eq!(s1.r_span, s2.c_span);
    }

    #[test]
    fn affine_prefers_one_long_gap_over_two_short() {
        // With open=11 ext=1, one gap of 2 (13) beats two gaps of 1 (24).
        let a = b"MKVLAWHERTYPPPP";
        let b = b"MKVLWHERTYPPP"; // could be explained multiple ways
        let st = sw(a, b);
        assert!(st.score > 0);
        // Alignment length never exceeds sum of spans.
        assert!(st.align_len >= st.matches);
    }

    #[test]
    fn score_matches_reference_dp() {
        // Compare against an O(mn) reference without traceback on random
        // sequences.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let m = rng.random_range(1..40);
            let n = rng.random_range(1..40);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..20u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..20u8)).collect();
            let p = AlignParams::default();
            let got = smith_waterman(&a, &b, &p);
            assert_eq!(got.score, reference_score(&a, &b, &p), "a={a:?} b={b:?}");
        }
    }

    fn reference_score(r: &[u8], c: &[u8], p: &AlignParams) -> i32 {
        let (m, n) = (r.len(), c.len());
        let open = p.gap_open + p.gap_extend;
        let mut h = vec![vec![0i32; n + 1]; m + 1];
        let mut e = vec![vec![NEG_INF; n + 1]; m + 1];
        let mut f = vec![vec![NEG_INF; n + 1]; m + 1];
        let mut best = 0;
        for i in 1..=m {
            for j in 1..=n {
                e[i][j] = (e[i][j - 1] - p.gap_extend).max(h[i][j - 1] - open);
                f[i][j] = (f[i - 1][j] - p.gap_extend).max(h[i - 1][j] - open);
                h[i][j] = 0
                    .max(h[i - 1][j - 1] + p.matrix.score(r[i - 1], c[j - 1]))
                    .max(e[i][j])
                    .max(f[i][j]);
                best = best.max(h[i][j]);
            }
        }
        best
    }

    /// A copy of `a` with `edits` random substitutions, insertions and
    /// deletions of up to 8 residues over `sigma` letters.
    fn edited(rng: &mut rand::rngs::StdRng, a: &[u8], sigma: u8, edits: usize) -> Vec<u8> {
        use rand::prelude::*;
        let mut b = a.to_vec();
        for _ in 0..edits {
            let pos = rng.random_range(0..b.len().max(1));
            let len = rng.random_range(1..9);
            match rng.random_range(0..3) {
                0 if !b.is_empty() => b[pos] = rng.random_range(0..sigma),
                1 => drop(b.splice(pos..pos, (0..len).map(|_| rng.random_range(0..sigma)))),
                _ => drop(b.drain(pos.min(b.len())..(pos + len).min(b.len()))),
            }
        }
        b
    }

    #[test]
    fn lane_fill_equals_scalar_fill() {
        // Every fill the host can run — each SIMD level, so the narrower
        // lanes are tested on wider hosts too, and the plain-Rust lanes —
        // against the scalar reference's direction bytes, its last cell's
        // H, and its stats walked back from the reference's end cell.
        use crate::dispatch::{avx2_available, avx512_available, SimdLevel};
        use rand::prelude::*;
        let mut fills = vec![
            ("Slp", fill_kernel(SimdLevel::Slp)),
            ("portable", FILL_PORTABLE),
        ];
        if avx2_available() {
            fills.push(("Avx2", fill_kernel(SimdLevel::Avx2)));
        }
        if avx512_available() {
            fills.push(("Avx512", fill_kernel(SimdLevel::Avx512)));
        }
        let mut rng = StdRng::seed_from_u64(0x5e1f);
        let mut seq = |sigma: u8, lo: usize, hi: usize| -> Vec<u8> {
            let len = rng.random_range(lo..hi);
            (0..len).map(|_| rng.random_range(0..sigma)).collect()
        };
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for case in 0..16 {
            // Proptest's long families: a random pair sharing a planted
            // core, a homolog with substitutions and indels, and a pair
            // over a 4-letter alphabet, where many paths tie.
            let core = seq(20, 30, 70);
            pairs.push((
                [seq(20, 100, 150), core.clone(), seq(20, 0, 40)].concat(),
                [seq(20, 100, 150), core, seq(20, 0, 40)].concat(),
            ));
            let a = seq(20, 170, 220);
            let mut erng = StdRng::seed_from_u64(case);
            pairs.push((a.clone(), edited(&mut erng, &a, 20, case as usize % 7)));
            pairs.push((seq(4, 130, 260), seq(4, 130, 260)));
            let a = seq(4, 60, 120);
            pairs.push((a.clone(), edited(&mut erng, &a, 4, 3)));
            // Rows of every width around one and two chunks, empty ones
            // included, at four, eight and sixteen lanes.
            let (m, n) = (case as usize % 17, (case as usize * 7) % 19);
            pairs.push((seq(24, m, m + 1), seq(24, n, n + 1)));
            let n = 16 * (case as usize % 3 + 1) + case as usize % 5 - 2;
            pairs.push((seq(24, m, m + 1), seq(24, n, n + 1)));
        }
        let mut want = AlignScratch::new();
        let mut got = AlignScratch::new();
        for (gap_open, gap_extend) in [(11, 1), (2, 2), (0, 1)] {
            let p = AlignParams {
                gap_open,
                gap_extend,
                ..AlignParams::default()
            };
            for (a, b) in &pairs {
                let st = smith_waterman_with(a, b, &p, &mut want);
                for &(lv, fill) in &fills {
                    let ctx = || format!("{lv} gaps ({gap_open},{gap_extend}) a={a:?} b={b:?}");
                    if a.is_empty() || b.is_empty() {
                        let empty = traceback_in_lanes(a, b, &p, 0, &mut got);
                        assert_eq!(empty, Some(st), "{}", ctx());
                        continue;
                    }
                    let last = fill_in_lanes(fill, a, b, &p, &mut got);
                    assert_eq!(got.dirs, want.dirs, "{}", ctx());
                    assert_eq!(last, want.h_prev[b.len()], "{}", ctx());
                    if st.score > 0 {
                        let end = (st.r_span.1 as usize, st.c_span.1 as usize);
                        assert_eq!(walk(a, b, &got.dirs, st.score, end), st, "{}", ctx());
                    }
                }
            }
        }
        // Multi-chunk rows with a partial last chunk, and multi-chunk rows
        // of whole chunks only, at every lane width (4, 8 and 16).
        let widths: Vec<usize> = pairs.iter().map(|(_, b)| b.len()).collect();
        for l in [4, 8, 16] {
            assert!(widths.iter().any(|&n| n > l && n % l != 0), "{l}");
            assert!(widths.iter().any(|&n| n > l && n % l == 0), "{l}");
        }
    }

    #[test]
    fn traceback_consistency_random() {
        // matches ≤ align_len, spans within bounds, ani within [0,1].
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let m = rng.random_range(0..60);
            let n = rng.random_range(0..60);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..24u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..24u8)).collect();
            let st = smith_waterman(&a, &b, &AlignParams::default());
            assert!(st.matches <= st.align_len);
            assert!(st.r_span.0 <= st.r_span.1 && st.r_span.1 as usize <= m);
            assert!(st.c_span.0 <= st.c_span.1 && st.c_span.1 as usize <= n);
            let span_r = st.r_span.1 - st.r_span.0;
            let span_c = st.c_span.1 - st.c_span.0;
            assert!(st.align_len >= span_r.max(span_c));
            assert!(st.align_len <= span_r + span_c);
            assert!((0.0..=1.0).contains(&st.ani()));
        }
    }
}
