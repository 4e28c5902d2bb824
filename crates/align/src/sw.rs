//! Affine-gap Smith–Waterman local alignment with full traceback
//! (Smith & Waterman 1981; the SW mode of PASTIS, paper §IV-E).

use crate::scratch::{with_scratch, AlignScratch};
use crate::stats::AlignStats;
use crate::AlignParams;

// Direction byte layout for traceback (shared with the striped engine's
// banded traceback pass, which must produce identical bytes).
pub(crate) const H_SRC_MASK: u8 = 0b11; // 0 stop, 1 diag, 2 E (gap in r), 3 F (gap in c)
pub(crate) const H_STOP: u8 = 0;
pub(crate) const H_DIAG: u8 = 1;
pub(crate) const H_FROM_E: u8 = 2;
pub(crate) const H_FROM_F: u8 = 3;
pub(crate) const E_EXTEND: u8 = 1 << 2; // E came from E (else from H)
pub(crate) const F_EXTEND: u8 = 1 << 3; // F came from F (else from H)

pub(crate) const NEG_INF: i32 = i32::MIN / 4;

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
fn smith_waterman_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> AlignStats {
    let (m, n) = (r.len(), c.len());
    let mut stats = AlignStats {
        r_len: m as u32,
        c_len: n as u32,
        ..Default::default()
    };
    if m == 0 || n == 0 {
        return stats;
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
        return stats;
    }
    stats.score = best;

    // Traceback from the best cell.
    let (mut i, mut j) = best_cell;
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
