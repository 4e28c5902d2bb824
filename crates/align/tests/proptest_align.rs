//! Property-based tests of the alignment kernels: score bounds, symmetry,
//! statistics consistency, the SW ≥ XD dominance relation,
//! striped-engine ↔ scalar-engine bit-identity, and the score prefilter's
//! two-outcome contract (culled iff the exact score is below the
//! threshold).

use align::{
    prefiltered_align_outcome, smith_waterman, striped_align, striped_score, ungapped_xdrop,
    xdrop_align, AlignParams, PrefilterOutcome,
};
use proptest::prelude::*;

fn seq_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..20, 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sw_score_nonnegative_and_stats_consistent(a in seq_strategy(80), b in seq_strategy(80)) {
        let st = smith_waterman(&a, &b, &AlignParams::default());
        prop_assert!(st.score >= 0);
        prop_assert!(st.matches <= st.align_len);
        prop_assert!(st.r_span.0 <= st.r_span.1);
        prop_assert!(st.c_span.0 <= st.c_span.1);
        prop_assert!(st.r_span.1 as usize <= a.len());
        prop_assert!(st.c_span.1 as usize <= b.len());
        let (sr, sc) = (st.r_span.1 - st.r_span.0, st.c_span.1 - st.c_span.0);
        prop_assert!(st.align_len >= sr.max(sc));
        prop_assert!(st.align_len <= sr + sc);
        prop_assert!((0.0..=1.0).contains(&st.ani()));
        prop_assert!((0.0..=1.0).contains(&st.coverage_short()) || st.coverage_short() == 0.0);
    }

    #[test]
    fn sw_score_is_symmetric(a in seq_strategy(60), b in seq_strategy(60)) {
        // Only the optimal score is symmetric: when several alignments tie,
        // the deterministic tie-break may pick different paths for (a,b)
        // and (b,a), so spans/matches can legitimately differ.
        let p = AlignParams::default();
        let ab = smith_waterman(&a, &b, &p);
        let ba = smith_waterman(&b, &a, &p);
        prop_assert_eq!(ab.score, ba.score);
    }

    #[test]
    fn sw_self_alignment_is_perfect(a in proptest::collection::vec(0u8..20, 1..80)) {
        let st = smith_waterman(&a, &a, &AlignParams::default());
        prop_assert_eq!(st.matches as usize, a.len());
        prop_assert_eq!(st.align_len as usize, a.len());
        prop_assert!((st.ani() - 1.0).abs() < 1e-12);
        prop_assert!((st.coverage_short() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn xdrop_never_beats_sw(
        a in proptest::collection::vec(0u8..20, 10..60),
        b in proptest::collection::vec(0u8..20, 10..60),
        rp in 0u32..4,
        cp in 0u32..4,
    ) {
        let p = AlignParams::default();
        let k = 4;
        let sw = smith_waterman(&a, &b, &p);
        let xd = xdrop_align(&a, &b, rp, cp, k, &p);
        // XD is anchored on a (possibly bad) seed: it can never exceed the
        // optimum local alignment score.
        prop_assert!(xd.score <= sw.score, "xd {} > sw {}", xd.score, sw.score);
        prop_assert!(xd.matches <= xd.align_len);
        // Seed contained in reported spans.
        prop_assert!(xd.r_span.0 <= rp && rp + k as u32 <= xd.r_span.1);
        prop_assert!(xd.c_span.0 <= cp && cp + k as u32 <= xd.c_span.1);
    }

    #[test]
    fn ungapped_never_beats_gapped_xdrop(
        a in proptest::collection::vec(0u8..20, 10..60),
        b in proptest::collection::vec(0u8..20, 10..60),
        pos in 0u32..4,
    ) {
        let p = AlignParams::default();
        let ug = ungapped_xdrop(&a, &b, pos, pos, 4, &p);
        let xd = xdrop_align(&a, &b, pos, pos, 4, &p);
        // Gapped extension explores a superset of the ungapped diagonal.
        prop_assert!(xd.score >= ug.score, "xd {} < ungapped {}", xd.score, ug.score);
        prop_assert_eq!(ug.r_span.1 - ug.r_span.0, ug.c_span.1 - ug.c_span.0);
    }

    #[test]
    fn striped_score_equals_scalar(
        a in proptest::collection::vec(0u8..24, 1..120),
        b in proptest::collection::vec(0u8..24, 1..120),
    ) {
        let p = AlignParams::default();
        let sw = smith_waterman(&a, &b, &p);
        let (score, end) = striped_score(&a, &b, &p);
        prop_assert_eq!(score, sw.score);
        if sw.score > 0 {
            // Same argmax cell, not just the same score.
            prop_assert_eq!(end, (sw.r_span.1, sw.c_span.1));
        }
    }

    #[test]
    fn striped_stats_bit_identical_to_scalar(
        a in proptest::collection::vec(0u8..24, 1..120),
        b in proptest::collection::vec(0u8..24, 1..120),
        open in 0i32..14,
        ext in 1i32..4,
    ) {
        // Full AlignStats equality (score, matches, align_len, spans) across
        // varied gap penalties, which shift tie-breaks and band shapes.
        let p = AlignParams { gap_open: open, gap_extend: ext, ..Default::default() };
        prop_assert_eq!(striped_align(&a, &b, &p), smith_waterman(&a, &b, &p));
    }

    #[test]
    fn striped_matches_scalar_on_homologous_pairs(
        a in proptest::collection::vec(0u8..20, 40..160),
        flips in proptest::collection::vec((0usize..160, 0u8..20), 0..12),
    ) {
        // High-identity pairs exercise long diagonal runs and the
        // tie-relocation path more than uniform noise does.
        let mut b = a.clone();
        for &(pos, res) in &flips {
            let at = pos % b.len();
            b[at] = res;
        }
        let p = AlignParams::default();
        prop_assert_eq!(striped_align(&a, &b, &p), smith_waterman(&a, &b, &p));
    }

    #[test]
    fn cascade_cull_is_sound(
        a in proptest::collection::vec(0u8..24, 0..120),
        b in proptest::collection::vec(0u8..24, 0..120),
        min_score in 1i32..900,
    ) {
        // Two outcomes only: `CulledScore` iff the exact score misses the
        // threshold, otherwise `Passed` with the exact stats.
        let p = AlignParams::default();
        let full = smith_waterman(&a, &b, &p);
        match prefiltered_align_outcome(&a, &b, &p, min_score) {
            PrefilterOutcome::Passed(st) => {
                prop_assert!(full.score >= min_score);
                prop_assert_eq!(st, full);
            }
            PrefilterOutcome::CulledScore => {
                prop_assert!(full.score < min_score,
                    "culled pair scores {} >= {}", full.score, min_score);
            }
            PrefilterOutcome::CulledBitpack => prop_assert!(false, "CulledBitpack is never returned"),
        }
    }

    #[test]
    fn xdrop_score_monotone_in_x(
        a in proptest::collection::vec(0u8..20, 12..50),
        b in proptest::collection::vec(0u8..20, 12..50),
    ) {
        let lo = AlignParams { xdrop: 5, ..Default::default() };
        let hi = AlignParams { xdrop: 100, ..Default::default() };
        let s_lo = xdrop_align(&a, &b, 0, 0, 4, &lo).score;
        let s_hi = xdrop_align(&a, &b, 0, 0, 4, &hi).score;
        // A wider band can only find an equal or better extension.
        prop_assert!(s_hi >= s_lo, "hi {} < lo {}", s_hi, s_lo);
    }
}

/// The two-outcome contract across 16 fixed seeds: a pair is
/// `CulledScore` iff its exact scalar score misses the threshold, and
/// every passing pair's stats are bit-identical to the scalar engine's.
#[test]
fn cascade_sound_across_16_seeds() {
    use rand::prelude::*;
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = AlignParams::default();
        for _ in 0..25 {
            let m = rng.random_range(1..140);
            let n = rng.random_range(1..140);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..24u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..24u8)).collect();
            let min_score = rng.random_range(1..1200);
            let full = smith_waterman(&a, &b, &p);
            match prefiltered_align_outcome(&a, &b, &p, min_score) {
                PrefilterOutcome::Passed(st) => {
                    assert!(full.score >= min_score, "seed {seed}");
                    assert_eq!(st, full, "seed {seed}");
                }
                PrefilterOutcome::CulledScore => assert!(
                    full.score < min_score,
                    "seed {seed}: culled pair scores {} >= {min_score}",
                    full.score
                ),
                PrefilterOutcome::CulledBitpack => {
                    panic!("seed {seed}: CulledBitpack is never returned")
                }
            }
        }
    }
}

/// i16-saturation edge cases: max-length all-identical-residue pairs push
/// the exact score far past `i16::MAX`, forcing the striped engine's i32
/// fallback, which must still neither wrongly cull nor wrongly pass
/// around the exact boundary.
#[test]
fn cascade_sound_under_i16_saturation() {
    let p = AlignParams::default();
    // Tryptophan self-alignment: exact score 11·len, far beyond i16.
    let trp = seqstore::encode_seq(&b"W".repeat(4000));
    let exact = 11 * 4000;
    match prefiltered_align_outcome(&trp, &trp, &p, exact) {
        PrefilterOutcome::Passed(st) => {
            assert_eq!(st.score, exact);
            assert_eq!(st.matches, 4000);
        }
        other => panic!("saturating self-pair wrongly culled: {other:?}"),
    }
    // One past the exact score: must cull.
    assert_eq!(
        prefiltered_align_outcome(&trp, &trp, &p, exact + 1),
        PrefilterOutcome::CulledScore
    );
    // Identical long mixed-residue pair (max-length case): passes at its
    // exact score, stats bit-identical to scalar.
    let mixed: Vec<u8> = (0..6000).map(|i| (i % 20) as u8).collect();
    let full = smith_waterman(&mixed, &mixed, &p);
    assert!(full.score > i16::MAX as i32);
    match prefiltered_align_outcome(&mixed, &mixed, &p, full.score) {
        PrefilterOutcome::Passed(st) => assert_eq!(st, full),
        other => panic!("saturating mixed pair wrongly culled: {other:?}"),
    }
}
