//! `align` — protein alignment kernels (the SeqAn stand-in of the PASTIS
//! reproduction, paper §IV-E).
//!
//! Provides the two alignment modes PASTIS offers — full local
//! Smith–Waterman with affine gaps and gapped x-drop seed-and-extend
//! ([`xdrop_align`]) — plus the ungapped diagonal extension used by the
//! MMseqs2-like baseline, BLOSUM scoring matrices, alignment statistics
//! (identity, coverage, normalized score), reusable DP scratch arenas
//! ([`AlignScratch`]) and a work-stealing multi-threaded batch driver
//! ([`align_batch`]).
//!
//! Smith–Waterman has one engine: the lane-parallel striped score pass,
//! then the striped traceback, which fills the direction bytes in i32
//! lanes ([`striped_align`]; [`prefiltered_align_outcome`] stops after the
//! score pass when the score misses a threshold, and [`striped_score`] and
//! [`striped_traceback`] let a caller decide between the two passes).
//! [`smith_waterman`] is the scalar full-matrix DP every striped result is
//! tested against, bit for bit. [`xdrop_align`] computes the open interior
//! of each extension row in the same dispatched i32 lanes
//! ([`simd_level`]), bit for bit equal to its scalar rows.

mod batch;
mod dispatch;
mod lanes;
mod matrix;
mod scratch;
mod stats;
mod striped;
mod sw;
mod ungapped;
mod xdrop;

pub use batch::align_batch;
pub use dispatch::{level as simd_level, SimdLevel};
pub use matrix::{ScoringMatrix, BLOSUM62};
pub use scratch::{with_scratch, AlignScratch};
pub use stats::{AlignStats, SimilarityMeasure};
pub use striped::{striped_align, striped_score, striped_score_at_level, striped_traceback};
use striped::{striped_score_with, striped_traceback_with};
pub use sw::smith_waterman;
pub use ungapped::ungapped_xdrop;
pub use xdrop::{xdrop_align, xdrop_align_with, HalfExtended};

/// Alignment parameters shared by all kernels. Defaults follow the paper's
/// evaluation: BLOSUM62, gap opening 11, gap extension 1, x-drop 49 (§VI).
///
/// The lane engines — [`xdrop_align`] and every striped entry point
/// ([`striped_score`], [`striped_align`], [`striped_traceback`],
/// [`prefiltered_align_outcome`]) — require `gap_open ≥ 0`,
/// `gap_extend ≥ 0` and `gap_open + gap_extend ≤ 2^28`, and panic
/// otherwise: their lanes equal the scalar recurrence only for
/// non-negative gap costs that stay far from `i32` overflow.
/// [`smith_waterman`] takes any gap costs.
#[derive(Debug, Clone, Copy)]
pub struct AlignParams {
    /// Cost charged when a gap is opened (first gap column costs
    /// `gap_open + gap_extend`).
    pub gap_open: i32,
    /// Cost per gap column.
    pub gap_extend: i32,
    /// Score drop-off terminating x-drop extension.
    pub xdrop: i32,
    /// Substitution matrix.
    pub matrix: &'static ScoringMatrix,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams {
            gap_open: 11,
            gap_extend: 1,
            xdrop: 49,
            matrix: &BLOSUM62,
        }
    }
}

/// Whether a pair reached `min_score`, and its stats if it did. A culled
/// pair's exact score is below `min_score`, so the verdicts (and the
/// surviving stats) are bit-identical to running [`smith_waterman`] on
/// every pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefilterOutcome {
    /// Never returned. Kept because the frozen benchmark harness matches
    /// on it (DESIGN.md §16); it named a gate tier that Smith–Waterman no
    /// longer has.
    CulledBitpack,
    /// The striped score-only pass came in below `min_score`.
    CulledScore,
    /// The pair reaches `min_score`; stats are bit-identical to
    /// [`smith_waterman`].
    Passed(AlignStats),
}

/// Score-gated local alignment: run the traceback only when the optimal
/// score reaches `min_score` (the MMseqs2-style prefilter-then-align
/// staging). The O(m)-memory striped score pass decides; only pairs that
/// reach `min_score` pay for the traceback, and their stats are
/// bit-identical to [`smith_waterman`]. The pipeline surfaces the two
/// outcomes as the `prefilter.*` counter family.
pub fn prefiltered_align_outcome(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    min_score: i32,
) -> PrefilterOutcome {
    obs::hist!("align.dp_cells", r.len() * c.len());
    with_scratch(|scratch| {
        let (score, end) = striped_score_with(r, c, params, scratch);
        if score < min_score {
            obs::counter!("prefilter.striped_culled", 1);
            return PrefilterOutcome::CulledScore;
        }
        obs::counter!("prefilter.passed", 1);
        PrefilterOutcome::Passed(striped_traceback_with(r, c, params, score, end, scratch))
    })
}
