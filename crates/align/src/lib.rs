//! `align` — protein alignment kernels (the SeqAn stand-in of the PASTIS
//! reproduction, paper §IV-E).
//!
//! Provides the two alignment modes PASTIS offers — full local
//! Smith–Waterman with affine gaps ([`smith_waterman`] and its
//! lane-parallel equivalent [`striped_align`], selected via
//! [`AlignEngine`]) and gapped x-drop seed-and-extend ([`xdrop_align`]) —
//! plus the ungapped diagonal extension used by the MMseqs2-like baseline,
//! BLOSUM scoring matrices, alignment statistics (identity, coverage,
//! normalized score), reusable DP scratch arenas ([`AlignScratch`]) and a
//! work-stealing multi-threaded batch driver ([`align_batch`]).

mod batch;
mod bitpack;
mod dispatch;
mod matrix;
mod scratch;
mod stats;
mod striped;
mod sw;
mod ungapped;
mod xdrop;

pub use batch::align_batch;
pub use bitpack::{
    bitpack_bound, bitpack_bound_with, bitpack_gate, bitpack_gate_with, GateVerdict,
};
pub use dispatch::{level as simd_level, SimdLevel};
pub use matrix::{ScoringMatrix, BLOSUM62};
pub use scratch::{with_scratch, AlignScratch};
pub use stats::{AlignStats, SimilarityMeasure};
pub use striped::{
    striped_align, striped_align_with, striped_score, striped_score_at_level, striped_score_with,
    striped_traceback, striped_traceback_with,
};
pub use sw::{smith_waterman, smith_waterman_with};
pub use ungapped::ungapped_xdrop;
pub use xdrop::{xdrop_align, xdrop_align_with};

/// Which Smith–Waterman implementation [`local_align`] dispatches to. Both
/// engines return bit-identical [`AlignStats`]; they differ only in speed
/// and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignEngine {
    /// Reference scalar DP with full-matrix traceback (O(m·n) direction
    /// bytes).
    Scalar,
    /// Lane-parallel striped kernel (Farrar) with an O(m)-memory score
    /// pass and a banded traceback rerun. The default.
    #[default]
    Striped,
}

/// Alignment parameters shared by all kernels. Defaults follow the paper's
/// evaluation: BLOSUM62, gap opening 11, gap extension 1, x-drop 49 (§VI).
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
    /// Smith–Waterman implementation used by [`local_align`].
    pub engine: AlignEngine,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams {
            gap_open: 11,
            gap_extend: 1,
            xdrop: 49,
            matrix: &BLOSUM62,
            engine: AlignEngine::default(),
        }
    }
}

/// Full local alignment with the engine selected in `params`, using the
/// calling thread's scratch arena.
pub fn local_align(r: &[u8], c: &[u8], params: &AlignParams) -> AlignStats {
    obs::hist!("align.dp_cells", r.len() * c.len());
    with_scratch(|s| local_align_with(r, c, params, s))
}

/// [`local_align`] with an explicit scratch arena.
pub fn local_align_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> AlignStats {
    match params.engine {
        AlignEngine::Scalar => smith_waterman_with(r, c, params, scratch),
        AlignEngine::Striped => striped_align_with(r, c, params, scratch),
    }
}

/// Which tier of the prefilter cascade decided a pair's fate. The cascade
/// is sound at every tier: a culled pair's exact score is provably below
/// `min_score`, so the verdicts (and the surviving stats) are bit-identical
/// to running the exact engine on every pair — the tiers only change how
/// fast a "no" is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefilterOutcome {
    /// The bitpacked gate's score upper bound already misses `min_score`;
    /// no exact DP ran at all.
    CulledBitpack,
    /// The exact score pass (striped score-only pass, or the full DP on
    /// the scalar engine) came in below `min_score`.
    CulledScore,
    /// The pair reaches `min_score`; stats are bit-identical to
    /// [`local_align`].
    Passed(AlignStats),
}

/// Score-gated local alignment: run the traceback only when the optimal
/// score reaches `min_score` (the MMseqs2-style prefilter-then-align
/// staging), reporting *which* cascade tier decided the pair (the pipeline
/// surfaces these as the `prefilter.*` counter family). Culls cascade
/// through two tiers: the Myers-bitpacked gate ([`bitpack_gate`]) rejects
/// pairs whose score *upper bound* provably misses `min_score` without
/// running any exact DP, and survivors fall through to the exact tier (on
/// the striped engine the cull decision then costs only the O(m)-memory
/// score pass; the scalar engine has no score-only mode, so it culls after
/// the full DP). For surviving pairs the stats are bit-identical to
/// [`local_align`].
pub fn prefiltered_align_outcome(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    min_score: i32,
) -> PrefilterOutcome {
    obs::hist!("align.dp_cells", r.len() * c.len());
    with_scratch(|s| prefiltered_align_outcome_with(r, c, params, min_score, s))
}

/// [`prefiltered_align_outcome`] with an explicit scratch arena.
pub fn prefiltered_align_outcome_with(
    r: &[u8],
    c: &[u8],
    params: &AlignParams,
    min_score: i32,
    scratch: &mut AlignScratch,
) -> PrefilterOutcome {
    if bitpack_gate_with(r, c, params, min_score, scratch) == GateVerdict::Culled {
        obs::counter!("prefilter.bitpack_culled", 1);
        return PrefilterOutcome::CulledBitpack;
    }
    let outcome = match params.engine {
        AlignEngine::Scalar => {
            let stats = smith_waterman_with(r, c, params, scratch);
            if stats.score >= min_score {
                PrefilterOutcome::Passed(stats)
            } else {
                PrefilterOutcome::CulledScore
            }
        }
        AlignEngine::Striped => {
            let (score, end) = striped_score_with(r, c, params, scratch);
            if score < min_score {
                PrefilterOutcome::CulledScore
            } else {
                PrefilterOutcome::Passed(striped_traceback_with(r, c, params, score, end, scratch))
            }
        }
    };
    match &outcome {
        PrefilterOutcome::Passed(_) => obs::counter!("prefilter.passed", 1),
        _ => obs::counter!("prefilter.striped_culled", 1),
    }
    outcome
}
