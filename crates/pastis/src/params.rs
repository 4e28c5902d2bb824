//! Pipeline configuration.

use align::{AlignParams, SimilarityMeasure};
use sparse::SpGemmStrategy;

/// Alignment mode for candidate pairs (paper §IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignMode {
    /// Gapped x-drop seed-and-extend from the stored shared seeds — the
    /// fast mode (`PASTIS-XD`).
    XDrop,
    /// Full local Smith–Waterman, seeds only used for candidate detection
    /// (`PASTIS-SW`).
    SmithWaterman,
    /// Skip alignment entirely — used by the paper's scaling experiments,
    /// which time only the sparse stages (§VI-A "Strong and Weak Scaling").
    None,
}

/// Full PASTIS configuration. Defaults mirror the paper's evaluation
/// settings (§VI): k = 6, BLOSUM62 with gap 11/1, x-drop 49, ANI ≥ 30%,
/// shorter-sequence coverage ≥ 70%.
#[derive(Debug, Clone)]
pub struct PastisParams {
    /// K-mer length.
    pub k: usize,
    /// Substitute k-mers per k-mer (`m`); 0 disables the `S` matrix
    /// (`s0` in the paper's variant names).
    pub substitutes: usize,
    /// Alignment mode.
    pub mode: AlignMode,
    /// Common-k-mer threshold: drop pairs sharing ≤ this many (substitute)
    /// k-mers before alignment (`CK` variants; paper uses 1 for exact and
    /// 3 for substitute k-mers).
    pub common_kmer_threshold: u32,
    /// Seed in the Murphy-10 reduced amino acid alphabet instead of the
    /// full 24-letter one (DIAMOND's sensitivity trick, paper §III):
    /// diverged homologs share more seeds at the cost of more candidates.
    /// Alignment always runs in the full alphabet. Incompatible with
    /// substitute k-mers (the expense table is 24-letter).
    pub reduced_alphabet: bool,
    /// Drop k-mers occurring in more than this many sequences before the
    /// overlap products (the pre-processing k-mer elimination the paper
    /// lists as future work in §VII; real-world repeats and low-complexity
    /// regions otherwise inflate `B` quadratically). `None` keeps all. The
    /// exact path keeps no k-mer of one sequence either, so its band is
    /// `[2, limit]`.
    pub max_kmer_frequency: Option<u32>,
    /// Similarity measure used as edge weight (ANI or NS, §VI-B).
    pub measure: SimilarityMeasure,
    /// Minimum alignment identity (applied only under ANI).
    pub min_ani: f64,
    /// Minimum shorter-sequence coverage (applied only under ANI).
    pub min_coverage: f64,
    /// Kernel parameters (matrix, gaps, x-drop).
    pub align: AlignParams,
    /// Local SpGEMM accumulation strategy of the unmasked product `A·S` on
    /// the substitute path. The overlap products do not read it:
    /// [`crate::ExactSemiring`] declares an output mask, and a masked
    /// product is always an outer product over the shared k-mers.
    pub spgemm: SpGemmStrategy,
    /// OS threads per rank for the alignment batch (OpenMP stand-in).
    /// `0` = auto: divide the host's cores evenly among the ranks (the
    /// paper's one-process-per-node × t-threads layout), at least one.
    pub threads: usize,
    /// Score-only prefilter of Smith–Waterman mode: pairs whose striped
    /// score is below this skip the traceback pass entirely (MMseqs2-style
    /// prefilter-then-align staging). The default of 1 is exact — a score
    /// ≤ 0 can produce an edge under neither ANI (empty alignment fails
    /// the identity filter) nor NS (which requires score > 0). X-drop mode
    /// does not read it: the score pass is O(mn), which x-drop exists to
    /// avoid.
    pub min_score: i32,
    /// Per-rank memory budget in bytes for the overlap product. When set,
    /// the pipeline partitions B's columns into batches sized so the
    /// estimated per-rank footprint of any one batch stays under the
    /// budget (out-of-core driver, DESIGN.md §15): each batch is
    /// multiplied against column-restricted right operands and aligned
    /// before the next is formed, and the per-batch edges concatenate into
    /// an edge set bit-identical to the monolithic run. `None` = single pass.
    /// The estimate counts `A·Aᵀ`'s flops, under substitute k-mers too.
    pub mem_budget_bytes: Option<u64>,
    /// Checkpoint directory: each completed batch writes per-rank PSG
    /// shards plus a versioned manifest here (checksummed, committed
    /// tmp-then-rename — see `pastis::ckpt`), and a rerun pointed at the
    /// same directory resumes after the last complete batch instead of
    /// restarting. `None` disables checkpointing.
    pub ckpt_dir: Option<std::path::PathBuf>,
}

impl Default for PastisParams {
    fn default() -> Self {
        PastisParams {
            k: 6,
            substitutes: 0,
            mode: AlignMode::XDrop,
            common_kmer_threshold: 0,
            reduced_alphabet: false,
            max_kmer_frequency: None,
            measure: SimilarityMeasure::Ani,
            min_ani: 0.30,
            min_coverage: 0.70,
            align: AlignParams::default(),
            spgemm: SpGemmStrategy::Hybrid,
            threads: 1,
            min_score: 1,
            mem_budget_bytes: None,
            ckpt_dir: None,
        }
    }
}

impl PastisParams {
    /// The paper's variant naming, e.g. `PASTIS-XD-s25-CK`.
    pub fn variant_name(&self) -> String {
        let mode = match self.mode {
            AlignMode::XDrop => "XD",
            AlignMode::SmithWaterman => "SW",
            AlignMode::None => "NOALIGN",
        };
        let ck = if self.common_kmer_threshold > 0 {
            "-CK"
        } else {
            ""
        };
        format!("PASTIS-{mode}-s{}{ck}", self.substitutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = PastisParams::default();
        assert_eq!(p.k, 6);
        assert_eq!(p.align.gap_open, 11);
        assert_eq!(p.align.gap_extend, 1);
        assert_eq!(p.align.xdrop, 49);
        assert_eq!(p.min_ani, 0.30);
        assert_eq!(p.min_coverage, 0.70);
    }

    #[test]
    fn variant_names() {
        let mut p = PastisParams::default();
        assert_eq!(p.variant_name(), "PASTIS-XD-s0");
        p.mode = AlignMode::SmithWaterman;
        p.substitutes = 25;
        p.common_kmer_threshold = 3;
        assert_eq!(p.variant_name(), "PASTIS-SW-s25-CK");
    }
}
