//! Build-peak ratchet (DESIGN.md §13): the live-heap peak of the stages
//! that build and multiply the k-mer matrices — forming `A`, transposing
//! it, forming `B` — per nonzero of the whole `A` (`Counters::nnz_a`,
//! which counts the k-mer columns of one sequence the exact path drops),
//! at p = 1, and forming `A` alone at p = 4.
//!
//! `A` is streamed from the sequences into its radix sort, less the
//! columns of one sequence, which a hashed two-bit table (1 B per nonzero
//! per bitmap) finds in a read before the sort; and `Aᵀ` is held by rows
//! only, `A`'s own block at p = 1. So the kept quarter of `A` costs its
//! radix buffers (32 B per kept nonzero at the peak of the sort), and the
//! peak, about 20 B per nonzero, is set while `B` forms: the kept `A`,
//! the masked product's contribution slots and the sequence store. Keeping
//! the one-sequence columns, collected input triples (24 B per nonzero), a
//! column form of `Aᵀ`, copies of the input, a comparison sort or
//! per-stage panel clones each add a multiple of nnz(A) and break the
//! bound; so does a buffer that grows faster than nnz(A), which the ratio
//! between the two input sizes catches.
//!
//! At p = 4 the one-sequence columns are judged before any triple is
//! shipped: a column id (8 B) per k-mer travels to its owner and a keep
//! bit comes back, so only the kept quarter of `A` travels as 24 B
//! triples. Shipping every triple and dropping it on arrival reads about
//! 41 B per nonzero there, against about 23.
//!
//! The runs are alignment-free (`AlignMode::None`, the `sparse_only`
//! protocol): the three peaks come from the matrices, and an x-drop run
//! reads the same figures to 0.1 B per nonzero while costing about a
//! minute of a debug build. Allocation tracking is forced on, so the
//! ratchet holds in debug and release alike.

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{run_pipeline, AlignMode, PastisParams};
use pcomm::WorldBuilder;
use seqstore::write_fasta;

/// Peak live bytes per nonzero of `A` any of the three stages may reach.
const BOUND: f64 = 23.0;

/// Peak live bytes per nonzero of `A` forming `A` may reach at p = 4. The
/// four ranks are threads of one process, so the peak moves with their
/// interleaving (21.9–23.5 over six runs); shipping every triple reads 41.
const FORM_A_BOUND_P4: f64 = 27.0;

/// How much the larger input's ratio may exceed the smaller one's.
const GROWTH: f64 = 1.1;

const STAGES: [&str; 3] = [
    "mem.stage.pastis.form_a",
    "mem.stage.pastis.tr_a",
    "mem.stage.pastis.spgemm_b",
];

/// `max(peaks of stages) / nnz(A)` of one run on `n` sequences over `p`
/// ranks (one process: every rank reads the same live bytes).
fn peak_bytes_per_nnz(n: usize, p: usize, stages: &[&str]) -> f64 {
    let fasta = write_fasta(&metaclust_like(
        n,
        &MetaclustConfig {
            seed: 7,
            len_range: (100, 300),
            related_fraction: 0.3,
            mutation_rate: 0.12,
        },
    ));
    let params = PastisParams {
        k: 6,
        mode: AlignMode::None,
        threads: 1,
        ..Default::default()
    };
    let runs = WorldBuilder::new()
        .checked(false)
        .run(p, |comm| run_pipeline(&comm, &fasta, &params));
    let peak = (runs.iter())
        .flat_map(|run| {
            let gauges = &run.trace.metrics.gauges;
            (stages.iter()).map(|s| *gauges.get(*s).unwrap_or_else(|| panic!("run records {s}")))
        })
        .max()
        .unwrap();
    assert!(peak > 0, "tracking must be armed");
    peak as f64 / runs[0].counters.nnz_a as f64
}

#[test]
fn build_and_multiply_peak_per_nonzero_of_a_stays_under_bound() {
    obs::alloc::set_tracking(true);
    let small = peak_bytes_per_nnz(3500, 1, &STAGES);
    let large = peak_bytes_per_nnz(10_000, 1, &STAGES);
    eprintln!("build peak: {small:.1} B per nnz(A) at 3.5k sequences, {large:.1} at 10k");
    for (n, ratio) in [(3500, small), (10_000, large)] {
        assert!(
            ratio <= BOUND,
            "{n} sequences: build peak {ratio:.1} B per nnz(A) > {BOUND}"
        );
    }
    assert!(
        large <= GROWTH * small,
        "build peak per nnz(A) grew with the input: {small:.1} → {large:.1}"
    );
    // In the same test: the live bytes are the process's, so no other run
    // may overlap this one.
    let grid = peak_bytes_per_nnz(3500, 4, &["mem.stage.pastis.form_a"]);
    eprintln!("form A peak at p = 4: {grid:.1} B per nnz(A) at 3.5k sequences");
    assert!(
        grid <= FORM_A_BOUND_P4,
        "p = 4: form A peak {grid:.1} B per nnz(A) > {FORM_A_BOUND_P4}"
    );
}
