//! Build-peak ratchet (DESIGN.md §13): the live-heap peak of the stages
//! that build and multiply the k-mer matrices — forming `A`, transposing
//! it, forming `B` — per nonzero of the whole `A` (`Counters::nnz_a`,
//! which counts the k-mer columns of one sequence the exact path drops),
//! at p = 1.
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

/// How much the larger input's ratio may exceed the smaller one's.
const GROWTH: f64 = 1.1;

const STAGES: [&str; 3] = [
    "mem.stage.pastis.form_a",
    "mem.stage.pastis.tr_a",
    "mem.stage.pastis.spgemm_b",
];

/// `max(stage peaks) / nnz(A)` of one p = 1 run on `n` sequences.
fn peak_bytes_per_nnz(n: usize) -> f64 {
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
        .run(1, |comm| run_pipeline(&comm, &fasta, &params));
    let run = &runs[0];
    let gauges = &run.trace.metrics.gauges;
    let peak = STAGES
        .iter()
        .map(|s| *gauges.get(*s).unwrap_or_else(|| panic!("run records {s}")))
        .max()
        .unwrap();
    assert!(peak > 0, "tracking must be armed");
    peak as f64 / run.counters.nnz_a as f64
}

#[test]
fn build_and_multiply_peak_per_nonzero_of_a_stays_under_bound() {
    obs::alloc::set_tracking(true);
    let small = peak_bytes_per_nnz(3500);
    let large = peak_bytes_per_nnz(10_000);
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
}
