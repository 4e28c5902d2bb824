//! Build-peak ratchet (DESIGN.md §13): the live-heap peak of the stages
//! that build and multiply the k-mer matrices — forming `A`, transposing
//! it, forming `B` — per nonzero of the whole `A` (`Counters::nnz_a`,
//! which counts the k-mer columns of one sequence the exact path drops),
//! at p = 1, and forming `A` alone at p = 4.
//!
//! `A` is streamed from the sequences into its radix sort, less the
//! columns of one sequence, which a hashed two-bit table (1 B per nonzero
//! per bitmap) finds in a read before the sort; the few the table keeps
//! by collision are dropped in place after it, so `A` at p = 1 is
//! exactly the shared k-mers. The sort's items are 12 B (`u32` row, `u32`
//! column, `u32` value) and its last pass writes `u32` column ids, and
//! each column's bound in `cp` is 4 B; `Aᵀ` is held by rows only, `A`'s
//! own block at p = 1. So the kept quarter of `A` costs its radix buffers
//! at the peak of the sort, and forming `B` holds the kept `A`, the
//! masked product's contribution slots (12 B per kept flop, checked on
//! their own) and the sequence store, which at p = 1 holds each sequence
//! once; the two peaks sit level, about 12 B per nonzero. Keeping the
//! one-sequence columns, collected input triples (24 B per nonzero), a
//! column form of `Aᵀ`, copies of the input, a comparison sort or
//! per-stage panel clones each add a multiple of nnz(A) and break the
//! bound; so does a buffer that grows faster than nnz(A), which the
//! ratio between the two input sizes catches. 16-byte sort items with
//! `u64` ids, 8-byte `cp` and the collision-kept columns read 15.4 /
//! 14.7 B per nonzero; a store that also kept the exchange's row and
//! column copies of every sequence read 18.1 / 17.4; slots holding the
//! products (28 B per flop) read 19.7 / 21.5 on top of those copies, a
//! growth of 1.09.
//!
//! At p = 4 the one-sequence columns are judged before any triple is
//! shipped: a block-local column id (4 B) per k-mer travels to its owner
//! and a keep bit comes back, so only the kept quarter of `A` travels as
//! 24 B triples. Shipping every triple and dropping it on arrival reads
//! about 41 B per nonzero there, against about 20 (about 21.5 with 16-byte
//! sort items).
//!
//! The runs are alignment-free (`AlignMode::None`, the `sparse_only`
//! protocol): the three peaks come from the matrices, and an x-drop run
//! reads the same figures to 0.1 B per nonzero while costing about a
//! minute of a debug build. Allocation tracking is forced on, so the
//! ratchet holds in debug and release alike.

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{run_pipeline, AlignMode, PastisParams, PastisRun};
use pcomm::WorldBuilder;
use seqstore::write_fasta;

/// Peak live bytes per nonzero of `A` any of the three stages may reach
/// (reads 12.7 / 11.8; 15.4 / 14.7 with 16-byte sort items, 8-byte `cp`
/// and the collision-kept columns).
const BOUND: f64 = 13.5;

/// Peak live bytes per nonzero of `A` forming `A` may reach at p = 4. The
/// four ranks are threads of one process, so the peak moves with their
/// interleaving (19.6–20.9 over nine runs, 20.4–22.7 with 16-byte sort
/// items); shipping every triple reads 41.
const FORM_A_BOUND_P4: f64 = 22.0;

/// Bytes per kept flop the masked product's contribution slots may hold:
/// a slot is 12 B (a row and two value positions, all `u32`), with 0.5 B
/// of slack. A slot holding the product instead reads 28 B per flop.
const ACCUM_BOUND: f64 = 12.5;

/// How much the larger input's ratio may exceed the smaller one's.
const GROWTH: f64 = 1.1;

const STAGES: [&str; 3] = [
    "mem.stage.pastis.form_a",
    "mem.stage.pastis.tr_a",
    "mem.stage.pastis.spgemm_b",
];

/// One alignment-free run on `n` sequences over `p` ranks, one
/// [`PastisRun`] per rank (one process: every rank reads the same live
/// bytes).
fn run(n: usize, p: usize) -> Vec<PastisRun> {
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
    WorldBuilder::new()
        .checked(false)
        .run(p, |comm| run_pipeline(&comm, &fasta, &params))
}

/// `max(peaks of stages) / nnz(A)` over `runs`.
fn peak_bytes_per_nnz(runs: &[PastisRun], stages: &[&str]) -> f64 {
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

/// The masked product's contribution slots per kept flop of a run at
/// p = 1 (one SUMMA stage, one batch: the slots of the only multiply).
fn accum_bytes_per_flop(runs: &[PastisRun]) -> f64 {
    let metrics = &runs[0].trace.metrics;
    let accum = metrics.gauges["mem.watermark.sparse.accum"];
    let flops = metrics.hists["spgemm.col_flops"].sum;
    assert!(accum > 0 && flops > 0, "tracking must be armed");
    accum as f64 / flops as f64
}

#[test]
fn build_and_multiply_peak_per_nonzero_of_a_stays_under_bound() {
    obs::alloc::set_tracking(true);
    // Each run is dropped before the next starts: the peaks are live
    // bytes of the whole process.
    let [small, large] = [3500, 10_000].map(|n| {
        let runs = run(n, 1);
        let per_flop = accum_bytes_per_flop(&runs);
        eprintln!("masked product slots: {per_flop:.1} B per flop at {n} sequences");
        assert!(
            per_flop <= ACCUM_BOUND,
            "{n} sequences: masked product slots {per_flop:.1} B per flop > {ACCUM_BOUND}"
        );
        peak_bytes_per_nnz(&runs, &STAGES)
    });
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
    let grid = peak_bytes_per_nnz(&run(3500, 4), &["mem.stage.pastis.form_a"]);
    eprintln!("form A peak at p = 4: {grid:.1} B per nnz(A) at 3.5k sequences");
    assert!(
        grid <= FORM_A_BOUND_P4,
        "p = 4: form A peak {grid:.1} B per nnz(A) > {FORM_A_BOUND_P4}"
    );
}
