//! # PASTIS — Protein Alignment via Sparse Matrices
//!
//! A from-scratch Rust reproduction of *"Distributed Many-to-Many Protein
//! Sequence Alignment using Sparse Matrices"* (Selvitopi et al., SC 2020).
//!
//! PASTIS builds a **protein similarity graph** over a set of sequences:
//!
//! 1. **Seed discovery** — a sparse |sequences| × |k-mers| matrix `A`
//!    records each k-mer's starting position in each sequence; the overlap
//!    matrix `B = A·Aᵀ` (exact matching) or `B = (A·S)·Aᵀ` (substitute
//!    k-mer matching, §IV-C) is computed with custom semirings that carry
//!    up to two shared seed positions per pair (Fig. 3–4).
//! 2. **Alignment** — every nonzero of `B`'s upper triangle is aligned
//!    with seed-and-extend x-drop or full Smith–Waterman; the triangular
//!    block-ownership rule of §V-D balances this work across the grid with
//!    zero extra communication, and the sequences needed were prefetched in
//!    the background while `B` was being computed (§V-C).
//! 3. **Filtering** — pairs below identity/coverage thresholds are dropped
//!    (§IV-F); survivors become weighted edges of the similarity graph.
//!
//! ```
//! use pastis::{run_pipeline, AlignMode, PastisParams};
//! use pcomm::World;
//! use seqstore::write_fasta;
//!
//! let fasta = write_fasta(&datagen::metaclust_like(
//!     40,
//!     &datagen::MetaclustConfig { len_range: (60, 120), ..Default::default() },
//! ));
//! let params = PastisParams { k: 4, substitutes: 10, ..Default::default() };
//! // Run on a 2×2 simulated process grid.
//! let runs = World::run(4, |comm| run_pipeline(&comm, &fasta, &params));
//! let edges: usize = runs.iter().map(|r| r.edges.len()).sum();
//! assert!(edges > 0);
//! ```

pub mod batch;
pub mod ckpt;
mod matrices;
mod params;
mod pipeline;
mod seedpair;
mod semirings;

pub use matrices::{
    build_a_triples, build_s_dist, distinct_kmers, form_a, form_shared_a, held_kmers,
    kmer_fits_grid, prune_frequent_kmers,
};
pub use params::{AlignMode, PastisParams};
pub use pipeline::{run_pipeline, Counters, PastisRun, StageMeasure, Timings};
pub use seedpair::{SeedPair, SubPos};
pub use semirings::{AsSemiring, ExactSemiring, SubSemiring};
