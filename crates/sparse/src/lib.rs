//! `sparse` — the CombBLAS-style sparse matrix substrate of the PASTIS
//! reproduction.
//!
//! Provides:
//! - [`Dcsc`]: doubly compressed sparse column storage for hypersparse local
//!   blocks (paper §IV-D) — no per-column pointer array, so a 1M × 244M
//!   k-mer matrix block costs memory proportional to its nonzeros only.
//!   It is the only storage format: the shared-memory Markov clustering
//!   squares its (square, dense-columned) iterates in it too.
//! - [`Semiring`]: user-defined add/multiply pairs; PASTIS overloads these
//!   to carry seed positions through `A·Aᵀ` and `(A·S)·Aᵀ` (paper Fig. 4).
//! - Local SpGEMM with hash-based, heap-based and hybrid accumulation — the
//!   strategy mix CombBLAS uses for its local multiplies — and, for a
//!   semiring that declares an [`OutputMask`], a masked outer product over
//!   the shared inner indices only.
//! - [`DistMat`]: 2D block-distributed matrices over a [`pcomm::Grid`] with
//!   Sparse-SUMMA SpGEMM, distributed transpose and symmetrization.

mod accum;
mod dcsc;
mod dist;
mod local_spgemm;
mod once;
mod radix;
mod semiring;
mod triple;

pub use accum::HashAccumulator;
pub use dcsc::Dcsc;
pub use dist::DistMat;
pub use local_spgemm::{local_spgemm, SpGemmStrategy};
pub use semiring::{ArithmeticSemiring, OutputMask, Semiring};
pub use triple::Triple;
