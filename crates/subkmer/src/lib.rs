//! `subkmer` — generation of the *m nearest substitute k-mers* of a k-mer
//! under a substitution matrix (paper §IV-B, Algorithms 1–3).
//!
//! A substitute k-mer's distance to its seed is the total substitution
//! *expense* (score lost versus an exact match). The m nearest are found
//! with a best-first exploration in the spirit of Dijkstra's algorithm over
//! the implicit substitution tree: a sorted per-base expense table provides
//! children in increasing cost, and a sorted bounded `Vec` of at most `m`
//! candidates stands in for the paper's min-max heap as the frontier,
//! confirming from its head and evicting from its tail. A
//! [`SubKmerSearcher`] keeps that buffer across searches, so a warm one
//! searches without allocating; [`find_sub_kmers`] is its one-shot form.
//!
//! The crate also builds the sparse substitution matrix `S` (k-mer →
//! substitute k-mer, at most `m`+1 nonzeros per row including the identity)
//! that PASTIS multiplies into `(A·S)·Aᵀ` (paper §IV-C): whole with the
//! frontier search ([`build_s_triples`]), or only over the columns a
//! `keep` predicate passes with a [`HeldSearcher`] ([`build_s_rows`]),
//! which counts the distances up to the m-th, walks the substitution tree
//! under that bound and defers to the frontier search only where the
//! frontier's choice among ties decides a kept entry.

mod expense;
mod find;
mod held;
mod smatrix;

pub use expense::ExpenseTable;
pub use find::{find_sub_kmers, kmer_distance, SubKmer, SubKmerSearcher};
pub use held::HeldSearcher;
pub use smatrix::{build_s_rows, build_s_triples, SubEntry};
