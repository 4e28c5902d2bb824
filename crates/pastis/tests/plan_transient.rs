//! Batch-planner transient ratchet (DESIGN.md §15): the bytes
//! `batch::plan` allocates on top of what is already live, per nonzero of
//! the `Aᵀ` it sizes from, must stay under [`P1_BOUND`] at p = 1 and
//! [`BOUND`] at p = 4.
//! The planner runs before the first batch inside the out-of-core stage's
//! memory window, which the budget does not govern, so a planner that
//! hashes every row of the 24^k k-mer space can cost more than the batches
//! it is there to bound.
//!
//! Allocation tracking is forced on, so the ratchet holds in debug and
//! release alike. Ranks are threads of this process and plan at once, so
//! the window sees every rank's transient against the global nonzero count.

use std::rc::Rc;

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{batch, build_a_triples};
use pcomm::{Grid, World};
use seqstore::{write_fasta, DistSeqStore, SIGMA};
use sparse::DistMat;

/// Bytes per nonzero of `Aᵀ` the planner may hold transiently. Per-row
/// counts kept in hash maps read about 50 at either p, and sorted row runs
/// 14–24 at p = 4. The planner reads `Aᵀ`'s row form and ships one
/// `(u32, u32)` pair per k-mer column along the grid row, which reads
/// 14–18 at p = 4; the reading depends on how far the four ranks' peaks
/// coincide.
const BOUND: f64 = 40.0;

/// The p = 1 bound: a rank alone in its grid row reads its column lengths
/// and ships nothing, which reads about 3.5 (a count per k-mer and a
/// weight per sequence).
const P1_BOUND: f64 = 8.0;

const K: usize = 6;

/// `(peak − live before) / nnz(Aᵀ)` across `batch::plan` on `p` ranks.
fn plan_bytes_per_nnz(fasta: &[u8], p: usize) -> f64 {
    let per_rank = World::run(p, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let store = DistSeqStore::from_fasta(&comm, fasta);
        let triples = build_a_triples(store.owned(), K, false);
        let space = (SIGMA as u64).pow(K as u32);
        let a = DistMat::from_triples(Rc::clone(&grid), store.len(), space, triples, |a, b| {
            *a = (*a).min(b)
        });
        let a_t = a.transpose();
        drop(a);
        let nnz = a_t.nnz();
        // Every rank reads its baseline before any rank starts planning.
        comm.barrier();
        let before = obs::alloc::live_bytes() as i64;
        comm.barrier();
        let (plan, peak) = obs::alloc::peak_during(|| batch::plan(&grid, &a_t, 16 << 20));
        assert!(!plan.ranges.is_empty());
        (peak.expect("tracking is on") - before, nnz)
    });
    let nnz = per_rank[0].1;
    let transient = per_rank.iter().map(|&(d, _)| d).max().unwrap();
    transient as f64 / nnz as f64
}

#[test]
fn planner_transient_per_nonzero_stays_under_bound() {
    obs::alloc::set_tracking(true);
    let fasta = write_fasta(&metaclust_like(
        1000,
        &MetaclustConfig {
            seed: 7,
            len_range: (100, 300),
            related_fraction: 0.3,
            mutation_rate: 0.12,
        },
    ));
    for (p, bound) in [(1, P1_BOUND), (4, BOUND)] {
        let ratio = plan_bytes_per_nnz(&fasta, p);
        eprintln!("p={p}: batch::plan transient {ratio:.1} B per nnz(Aᵀ)");
        assert!(
            ratio <= bound,
            "p={p}: batch::plan held {ratio:.1} B per nnz(Aᵀ) > {bound}"
        );
    }
}
