//! `A` streamed from the owned sequences (`pastis::form_a`, DESIGN.md §11)
//! equals `A` built from its collected triples — `build_a_triples` +
//! `DistMat::from_triples`, as the frozen replay builds it — block for
//! block on every rank, at every grid size, with and without the reduced
//! alphabet, and with and without the k-mer frequency pre-filter, which
//! must then keep the same columns.

use std::rc::Rc;

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{build_a_triples, form_a, prune_frequent_kmers};
use pcomm::{Grid, World};
use seqstore::{write_fasta, DistSeqStore, SIGMA};
use sparse::{Dcsc, DistMat};

const K: usize = 5;

/// One rank's blocks of the streamed and the collected `A`, and what the
/// pre-filter kept of each.
struct RankView {
    streamed: Dcsc<u32>,
    collected: Dcsc<u32>,
    held: Option<(Vec<u32>, Vec<u32>)>,
}

fn run(fasta: &[u8], p: usize, reduced: bool, limit: Option<u32>) -> Vec<RankView> {
    World::run(p, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let store = DistSeqStore::from_fasta(&comm, fasta);
        let (n, space) = (store.len(), (SIGMA as u64).pow(K as u32));
        let mut streamed = form_a(&grid, store.owned(), n, K, reduced);
        let triples = build_a_triples(store.owned(), K, reduced);
        let mut collected =
            DistMat::from_triples(Rc::clone(&grid), n, space, triples, |a, b| *a = (*a).min(b));
        let held = limit.map(|limit| {
            (
                prune_frequent_kmers(&mut streamed, limit),
                prune_frequent_kmers(&mut collected, limit),
            )
        });
        RankView {
            streamed: streamed.local().clone(),
            collected: collected.local().clone(),
            held,
        }
    })
}

#[test]
fn streamed_a_equals_a_from_collected_triples() {
    for seed in [7, 26, 1400845388] {
        let fasta = write_fasta(&metaclust_like(
            60,
            &MetaclustConfig {
                seed,
                len_range: (40, 120),
                related_fraction: 0.5,
                mutation_rate: 0.1,
            },
        ));
        let whole = |reduced| run(&fasta, 1, reduced, None).remove(0).streamed;
        let (plain, grouped) = (whole(false), whole(true));
        assert_ne!(
            plain, grouped,
            "seed {seed}: the reduced alphabet changed no k-mer"
        );
        for reduced in [false, true] {
            for limit in [None, Some(2)] {
                for p in [1, 4, 9] {
                    let ctx = format!("seed {seed}, p {p}, reduced {reduced}, limit {limit:?}");
                    let views = run(&fasta, p, reduced, limit);
                    let mut nnz = 0;
                    for (rank, v) in views.iter().enumerate() {
                        assert_eq!(
                            v.streamed, v.collected,
                            "{ctx}: rank {rank}'s block differs"
                        );
                        if let Some((streamed, collected)) = &v.held {
                            assert_eq!(streamed, collected, "{ctx}: rank {rank} kept other k-mers");
                        }
                        nnz += v.streamed.nnz();
                    }
                    let unpruned = if reduced { &grouped } else { &plain }.nnz();
                    match limit {
                        None => assert_eq!(nnz, unpruned, "{ctx}: nnz(A) depends on p"),
                        Some(_) => assert!(0 < nnz && nnz < unpruned, "{ctx}: nothing pruned"),
                    }
                }
            }
        }
    }
}
