//! `A` streamed from the owned sequences (`pastis::form_a`, DESIGN.md §11)
//! equals `A` built from its collected triples — `build_a_triples` +
//! `DistMat::from_triples`, as the frozen replay builds it — block for
//! block on every rank, at every grid size, with and without the reduced
//! alphabet, and with and without the k-mer frequency pre-filter, which
//! must then keep the same columns. The exact path's `A`
//! (`pastis::form_shared_a`) is that `A` less one-sequence k-mer columns,
//! with the same masked overlap `A·Aᵀ`; and a `--max-kmer-freq 1` run,
//! whose band `[2, 1]` is empty, finds no pair.

use std::rc::Rc;

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{
    build_a_triples, form_a, form_shared_a, prune_frequent_kmers, run_pipeline, ExactSemiring,
    PastisParams, SeedPair,
};
use pcomm::{Grid, World};
use seqstore::{write_fasta, DistSeqStore, SIGMA};
use sparse::{Dcsc, DistMat, SpGemmStrategy};

const K: usize = 5;

fn fasta(seed: u64) -> Vec<u8> {
    write_fasta(&metaclust_like(
        60,
        &MetaclustConfig {
            seed,
            len_range: (40, 120),
            related_fraction: 0.5,
            mutation_rate: 0.1,
        },
    ))
}

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
        let fasta = fasta(seed);
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

/// One rank's blocks of the shared-only and the whole `A`, the dropped
/// counts per sequence, and both masked overlaps `A·Aᵀ`.
struct SharedView {
    shared: Dcsc<u32>,
    whole: Dcsc<u32>,
    dropped: Vec<u32>,
    overlaps: [Dcsc<SeedPair>; 2],
}

fn run_shared(fasta: &[u8], p: usize, reduced: bool) -> Vec<SharedView> {
    World::run(p, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let store = DistSeqStore::from_fasta(&comm, fasta);
        let (n, space) = (store.len(), (SIGMA as u64).pow(K as u32));
        let (shared, dropped) = form_shared_a(&grid, store.owned(), n, K, reduced);
        let triples = build_a_triples(store.owned(), K, reduced);
        let whole =
            DistMat::from_triples(Rc::clone(&grid), n, space, triples, |a, b| *a = (*a).min(b));
        let overlap = |a: &DistMat<u32>| {
            let b = a.spgemm(&a.transpose(), &ExactSemiring, SpGemmStrategy::Hybrid);
            b.local().clone()
        };
        SharedView {
            overlaps: [overlap(&shared), overlap(&whole)],
            shared: shared.local().clone(),
            whole: whole.local().clone(),
            dropped,
        }
    })
}

/// Per rank, the nonzeros of each row of its block, by global row.
fn row_counts(block: &Dcsc<u32>, r0: usize, n: usize) -> Vec<u32> {
    let mut rows = vec![0; n];
    block
        .iter()
        .for_each(|(r, _, _)| rows[r0 + r as usize] += 1);
    rows
}

#[test]
fn shared_a_drops_only_one_sequence_columns() {
    for seed in [7, 26, 1400845388] {
        let fasta = fasta(seed);
        for reduced in [false, true] {
            for p in [1, 4, 9] {
                let ctx = format!("seed {seed}, p {p}, reduced {reduced}");
                let views = run_shared(&fasta, p, reduced);
                let q = (p as f64).sqrt() as usize;
                let n = views[0].dropped.len();
                // A k-mer column's blocks lie down one grid column.
                let mut global = vec![std::collections::BTreeMap::new(); q];
                for (rank, v) in views.iter().enumerate() {
                    for (i, &c) in v.whole.cols().iter().enumerate() {
                        *global[rank % q].entry(c).or_insert(0) += v.whole.col_by_index(i).0.len();
                    }
                }
                let (mut kept, mut extra, mut rows_lost) = (0, 0, vec![0u32; n]);
                for (rank, v) in views.iter().enumerate() {
                    assert_eq!(v.dropped, views[0].dropped, "{ctx}: rank {rank}'s counts");
                    for (i, &c) in v.whole.cols().iter().enumerate() {
                        let count = global[rank % q][&c];
                        match v.shared.col(c) {
                            Some(col) => {
                                assert_eq!(col, v.whole.col_by_index(i), "{ctx}: column {c}");
                                kept += col.0.len();
                                extra += usize::from(count == 1);
                            }
                            None => assert_eq!(count, 1, "{ctx}: column {c} of {count} dropped"),
                        }
                    }
                    assert_eq!(
                        v.shared.nzc(),
                        v.whole
                            .cols()
                            .iter()
                            .filter(|&&c| v.shared.col(c).is_some())
                            .count(),
                        "{ctx}: rank {rank} holds a column A lacks"
                    );
                    let r0 = n * (rank / q) / q;
                    let (all, left) = (row_counts(&v.whole, r0, n), row_counts(&v.shared, r0, n));
                    for (lost, (a, l)) in rows_lost.iter_mut().zip(all.iter().zip(left)) {
                        *lost += a - l;
                    }
                    assert_eq!(
                        v.overlaps[0], v.overlaps[1],
                        "{ctx}: rank {rank}'s A·Aᵀ differs"
                    );
                }
                let whole: usize = views.iter().map(|v| v.whole.nnz()).sum();
                let dropped: u32 = views[0].dropped.iter().sum();
                assert_eq!(kept + dropped as usize, whole, "{ctx}: nnz(A) reported");
                assert_eq!(rows_lost, views[0].dropped, "{ctx}: dropped per sequence");
                assert!(dropped > 0, "{ctx}: nothing dropped");
                eprintln!(
                    "{ctx}: kept {kept} of {whole} nonzeros, {extra} in one-sequence columns"
                );
            }
        }
    }
}

#[test]
fn an_empty_count_band_finds_no_pair() {
    let fasta = fasta(7);
    for p in [1, 4] {
        let params = |limit| PastisParams {
            k: K,
            max_kmer_frequency: limit,
            ..Default::default()
        };
        let runs = World::run(p, |comm| run_pipeline(&comm, &fasta, &params(Some(1))));
        let c = &runs[0].counters;
        assert_eq!((c.nnz_b, c.edges_global), (0, 0), "p {p}: band [2, 1]");
        let runs = World::run(p, |comm| run_pipeline(&comm, &fasta, &params(Some(2))));
        assert!(
            runs[0].counters.nnz_b > 0,
            "p {p}: band [2, 2] found no pair"
        );
    }
}
