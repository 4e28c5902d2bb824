//! `S` over the k-mers `A` holds (DESIGN.md §4): `build_s_dist` keeps
//! `S(K, t)` only where some sequence holds `t`, because `(A·S)·Aᵀ` reads
//! `A·S`'s column `t` only against row `t` of `Aᵀ`. The symmetrised
//! product must therefore equal, entry by entry on every rank, the one
//! built from the whole `S` — the public `build_s_triples` +
//! `DistMat::from_triples`, as the frozen replay builds it — at every
//! grid size, with and without the k-mer frequency pre-filter, while the
//! held `S` is strictly smaller and equal to the whole `S` restricted to
//! the held columns.

use std::rc::Rc;

use align::BLOSUM62;
use datagen::{metaclust_like, MetaclustConfig};
use pastis::{
    build_a_triples, build_s_dist, distinct_kmers, held_kmers, prune_frequent_kmers, AsSemiring,
    PastisParams, SeedPair, SubSemiring,
};
use pcomm::{Grid, World};
use seqstore::{write_fasta, DistSeqStore, SIGMA};
use sparse::DistMat;
use subkmer::{build_s_triples, ExpenseTable};

const K: usize = 4;
const M: usize = 8;

/// One rank's view of a run: global nnz of `A`, of the held `S` and of
/// the whole `S`, this rank's block of the held `S` and of the whole `S`
/// restricted to the held columns, and its blocks of the two products.
struct RankView {
    nnz_a: u64,
    nnz_s_held: u64,
    nnz_s_whole: u64,
    s_held: Vec<(u64, u64, u32)>,
    s_whole_held: Vec<(u64, u64, u32)>,
    b_held: Vec<(u64, u64, SeedPair)>,
    b_whole: Vec<(u64, u64, SeedPair)>,
}

fn sym_b(a: &DistMat<u32>, a_t: &DistMat<u32>, s: &DistMat<u32>) -> Vec<(u64, u64, SeedPair)> {
    let spgemm = PastisParams::default().spgemm;
    let b0 = a
        .spgemm(s, &AsSemiring, spgemm)
        .spgemm(a_t, &SubSemiring, spgemm);
    let swapped = b0.transpose().map(|_, _, v| v.swapped());
    let b = b0.elementwise_add(&swapped, |acc, v| acc.merge_symmetric(v));
    b.iter_local().map(|(i, j, v)| (i, j, *v)).collect()
}

fn run(fasta: &[u8], p: usize, limit: Option<u32>) -> Vec<RankView> {
    World::run(p, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let store = DistSeqStore::from_fasta(&comm, fasta);
        let space = (SIGMA as u64).pow(K as u32);
        let triples = build_a_triples(store.owned(), K, false);
        let mut a = DistMat::from_triples(Rc::clone(&grid), store.len(), space, triples, |a, b| {
            *a = (*a).min(b)
        });
        let held = match limit {
            Some(limit) => prune_frequent_kmers(&mut a, limit),
            None => held_kmers(&a),
        };
        let a_t = a.transpose();
        let table = ExpenseTable::new(&BLOSUM62);
        let kmers = distinct_kmers(store.owned(), K);
        let s_held = build_s_dist(&a, &held, &kmers, K, &table, M);
        let whole = build_s_triples(&kmers, K, &table, M);
        let s_whole = DistMat::from_triples(Rc::clone(&grid), space, space, whole, |a, b| {
            *a = (*a).min(b)
        });
        let (c0, _) = a.col_range();
        let s_whole_held = (s_whole.iter_local())
            .filter(|&(_, t, _)| held.binary_search(&((t - c0) as u32)).is_ok())
            .map(|(i, j, &v)| (i, j, v))
            .collect();
        RankView {
            nnz_a: a.nnz(),
            nnz_s_held: s_held.nnz(),
            nnz_s_whole: s_whole.nnz(),
            s_held: s_held.iter_local().map(|(i, j, &v)| (i, j, v)).collect(),
            s_whole_held,
            b_held: sym_b(&a, &a_t, &s_held),
            b_whole: sym_b(&a, &a_t, &s_whole),
        }
    })
}

#[test]
fn held_s_product_equals_whole_s_product() {
    for seed in [7, 26, 1400845388] {
        let fasta = write_fasta(&metaclust_like(
            20,
            &MetaclustConfig {
                seed,
                len_range: (40, 70),
                related_fraction: 0.5,
                mutation_rate: 0.1,
            },
        ));
        let unpruned_nnz_a = run(&fasta, 1, None)[0].nnz_a;
        for limit in [None, Some(2)] {
            for p in [1, 4, 9] {
                let ctx = format!("seed {seed}, p {p}, limit {limit:?}");
                let views = run(&fasta, p, limit);
                let v = &views[0];
                assert!(v.nnz_s_held < v.nnz_s_whole, "{ctx}: held S is not smaller");
                if limit.is_some() {
                    assert!(
                        v.nnz_a < unpruned_nnz_a,
                        "{ctx}: the pre-filter pruned nothing"
                    );
                }
                assert!(
                    views.iter().any(|v| !v.b_whole.is_empty()),
                    "{ctx}: B is empty"
                );
                for (r, v) in views.iter().enumerate() {
                    assert!(
                        v.s_held == v.s_whole_held,
                        "{ctx}: rank {r}'s block of S differs"
                    );
                    assert!(
                        v.b_held == v.b_whole,
                        "{ctx}: rank {r}'s block of B differs"
                    );
                }
            }
        }
    }
}
