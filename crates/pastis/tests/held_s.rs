//! `S` over the k-mers `A` holds (DESIGN.md §4): `build_s_dist` keeps
//! `S(K, t)` only where some sequence holds `t`, because `(A·S)·Aᵀ` reads
//! `A·S`'s column `t` only against row `t` of `Aᵀ`. The symmetrised
//! product must therefore equal, entry by entry on every rank, the one
//! built from the whole `S` — the public `build_s_triples` +
//! `DistMat::from_triples`, as the frozen replay builds it — at every
//! grid size, with and without the k-mer frequency pre-filter, while the
//! held `S` is strictly smaller and equal to the whole `S` restricted to
//! the held columns.
//!
//! The same runs check the symmetrised product the pipeline never forms
//! whole. `elementwise_add(B0, swap(B0ᵀ), merge_symmetric)` stores `(i, j)`
//! and `(j, i)` together and with one count, but not with mirrored seeds:
//! the merge keeps its first operand's seeds. So the pipeline aligns each
//! pair with the seeds of its `i < j` entry, swapped where it holds the
//! pair as `(j, i)`. With `B` so oriented, `B(j, i) == B(i, j).swapped()`
//! for every stored entry; each rank's owned off-diagonal entries of `B`
//! are the two masked halves `(A·S)·Aᵀ` and `A·(A·S)ᵀ` merged; and
//! `nnz(B)` is twice the owned entries plus one diagonal entry per
//! sequence whose row of `A` is non-empty, which is the `nnz_b` the
//! pipeline reports.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use align::BLOSUM62;
use datagen::{metaclust_like, MetaclustConfig};
use pastis::{
    build_a_triples, build_s_dist, distinct_kmers, held_kmers, prune_frequent_kmers, run_pipeline,
    AsSemiring, ExactSemiring, PastisParams, SeedPair, SubSemiring,
};
use pcomm::{Grid, World};
use seqstore::{write_fasta, DistSeqStore, SIGMA};
use sparse::{DistMat, Semiring};
use subkmer::{build_s_triples, ExpenseTable};

const K: usize = 4;
const M: usize = 8;

type Entries = Vec<(u64, u64, SeedPair)>;

/// One rank's view of a run: global nnz of `A`, of the held `S` and of
/// the whole `S`, this rank's block of the held `S` and of the whole `S`
/// restricted to the held columns, its blocks of the two symmetrised
/// products, the owned off-diagonal entries of the first, the two masked
/// halves merged, the rows its block of `A` holds, and the pipeline's
/// `nnz_b` on the same input.
struct RankView {
    nnz_a: u64,
    nnz_s_held: u64,
    nnz_s_whole: u64,
    s_held: Vec<(u64, u64, u32)>,
    s_whole_held: Vec<(u64, u64, u32)>,
    b_held: Entries,
    b_whole: Entries,
    owned: Entries,
    halves: Entries,
    a_rows: BTreeSet<u64>,
    pipeline_nnz_b: u64,
}

fn entries(b: &DistMat<SeedPair>) -> Entries {
    b.iter_local().map(|(i, j, v)| (i, j, *v)).collect()
}

fn sym_b(a: &DistMat<u32>, a_t: &DistMat<u32>, s: &DistMat<u32>) -> DistMat<SeedPair> {
    let spgemm = PastisParams::default().spgemm;
    let b0 = a
        .spgemm(s, &AsSemiring, spgemm)
        .spgemm(a_t, &SubSemiring, spgemm);
    let swapped = b0.transpose().map(|_, _, v| v.swapped());
    b0.elementwise_add(&swapped, |acc, v| acc.merge_symmetric(v))
}

/// The pipeline's form of `sym_b`: only the owned off-diagonal entries,
/// as the masked `(A·S)·Aᵀ` and the masked `A·(A·S)ᵀ` merged, the mirror
/// first below the grid diagonal. Both multiply `A·S`'s positions under
/// [`ExactSemiring`], whose multiply is `SubSemiring`'s on a position.
fn masked_halves(a: &DistMat<u32>, a_t: &DistMat<u32>, s: &DistMat<u32>) -> Entries {
    let spgemm = PastisParams::default().spgemm;
    let a_s = a.spgemm(s, &AsSemiring, spgemm).map(|_, _, v| v.pos);
    let half = a_s.spgemm(a_t, &ExactSemiring, spgemm);
    let mirror = a.spgemm(&a_s.transpose(), &ExactSemiring, spgemm);
    let (first, then) = if a.grid().myrow() > a.grid().mycol() {
        (mirror, half)
    } else {
        (half, mirror)
    };
    entries(&first.elementwise_add(&then, |acc, v| acc.merge_symmetric(v)))
}

/// The entries of `b` this rank owns under the exact product's mask.
fn owned(b: &DistMat<SeedPair>) -> Entries {
    let mask = ExactSemiring::MASK.expect("the exact product is masked");
    let grid = b.grid();
    let (r0, c0) = (b.row_range().0, b.col_range().0);
    let keeps = |i: u64, j: u64| mask.keeps(i - r0, j - c0, grid.myrow(), grid.mycol());
    entries(b)
        .into_iter()
        .filter(|&(i, j, _)| keeps(i, j))
        .collect()
}

fn run(fasta: &[u8], p: usize, limit: Option<u32>) -> Vec<RankView> {
    let params = PastisParams {
        k: K,
        substitutes: M,
        max_kmer_frequency: limit,
        mode: pastis::AlignMode::None,
        ..Default::default()
    };
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
        let b_held = sym_b(&a, &a_t, &s_held);
        RankView {
            nnz_a: a.nnz(),
            nnz_s_held: s_held.nnz(),
            nnz_s_whole: s_whole.nnz(),
            s_held: s_held.iter_local().map(|(i, j, &v)| (i, j, v)).collect(),
            s_whole_held,
            b_whole: entries(&sym_b(&a, &a_t, &s_whole)),
            owned: owned(&b_held),
            halves: masked_halves(&a, &a_t, &s_held),
            b_held: entries(&b_held),
            a_rows: a.iter_local().map(|(i, _, _)| i).collect(),
            pipeline_nnz_b: run_pipeline(&comm, fasta, &params).counters.nnz_b,
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
                let sym: BTreeMap<(u64, u64), SeedPair> = (views.iter())
                    .flat_map(|v| v.b_held.iter().map(|&(i, j, x)| ((i, j), x)))
                    .collect();
                for (&(i, j), x) in &sym {
                    assert_eq!(
                        sym.get(&(j, i)).map(|y| y.count),
                        Some(x.count),
                        "{ctx}: B({j},{i}) is not stored with B({i},{j})'s count"
                    );
                }
                // `B`: the upper triangle of `sym`, mirrored below.
                let b: BTreeMap<(u64, u64), SeedPair> = (sym.iter())
                    .map(|(&(i, j), &x)| {
                        let x = if i > j { sym[&(j, i)].swapped() } else { x };
                        ((i, j), x)
                    })
                    .collect();
                // Above the diagonal this holds by construction; on it, it
                // says each sequence's seeds against itself are mirrored.
                for (&(i, j), x) in &b {
                    assert_eq!(
                        b[&(j, i)],
                        x.swapped(),
                        "{ctx}: B({j},{i}) is not B({i},{j}) swapped"
                    );
                }
                for (r, v) in views.iter().enumerate() {
                    let owned: Entries = (v.owned.iter())
                        .map(|&(i, j, _)| (i, j, b[&(i, j)]))
                        .collect();
                    assert!(
                        v.halves == owned,
                        "{ctx}: rank {r}'s merged masked halves differ from its owned B"
                    );
                }
                let owned: usize = views.iter().map(|v| v.owned.len()).sum();
                let rows: BTreeSet<u64> = views.iter().flat_map(|v| v.a_rows.clone()).collect();
                assert_eq!(
                    b.len(),
                    2 * owned + rows.len(),
                    "{ctx}: nnz(B) is not 2 × owned + non-empty rows of A"
                );
                for (r, v) in views.iter().enumerate() {
                    assert_eq!(
                        v.pipeline_nnz_b,
                        b.len() as u64,
                        "{ctx}: rank {r}'s pipeline nnz_b"
                    );
                }
            }
        }
    }
}
