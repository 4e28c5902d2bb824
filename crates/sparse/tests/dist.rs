//! Distributed matrix integration tests: construction, SUMMA SpGEMM,
//! transpose and symmetrization, across several grid sizes.

use std::rc::Rc;

use pcomm::{Grid, World};
use sparse::{ArithmeticSemiring, DistMat, SpGemmStrategy};

/// Dense reference multiply of triple lists.
#[allow(clippy::needless_range_loop)]
fn dense_mul(
    m: usize,
    k: usize,
    n: usize,
    a: &[(u64, u64, f64)],
    b: &[(u64, u64, f64)],
) -> Vec<(u64, u64, f64)> {
    let mut da = vec![vec![0.0; k]; m];
    for &(r, c, v) in a {
        da[r as usize][c as usize] += v;
    }
    let mut db = vec![vec![0.0; n]; k];
    for &(r, c, v) in b {
        db[r as usize][c as usize] += v;
    }
    let mut out = Vec::new();
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for t in 0..k {
                s += da[i][t] * db[t][j];
            }
            if s != 0.0 {
                out.push((i as u64, j as u64, s));
            }
        }
    }
    out.sort_by(|x, y| x.partial_cmp(y).unwrap());
    out
}

fn random_triples(seed: u64, m: u64, n: u64, nnz: usize) -> Vec<(u64, u64, f64)> {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..nnz)
        .map(|_| {
            (
                rng.random_range(0..m),
                rng.random_range(0..n),
                rng.random_range(1..9) as f64,
            )
        })
        .collect()
}

/// Scatter triples round-robin over ranks to exercise the shuffle.
fn my_share<T: Clone>(all: &[T], rank: usize, p: usize) -> Vec<T> {
    all.iter()
        .enumerate()
        .filter(|(i, _)| i % p == rank)
        .map(|(_, t)| t.clone())
        .collect()
}

#[test]
fn from_triples_and_gather_roundtrip() {
    let all = random_triples(1, 20, 30, 60);
    for p in [1usize, 4, 9] {
        let want = {
            let mut t = all.clone();
            t.sort_by(|x, y| x.partial_cmp(y).unwrap());
            // combine duplicates
            let mut out: Vec<(u64, u64, f64)> = Vec::new();
            for (r, c, v) in t {
                match out.last_mut() {
                    Some(l) if l.0 == r && l.1 == c => l.2 += v,
                    _ => out.push((r, c, v)),
                }
            }
            out
        };
        let results = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let mine = my_share(&all, comm.rank(), p);
            let m = DistMat::from_triples(Rc::clone(&grid), 20, 30, mine, |a, b| *a += b);
            assert_eq!(m.nnz(), want.len() as u64);
            m.gather_triples(0)
        });
        let mut got = results[0].clone().unwrap();
        got.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(got, want, "p={p}");
    }
}

#[test]
fn summa_matches_dense_all_grids() {
    let (m, k, n) = (17u64, 23u64, 13u64);
    let a = random_triples(2, m, k, 80);
    let b = random_triples(3, k, n, 70);
    let want = dense_mul(m as usize, k as usize, n as usize, &a, &b);
    for p in [1usize, 4, 9, 16] {
        for strat in [
            SpGemmStrategy::Hash,
            SpGemmStrategy::Heap,
            SpGemmStrategy::Hybrid,
        ] {
            let results = World::run(p, |comm| {
                let grid = Rc::new(Grid::new(&comm));
                let da = DistMat::from_triples(
                    Rc::clone(&grid),
                    m,
                    k,
                    my_share(&a, comm.rank(), p),
                    |x, y| *x += y,
                );
                let db = DistMat::from_triples(
                    Rc::clone(&grid),
                    k,
                    n,
                    my_share(&b, comm.rank(), p),
                    |x, y| *x += y,
                );
                let c = da.spgemm(&db, &ArithmeticSemiring, strat);
                assert_eq!(c.nrows(), m);
                assert_eq!(c.ncols(), n);
                c.gather_triples(0)
            });
            let mut got = results[0].clone().unwrap();
            got.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(got, want, "p={p} strat={strat:?}");
        }
    }
}

#[test]
fn results_independent_of_grid_size() {
    // The paper stresses PASTIS output is oblivious to process count (§V);
    // the SUMMA fold order makes that hold bit-for-bit.
    let a = random_triples(5, 30, 30, 150);
    let reference = World::run(1, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let da = DistMat::from_triples(Rc::clone(&grid), 30, 30, a.clone(), |x, y| *x += y);
        let c = da.spgemm(&da.transpose(), &ArithmeticSemiring, SpGemmStrategy::Hybrid);
        c.gather_triples(0).unwrap()
    })
    .pop()
    .unwrap();
    for p in [4usize, 9] {
        let got = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let da = DistMat::from_triples(
                Rc::clone(&grid),
                30,
                30,
                my_share(&a, comm.rank(), p),
                |x, y| *x += y,
            );
            let c = da.spgemm(&da.transpose(), &ArithmeticSemiring, SpGemmStrategy::Hybrid);
            c.gather_triples(0)
        })
        .remove(0)
        .unwrap();
        let mut g = got;
        g.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let mut r = reference.clone();
        r.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(g, r, "p={p}");
    }
}

#[test]
fn transpose_roundtrip_distributed() {
    let a = random_triples(7, 14, 9, 40);
    for p in [1usize, 4, 9] {
        let got = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let da = DistMat::from_triples(
                Rc::clone(&grid),
                14,
                9,
                my_share(&a, comm.rank(), p),
                |x, y| *x += y,
            );
            let t = da.transpose();
            assert_eq!((t.nrows(), t.ncols()), (9, 14));
            let tt = t.transpose();
            tt.gather_triples(0)
        })
        .remove(0)
        .unwrap();
        let want = World::run(1, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            DistMat::from_triples(grid, 14, 9, a.clone(), |x, y| *x += y).gather_triples(0)
        })
        .remove(0)
        .unwrap();
        let mut g = got;
        g.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let mut w = want;
        w.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(g, w, "p={p}");
    }
}

#[test]
fn add_transpose_symmetrizes() {
    // Strictly upper-triangular matrix + its transpose = symmetric matrix.
    let tri: Vec<(u64, u64, f64)> = vec![(0, 3, 1.0), (1, 2, 2.0), (0, 1, 3.0), (2, 2, 9.0)];
    for p in [1usize, 4] {
        let got = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let m = DistMat::from_triples(
                Rc::clone(&grid),
                4,
                4,
                my_share(&tri, comm.rank(), p),
                |x, y| *x += y,
            );
            let s = m.elementwise_add(&m.transpose(), |a, b| *a += b);
            s.gather_triples(0)
        })
        .remove(0)
        .unwrap();
        let mut g = got;
        g.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(
            g,
            vec![
                (0, 1, 3.0),
                (0, 3, 1.0),
                (1, 0, 3.0),
                (1, 2, 2.0),
                (2, 1, 2.0),
                (2, 2, 18.0), // diagonal combines with itself
                (3, 0, 1.0),
            ],
            "p={p}"
        );
    }
}

#[test]
fn retain_and_map_use_global_indices() {
    let tri: Vec<(u64, u64, f64)> = (0..10).map(|i| (i, i, i as f64)).collect();
    let got = World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let mut m = DistMat::from_triples(
            Rc::clone(&grid),
            10,
            10,
            my_share(&tri, comm.rank(), 4),
            |x, y| *x += y,
        );
        m.retain(|r, _, _| r >= 5);
        let m = m.map(|r, c, v| (r + c) as f64 + v);
        m.gather_triples(0)
    })
    .remove(0)
    .unwrap();
    let mut g = got;
    g.sort_by(|x, y| x.partial_cmp(y).unwrap());
    assert_eq!(
        g,
        (5u64..10)
            .map(|i| (i, i, 3.0 * i as f64))
            .collect::<Vec<_>>()
    );
}

#[test]
fn hypersparse_kmer_sized_columns() {
    // Column space like a k=6 protein k-mer space (24^6 ≈ 1.9e8): DCSC keeps
    // this cheap even though almost all columns are empty.
    let ncols = 24u64.pow(6);
    let tri: Vec<(u64, u64, f64)> = (0..50)
        .map(|i| (i % 10, (i * 7_919_113) % ncols, 1.0))
        .collect();
    let got = World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let m = DistMat::from_triples(
            Rc::clone(&grid),
            10,
            ncols,
            my_share(&tri, comm.rank(), 4),
            |x, y| *x += y,
        );
        // B = A·Aᵀ counts shared "k-mers" per row pair.
        let b = m.spgemm(&m.transpose(), &ArithmeticSemiring, SpGemmStrategy::Hybrid);
        (m.nnz(), b.nnz())
    })
    .remove(0);
    assert!(got.0 == 50);
    assert!(got.1 >= 10, "diagonal must be present");
}
