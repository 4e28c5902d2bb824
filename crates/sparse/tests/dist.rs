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

#[test]
fn lazy_transpose_equals_the_eager_one() {
    // `transpose` keeps the row form it receives and forms the block by
    // columns on first read. Checked against `Aᵀ` formed from its own
    // triples, and the row form against the partner block's eager
    // `Dcsc::transpose`, after each operation that reads the block.
    let (m, n) = (14u64, 11u64);
    let a = random_triples(11, m, n, 60);
    let swapped: Vec<_> = a.iter().map(|&(r, c, v)| (c, r, v)).collect();
    let windows = [(0, m), (3, 9), (5, 5), (0, 1), (10, m), (12, 30)];
    for p in [1usize, 4, 9] {
        World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let share = |t: &[(u64, u64, f64)]| my_share(t, comm.rank(), p);
            let da = DistMat::from_triples(Rc::clone(&grid), m, n, share(&a), |x, y| *x += y);
            let eager =
                || DistMat::from_triples(Rc::clone(&grid), n, m, share(&swapped), |x, y| *x += y);
            let lazy = || da.transpose();
            let ctx = format!("p={p} rank={}", comm.rank());

            let (rows, cols) = lazy().by_rows();
            assert_eq!(cols, 0..rows.nrows() as u64, "{ctx}");
            assert_eq!(&rows.transpose(), eager().local(), "{ctx}: row form");
            assert_eq!(lazy().nnz_local(), eager().nnz_local(), "{ctx}");
            assert_eq!(lazy().local(), eager().local(), "{ctx}: as formed");
            for w in windows {
                let (l, e) = (lazy().restrict_cols(w), eager().restrict_cols(w));
                assert_eq!(l.nnz_local(), e.nnz_local(), "{ctx} window {w:?}: nnz");
                assert_eq!(l.local(), e.local(), "{ctx} window {w:?}");
                // A restriction of a formed block, and one of a restriction.
                let formed = lazy();
                formed.local();
                assert_eq!(
                    formed.restrict_cols(w).local(),
                    e.local(),
                    "{ctx} window {w:?}"
                );
                let inner = lazy().restrict_cols((2, 12)).restrict_cols(w);
                let want = eager().restrict_cols((2, 12)).restrict_cols(w);
                assert_eq!(inner.local(), want.local(), "{ctx} window (2, 12) ∩ {w:?}");
            }
            let f = |r: u64, c: u64, v: f64| v * 100.0 + (r * 16 + c) as f64;
            assert_eq!(lazy().map(f).local(), eager().map(f).local(), "{ctx}: map");
            let keep = |r: u64, c: u64, _: &f64| !(r + c).is_multiple_of(3);
            let (mut l, mut e) = (lazy(), eager());
            l.retain(keep);
            e.retain(keep);
            assert_eq!(l.local(), e.local(), "{ctx}: retain");
            for strat in [SpGemmStrategy::Hash, SpGemmStrategy::Hybrid] {
                let sr = &ArithmeticSemiring;
                let right = (
                    da.spgemm(&lazy(), sr, strat),
                    da.spgemm(&eager(), sr, strat),
                );
                assert_eq!(right.0.local(), right.1.local(), "{ctx}: A·Aᵀ {strat:?}");
                let left = (
                    lazy().spgemm(&da, sr, strat),
                    eager().spgemm(&da, sr, strat),
                );
                assert_eq!(left.0.local(), left.1.local(), "{ctx}: Aᵀ·A {strat:?}");
                let w = (2, 9);
                let narrow = (
                    da.spgemm(&lazy().restrict_cols(w), sr, strat),
                    da.spgemm(&eager().restrict_cols(w), sr, strat),
                );
                assert_eq!(narrow.0.local(), narrow.1.local(), "{ctx}: A·Aᵀ[{w:?}]");
            }
        });
    }
}

/// `from_source_shared` is `from_source` less one-triple columns: every
/// column of two triples or more is kept whole, and every dropped nonzero
/// is counted on its global row by the rank whose source yielded it. At
/// p = 1 the kept columns are exactly those of two nonzeros or more, even
/// with a table far too small (one word for 400 triples); on a grid a
/// collision in the table keeps a one-triple column now and then.
#[test]
fn from_source_shared_drops_only_one_triple_columns() {
    // Many one-triple columns, some columns shared by rows, and some
    // (row, col) pairs repeated, which fold into one nonzero but are two
    // triples.
    let all: Vec<(u64, u64, f64)> = random_triples(8, 20, 600, 400)
        .into_iter()
        .chain(random_triples(9, 20, 40, 60))
        .collect();
    let mut per_col = std::collections::BTreeMap::new();
    all.iter()
        .for_each(|t| *per_col.entry(t.1).or_insert(0) += 1);
    for (p, entries) in [(1usize, 1usize), (1, 400), (4, 1), (9, 1)] {
        let runs = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let mine = my_share(&all, comm.rank(), p);
            let whole =
                DistMat::from_triples(Rc::clone(&grid), 20, 600, mine.clone(), |a, b| *a += b);
            let source = || mine.iter().copied();
            let (shared, dropped) =
                DistMat::from_source_shared(Rc::clone(&grid), 20, 600, entries, source, |a, b| {
                    *a += b
                });
            assert_eq!(dropped.len(), 20, "one count per global row");
            (whole.gather_triples(0), shared.gather_triples(0), dropped)
        });
        let ctx = format!("p={p}, entries={entries}");
        let (whole, shared) = (runs[0].0.clone().unwrap(), runs[0].1.clone().unwrap());
        let kept: std::collections::BTreeSet<u64> = shared.iter().map(|t| t.1).collect();
        let mut lost = vec![0u32; 20];
        let mut nonzeros = std::collections::BTreeMap::new();
        whole
            .iter()
            .for_each(|t| *nonzeros.entry(t.1).or_insert(0) += 1);
        for t in &whole {
            match kept.contains(&t.1) {
                true => assert!(shared.contains(t), "{ctx}: {t:?} missing"),
                false => {
                    let single = per_col[&t.1] == 1 || p == 1 && nonzeros[&t.1] == 1;
                    assert!(single, "{ctx}: column {} dropped", t.1);
                    lost[t.0 as usize] += 1;
                }
            }
        }
        assert_eq!(
            shared.len() + lost.iter().sum::<u32>() as usize,
            whole.len(),
            "{ctx}"
        );
        let mut counted = vec![0u32; 20];
        for run in &runs {
            counted.iter_mut().zip(&run.2).for_each(|(n, d)| *n += d);
        }
        assert_eq!(counted, lost, "{ctx}: dropped per row");
        let once = per_col.values().filter(|&&n| n == 1).count();
        let kept_once = kept.iter().filter(|c| per_col[c] == 1).count();
        match p {
            1 => assert!(
                kept.iter().all(|c| nonzeros[c] > 1),
                "{ctx}: a column of one nonzero kept"
            ),
            _ => assert!(kept_once < once / 4, "{ctx}: kept {kept_once} of {once}"),
        }
    }
}

/// On a grid `from_source_shared` ships no triple before its column is
/// judged: a column id local to the owner's block (4 B) per triple to its
/// owner, a keep bit back, then the kept triples (24 B each). The
/// one-sequence table merged down each grid column costs 2 B per id, sent
/// `2(q − 1)` times by the allreduce of its `q` ranks. On mostly one-triple columns the total stays far below
/// the 24 B per triple of shipping every triple.
#[test]
fn from_source_shared_ships_only_the_kept_triples() {
    let (m, n) = (30u64, 1_000_000u64);
    let all: Vec<(u64, u64, f64)> = random_triples(21, m, n, 6_000)
        .into_iter()
        .chain(random_triples(22, m, 300, 600))
        .collect();
    let total = all.len() as u64;
    for p in [4usize, 9] {
        let q = (p as f64).sqrt() as u64;
        let runs = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let mine = my_share(&all, comm.rank(), p);
            let before = comm.stats();
            let source = || mine.iter().copied();
            let (_, dropped) =
                DistMat::from_source_shared(grid, m, n, mine.len(), source, |a, b| *a += b);
            let sent = comm.stats() - before;
            let dropped: u64 = dropped.iter().map(|&d| d as u64).sum();
            (sent.bytes_sent, sent.msgs_sent, dropped)
        });
        let bytes: u64 = runs.iter().map(|r| r.0).sum();
        let msgs: u64 = runs.iter().map(|r| r.1).sum();
        let kept = total - runs.iter().map(|r| r.2).sum::<u64>();
        assert!(kept < total / 4, "p={p}: {kept} of {total} triples kept");
        let bound = 4 * total + total / 8 + 24 * kept + 4 * (q - 1) * total + 64 * msgs;
        eprintln!(
            "p={p}: {bytes} B sent for {total} triples ({kept} kept), bound {bound}, \
             {:.1} B per triple",
            bytes as f64 / total as f64
        );
        assert!(bytes <= bound, "p={p}: {bytes} B sent > {bound}");
        assert!(
            bound < 24 * total,
            "p={p}: the bound {bound} admits shipping every triple"
        );
    }
}
