//! The masked overlap product: `a.spgemm(&a.transpose(), ..)` under a
//! semiring that declares [`OutputMask::OwnedOffDiagonal`] must equal the
//! unmasked product filtered to the entries the mask keeps, entry for
//! entry and in fold order, on 1, 4 and 9 ranks — through column-restricted
//! windows, with an operand that has no row form, and on `A`s whose k-mer
//! columns hold one sequence each.

use std::rc::Rc;

use pcomm::{Grid, World};
use rand::prelude::*;
use sparse::{DistMat, OutputMask, Semiring, SpGemmStrategy};

/// Records every contribution `(A value, B value)` in the order `add`
/// folds it, so equal values prove an equal fold order, not just equal
/// sums.
struct Recorded<const MASKED: bool>;

impl<const MASKED: bool> Semiring for Recorded<MASKED> {
    type A = u32;
    type B = u32;
    type C = Vec<(u32, u32)>;

    const MASK: Option<OutputMask> = if MASKED {
        Some(OutputMask::OwnedOffDiagonal)
    } else {
        None
    };

    fn multiply(&self, a: &u32, b: &u32) -> Option<Vec<(u32, u32)>> {
        Some(vec![(*a, *b)])
    }

    fn add(&self, acc: &mut Vec<(u32, u32)>, contrib: Vec<(u32, u32)>) {
        acc.extend(contrib);
    }
}

type Entry = (u64, u64, Vec<(u32, u32)>);

/// A k-mer-like `n × kspace` matrix: `singletons` columns held by one
/// sequence each and `shared` columns held by 2–5, values distinct
/// positions.
fn hypersparse(
    seed: u64,
    n: u64,
    kspace: u64,
    singletons: usize,
    shared: usize,
) -> Vec<(u64, u64, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t: Vec<(u64, u64, u32)> = Vec::new();
    for _ in 0..singletons {
        t.push((rng.random_range(0..n), rng.random_range(0..kspace), 0));
    }
    for _ in 0..shared {
        let c = rng.random_range(0..kspace);
        for _ in 0..rng.random_range(2..6) {
            t.push((rng.random_range(0..n), c, 0));
        }
    }
    for (i, e) in t.iter_mut().enumerate() {
        e.2 = i as u32;
    }
    t
}

fn sorted(mut v: Vec<Entry>) -> Vec<Entry> {
    v.sort_by_key(|e| (e.0, e.1));
    v
}

/// Every rank's share of `all`, round-robin.
fn share<T: Clone>(all: &[T], rank: usize, p: usize) -> Vec<T> {
    all.iter().skip(rank).step_by(p).cloned().collect()
}

/// The reference: the unmasked product, with every entry the mask drops
/// removed on its own block, gathered.
fn reference(a: &DistMat<u32>, at: &DistMat<u32>) -> Vec<Entry> {
    let mut b = a.spgemm(at, &Recorded::<false>, SpGemmStrategy::Hybrid);
    let (r0, _) = b.row_range();
    let (c0, _) = b.col_range();
    let (myrow, mycol) = (b.grid().myrow(), b.grid().mycol());
    b.retain(|gi, gj, _| OutputMask::OwnedOffDiagonal.keeps(gi - r0, gj - c0, myrow, mycol));
    b.gather_triples(0).unwrap_or_default()
}

fn masked(a: &DistMat<u32>, at: &DistMat<u32>) -> Vec<Entry> {
    a.spgemm(at, &Recorded::<true>, SpGemmStrategy::Hybrid)
        .gather_triples(0)
        .unwrap_or_default()
}

/// Run every operand case on `p` ranks; returns root's
/// `(reference, [masked results])`.
fn cases(
    p: usize,
    n: u64,
    kspace: u64,
    triples: &[(u64, u64, u32)],
) -> (Vec<Entry>, Vec<Vec<Entry>>) {
    World::run(p, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let mine = share(triples, comm.rank(), p);
        let a = DistMat::from_triples(Rc::clone(&grid), n, kspace, mine, |x, y| *x = (*x).min(y));
        let at = a.transpose();
        let want = reference(&a, &at);
        let mut got = vec![masked(&a, &at)];
        // Column windows that tile B's columns, unevenly and with an
        // empty one, multiplied one at a time.
        let cuts = [0, 1, n / 3, n / 3, n - 2, n];
        let mut tiled = Vec::new();
        for w in cuts.windows(2) {
            tiled.extend(masked(&a, &at.restrict_cols((w[0], w[1]))));
        }
        got.push(tiled);
        // The same Aᵀ built from triples has no row form: its owner
        // transposes its block instead.
        let t_mine: Vec<(u64, u64, u32)> = share(triples, comm.rank(), p)
            .into_iter()
            .map(|(r, c, v)| (c, r, v))
            .collect();
        let plain =
            DistMat::from_triples(Rc::clone(&grid), kspace, n, t_mine, |x, y| *x = (*x).min(y));
        got.push(masked(&a, &plain));
        got.push(masked(&a, &plain.restrict_cols((n / 2, n))));
        (want, got)
    })
    .swap_remove(0)
}

#[test]
fn masked_product_equals_filtered_unmasked_product() {
    let kspace = 24u64.pow(6);
    for seed in [1u64, 26, 1400845388] {
        let n = 20 + seed % 17;
        let triples = hypersparse(seed, n, kspace, 300, 60);
        for p in [1usize, 4, 9] {
            let (want, got) = cases(p, n, kspace, &triples);
            let want = sorted(want);
            assert!(
                want.iter().any(|e| e.2.len() > 1),
                "seed {seed}: some pair must fold several contributions"
            );
            let [whole, tiled, fallback, fallback_half] = got.try_into().expect("four cases");
            assert_eq!(sorted(whole), want, "seed {seed} p={p}: whole width");
            assert_eq!(sorted(tiled), want, "seed {seed} p={p}: tiled windows");
            assert_eq!(sorted(fallback), want, "seed {seed} p={p}: no row form");
            let half: Vec<Entry> = want.iter().filter(|e| e.1 >= n / 2).cloned().collect();
            assert_eq!(
                sorted(fallback_half),
                half,
                "seed {seed} p={p}: restricted, no row form"
            );
        }
    }
}

#[test]
fn singleton_columns_form_no_entry() {
    // Every k-mer held by one sequence: the unmasked product is the
    // diagonal alone, and the masked one is empty.
    let (n, kspace) = (30u64, 24u64.pow(5));
    let mut rng = StdRng::seed_from_u64(9);
    let triples: Vec<(u64, u64, u32)> = (0..200u32)
        .map(|i| (rng.random_range(0..n), u64::from(i) * 7919, i))
        .collect();
    for p in [1usize, 4, 9] {
        let (want, got) = cases(p, n, kspace, &triples);
        assert!(
            want.is_empty(),
            "p={p}: reference kept {} entries",
            want.len()
        );
        for (k, g) in got.iter().enumerate() {
            assert!(
                g.is_empty(),
                "p={p} case {k}: masked product formed {} entries",
                g.len()
            );
        }
    }
}
