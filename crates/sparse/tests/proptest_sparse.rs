//! Property-based tests: local SpGEMM strategies agree with a dense
//! reference, DCSC round-trips, and distributed results are independent of
//! the grid size. The radix construction, the transpose and the column
//! restriction each agree with a stable comparison sort or a filter, on
//! key spaces up to `24^13` columns and `2^32` rows.

use proptest::prelude::*;
use proptest::strategy::Just;
use sparse::{local_spgemm, ArithmeticSemiring, Dcsc, SpGemmStrategy};

fn triples_strategy(
    max_rows: usize,
    max_cols: u64,
    max_nnz: usize,
) -> impl Strategy<Value = (usize, u64, Vec<(u32, u64, f64)>)> {
    (1..max_rows, 1..max_cols).prop_flat_map(move |(m, n)| {
        let t = proptest::collection::vec(
            (0..m as u32, 0..n, 1..6i32).prop_map(|(r, c, v)| (r, c, v as f64)),
            0..max_nnz,
        );
        t.prop_map(move |t| (m, n, t))
    })
}

fn dense_mul(a: &Dcsc<f64>, b: &Dcsc<f64>) -> Vec<(u32, u64, f64)> {
    let mut acc = std::collections::BTreeMap::new();
    for (t, j, &bv) in b.iter() {
        if let Some((arows, avals)) = a.col(t as u64) {
            for (&r, &av) in arows.iter().zip(avals) {
                *acc.entry((j, r)).or_insert(0.0) += av * bv;
            }
        }
    }
    acc.into_iter()
        .filter(|&(_, v)| v != 0.0)
        .map(|((j, r), v)| (r, j, v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spgemm_strategies_match_dense(
        (m, k, at) in triples_strategy(30, 30, 120),
        bt in proptest::collection::vec((0u32..30, 0u64..25, 1..6i32), 0..120),
    ) {
        let a = Dcsc::from_triples(m, k, at, |x, y| *x += y);
        let bt: Vec<(u32, u64, f64)> = bt
            .into_iter()
            .filter(|&(r, _, _)| (r as u64) < k)
            .map(|(r, c, v)| (r, c, v as f64))
            .collect();
        let b = Dcsc::from_triples(k as usize, 25, bt, |x, y| *x += y);
        let want = dense_mul(&a, &b);
        for s in [SpGemmStrategy::Hash, SpGemmStrategy::Heap, SpGemmStrategy::Hybrid] {
            let got = local_spgemm(&a, &b, &ArithmeticSemiring, s);
            prop_assert_eq!(&got, &want, "strategy {:?}", s);
        }
    }

    #[test]
    fn dcsc_triples_roundtrip((m, n, t) in triples_strategy(40, 60, 150)) {
        let a = Dcsc::from_triples(m, n, t, |x, y| *x += y);
        let triples = a.iter().map(|(r, c, &v)| (r, c, v)).collect();
        let back = Dcsc::from_triples(m, n, triples, |_, _| unreachable!());
        prop_assert_eq!(a, back);
    }

    #[test]
    fn dcsc_retain_keeps_subset((m, n, t) in triples_strategy(40, 60, 150)) {
        let a = Dcsc::from_triples(m, n, t, |x, y| *x += y);
        let before: std::collections::BTreeMap<(u32, u64), f64> =
            a.iter().map(|(r, c, &v)| ((r, c), v)).collect();
        let mut kept = a.clone();
        kept.retain(|r, _, _| r % 2 == 0);
        for (r, c, &v) in kept.iter() {
            prop_assert_eq!(r % 2, 0);
            prop_assert_eq!(before.get(&(r, c)), Some(&v));
        }
        let dropped = a.iter().filter(|&(r, _, _)| r % 2 != 0).count();
        prop_assert_eq!(kept.nnz() + dropped, a.nnz());
    }

    #[test]
    fn dcsc_iter_sorted_column_major((m, n, t) in triples_strategy(40, 60, 150)) {
        let a = Dcsc::from_triples(m, n, t, |x, y| *x += y);
        let coords: Vec<(u64, u32)> = a.iter().map(|(r, c, _)| (c, r)).collect();
        prop_assert!(coords.windows(2).all(|w| w[0] < w[1]));
    }
}

/// Dimensions from one-digit blocks up to the widest keys a block can have:
/// `2^32` rows and the `24^13` k-mer column space (or all of `u64`).
fn wide_dims() -> impl Strategy<Value = (usize, u64)> {
    const ROWS: [usize; 5] = [1, 7, 300, 70_000, u32::MAX as usize + 1];
    const COLS: [u64; 6] = [1, 25, 1 << 17, 24u64.pow(6), 24u64.pow(13), u64::MAX];
    (0..ROWS.len(), 0..COLS.len()).prop_map(|(i, j)| (ROWS[i], COLS[j]))
}

/// `(row, col, value)` triples with `u64` values.
type Triples = Vec<(u32, u64, u64)>;

/// Triples inside `m × n`; about half are folded onto a few coordinates
/// so duplicates are common.
fn wide_triples(m: usize, n: u64, max_nnz: usize) -> impl Strategy<Value = Triples> {
    proptest::collection::vec(
        (0..m as u64, 0..n, 0..u64::MAX, 0..2u8).prop_map(move |(r, c, v, dup)| {
            if dup == 1 {
                ((r % m.min(3) as u64) as u32, c % n.min(4), v)
            } else {
                (r as u32, c, v)
            }
        }),
        0..max_nnz,
    )
}

/// `(dims, triples)` inside the drawn dimensions.
fn wide_matrix(
    dims: impl Strategy<Value = (usize, u64)>,
    max_nnz: usize,
) -> impl Strategy<Value = ((usize, u64), Triples)> {
    dims.prop_flat_map(move |(m, n)| (Just((m, n)), wide_triples(m, n, max_nnz)))
}

/// An order-sensitive fold: equal to a stable sort's only if duplicates
/// are combined in input order.
fn fold(acc: &mut u64, v: u64) {
    *acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
}

/// The construction's contract, by a stable comparison sort on `(col, row)`
/// and a fold of consecutive equal keys.
fn stable_sort_reference(triples: &[(u32, u64, u64)]) -> Triples {
    let mut t = triples.to_vec();
    t.sort_by_key(|&(r, c, _)| (c, r));
    let mut out: Triples = Vec::new();
    for (r, c, v) in t {
        match out.last_mut() {
            Some(last) if (last.0, last.1) == (r, c) => fold(&mut last.2, v),
            _ => out.push((r, c, v)),
        }
    }
    out
}

fn entries(a: &Dcsc<u64>) -> Triples {
    a.iter().map(|(r, c, &v)| (r, c, v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn radix_construction_equals_a_stable_sort(
        ((m, n), t) in wide_matrix(wide_dims(), 200),
    ) {
        let want = stable_sort_reference(&t);
        let a = Dcsc::from_triples(m, n, t.clone(), fold);
        prop_assert_eq!(entries(&a), want);
        prop_assert_eq!((a.nrows(), a.ncols()), (m, n));
        // The same triples with ascending rows take the column-only path.
        let mut by_row = t;
        by_row.sort_by_key(|&(r, _, _)| r);
        let want = stable_sort_reference(&by_row);
        prop_assert_eq!(entries(&Dcsc::from_triples(m, n, by_row, fold)), want);
    }

    #[test]
    fn kmer_column_space_of_24_pow_13_sorts(
        t in wide_triples(1 << 20, 24u64.pow(13), 300),
    ) {
        let want = stable_sort_reference(&t);
        prop_assert_eq!(entries(&Dcsc::from_triples(1 << 20, 24u64.pow(13), t, fold)), want);
    }

    #[test]
    fn transpose_equals_construction_from_swapped_triples(
        ((m, n), t) in wide_matrix(
            // A-shaped (sequences × k-mers), Aᵀ-shaped (k-mers × sequences),
            // 2^32 wide, and small square blocks.
            (0..4usize).prop_map(|i| {
                [(3500, 24u64.pow(6)), (24usize.pow(6), 3500), (70_000, 1 << 32), (40, 60)][i]
            }),
            200,
        ),
    ) {
        let a = Dcsc::from_triples(m, n, t, fold);
        let swapped = a.iter().map(|(r, c, &v)| (c as u32, r as u64, v)).collect();
        let want = Dcsc::from_triples(n as usize, m as u64, swapped, |_, _| unreachable!());
        let at = a.transpose();
        prop_assert_eq!(&at, &want);
        prop_assert_eq!(at.transpose(), a);
    }

    #[test]
    fn restrict_cols_equals_a_filter(
        ((m, n), t, lo, hi) in wide_dims().prop_flat_map(|(m, n)| {
            // Ranges inside `0..=n`: empty, reversed or spanning the block.
            (Just((m, n)), wide_triples(m, n, 150), 0..n, 0..n).prop_map(|(d, t, lo, hi)| (d, t, lo, hi + 1))
        }),
    ) {
        let a = Dcsc::from_triples(m, n, t, fold);
        let kept: Vec<_> = entries(&a).into_iter().filter(|&(_, c, _)| lo <= c && c < hi).collect();
        let want = Dcsc::from_triples(m, n, kept, |_, _| unreachable!());
        prop_assert_eq!(a.restrict_cols(lo..hi), want);
    }
}
