//! Property-based tests: local SpGEMM strategies agree with a dense
//! reference, DCSC round-trips, and distributed results are independent of
//! the grid size.

use proptest::prelude::*;
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
