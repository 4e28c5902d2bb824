//! Local (on-node) sparse matrix × sparse matrix multiply over a semiring.
//!
//! Implements the two accumulation strategies CombBLAS mixes for its local
//! multiplies — hash-based scatter/gather and heap-based k-way merging — and
//! a per-column hybrid that picks between them by estimated column work
//! (Nagasaka et al. 2019, cited as the local SpGEMM of the paper §II-A).
//! A semiring that declares an output mask takes a third kernel instead,
//! [`masked_outer_spgemm`]: an outer product over the inner indices both
//! operands hold (Buluç & Gilbert 2008's HyperSparseGEMM), restricted to
//! the kept entries.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::accum::HashAccumulator;
use crate::dcsc::Dcsc;
use crate::semiring::Semiring;

/// Accumulation strategy for one SpGEMM invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpGemmStrategy {
    /// Hash accumulator per output column.
    Hash,
    /// K-way merge of contributing columns with a binary heap.
    Heap,
    /// Per-column choice by estimated work (CombBLAS-style).
    Hybrid,
}

/// Multiply `a` (m×k) by `b` (k×n) over semiring `sr`, returning output
/// triples with local indices, sorted column-major. Contributions folding
/// into the same output entry are combined in ascending inner index `t`
/// order on every strategy, so results are bit-identical across strategies
/// and process counts.
pub fn local_spgemm<SR: Semiring>(
    a: &Dcsc<SR::A>,
    b: &Dcsc<SR::B>,
    sr: &SR,
    strategy: SpGemmStrategy,
) -> Vec<(u32, u64, SR::C)> {
    assert_eq!(a.ncols(), b.nrows() as u64, "inner dimension mismatch");
    let mut out: Vec<(u32, u64, SR::C)> = Vec::new();
    let mut hash_acc: HashAccumulator<SR::C> = HashAccumulator::with_capacity(64);
    let mut pairs: Vec<(u32, SR::C)> = Vec::new();
    // Every nonzero of `b` probes `a`'s column directory once; the bucket
    // index answers in O(1) where a binary search of `jc` pays a cache
    // miss per level.
    let directory = ColDirectory::new(a.cols());
    let mut lists: Vec<ColList<'_, SR>> = Vec::new();

    for bj in 0..b.nzc() {
        let jcol = b.cols()[bj];
        let (brows, bvals) = b.col_by_index(bj);
        // Gather the contributing A columns (those whose id matches a
        // nonzero row of B's column) and the column's flop estimate.
        lists.clear();
        let mut flops = 0usize;
        for (&t, bv) in brows.iter().zip(bvals.iter()) {
            if let Some(ai) = directory.find(t as u64) {
                let (arows, avals) = a.col_by_index(ai);
                flops += arows.len();
                lists.push((arows, avals, bv));
            }
        }
        if lists.is_empty() {
            continue;
        }
        // Work accounting: one semiring multiply-accumulate per flop.
        pcomm::work::record_class(flops as u64, pcomm::work::CostClass::SpgemmFlop);
        obs::hist!("spgemm.col_flops", flops);
        let use_hash = match strategy {
            SpGemmStrategy::Hash => true,
            SpGemmStrategy::Heap => false,
            // Few or tiny lists merge cheaper than they hash; dense columns
            // favour O(1) scatter.
            SpGemmStrategy::Hybrid => lists.len() > 2 && flops > 16,
        };
        if use_hash {
            // The column produces at most `flops` distinct rows; size the
            // table for them up front so the accumulate loop never rehashes.
            hash_acc.reserve(flops);
            for (arows, avals, bv) in &lists {
                for (&r, av) in arows.iter().zip(avals.iter()) {
                    if let Some(c) = sr.multiply(av, bv) {
                        hash_acc.upsert(r, c, |acc, v| sr.add(acc, v));
                    }
                }
            }
            // Estimate vs. realized occupancy of the sized accumulator.
            obs::hist!("spgemm.accum_est", flops);
            obs::hist!("spgemm.accum_occ", hash_acc.len());
            pairs.clear();
            hash_acc.drain_sorted(&mut pairs);
            out.extend(pairs.drain(..).map(|(r, v)| (r, jcol, v)));
        } else {
            merge_heap(&lists, sr, jcol, &mut out);
        }
    }
    // The table only ever grows, so its final capacity is this multiply's
    // accumulator high-water mark.
    obs::alloc::probe("mem.watermark.sparse.accum", &hash_acc);
    out
}

/// The masked product `C = A·B` as an outer product over shared inner
/// indices. `b_rows` is `B` by rows — the DCSC of `Bᵀ`, whose columns are
/// `B`'s rows (the inner index) and whose rows are `B`'s columns — and
/// only `B`'s columns `b_cols` take part. Output column `j` keeps the rows
/// `i < row_end(j)`; `row_end` must not decrease as `j` grows.
///
/// The ids of `a`'s columns and `b_rows`' columns are merge-joined, so no
/// inner index that only one operand holds is ever looked up, and no
/// dropped entry is ever formed. Two passes: count the kept contributions
/// of each output column, then scatter them, in ascending inner index,
/// into exact-size column slots. A slot is 12 bytes, `(i, k, l)`: the row
/// and the positions of `A(i,t)` and `B(t,j)` in their operands' value
/// arrays, so no product is formed before the fold. Each column is then
/// sorted stably by row, its distinct rows counted to size the output
/// exactly, and folded: `sr.multiply` of a slot's two values, then
/// `sr.add` into its row's entry. Every entry folds in ascending inner
/// index as in [`local_spgemm`], and the output has its layout:
/// column-major sorted triples with local indices.
pub(crate) fn masked_outer_spgemm<SR: Semiring>(
    a: &Dcsc<SR::A>,
    b_rows: &Dcsc<SR::B>,
    b_cols: Range<u64>,
    row_end: impl Fn(u64) -> u64,
    sr: &SR,
) -> Vec<(u32, u64, SR::C)> {
    assert_eq!(a.ncols(), b_rows.ncols(), "inner dimension mismatch");
    assert!(
        u32::try_from(a.nnz()).is_ok() && u32::try_from(b_rows.nnz()).is_ok(),
        "a masked product indexes each operand's entries by u32"
    );
    let width = b_cols.end.saturating_sub(b_cols.start) as usize;
    // Pass 1: kept contributions per output column.
    let mut starts = vec![0usize; width + 1];
    for_each_kept(a, b_rows, &b_cols, &row_end, |arows, _, j, _| {
        starts[(j - b_cols.start) as usize + 1] += arows.len();
    });
    for c in 1..=width {
        starts[c] += starts[c - 1];
    }
    let total = starts[width];
    // Work accounting: the merge-join walks both id lists, and each flop
    // is one semiring multiply-accumulate.
    pcomm::work::record_class(
        (a.nzc() + b_rows.nzc()) as u64,
        pcomm::work::CostClass::SpgemmJoin,
    );
    pcomm::work::record_class(total as u64, pcomm::work::CostClass::SpgemmFlop);

    // Pass 2: scatter `(i, k, l)`, with `A(i,t)` the k-th value of `a` and
    // `B(t,j)` the l-th of `b_rows`, into column `j`'s slots.
    let mut slots: Vec<(u32, u32, u32)> = Vec::with_capacity(total);
    let spare = &mut slots.spare_capacity_mut()[..total];
    let mut next = starts[..width].to_vec();
    for_each_kept(a, b_rows, &b_cols, &row_end, |arows, a_at, j, l| {
        let at = &mut next[(j - b_cols.start) as usize];
        for (slot, (&i, k)) in spare[*at..].iter_mut().zip(arows.iter().zip(a_at..)) {
            slot.write((i, k, l));
        }
        *at += arows.len();
    });
    // Each column must have ended exactly where the next one starts: then
    // its slots were written once each, and none overflowed into the next.
    assert!(
        next[..] == starts[1..],
        "masked product counted and scattered different pairs"
    );
    // SAFETY: the assertion above held, so every slot of `0..total` (within
    // capacity) was written exactly once above.
    unsafe { slots.set_len(total) };
    obs::alloc::probe("mem.watermark.sparse.accum", &slots);

    // Sort each column: equal rows are adjacent after the stable sort, in
    // ascending inner index. Each run of equal rows is one output entry.
    let mut entries = 0;
    for w in starts.windows(2) {
        let col = &mut slots[w[0]..w[1]];
        col.sort_by_key(|&(i, _, _)| i);
        entries += col.chunk_by(|x, y| x.0 == y.0).count();
    }
    let (avals, bvals) = (a.values(), b_rows.values());
    let product = |&(_, k, l): &(u32, u32, u32)| {
        sr.multiply(&avals[k as usize], &bvals[l as usize])
            .expect("a masked semiring keeps every pair")
    };
    let mut out: Vec<(u32, u64, SR::C)> = Vec::with_capacity(entries);
    for (c, w) in starts.windows(2).enumerate() {
        let col = &slots[w[0]..w[1]];
        if col.is_empty() {
            continue;
        }
        obs::hist!("spgemm.col_flops", col.len());
        let j = b_cols.start + c as u64;
        for run in col.chunk_by(|x, y| x.0 == y.0) {
            let mut acc = product(&run[0]);
            for slot in &run[1..] {
                sr.add(&mut acc, product(slot));
            }
            out.push((run[0].0, j, acc));
        }
    }
    debug_assert_eq!(out.len(), entries);
    out
}

/// Walk the kept contributions of a masked product (see
/// [`masked_outer_spgemm`]) in ascending inner index: for every inner
/// index `t` both operands hold and every `B(t, j)` with `j` in `b_cols`,
/// call `visit` with the rows of `A(·, t)` below `row_end(j)`, the
/// position of the first of them in `a`'s values, `j` and the position of
/// `B(t, j)` in `b_rows`' values, unless there are no such rows.
fn for_each_kept<A, B>(
    a: &Dcsc<A>,
    b_rows: &Dcsc<B>,
    b_cols: &Range<u64>,
    row_end: impl Fn(u64) -> u64,
    mut visit: impl FnMut(&[u32], u32, u64, u32),
) {
    let (acols, bcols) = (a.cols(), b_rows.cols());
    let whole = b_cols.start == 0 && b_cols.end >= b_rows.nrows() as u64;
    let (mut ia, mut ib) = (0, 0);
    while ia < acols.len() && ib < bcols.len() {
        match acols[ia].cmp(&bcols[ib]) {
            Ordering::Less => ia += 1,
            Ordering::Greater => ib += 1,
            Ordering::Equal => {
                let arows = a.col_by_index(ia).0;
                let brows = b_rows.col_by_index(ib).0;
                let (a_at, b_at) = (a.col_start(ia), b_rows.col_start(ib));
                ia += 1;
                ib += 1;
                // One A row and one B entry on or below the diagonal keep
                // nothing — on a diagonal block, that is every k-mer only
                // one sequence holds, the bulk of a k-mer matrix.
                if let ([i], [j]) = (arows, brows) {
                    if u64::from(*i) >= row_end(u64::from(*j)) {
                        continue;
                    }
                }
                let (s, e) = if whole {
                    (0, brows.len())
                } else {
                    let s = brows.partition_point(|&j| u64::from(j) < b_cols.start);
                    (
                        s,
                        s + brows[s..].partition_point(|&j| u64::from(j) < b_cols.end),
                    )
                };
                // The kept rows are a prefix of the ascending A column that
                // only grows with `j`. Both operands' nnz fit `u32`, so do
                // their positions.
                let mut kept = 0;
                for (l, &j) in (b_at + s..).zip(&brows[s..e]) {
                    let end = row_end(u64::from(j));
                    kept += arows[kept..].partition_point(|&i| u64::from(i) < end);
                    if kept > 0 {
                        visit(&arows[..kept], a_at as u32, u64::from(j), l as u32);
                    }
                }
            }
        }
    }
}

/// Bucket index over a DCSC block's sorted non-empty column ids — the AUX
/// array of Buluç & Gilbert 2008: `starts[b]..starts[b + 1]` bounds the
/// positions in `cols` whose `id >> shift == b`. The shift is the smallest
/// that leaves at most one bucket per four columns (so between four and
/// eight columns a bucket on evenly spread ids), which makes the
/// directory at most `nzc` bytes beside a `jc` of `8·nzc`. It is built by
/// one counting pass and a prefix sum, lives for one multiply and is
/// never serialized. The build is O(nzc) per call; every caller has
/// already spent O(nnz) materialising the operand it indexes.
struct ColDirectory<'a> {
    cols: &'a [u64],
    shift: u32,
    starts: Vec<u32>,
}

impl<'a> ColDirectory<'a> {
    fn new(cols: &'a [u64]) -> Self {
        let Some(&top) = cols.last() else {
            return ColDirectory {
                cols,
                shift: 0,
                starts: vec![0],
            };
        };
        let nzc = u32::try_from(cols.len()).expect("fewer than 2^32 non-empty columns per block");
        // Smallest shift that leaves at most `nzc / 4` buckets.
        let max_buckets = u64::from(nzc / 4).max(1);
        let mut shift = 0;
        while shift < u64::BITS - 1 && (top >> shift) >= max_buckets {
            shift += 1;
        }
        let mut starts = vec![0u32; (top >> shift) as usize + 2];
        for &c in cols {
            starts[(c >> shift) as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        ColDirectory {
            cols,
            shift,
            starts,
        }
    }

    /// Position of column id `c` in `cols`; equals
    /// `cols.binary_search(&c).ok()`.
    #[inline]
    fn find(&self, c: u64) -> Option<usize> {
        let b = c >> self.shift;
        if b >= self.starts.len() as u64 - 1 {
            return None;
        }
        let (s, e) = (
            self.starts[b as usize] as usize,
            self.starts[b as usize + 1] as usize,
        );
        self.cols[s..e].binary_search(&c).ok().map(|i| s + i)
    }
}

/// One contributing A column: its rows, values, and the B scalar.
type ColList<'a, SR> = (
    &'a [u32],
    &'a [<SR as Semiring>::A],
    &'a <SR as Semiring>::B,
);

/// K-way merge of the contributing lists; ties on row id are popped in list
/// order (= ascending inner index), matching the hash fold order.
fn merge_heap<SR: Semiring>(
    lists: &[ColList<'_, SR>],
    sr: &SR,
    jcol: u64,
    out: &mut Vec<(u32, u64, SR::C)>,
) {
    let mut heap: BinaryHeap<Reverse<(u32, usize, usize)>> = BinaryHeap::with_capacity(lists.len());
    for (li, (arows, _, _)) in lists.iter().enumerate() {
        if !arows.is_empty() {
            heap.push(Reverse((arows[0], li, 0)));
        }
    }
    let mut current: Option<(u32, SR::C)> = None;
    while let Some(Reverse((row, li, pos))) = heap.pop() {
        let (arows, avals, bv) = &lists[li];
        if pos + 1 < arows.len() {
            heap.push(Reverse((arows[pos + 1], li, pos + 1)));
        }
        if let Some(c) = sr.multiply(&avals[pos], bv) {
            match current.take() {
                Some((r, mut acc)) if r == row => {
                    sr.add(&mut acc, c);
                    current = Some((r, acc));
                }
                Some((r, acc)) => {
                    out.push((r, jcol, acc));
                    current = Some((row, c));
                }
                None => current = Some((row, c)),
            }
        }
    }
    if let Some((r, acc)) = current {
        out.push((r, jcol, acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::ArithmeticSemiring;

    fn dcsc(nrows: usize, ncols: u64, t: Vec<(u32, u64, f64)>) -> Dcsc<f64> {
        Dcsc::from_triples(nrows, ncols, t, |a, b| *a += b)
    }

    fn dense_mul(a: &Dcsc<f64>, b: &Dcsc<f64>) -> Vec<(u32, u64, f64)> {
        let mut c = vec![vec![0.0; b.ncols() as usize]; a.nrows()];
        for (t, j, &bv) in b.iter() {
            if let Some((arows, avals)) = a.col(t as u64) {
                for (&r, &av) in arows.iter().zip(avals) {
                    c[r as usize][j as usize] += av * bv;
                }
            }
        }
        let mut out = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for j in 0..b.ncols() as usize {
            for r in 0..a.nrows() {
                if c[r][j] != 0.0 {
                    out.push((r as u32, j as u64, c[r][j]));
                }
            }
        }
        out
    }

    #[test]
    fn strategies_agree_small() {
        let a = dcsc(
            3,
            4,
            vec![(0, 0, 1.0), (1, 0, 2.0), (2, 1, 3.0), (0, 3, 4.0)],
        );
        let b = dcsc(4, 2, vec![(0, 0, 5.0), (1, 0, 6.0), (3, 1, 7.0)]);
        let want = dense_mul(&a, &b);
        for s in [
            SpGemmStrategy::Hash,
            SpGemmStrategy::Heap,
            SpGemmStrategy::Hybrid,
        ] {
            let got = local_spgemm(&a, &b, &ArithmeticSemiring, s);
            assert_eq!(got, want, "strategy {s:?}");
        }
    }

    #[test]
    fn strategies_agree_random() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let (m, k, n) = (
                rng.random_range(1..20),
                rng.random_range(1..20),
                rng.random_range(1..20),
            );
            let mk_triples = |rng: &mut StdRng, rows: usize, cols: usize| {
                let nnz = rng.random_range(0..rows * cols + 1);
                (0..nnz)
                    .map(|_| {
                        (
                            rng.random_range(0..rows) as u32,
                            rng.random_range(0..cols) as u64,
                            rng.random_range(1..5) as f64,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            let a = dcsc(m, k as u64, mk_triples(&mut rng, m, k));
            let b = dcsc(k, n as u64, mk_triples(&mut rng, k, n));
            let want = dense_mul(&a, &b);
            for s in [
                SpGemmStrategy::Hash,
                SpGemmStrategy::Heap,
                SpGemmStrategy::Hybrid,
            ] {
                let got = local_spgemm(&a, &b, &ArithmeticSemiring, s);
                assert_eq!(got, want, "trial {trial} strategy {s:?}");
            }
        }
    }

    /// Every probe in and around `cols` must answer as the binary search
    /// of the whole directory it replaces.
    fn assert_directory_matches(cols: &[u64], ncols: u64) {
        let dir = ColDirectory::new(cols);
        let mut probes = vec![0, 1, ncols - 1, ncols, ncols + 1, u64::MAX];
        for &c in cols {
            probes.extend([c.saturating_sub(1), c, c + 1]);
        }
        for c in probes {
            assert_eq!(
                dir.find(c),
                cols.binary_search(&c).ok(),
                "probe {c} in {} columns of {ncols}",
                cols.len()
            );
        }
    }

    #[test]
    fn directory_lookup_equals_binary_search() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2008);
        let kmer_space = 24u64.pow(13);
        for ncols in [1, 2, 5, 64, 1000, 24u64.pow(6), kmer_space] {
            assert_directory_matches(&[], ncols);
            assert_directory_matches(&[0], ncols);
            assert_directory_matches(&[ncols - 1], ncols);
            if ncols > 1 {
                assert_directory_matches(&[0, ncols - 1], ncols);
            }
            for _ in 0..40 {
                // Evenly spread, clustered at one end, or one dense run.
                let nzc = rng.random_range(1..400usize);
                let span = match rng.random_range(0..3) {
                    0 => ncols,
                    1 => ncols.min(1 + nzc as u64 * 3),
                    _ => ncols.min(1 + rng.random_range(0..1 << 20)),
                };
                let base = rng.random_range(0..=ncols - span);
                let mut cols: Vec<u64> =
                    (0..nzc).map(|_| base + rng.random_range(0..span)).collect();
                cols.sort_unstable();
                cols.dedup();
                assert_directory_matches(&cols, ncols);
            }
        }
        // Every column present: buckets are dense runs.
        assert_directory_matches(&(0..1000).collect::<Vec<u64>>(), 1000);
    }

    #[test]
    fn hypersparse_operand_agrees_and_keeps_flop_count() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(44);
        // A: 40 rows over a 60 000-column inner space with 12 000 singleton
        // columns (a k-mer seen once) and a few hundred shared ones.
        let (m, k, n) = (40usize, 60_000usize, 30usize);
        let mut at: Vec<(u32, u64, f64)> = (0..12_000u64)
            .map(|i| (rng.random_range(0..m) as u32, 5 * i, 1.0))
            .collect();
        for _ in 0..300 {
            let c = 5 * rng.random_range(0..12_000u64) + 1;
            for _ in 0..rng.random_range(2..6) {
                at.push((rng.random_range(0..m) as u32, c, 2.0));
            }
        }
        let a = dcsc(m, k as u64, at);
        let singletons = (0..a.nzc())
            .filter(|&i| a.col_by_index(i).0.len() == 1)
            .count();
        assert!(singletons >= 10_000, "{singletons} singleton columns");
        // B probes hits and misses alike.
        let bt: Vec<(u32, u64, f64)> = (0..20_000)
            .map(|_| {
                (
                    rng.random_range(0..k) as u32,
                    rng.random_range(0..n) as u64,
                    rng.random_range(1..4) as f64,
                )
            })
            .collect();
        let b = dcsc(k, n as u64, bt);
        let want = dense_mul(&a, &b);
        // One flop per A entry a B nonzero meets, counted through the
        // binary-search lookup the directory replaced.
        let want_flops: u64 = b
            .iter()
            .filter_map(|(t, _, _)| a.col(t as u64))
            .map(|(arows, _)| arows.len() as u64)
            .sum();
        for s in [
            SpGemmStrategy::Hash,
            SpGemmStrategy::Heap,
            SpGemmStrategy::Hybrid,
        ] {
            let rec = obs::Recorder::install(0);
            let got = local_spgemm(&a, &b, &ArithmeticSemiring, s);
            let flops = rec.finish().metrics.hists["spgemm.col_flops"].sum;
            assert_eq!(got, want, "strategy {s:?}");
            assert_eq!(flops, want_flops, "strategy {s:?}");
        }
    }

    #[test]
    fn masked_outer_equals_filtered_product() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2303);
        for trial in 0..30 {
            let (m, k, n) = (
                rng.random_range(1..25usize),
                rng.random_range(1..5000u64),
                rng.random_range(1..25usize),
            );
            let mut entries = |rows: usize| -> Vec<(u32, u64, f64)> {
                (0..rng.random_range(0..3 * rows))
                    .map(|_| {
                        let r = rng.random_range(0..rows) as u32;
                        // Few shared inner indices, many held once.
                        let t = rng.random_range(0..k.min(40)) * (k / 40).max(1);
                        (r, t, rng.random_range(1..5) as f64)
                    })
                    .collect()
            };
            let a = dcsc(m, k, entries(m));
            let b_rows = dcsc(n, k, entries(n));
            let shift = rng.random_range(0..2u64);
            let window = rng.random_range(0..=n as u64)..rng.random_range(0..=n as u64 + 2);
            let row_end = |j: u64| j + shift;
            let mut want = local_spgemm(
                &a,
                &b_rows.transpose(),
                &ArithmeticSemiring,
                SpGemmStrategy::Hash,
            );
            want.retain(|&(i, j, _)| window.contains(&j) && u64::from(i) < row_end(j));
            // One flop per kept (A entry, B entry) pair of a shared index.
            let want_flops: u64 = b_rows
                .iter()
                .filter(|&(j, _, _)| window.contains(&u64::from(j)))
                .filter_map(|(j, t, _)| a.col(t).map(|(rows, _)| (j, rows)))
                .map(|(j, rows)| {
                    rows.iter()
                        .filter(|&&i| u64::from(i) < row_end(u64::from(j)))
                        .count() as u64
                })
                .sum();
            let rec = obs::Recorder::install(0);
            let got =
                masked_outer_spgemm(&a, &b_rows, window.clone(), row_end, &ArithmeticSemiring);
            let hists = rec.finish().metrics.hists;
            let flops = hists.get("spgemm.col_flops").map_or(0, |h| h.sum);
            assert_eq!(got, want, "trial {trial}");
            assert_eq!(flops, want_flops, "trial {trial}");
        }
    }

    #[test]
    fn empty_operands() {
        let a = Dcsc::<f64>::empty(3, 4);
        let b = Dcsc::<f64>::empty(4, 5);
        assert!(local_spgemm(&a, &b, &ArithmeticSemiring, SpGemmStrategy::Hybrid).is_empty());
    }

    #[test]
    fn multiply_filter_drops_contributions() {
        struct Filtered;
        impl Semiring for Filtered {
            type A = f64;
            type B = f64;
            type C = f64;
            fn multiply(&self, a: &f64, b: &f64) -> Option<f64> {
                let p = a * b;
                (p > 10.0).then_some(p)
            }
            fn add(&self, acc: &mut f64, v: f64) {
                *acc += v;
            }
        }
        let a = dcsc(2, 2, vec![(0, 0, 2.0), (1, 1, 3.0)]);
        let b = dcsc(2, 1, vec![(0, 0, 4.0), (1, 0, 5.0)]);
        for s in [SpGemmStrategy::Hash, SpGemmStrategy::Heap] {
            let got = local_spgemm(&a, &b, &Filtered, s);
            assert_eq!(got, vec![(1, 0, 15.0)], "{s:?}");
        }
    }

    #[test]
    fn output_is_column_major_sorted() {
        let a = dcsc(5, 5, (0..5).map(|i| (i as u32, i as u64, 1.0)).collect());
        let b = dcsc(5, 5, vec![(0, 4, 1.0), (4, 4, 1.0), (2, 1, 1.0)]);
        let got = local_spgemm(&a, &b, &ArithmeticSemiring, SpGemmStrategy::Hash);
        assert_eq!(
            got.iter().map(|&(r, c, _)| (c, r)).collect::<Vec<_>>(),
            vec![(1, 2), (4, 0), (4, 4)]
        );
    }
}
