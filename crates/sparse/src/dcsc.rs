//! Doubly compressed sparse column (DCSC) storage for hypersparse matrices
//! (Buluç & Gilbert 2008; paper §IV-D).
//!
//! DCSC stores only the non-empty columns: `jc[i]` is the id of the i-th
//! non-empty column and `cp[i]..cp[i+1]` indexes its nonzeros in `ir`/`num`.
//! This makes storage O(nnz + nzc) instead of O(nnz + ncols) — essential
//! when the column space is the 24^k k-mer space distributed over a process
//! grid, where almost every column is empty.

use std::ops::Range;

use pcomm::Payload;

use crate::radix::RadixPlan;

/// A DCSC-format sparse matrix block with local indices.
///
/// Row indices are `u32` (a block never holds ≥ 2³² rows in this pipeline —
/// asserted during construction); column ids are `u64` because the k-mer
/// column space can be enormous even per block.
#[derive(Debug, Clone, PartialEq)]
pub struct Dcsc<V> {
    nrows: usize,
    ncols: u64,
    /// Sorted ids of non-empty columns.
    jc: Vec<u64>,
    /// `cp[i]..cp[i+1]` bounds column `jc[i]`'s entries; `len == jc.len()+1`.
    cp: Vec<usize>,
    /// Row index of each nonzero, sorted within each column.
    ir: Vec<u32>,
    /// Value of each nonzero.
    num: Vec<V>,
}

impl<V> Dcsc<V> {
    /// An empty block of the given dimensions.
    pub fn empty(nrows: usize, ncols: u64) -> Self {
        Dcsc {
            nrows,
            ncols,
            jc: Vec::new(),
            cp: vec![0],
            ir: Vec::new(),
            num: Vec::new(),
        }
    }

    /// Build from triples with *local* `(row, col, value)` indices.
    /// Duplicate coordinates are combined with `add` in input order.
    pub fn from_triples(
        nrows: usize,
        ncols: u64,
        triples: Vec<(u32, u64, V)>,
        add: impl Fn(&mut V, V),
    ) -> Self {
        let plan = RadixPlan::new(nrows, ncols, || triples.iter().map(|&(r, c, _)| (r, c)));
        Self::from_plan(nrows, ncols, plan, triples.into_iter(), add)
    }

    /// Build from `items`, whose keys `plan` has counted in the same order:
    /// radix-sort them into `(col, row)` order, then fold duplicates with
    /// `add` in input order. Every array is allocated at its exact length.
    pub(crate) fn from_plan(
        nrows: usize,
        ncols: u64,
        plan: RadixPlan,
        items: impl Iterator<Item = (u32, u64, V)>,
        add: impl Fn(&mut V, V),
    ) -> Self {
        // Work accounting: sort + scan per triple.
        pcomm::work::record_class(plan.len() as u64, pcomm::work::CostClass::TripleSort);
        let (mut ir, jc, mut cp, mut num) = plan.apply(items);
        // Rows ascend within a column, so a duplicate repeats the row
        // before it.
        let first_dup =
            (0..jc.len()).find_map(|k| (cp[k] + 1..cp[k + 1]).find(|&i| ir[i] == ir[i - 1]));
        if let Some(first) = first_dup {
            fold_duplicates(&mut ir, &mut cp, &mut num, first, add);
        }
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
        }
    }

    /// The transposed block (`ncols × nrows`). Read in column order, the
    /// new rows already ascend, so the radix sort buckets by the old rows
    /// alone, and allocates nothing proportional to a block dimension.
    pub fn transpose(&self) -> Dcsc<V>
    where
        V: Clone,
    {
        self.transpose_rows(0..self.nrows as u64)
    }

    /// The rows `rows` of this block, transposed: [`transpose`](Self::transpose)
    /// restricted to the columns `rows` (see [`restrict_cols`](Self::restrict_cols)),
    /// without forming the other columns.
    pub(crate) fn transpose_rows(&self, rows: Range<u64>) -> Dcsc<V>
    where
        V: Clone,
    {
        assert!(
            self.ncols <= u32::MAX as u64 + 1,
            "column space too large to become u32 row indices"
        );
        let nrows = self.ncols as usize;
        let kept = |r: u32| rows.contains(&(r as u64));
        let plan = RadixPlan::by_cols(
            self.nrows as u64,
            self.ir.iter().filter(|&&r| kept(r)).map(|&r| r as u64),
        );
        let items = (self.iter())
            .filter(|&(r, _, _)| kept(r))
            .map(|(r, c, v)| (c as u32, r as u64, v.clone()));
        Dcsc::from_plan(nrows, self.nrows as u64, plan, items, |_, _| {
            unreachable!("a transpose has no duplicate coordinates")
        })
    }

    /// The columns `cols` (local ids) of this block, same dimensions, every
    /// other column dropped: one contiguous slice of each array.
    pub fn restrict_cols(&self, cols: Range<u64>) -> Dcsc<V>
    where
        V: Clone,
    {
        let a = self.jc.partition_point(|&c| c < cols.start);
        let b = a + self.jc[a..].partition_point(|&c| c < cols.end);
        let (s, e) = (self.cp[a], self.cp[b]);
        Dcsc {
            nrows: self.nrows,
            ncols: self.ncols,
            jc: self.jc[a..b].to_vec(),
            cp: self.cp[a..=b].iter().map(|&k| k - s).collect(),
            ir: self.ir[s..e].to_vec(),
            num: self.num[s..e].to_vec(),
        }
    }

    /// Number of rows of the block.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns of the block (column id space).
    #[inline]
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Number of non-empty columns.
    #[inline]
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Ids of the non-empty columns, ascending.
    #[inline]
    pub fn cols(&self) -> &[u64] {
        &self.jc
    }

    /// `(rows, values)` of the i-th non-empty column.
    #[inline]
    pub fn col_by_index(&self, i: usize) -> (&[u32], &[V]) {
        let (s, e) = (self.cp[i], self.cp[i + 1]);
        (&self.ir[s..e], &self.num[s..e])
    }

    /// Position of the i-th non-empty column's first entry in
    /// [`values`](Self::values).
    #[inline]
    pub(crate) fn col_start(&self, i: usize) -> usize {
        self.cp[i]
    }

    /// Every stored value, in column-major order.
    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        &self.num
    }

    /// Look up a column by id (binary search over `jc`).
    pub fn col(&self, c: u64) -> Option<(&[u32], &[V])> {
        self.jc.binary_search(&c).ok().map(|i| self.col_by_index(i))
    }

    /// Iterate `(row, col, &value)` over all nonzeros in column-major order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, u64, &V)> + '_ {
        Iter {
            m: self,
            col: 0,
            k: 0,
        }
    }

    /// Keep only entries where `keep(row, col, &value)` is true.
    pub fn retain(&mut self, keep: impl Fn(u32, u64, &V) -> bool) {
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut ir = Vec::new();
        let mut num = Vec::new();
        let old_num = std::mem::take(&mut self.num);
        let mut vals = old_num.into_iter();
        for (i, &c) in self.jc.iter().enumerate() {
            let (s, e) = (self.cp[i], self.cp[i + 1]);
            let mut any = false;
            for k in s..e {
                let r = self.ir[k];
                let v = vals.next().unwrap();
                if keep(r, c, &v) {
                    if !any {
                        jc.push(c);
                        cp.push(ir.len());
                        any = true;
                    }
                    ir.push(r);
                    num.push(v);
                    *cp.last_mut().unwrap() = ir.len();
                }
            }
        }
        self.jc = jc;
        self.cp = cp;
        self.ir = ir;
        self.num = num;
    }

    /// Map values (and keep structure).
    pub fn map<W>(self, f: impl Fn(u32, u64, V) -> W) -> Dcsc<W> {
        let Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
        } = self;
        let mut vals = num.into_iter();
        let mut num = Vec::with_capacity(ir.len());
        for (i, &c) in jc.iter().enumerate() {
            for &r in &ir[cp[i]..cp[i + 1]] {
                num.push(f(r, c, vals.next().expect("one value per row index")));
            }
        }
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
        }
    }
}

/// Fold each run of equal rows within a column of the sorted arrays into
/// its first entry with `add`, in input order, moving the kept entries
/// down in place; `first` is the first entry that repeats the row before
/// it. `ir` and `num` end at the kept length, `cp` bounds the kept entries.
fn fold_duplicates<V>(
    ir: &mut Vec<u32>,
    cp: &mut [usize],
    num: &mut Vec<V>,
    first: usize,
    add: impl Fn(&mut V, V),
) {
    let ncols = cp.len() - 1;
    let first_col = cp.partition_point(|&s| s <= first) - 1;
    let vals = num.as_mut_ptr();
    let n = num.len();
    // SAFETY: the values are moved by hand below; with the length 0, a
    // panic in `add` leaks them instead of dropping one twice.
    unsafe { num.set_len(0) };
    let mut w = first;
    for k in first_col..ncols {
        // `cp[k + 1]` still holds the column's old end: it is rewritten
        // only on the next turn.
        let (s, e) = (cp[k], cp[k + 1]);
        if k > first_col {
            cp[k] = w;
        }
        for i in first.max(s)..e {
            debug_assert!(w <= i && i < n);
            // SAFETY: `w ≤ i < n`. Slot `i` holds a value not yet moved,
            // read here once; the slots below `w` hold the kept values, so
            // slot `w - 1`, the column's last kept entry, is live.
            unsafe {
                let v = vals.add(i).read();
                if i > s && ir[i] == ir[w - 1] {
                    add(&mut *vals.add(w - 1), v);
                } else {
                    ir[w] = ir[i];
                    vals.add(w).write(v);
                    w += 1;
                }
            }
        }
    }
    cp[ncols] = w;
    ir.truncate(w);
    ir.shrink_to_fit();
    // SAFETY: slots `0..w` hold the kept values, each written once, and
    // every other value was moved into `add`.
    unsafe { num.set_len(w) };
    num.shrink_to_fit();
}

/// Column-major iterator over a block's nonzeros ([`Dcsc::iter`]).
struct Iter<'a, V> {
    m: &'a Dcsc<V>,
    /// Index into `jc` of the column holding entry `k`.
    col: usize,
    k: usize,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (u32, u64, &'a V);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let k = self.k;
        if k == self.m.ir.len() {
            return None;
        }
        while self.m.cp[self.col + 1] <= k {
            self.col += 1;
        }
        self.k = k + 1;
        Some((self.m.ir[k], self.m.jc[self.col], &self.m.num[k]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.m.ir.len() - self.k;
        (left, Some(left))
    }
}

impl<V> ExactSizeIterator for Iter<'_, V> {}

impl<V: Payload + Clone> Payload for Dcsc<V> {
    fn payload_bytes(&self) -> usize {
        // Arrays dominate: jc (8B), cp (8B), ir (4B) and the values.
        self.jc.len() * 8
            + self.cp.len() * 8
            + self.ir.len() * 4
            + self.num.iter().map(Payload::payload_bytes).sum::<usize>()
            + 24 // dims + lengths header
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dcsc<f64> {
        // 4x6 block:
        // col 1: (0, 1.0), (2, 2.0); col 4: (3, 3.0)
        Dcsc::from_triples(4, 6, vec![(3, 4, 3.0), (0, 1, 1.0), (2, 1, 2.0)], |a, b| {
            *a += b
        })
    }

    #[test]
    fn construction_sorts_and_indexes() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.nzc(), 2);
        assert_eq!(m.cols(), &[1, 4]);
        let (rows, vals) = m.col(1).unwrap();
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.0]);
        assert!(m.col(0).is_none());
        assert!(m.col(2).is_none());
    }

    #[test]
    fn duplicates_are_combined() {
        let m = Dcsc::from_triples(2, 2, vec![(1, 1, 5.0), (1, 1, 7.0)], |a, b| *a += b);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.col(1).unwrap().1, &[12.0]);
    }

    #[test]
    fn duplicates_fold_in_place_in_input_order() {
        // Runs in two columns, the first after a kept entry of its column;
        // the values own heap memory, so a value dropped twice or never
        // moved would show.
        let items = [
            (0, 2),
            (1, 0),
            (1, 0),
            (0, 0),
            (1, 2),
            (1, 2),
            (1, 2),
            (0, 2),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| (r, c, vec![i]))
        .collect();
        let m = Dcsc::from_triples(2, 3, items, |a, b| a.extend(b));
        let got: Vec<_> = m.iter().map(|(r, c, v)| (r, c, v.clone())).collect();
        let want = vec![
            (0, 0, vec![3]),
            (1, 0, vec![1, 2]),
            (0, 2, vec![0, 7]),
            (1, 2, vec![4, 5, 6]),
        ];
        assert_eq!(got, want);
        assert_eq!((m.cols(), m.nnz()), (&[0, 2][..], 4));
    }

    #[test]
    fn iter_is_column_major() {
        let m = sample();
        let got: Vec<(u32, u64, f64)> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(got, vec![(0, 1, 1.0), (2, 1, 2.0), (3, 4, 3.0)]);
    }

    #[test]
    fn retain_filters_and_compacts() {
        let mut m = sample();
        m.retain(|_, _, &v| v > 1.5);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.cols(), &[1, 4]);
        let got: Vec<f64> = m.iter().map(|(_, _, &v)| v).collect();
        assert_eq!(got, vec![2.0, 3.0]);
        m.retain(|_, _, &v| v > 2.5);
        assert_eq!(m.nzc(), 1);
        assert_eq!(m.cols(), &[4]);
    }

    #[test]
    fn retain_all_empty() {
        let mut m = sample();
        m.retain(|_, _, _| false);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nzc(), 0);
    }

    #[test]
    fn map_changes_values() {
        let m = sample().map(|r, c, v| (r as u64 + c) as f64 * v);
        let got: Vec<f64> = m.iter().map(|(_, _, &v)| v).collect();
        assert_eq!(got, vec![1.0, 6.0, 21.0]);
    }

    #[test]
    fn empty_block() {
        let m = Dcsc::<u8>::empty(10, 100);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nzc(), 0);
        assert!(m.iter().next().is_none());
    }

    #[test]
    fn payload_bytes_counts_arrays() {
        let m = sample();
        // jc: 2*8, cp: 3*8, ir: 3*4, num: 3*8, header 24
        assert_eq!(m.payload_bytes(), 16 + 24 + 12 + 24 + 24);
    }
}
