//! Doubly compressed sparse column (DCSC) storage for hypersparse matrices
//! (Buluç & Gilbert 2008; paper §IV-D).
//!
//! DCSC stores only the non-empty columns: `jc[i]` is the id of the i-th
//! non-empty column and `cp[i]..cp[i+1]` indexes its nonzeros in `ir`/`num`.
//! This makes storage O(nnz + nzc) instead of O(nnz + ncols) — essential
//! when the column space is the 24^k k-mer space distributed over a process
//! grid, where almost every column is empty.

use pcomm::Payload;

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
        assert!(
            nrows < u32::MAX as usize + 1,
            "row space too large for u32 local indices"
        );
        // Work accounting: sort + scan per triple.
        pcomm::work::record_class(triples.len() as u64, pcomm::work::CostClass::TripleSort);
        let mut triples = triples;
        triples.sort_by_key(|&(r, c, _)| (c, r));
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut ir: Vec<u32> = Vec::with_capacity(triples.len());
        let mut num: Vec<V> = Vec::with_capacity(triples.len());
        for (r, c, v) in triples {
            debug_assert!((r as usize) < nrows, "row {r} out of bounds {nrows}");
            debug_assert!(c < ncols, "col {c} out of bounds {ncols}");
            if jc.last() == Some(&c) && ir.last() == Some(&r) {
                add(num.last_mut().unwrap(), v);
                continue;
            }
            if jc.last() != Some(&c) {
                jc.push(c);
                cp.push(ir.len());
            }
            ir.push(r);
            num.push(v);
            *cp.last_mut().unwrap() = ir.len();
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

    /// Look up a column by id (binary search over `jc`).
    pub fn col(&self, c: u64) -> Option<(&[u32], &[V])> {
        self.jc.binary_search(&c).ok().map(|i| self.col_by_index(i))
    }

    /// Iterate `(row, col, &value)` over all nonzeros in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, &V)> + '_ {
        self.jc.iter().enumerate().flat_map(move |(i, &c)| {
            let (rows, vals) = self.col_by_index(i);
            rows.iter().zip(vals.iter()).map(move |(&r, v)| (r, c, v))
        })
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
        let mut rows_cols = Vec::with_capacity(self.ir.len());
        for (i, &c) in self.jc.iter().enumerate() {
            for k in self.cp[i]..self.cp[i + 1] {
                rows_cols.push((self.ir[k], c));
            }
        }
        let num = self
            .num
            .into_iter()
            .zip(rows_cols.iter())
            .map(|(v, &(r, c))| f(r, c, v))
            .collect();
        Dcsc {
            nrows: self.nrows,
            ncols: self.ncols,
            jc: self.jc,
            cp: self.cp,
            ir: self.ir,
            num,
        }
    }
}

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
