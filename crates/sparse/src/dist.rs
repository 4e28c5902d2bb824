//! 2D block-distributed sparse matrices and Sparse SUMMA SpGEMM
//! (paper §II-A, §V-C).
//!
//! A `DistMat` lives on a √p × √p process grid; rank `(r, c)` owns the block
//! of rows `[r·m/q, (r+1)·m/q)` × columns `[c·n/q, (c+1)·n/q)`, stored
//! hypersparse-friendly as [`Dcsc`] with block-local indices. All methods
//! marked *collective* must be called by every rank of the grid.

use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use pcomm::{Grid, Payload};

use crate::dcsc::Dcsc;
use crate::local_spgemm::{local_spgemm, masked_outer_spgemm, SpGemmStrategy};
use crate::radix::RadixPlan;
use crate::semiring::Semiring;
use crate::triple::Triple;

/// Split `n` items over `q` blocks: block `i` covers `[i·n/q, (i+1)·n/q)`.
#[inline]
pub(crate) fn block_range(n: u64, q: usize, i: usize) -> (u64, u64) {
    let q = q as u64;
    let i = i as u64;
    (i * n / q, (i + 1) * n / q)
}

/// Index of the block owning global index `g`.
#[inline]
pub(crate) fn block_owner(n: u64, q: usize, g: u64) -> usize {
    debug_assert!(g < n);
    if q == 1 {
        return 0;
    }
    let guess = match g.checked_mul(q as u64) {
        Some(gq) => gq / n,
        None => (g as u128 * q as u128 / n as u128) as u64,
    };
    let mut i = (guess as usize).min(q - 1);
    while g < block_range(n, q, i).0 {
        i -= 1;
    }
    while g >= block_range(n, q, i).1 {
        i += 1;
    }
    i
}

/// A sparse matrix distributed over a 2D process grid.
///
/// The local block sits behind an [`Arc`] so SUMMA can broadcast it as a
/// shared pointer: the panel owner keeps no private copy and the ranks of
/// a grid row or column read one block. Only `retain` and `map` need the
/// block to themselves, and they are called on matrices nobody shares.
///
/// A matrix made by [`transpose`](Self::transpose) also holds its block
/// *by rows*: the untransposed block it was made from, which is the
/// transpose partner's block of the original (at p = 1, the original's
/// own). A masked product reads its right operand in that form. It costs
/// no memory while the original lives, and the original must then not be
/// changed: after `a.transpose()`, neither `retain` nor `map` may be called
/// on `a`, or `Arc::make_mut` silently turns the shared block into a copy.
pub struct DistMat<V> {
    grid: Rc<Grid>,
    nrows: u64,
    ncols: u64,
    local: Arc<Dcsc<V>>,
    by_rows: Option<RowForm<V>>,
}

/// A block held by rows: the DCSC of its transpose, of which only the rows
/// `cols` (the block's local column ids) belong to the matrix — a
/// column-restricted matrix shares its parent's row form.
struct RowForm<V> {
    block: Arc<Dcsc<V>>,
    cols: Range<u64>,
}

impl<V: Payload + Clone + Sync> DistMat<V> {
    /// Build from globally-indexed triples scattered arbitrarily over ranks.
    /// Collective: triples are shuffled to their owner blocks (`alltoallv`),
    /// duplicates combined with `add` in input order (received parts in
    /// source-rank order).
    ///
    /// Each buffer is freed as soon as the next exists: the input once the
    /// per-owner parts are filled (a rank whose triples all have one owner
    /// sends the input itself), each received part once the radix sort's
    /// first pass has consumed it.
    pub fn from_triples(
        grid: Rc<Grid>,
        nrows: u64,
        ncols: u64,
        triples: Vec<Triple<V>>,
        add: impl Fn(&mut V, V),
    ) -> Self {
        let _span = obs::span!("sparse.from_triples", triples = triples.len());
        let q = grid.q();
        let p = q * q;
        // Work accounting: owner computation + bucketing per triple.
        pcomm::work::record_class(triples.len() as u64, pcomm::work::CostClass::TripleShuffle);
        let owner =
            |r: u64, c: u64| grid.rank_of(block_owner(nrows, q, r), block_owner(ncols, q, c));
        let mut counts = vec![0usize; p];
        for &(r, c, _) in &triples {
            assert!(
                r < nrows && c < ncols,
                "triple ({r},{c}) outside {nrows}×{ncols}"
            );
            counts[owner(r, c)] += 1;
        }
        let mut parts: Vec<Vec<Triple<V>>> = (0..p).map(|_| Vec::new()).collect();
        match counts.iter().position(|&k| k == triples.len()) {
            Some(only) => parts[only] = triples,
            None => {
                for (part, &k) in parts.iter_mut().zip(&counts) {
                    part.reserve_exact(k);
                }
                for (r, c, v) in triples {
                    parts[owner(r, c)].push((r, c, v));
                }
            }
        }
        let received = grid.world().alltoallv(parts);
        let heap: usize = received.iter().map(obs::alloc::HeapSize::heap_bytes).sum();
        obs::alloc::watermark("mem.watermark.sparse.build", heap as u64);
        let (r0, _r1) = block_range(nrows, q, grid.myrow());
        let (c0, _c1) = block_range(ncols, q, grid.mycol());
        let (nrows_l, ncols_l) = (
            Self::local_rows(nrows, q, grid.myrow()),
            Self::local_cols(ncols, q, grid.mycol()),
        );
        let keys = || {
            received
                .iter()
                .flatten()
                .map(|&(r, c, _)| ((r - r0) as u32, c - c0))
        };
        let plan = RadixPlan::new(nrows_l, ncols_l, keys);
        let items = received
            .into_iter()
            .flatten()
            .map(|(r, c, v)| ((r - r0) as u32, c - c0, v));
        let local = Arc::new(Dcsc::from_plan(nrows_l, ncols_l, plan, items, add));
        DistMat {
            grid,
            nrows,
            ncols,
            local,
            by_rows: None,
        }
    }

    fn local_rows(nrows: u64, q: usize, r: usize) -> usize {
        let (a, b) = block_range(nrows, q, r);
        (b - a) as usize
    }

    fn local_cols(ncols: u64, q: usize, c: usize) -> u64 {
        let (a, b) = block_range(ncols, q, c);
        b - a
    }

    /// An empty distributed matrix. Collective only in the trivial sense
    /// (no communication).
    pub fn empty(grid: Rc<Grid>, nrows: u64, ncols: u64) -> Self {
        let local = Arc::new(Dcsc::empty(
            Self::local_rows(nrows, grid.q(), grid.myrow()),
            Self::local_cols(ncols, grid.q(), grid.mycol()),
        ));
        DistMat {
            grid,
            nrows,
            ncols,
            local,
            by_rows: None,
        }
    }

    /// Global row count.
    #[inline]
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Global column count.
    #[inline]
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// The process grid this matrix is distributed over.
    #[inline]
    pub fn grid(&self) -> &Rc<Grid> {
        &self.grid
    }

    /// Global rows `[start, end)` of my block.
    #[inline]
    pub fn row_range(&self) -> (u64, u64) {
        block_range(self.nrows, self.grid.q(), self.grid.myrow())
    }

    /// Global columns `[start, end)` of my block.
    #[inline]
    pub fn col_range(&self) -> (u64, u64) {
        block_range(self.ncols, self.grid.q(), self.grid.mycol())
    }

    /// My local block.
    #[inline]
    pub fn local(&self) -> &Dcsc<V> {
        &self.local
    }

    /// Nonzeros stored on this rank.
    #[inline]
    pub fn nnz_local(&self) -> usize {
        self.local.nnz()
    }

    /// Total nonzeros. Collective.
    pub fn nnz(&self) -> u64 {
        self.grid
            .world()
            .allreduce(self.local.nnz() as u64, |a, b| a + b)
    }

    /// Iterate my block's nonzeros with *global* indices.
    pub fn iter_local(&self) -> impl Iterator<Item = (u64, u64, &V)> + '_ {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        self.local
            .iter()
            .map(move |(r, c, v)| (r0 + r as u64, c0 + c, v))
    }

    /// Keep entries where `keep(global_row, global_col, &v)`. Local; copies
    /// the block only if something still shares it (a SUMMA panel, or the
    /// row form of a transpose), and drops this matrix's own row form.
    pub fn retain(&mut self, keep: impl Fn(u64, u64, &V) -> bool) {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        self.by_rows = None;
        Arc::make_mut(&mut self.local).retain(|r, c, v| keep(r0 + r as u64, c0 + c, v));
    }

    /// Map values, keeping structure. Local; copies the block only if
    /// something still shares it (see [`retain`](Self::retain)). The result
    /// has no row form.
    pub fn map<W: Payload + Clone + Sync>(self, f: impl Fn(u64, u64, V) -> W) -> DistMat<W> {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        let local = Arc::unwrap_or_clone(self.local).map(|r, c, v| f(r0 + r as u64, c0 + c, v));
        DistMat {
            grid: self.grid,
            nrows: self.nrows,
            ncols: self.ncols,
            local: Arc::new(local),
            by_rows: None,
        }
    }

    /// Column-restricted view for the out-of-core batch driver: same
    /// global shape and grid distribution, but only entries whose *global*
    /// column lies in `[range.0, range.1)` survive. Local (no
    /// communication) — batch `k` of a batched multiply reuses the
    /// already-distributed operand without re-shuffling anything, and
    /// because the block boundaries are unchanged, every surviving entry
    /// reaches the same SUMMA stage, in the same fold order, as in the
    /// unrestricted product — which is what makes batched edge sets
    /// bit-identical to monolithic ones. The surviving columns are one
    /// contiguous slice of the block; a row form is shared, not copied,
    /// with its column window narrowed to `range`.
    pub fn restrict_cols(&self, range: (u64, u64)) -> DistMat<V> {
        let (c0, _) = self.col_range();
        let cols = range.0.saturating_sub(c0)..range.1.saturating_sub(c0);
        let local = self.local.restrict_cols(cols.clone());
        let by_rows = self.by_rows.as_ref().map(|r| {
            let start = cols.start.clamp(r.cols.start, r.cols.end);
            RowForm {
                block: Arc::clone(&r.block),
                cols: start..cols.end.clamp(start, r.cols.end),
            }
        });
        DistMat {
            grid: Rc::clone(&self.grid),
            nrows: self.nrows,
            ncols: self.ncols,
            local: Arc::new(local),
            by_rows,
        }
    }

    /// My block by rows: the DCSC of its transpose, and the rows of it (my
    /// block's local column ids) that belong to this matrix. That is the
    /// row form a transpose keeps, shared (see [`DistMat`]), or else my
    /// block transposed here, once.
    pub fn by_rows(&self) -> (Arc<Dcsc<V>>, Range<u64>) {
        match &self.by_rows {
            Some(r) => (Arc::clone(&r.block), r.cols.clone()),
            None => (Arc::new(self.local.transpose()), 0..self.local.ncols()),
        }
    }

    /// Distributed SpGEMM `C = self · b` over `sr`, using the 2D Sparse
    /// SUMMA schedule: at stage `t`, the owners of `A(·,t)` broadcast along
    /// grid rows and the owners of `B(t,·)` along grid columns; every rank
    /// multiplies the received pair locally and folds the partial triples.
    /// The broadcasts are double-buffered: stage `t+1`'s panels are posted
    /// nonblocking before stage `t` multiplies, so they travel while it
    /// computes. A panel travels as an `Arc` of the owner's block, accounted
    /// at the block's bytes: nobody copies it, at any grid size. Collective.
    ///
    /// A semiring that declares an [`OutputMask`](crate::OutputMask) takes
    /// the masked path: the `B` panel travels by rows (`b`'s row form, or
    /// its owner's block transposed once before the first stage), and each
    /// stage is a masked outer product over the shared inner indices,
    /// which never forms an entry the mask drops. `strategy` is read only
    /// by unmasked products.
    ///
    /// Trace shape: every stage emits the same span skeleton —
    /// `summa.stage { summa.prefetch { pcomm.ibcast.post ×2 }, summa.bcast_a,
    /// summa.bcast_b, summa.local_mul }` — on every rank, including the
    /// final stage (whose prefetch posts nothing), so structure signatures
    /// stay identical across ranks and grid sizes.
    pub fn spgemm<SR>(
        &self,
        b: &DistMat<SR::B>,
        sr: &SR,
        strategy: SpGemmStrategy,
    ) -> DistMat<SR::C>
    where
        SR: Semiring<A = V>,
        SR::B: Payload + Clone + Sync,
        SR::C: Payload + Clone + Sync,
    {
        assert!(
            Rc::ptr_eq(&self.grid, &b.grid),
            "operands must share a grid"
        );
        assert_eq!(self.ncols, b.nrows, "global dimension mismatch");
        let grid = &self.grid;
        let q = grid.q();
        let (myrow, mycol) = (grid.myrow(), grid.mycol());
        // The `B` panel I broadcast, and the columns of it that take part.
        let (b_panel, b_cols) = match SR::MASK {
            Some(_) => b.by_rows(),
            None => (Arc::clone(&b.local), 0..b.local.ncols()),
        };
        // Post stage `t`'s panel broadcasts nonblocking. Past the last
        // stage this posts nothing but still emits the post-span skeleton.
        let post = |t: usize| {
            let _s = obs::span!("summa.prefetch", stage = t);
            if t < q {
                let ha = grid
                    .row_comm()
                    .ibcast(t, (mycol == t).then(|| Arc::clone(&self.local)));
                let hb = grid
                    .col_comm()
                    .ibcast(t, (myrow == t).then(|| Arc::clone(&b_panel)));
                Some((ha, hb))
            } else {
                for _ in 0..2 {
                    let _p = obs::span!("pcomm.ibcast.post");
                }
                None
            }
        };
        let mut next = post(0);
        let mut acc: Vec<(u32, u64, SR::C)> = Vec::new();
        for t in 0..q {
            let _stage = obs::span!("summa.stage", stage = t);
            let (ha, hb) = next.take().expect("stage broadcast not posted");
            next = post(t + 1);
            let a_blk = {
                let _s = obs::span!("summa.bcast_a");
                ha.wait()
            };
            let b_blk = {
                let _s = obs::span!("summa.bcast_b");
                hb.wait()
            };
            let triples = {
                let _s = obs::span!("summa.local_mul");
                match SR::MASK {
                    Some(mask) => masked_outer_spgemm(
                        &a_blk,
                        &b_blk,
                        b_cols.clone(),
                        |lj| mask.row_end(lj, myrow, mycol),
                        sr,
                    ),
                    None => local_spgemm(&a_blk, &b_blk, sr, strategy),
                }
            };
            acc.extend(triples);
        }
        // Stable sort keeps stage order for duplicates, so the add fold is
        // in ascending global inner index — identical for every grid size.
        // The fully accumulated partial-triple buffer is the product's
        // peak-footprint moment.
        obs::alloc::probe("mem.watermark.sparse.triples", &acc);
        let _fold = obs::span!("summa.fold", triples = acc.len());
        let local = Dcsc::from_triples(
            Self::local_rows(self.nrows, q, myrow),
            Self::local_cols(b.ncols, q, mycol),
            acc,
            |a, v| sr.add(a, v),
        );
        DistMat {
            grid: Rc::clone(grid),
            nrows: self.nrows,
            ncols: b.ncols,
            local: Arc::new(local),
            by_rows: None,
        }
    }

    /// Distributed transpose: every rank sends its block, as an `Arc`, to
    /// its transpose partner and transposes the block it receives — block
    /// `(r, c)` of `Aᵀ` is block `(c, r)` of `A` transposed, in the same
    /// local indices ([`Dcsc::transpose`]). The received block is kept as
    /// the result's row form (see [`DistMat`]). Collective.
    pub fn transpose(&self) -> DistMat<V> {
        let _span = obs::span!("sparse.transpose");
        let grid = &self.grid;
        let partner = grid.transpose_partner();
        let theirs = if partner == grid.world().rank() {
            Arc::clone(&self.local)
        } else {
            const TRANSPOSE_TAG: u64 = 0x7A;
            grid.world()
                .isend(partner, TRANSPOSE_TAG, Arc::clone(&self.local));
            grid.world().recv::<Arc<Dcsc<V>>>(partner, TRANSPOSE_TAG)
        };
        let local = theirs.transpose();
        let cols = 0..local.ncols();
        DistMat {
            grid: Rc::clone(grid),
            nrows: self.ncols,
            ncols: self.nrows,
            local: Arc::new(local),
            by_rows: Some(RowForm {
                block: theirs,
                cols,
            }),
        }
    }

    /// Element-wise union with another identically-distributed matrix:
    /// entries present in both are folded with `combine(mine, theirs)`.
    /// Local (no communication).
    pub fn elementwise_add(&self, other: &DistMat<V>, combine: impl Fn(&mut V, V)) -> DistMat<V> {
        assert!(
            Rc::ptr_eq(&self.grid, &other.grid),
            "operands must share a grid"
        );
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "dimension mismatch"
        );
        let mut triples: Vec<(u32, u64, V)> = self
            .local
            .iter()
            .map(|(r, c, v)| (r, c, v.clone()))
            .collect();
        triples.extend(other.local.iter().map(|(r, c, v)| (r, c, v.clone())));
        let local = Dcsc::from_triples(self.local.nrows(), self.local.ncols(), triples, combine);
        DistMat {
            grid: Rc::clone(&self.grid),
            nrows: self.nrows,
            ncols: self.ncols,
            local: Arc::new(local),
            by_rows: None,
        }
    }

    /// Gather all triples (global indices) to `root`. Collective.
    pub fn gather_triples(&self, root: usize) -> Option<Vec<Triple<V>>> {
        let mine: Vec<Triple<V>> = self
            .iter_local()
            .map(|(r, c, v)| (r, c, v.clone()))
            .collect();
        self.grid
            .world()
            .gather(root, mine)
            .map(|parts| parts.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_partition() {
        for n in [1u64, 5, 9, 10, 100, 1_000_003] {
            for q in [1usize, 2, 3, 7] {
                let mut expect = 0u64;
                for i in 0..q {
                    let (a, b) = block_range(n, q, i);
                    assert_eq!(a, expect);
                    expect = b;
                }
                assert_eq!(expect, n);
            }
        }
    }

    #[test]
    fn owner_matches_range() {
        for n in [1u64, 7, 24, 1000] {
            for q in [1usize, 2, 3, 5] {
                for g in 0..n {
                    let i = block_owner(n, q, g);
                    let (a, b) = block_range(n, q, i);
                    assert!(a <= g && g < b, "n={n} q={q} g={g} i={i}");
                }
            }
        }
    }
}
