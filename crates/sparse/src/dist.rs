//! 2D block-distributed sparse matrices and Sparse SUMMA SpGEMM
//! (paper §II-A, §V-C).
//!
//! A `DistMat` lives on a √p × √p process grid; rank `(r, c)` owns the block
//! of rows `[r·m/q, (r+1)·m/q)` × columns `[c·n/q, (c+1)·n/q)`, stored
//! hypersparse-friendly as [`Dcsc`] with block-local indices. All methods
//! marked *collective* must be called by every rank of the grid.

use std::rc::Rc;

use pcomm::{BcastHandle, Grid, Payload};

use crate::dcsc::Dcsc;
use crate::local_spgemm::{local_spgemm, SpGemmStrategy};
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
    let mut i = ((g as u128 * q as u128 / n as u128) as usize).min(q - 1);
    while g < block_range(n, q, i).0 {
        i -= 1;
    }
    while g >= block_range(n, q, i).1 {
        i += 1;
    }
    i
}

/// A sparse matrix distributed over a 2D process grid.
pub struct DistMat<V> {
    grid: Rc<Grid>,
    nrows: u64,
    ncols: u64,
    local: Dcsc<V>,
}

impl<V: Payload + Clone> DistMat<V> {
    /// Build from globally-indexed triples scattered arbitrarily over ranks.
    /// Collective: triples are shuffled to their owner blocks (`alltoallv`),
    /// duplicates combined with `add`.
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
        let mut parts: Vec<Vec<Triple<V>>> = (0..p).map(|_| Vec::new()).collect();
        for (r, c, v) in triples {
            assert!(
                r < nrows && c < ncols,
                "triple ({r},{c}) outside {nrows}×{ncols}"
            );
            let owner = grid.rank_of(block_owner(nrows, q, r), block_owner(ncols, q, c));
            parts[owner].push((r, c, v));
        }
        let received = grid.world().alltoallv(parts);
        let (r0, _r1) = block_range(nrows, q, grid.myrow());
        let (c0, _c1) = block_range(ncols, q, grid.mycol());
        let local_triples: Vec<(u32, u64, V)> = received
            .into_iter()
            .flatten()
            .map(|(r, c, v)| ((r - r0) as u32, c - c0, v))
            .collect();
        obs::alloc::probe("mem.watermark.sparse.triples", &local_triples);
        let local = Dcsc::from_triples(
            Self::local_rows(nrows, q, grid.myrow()),
            Self::local_cols(ncols, q, grid.mycol()),
            local_triples,
            add,
        );
        DistMat {
            grid,
            nrows,
            ncols,
            local,
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
        let local = Dcsc::empty(
            Self::local_rows(nrows, grid.q(), grid.myrow()),
            Self::local_cols(ncols, grid.q(), grid.mycol()),
        );
        DistMat {
            grid,
            nrows,
            ncols,
            local,
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

    /// Keep entries where `keep(global_row, global_col, &v)`. Local.
    pub fn retain(&mut self, keep: impl Fn(u64, u64, &V) -> bool) {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        self.local.retain(|r, c, v| keep(r0 + r as u64, c0 + c, v));
    }

    /// Map values, keeping structure. Local.
    pub fn map<W: Payload + Clone>(self, f: impl Fn(u64, u64, V) -> W) -> DistMat<W> {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        let local = self.local.map(|r, c, v| f(r0 + r as u64, c0 + c, v));
        DistMat {
            grid: self.grid,
            nrows: self.nrows,
            ncols: self.ncols,
            local,
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
    /// bit-identical to monolithic ones.
    pub fn restrict_cols(&self, range: (u64, u64)) -> DistMat<V> {
        let (c0, _) = self.col_range();
        let triples: Vec<(u32, u64, V)> = self
            .local
            .iter()
            .filter(|&(_, c, _)| {
                let g = c0 + c;
                g >= range.0 && g < range.1
            })
            .map(|(r, c, v)| (r, c, v.clone()))
            .collect();
        let local = Dcsc::from_triples(self.local.nrows(), self.local.ncols(), triples, |_, _| {
            unreachable!("restriction cannot create duplicates")
        });
        DistMat {
            grid: Rc::clone(&self.grid),
            nrows: self.nrows,
            ncols: self.ncols,
            local,
        }
    }

    /// Distributed SpGEMM `C = self · b` over `sr`, using the 2D Sparse
    /// SUMMA schedule: at stage `t`, the owners of `A(·,t)` broadcast along
    /// grid rows and the owners of `B(t,·)` along grid columns; every rank
    /// multiplies the received pair locally and folds the partial triples.
    /// Implemented as a fold of [`DistMat::spgemm_stream`]. Collective.
    pub fn spgemm<SR>(
        &self,
        b: &DistMat<SR::B>,
        sr: &SR,
        strategy: SpGemmStrategy,
    ) -> DistMat<SR::C>
    where
        SR: Semiring<A = V>,
        SR::B: Payload + Clone,
        SR::C: Payload + Clone,
    {
        let stream = self.spgemm_stream(b, sr, strategy);
        let grid = &self.grid;
        let q = grid.q();
        let mut acc: Vec<(u32, u64, SR::C)> = Vec::new();
        stream.for_each_stage(|_t, triples| acc.extend(triples));
        // Stable sort keeps stage order for duplicates, so the add fold is
        // in ascending global inner index — identical for every grid size.
        // The fully accumulated partial-triple buffer is the PSG's
        // peak-footprint moment on the staged path.
        obs::alloc::probe("mem.watermark.sparse.triples", &acc);
        let _fold = obs::span!("summa.fold", triples = acc.len());
        let local = Dcsc::from_triples(
            Self::local_rows(self.nrows, q, grid.myrow()),
            Self::local_cols(b.ncols, q, grid.mycol()),
            acc,
            |a, v| sr.add(a, v),
        );
        DistMat {
            grid: Rc::clone(grid),
            nrows: self.nrows,
            ncols: b.ncols,
            local,
        }
    }

    /// Start a streaming Sparse SUMMA multiply `self · b`: the returned
    /// [`SummaStream`] double-buffers panel broadcasts (stage `t+1` is
    /// posted nonblocking before stage `t` multiplies) and yields each
    /// stage's partial triples to a consumer, so downstream work can begin
    /// while later panels are still in flight. Collective; every rank of
    /// the grid must drive the stream through all stages.
    pub fn spgemm_stream<'a, SR>(
        &'a self,
        b: &'a DistMat<SR::B>,
        sr: &'a SR,
        strategy: SpGemmStrategy,
    ) -> SummaStream<'a, SR>
    where
        SR: Semiring<A = V>,
        SR::B: Payload + Clone,
        SR::C: Payload + Clone,
    {
        assert!(
            Rc::ptr_eq(&self.grid, &b.grid),
            "operands must share a grid"
        );
        assert_eq!(self.ncols, b.nrows, "global dimension mismatch");
        let mut stream = SummaStream {
            a: self,
            b,
            sr,
            strategy,
            q: self.grid.q(),
            next_a: None,
            next_b: None,
        };
        stream.post(0);
        stream
    }

    /// Distributed transpose: every rank swaps indices and trades its block
    /// with its transpose partner. Collective.
    pub fn transpose(&self) -> DistMat<V> {
        let _span = obs::span!("sparse.transpose");
        let grid = &self.grid;
        let partner = grid.transpose_partner();
        let me = grid.world().rank();
        let mine: Vec<Triple<V>> = self
            .iter_local()
            .map(|(r, c, v)| (c, r, v.clone()))
            .collect();
        let swapped: Vec<Triple<V>> = if partner == me {
            mine
        } else {
            const TRANSPOSE_TAG: u64 = 0x7A;
            grid.world().isend(partner, TRANSPOSE_TAG, mine);
            grid.world().recv::<Vec<Triple<V>>>(partner, TRANSPOSE_TAG)
        };
        let q = grid.q();
        let (r0, _) = block_range(self.ncols, q, grid.myrow());
        let (c0, _) = block_range(self.nrows, q, grid.mycol());
        let local_triples: Vec<(u32, u64, V)> = swapped
            .into_iter()
            .map(|(r, c, v)| ((r - r0) as u32, c - c0, v))
            .collect();
        let local = Dcsc::from_triples(
            Self::local_rows(self.ncols, q, grid.myrow()),
            Self::local_cols(self.nrows, q, grid.mycol()),
            local_triples,
            |_, _| unreachable!("transpose cannot create duplicates"),
        );
        DistMat {
            grid: Rc::clone(grid),
            nrows: self.ncols,
            ncols: self.nrows,
            local,
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
            local,
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

/// In-flight streaming Sparse SUMMA multiply (see
/// [`DistMat::spgemm_stream`]).
///
/// Stage `t`'s A/B panel broadcasts are posted nonblocking one stage ahead:
/// while stage `t` multiplies, stage `t+1`'s panels travel. Triples are
/// yielded per stage in the exact order the monolithic [`DistMat::spgemm`]
/// accumulates them, so a consumer that folds duplicates in arrival order
/// reproduces its results bit for bit.
///
/// Trace shape: every stage emits the same span skeleton —
/// `summa.stage { summa.prefetch { pcomm.ibcast.post ×2 }, summa.bcast_a,
/// summa.bcast_b, summa.local_mul, <consumer> }` — on every rank, including
/// the final stage (whose prefetch posts nothing), so structure signatures
/// stay identical across ranks and grid sizes.
pub struct SummaStream<'a, SR>
where
    SR: Semiring,
    SR::A: Payload + Clone,
    SR::B: Payload + Clone,
    SR::C: Payload + Clone,
{
    a: &'a DistMat<SR::A>,
    b: &'a DistMat<SR::B>,
    sr: &'a SR,
    strategy: SpGemmStrategy,
    q: usize,
    next_a: Option<BcastHandle<Dcsc<SR::A>>>,
    next_b: Option<BcastHandle<Dcsc<SR::B>>>,
}

impl<'a, SR> SummaStream<'a, SR>
where
    SR: Semiring,
    SR::A: Payload + Clone,
    SR::B: Payload + Clone,
    SR::C: Payload + Clone,
{
    /// Number of SUMMA stages (`q = √p`).
    pub fn stages(&self) -> usize {
        self.q
    }

    /// Post stage `t`'s panel broadcasts nonblocking. Past the last stage
    /// this posts nothing but still emits the post-span skeleton, keeping
    /// every stage's subtree shape identical for the cross-grid structure
    /// signature.
    fn post(&mut self, t: usize) {
        let _s = obs::span!("summa.prefetch", stage = t);
        if t < self.q {
            let grid = &self.a.grid;
            self.next_a = Some(
                grid.row_comm()
                    .ibcast(t, (grid.mycol() == t).then(|| self.a.local.clone())),
            );
            self.next_b = Some(
                grid.col_comm()
                    .ibcast(t, (grid.myrow() == t).then(|| self.b.local.clone())),
            );
        } else {
            {
                let _p = obs::span!("pcomm.ibcast.post");
            }
            {
                let _p = obs::span!("pcomm.ibcast.post");
            }
        }
    }

    /// Drive every stage: wait for stage `t`'s panels (posted one stage
    /// earlier), post stage `t+1`, multiply locally, and hand the stage's
    /// partial triples (block-local indices, column-major, in-stage
    /// duplicates pre-folded by the semiring) to `consume` — which runs
    /// inside the stage span, so its spans and work ledger land in the
    /// stage it overlaps with.
    pub fn for_each_stage(mut self, mut consume: impl FnMut(usize, Vec<(u32, u64, SR::C)>)) {
        for t in 0..self.q {
            let _stage = obs::span!("summa.stage", stage = t);
            let ha = self.next_a.take().expect("stage broadcast not posted");
            let hb = self.next_b.take().expect("stage broadcast not posted");
            self.post(t + 1);
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
                local_spgemm(&a_blk, &b_blk, self.sr, self.strategy)
            };
            consume(t, triples);
        }
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
