//! 2D block-distributed sparse matrices and Sparse SUMMA SpGEMM
//! (paper §II-A, §V-C).
//!
//! A `DistMat` lives on a √p × √p process grid; rank `(r, c)` owns the block
//! of rows `[r·m/q, (r+1)·m/q)` × columns `[c·n/q, (c+1)·n/q)`, stored
//! hypersparse-friendly as [`Dcsc`] with block-local indices. All methods
//! marked *collective* must be called by every rank of the grid.

use std::cell::OnceCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use pcomm::{Grid, Payload};

use crate::dcsc::Dcsc;
use crate::local_spgemm::{local_spgemm, masked_outer_spgemm, SpGemmStrategy};
use crate::once::OnceTable;
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
/// A matrix made by [`transpose`](Self::transpose) holds its block *by
/// rows* only: the untransposed block it was made from, which is the
/// transpose partner's block of the original (at p = 1, the original's
/// own). A masked product reads its right operand in that form, and so
/// does [`restrict_cols`](Self::restrict_cols), which narrows it. The block
/// by columns is formed from it on first read — [`local`](Self::local),
/// [`iter_local`](Self::iter_local), an unmasked
/// [`spgemm`](Self::spgemm), `retain`, `map`, `elementwise_add` — and kept.
/// The row form costs no memory while the original lives, and the
/// original must then not be changed: after `a.transpose()`, neither
/// `retain` nor `map` may be called on `a`, or `Arc::make_mut` silently
/// turns the shared block into a copy.
pub struct DistMat<V> {
    grid: Rc<Grid>,
    nrows: u64,
    ncols: u64,
    /// My block by columns; unset until first read when `by_rows` is set.
    local: OnceCell<Arc<Dcsc<V>>>,
    by_rows: Option<RowForm<V>>,
}

/// A block held by rows: the DCSC of its transpose, of which only the rows
/// `cols` (the block's local column ids) belong to the matrix — a
/// column-restricted matrix shares its parent's row form.
struct RowForm<V> {
    block: Arc<Dcsc<V>>,
    cols: Range<u64>,
}

/// Where the triples of a `nrows × ncols` matrix go on `grid`: each to the
/// rank owning its block. Shared by both constructors.
struct Shuffle<'g> {
    grid: &'g Grid,
    nrows: u64,
    ncols: u64,
}

impl Shuffle<'_> {
    #[inline]
    fn check(&self, r: u64, c: u64) {
        assert!(
            r < self.nrows && c < self.ncols,
            "triple ({r},{c}) outside {}×{}",
            self.nrows,
            self.ncols
        );
    }

    #[inline]
    fn owner(&self, r: u64, c: u64) -> usize {
        self.check(r, c);
        let q = self.grid.q();
        self.grid
            .rank_of(block_owner(self.nrows, q, r), block_owner(self.ncols, q, c))
    }

    /// How many of `keys` each rank owns.
    fn counts(&self, keys: impl Iterator<Item = (u64, u64)>) -> Vec<usize> {
        let mut counts = vec![0usize; self.grid.world().size()];
        keys.for_each(|(r, c)| counts[self.owner(r, c)] += 1);
        counts
    }

    /// `triples` bucketed into exact-size parts, one per owner, in input
    /// order; `counts` are their [`counts`](Self::counts).
    fn fill<V>(
        &self,
        counts: &[usize],
        triples: impl Iterator<Item = Triple<V>>,
    ) -> Vec<Vec<Triple<V>>> {
        let mut parts: Vec<Vec<Triple<V>>> =
            counts.iter().map(|&k| Vec::with_capacity(k)).collect();
        triples.for_each(|(r, c, v)| parts[self.owner(r, c)].push((r, c, v)));
        parts
    }

    /// Per owner, one bit per key of `keys` it owns, in input order: set
    /// when the owner keeps the key's column, which it decides from the
    /// column ids alone. Each owner is sent the column ids of its keys
    /// (`counts` are their [`counts`](Self::counts)) local to its block,
    /// as `u32`, marks them — global again — in a [`OnceTable`] merged
    /// down its grid column, whose blocks hold the other rows of the same
    /// columns, and sends back a bit per id. Collective.
    fn kept_bits(&self, counts: &[usize], keys: impl Iterator<Item = (u64, u64)>) -> Vec<Vec<u64>> {
        let q = self.grid.q();
        assert!(
            self.ncols.div_ceil(q as u64) <= 1 << 32,
            "a block's column ids must fit u32"
        );
        let mut ids: Vec<Vec<u32>> = counts.iter().map(|&k| Vec::with_capacity(k)).collect();
        keys.for_each(|(r, c)| {
            let c0 = block_range(self.ncols, q, block_owner(self.ncols, q, c)).0;
            ids[self.owner(r, c)].push((c - c0) as u32);
        });
        let world = self.grid.world();
        let received = world.alltoallv(ids);
        let len = received.iter().map(Vec::len).sum();
        let c0 = block_range(self.ncols, q, self.grid.mycol()).0;
        let global = |id: &u32| c0 + u64::from(*id);
        let table = OnceTable::of_grid_col(self.grid, len, received.iter().flatten().map(global));
        let bits = (received.into_iter())
            .map(|part| {
                let mut words = vec![0u64; part.len().div_ceil(64)];
                for (i, _) in (part.iter().enumerate()).filter(|&(_, id)| table.keeps(global(id))) {
                    words[i / 64] |= 1 << (i % 64);
                }
                words
            })
            .collect();
        drop(table);
        world.alltoallv(bits)
    }

    /// The `triples` whose bit in `kept` ([`kept_bits`](Self::kept_bits)
    /// of the same keys in the same order) is set, bucketed into
    /// exact-size parts as by [`fill`](Self::fill), and per global row the
    /// number of the others.
    fn fill_kept<V>(
        &self,
        kept: &[Vec<u64>],
        triples: impl Iterator<Item = Triple<V>>,
    ) -> (Vec<Vec<Triple<V>>>, Vec<u32>) {
        let mut parts: Vec<Vec<Triple<V>>> = (kept.iter())
            .map(|bits| Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum()))
            .collect();
        let mut next = vec![0usize; kept.len()];
        let mut dropped = vec![0u32; self.nrows as usize];
        triples.for_each(|(r, c, v)| {
            let owner = self.owner(r, c);
            let i = next[owner];
            next[owner] += 1;
            match kept[owner][i / 64] >> (i % 64) & 1 {
                1 => parts[owner].push((r, c, v)),
                _ => dropped[r as usize] += 1,
            }
        });
        (parts, dropped)
    }
}

/// My block's place in a `nrows × ncols` matrix: its first global row and
/// column, and its local dimensions.
struct Frame {
    r0: u64,
    c0: u64,
    rows: usize,
    cols: u64,
}

impl Frame {
    fn of(grid: &Grid, nrows: u64, ncols: u64) -> Self {
        let (r0, r1) = block_range(nrows, grid.q(), grid.myrow());
        let (c0, c1) = block_range(ncols, grid.q(), grid.mycol());
        Frame {
            r0,
            c0,
            rows: (r1 - r0) as usize,
            cols: c1 - c0,
        }
    }

    /// The radix plan of my block's triples, whose global `(row, col)`
    /// `keys()` yields.
    fn plan<K: Iterator<Item = (u64, u64)>>(&self, keys: impl Fn() -> K) -> RadixPlan {
        RadixPlan::new(self.rows, self.cols, || {
            keys().map(|(r, c)| ((r - self.r0) as u32, c - self.c0))
        })
    }

    /// My block of those `triples` whose column `kept` keeps, which `plan`
    /// counted in the same order, and how many it dropped per local row
    /// (empty when `kept` keeps every column). `kept` goes with the items,
    /// so its table is freed once the radix sort's first pass has read
    /// them, before the block's arrays are allocated.
    fn block<V>(
        &self,
        plan: RadixPlan,
        triples: impl Iterator<Item = Triple<V>>,
        kept: Kept,
        add: impl Fn(&mut V, V),
    ) -> (Dcsc<V>, Vec<u32>) {
        let mut dropped = match kept.0 {
            Some(_) => vec![0u32; self.rows],
            None => Vec::new(),
        };
        let count = &mut dropped;
        let items = triples
            .filter(move |&(r, c, _)| {
                kept.col(c) || {
                    count[(r - self.r0) as usize] += 1;
                    false
                }
            })
            .map(|(r, c, v)| ((r - self.r0) as u32, c - self.c0, v));
        let block = Dcsc::from_plan(self.rows, self.cols, plan, items, add);
        (block, dropped)
    }
}

/// The columns a block keeps: every one, or on a grid of one rank only
/// those a [`OnceTable`] marked with every entry keeps.
struct Kept(Option<OnceTable>);

impl Kept {
    #[inline]
    fn col(&self, c: u64) -> bool {
        self.0.as_ref().is_none_or(|t| t.keeps(c))
    }
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
        // Work accounting: owner computation + bucketing per triple.
        pcomm::work::record_class(triples.len() as u64, pcomm::work::CostClass::TripleShuffle);
        let shuffle = Shuffle {
            grid: &grid,
            nrows,
            ncols,
        };
        let counts = shuffle.counts(triples.iter().map(|&(r, c, _)| (r, c)));
        let parts = match counts.iter().position(|&k| k == triples.len()) {
            Some(only) => {
                let mut parts: Vec<_> = counts.iter().map(|_| Vec::new()).collect();
                parts[only] = triples;
                parts
            }
            None => shuffle.fill(&counts, triples.into_iter()),
        };
        Self::from_parts(grid, nrows, ncols, parts, add)
    }

    /// Build from the globally-indexed triples `source()` yields on each
    /// rank, as [`from_triples`](Self::from_triples) of them collected, in
    /// the same order: the same block, duplicates folded in the same order.
    /// Collective. The source is read twice and never collected: on a
    /// grid of one rank, the only owner, its keys are counted for the
    /// radix sort and its items then sorted straight into the block (the
    /// `alltoallv` still runs, on an empty part); on a larger grid, its
    /// owners are counted and exact-size per-owner parts filled from it.
    pub fn from_source<I>(
        grid: Rc<Grid>,
        nrows: u64,
        ncols: u64,
        source: impl Fn() -> I,
        add: impl Fn(&mut V, V),
    ) -> Self
    where
        I: Iterator<Item = Triple<V>>,
    {
        Self::from_source_in(grid, nrows, ncols, None, source, add).0
    }

    /// [`from_source`](Self::from_source) less the columns that hold one
    /// triple of the whole matrix, dropped before any of the block's
    /// arrays is allocated, and per global row the number of `source()`'s
    /// triples dropped on this rank (`nrows` counts; summed over the ranks
    /// they are the matrix's). Each dropped triple is one nonzero, alone in
    /// its column, so the nonzeros here plus those dropped are
    /// `from_source`'s. Every column kept is `from_source`'s column whole:
    /// all those of two triples or more, and a one-triple column whose
    /// hashed cell in the "seen once / seen twice" table another column's
    /// triple shares. Collective.
    ///
    /// On a grid of one rank the table is marked in a read of the source
    /// before the two of `from_source`; `entries`, how many triples
    /// `source()` yields, sizes it (a wrong value costs only more kept
    /// columns). On a larger grid no triple moves before its column is
    /// judged: a second read of the source sends each owner the column ids
    /// of its triples (4 B each, local to the owner's block), the owner
    /// marks them in a table sized on its grid column's ids, merged down
    /// the grid column, whose blocks hold the other rows of the same
    /// columns, and answers one bit per id; a third read then ships only
    /// the kept triples.
    pub fn from_source_shared<I>(
        grid: Rc<Grid>,
        nrows: u64,
        ncols: u64,
        entries: usize,
        source: impl Fn() -> I,
        add: impl Fn(&mut V, V),
    ) -> (Self, Vec<u32>)
    where
        I: Iterator<Item = Triple<V>>,
    {
        Self::from_source_in(grid, nrows, ncols, Some(entries), source, add)
    }

    /// [`from_source`](Self::from_source) with `shared` `None`, otherwise
    /// [`from_source_shared`](Self::from_source_shared) of `shared`
    /// entries.
    fn from_source_in<I>(
        grid: Rc<Grid>,
        nrows: u64,
        ncols: u64,
        shared: Option<usize>,
        source: impl Fn() -> I,
        add: impl Fn(&mut V, V),
    ) -> (Self, Vec<u32>)
    where
        I: Iterator<Item = Triple<V>>,
    {
        let _span = obs::span!("sparse.from_source");
        let shuffle = Shuffle {
            grid: &grid,
            nrows,
            ncols,
        };
        if grid.world().size() > 1 {
            let counts = shuffle.counts(source().map(|(r, c, _)| (r, c)));
            // Work accounting: owner computation + bucketing per triple.
            let n = counts.iter().sum::<usize>() as u64;
            pcomm::work::record_class(n, pcomm::work::CostClass::TripleShuffle);
            let (parts, dropped) = match shared {
                None => (shuffle.fill(&counts, source()), Vec::new()),
                Some(_) => {
                    let kept = shuffle.kept_bits(&counts, source().map(|(r, c, _)| (r, c)));
                    shuffle.fill_kept(&kept, source())
                }
            };
            return (Self::from_parts(grid, nrows, ncols, parts, add), dropped);
        }
        // Empty parts where a grid ships column ids, keep bits and
        // triples, so the trace has one shape on every grid.
        let world = grid.world();
        let kept = Kept(shared.map(|entries| {
            world.alltoallv(vec![Vec::<u32>::new()]);
            let cols = source().map(|(r, c, _)| {
                shuffle.check(r, c);
                c
            });
            let table = OnceTable::of_grid_col(&grid, entries, cols);
            world.alltoallv(vec![Vec::<u64>::new()]);
            table
        }));
        let received = world.alltoallv(vec![Vec::<Triple<V>>::new()]);
        debug_assert!(received.iter().all(Vec::is_empty));
        let frame = Frame::of(&grid, nrows, ncols);
        let plan = frame.plan(|| {
            source().filter(|t| kept.col(t.1)).map(|(r, c, _)| {
                shuffle.check(r, c);
                (r, c)
            })
        });
        let counted = plan.len() as u64;
        // My block's rows are all the rows: its drops are per global row.
        let (block, dropped) = frame.block(plan, source(), kept, add);
        // Work accounting: the counting pass stands in for the bucketing.
        let n = counted + dropped.iter().map(|&d| d as u64).sum::<u64>();
        pcomm::work::record_class(n, pcomm::work::CostClass::TripleShuffle);
        (Self::filled(grid, nrows, ncols, block), dropped)
    }

    /// The block of the triples the `alltoallv` of `parts` hands this
    /// rank.
    fn from_parts(
        grid: Rc<Grid>,
        nrows: u64,
        ncols: u64,
        parts: Vec<Vec<Triple<V>>>,
        add: impl Fn(&mut V, V),
    ) -> Self {
        let received = grid.world().alltoallv(parts);
        let heap: usize = received.iter().map(obs::alloc::HeapSize::heap_bytes).sum();
        obs::alloc::watermark("mem.watermark.sparse.build", heap as u64);
        let frame = Frame::of(&grid, nrows, ncols);
        let plan = frame.plan(|| received.iter().flatten().map(|&(r, c, _)| (r, c)));
        let (block, _) = frame.block(plan, received.into_iter().flatten(), Kept(None), add);
        Self::filled(grid, nrows, ncols, block)
    }

    /// The matrix whose block by columns is `block`.
    fn filled(grid: Rc<Grid>, nrows: u64, ncols: u64, block: Dcsc<V>) -> Self {
        DistMat {
            grid,
            nrows,
            ncols,
            local: OnceCell::from(Arc::new(block)),
            by_rows: None,
        }
    }

    /// My block by columns, formed from the row form on first read.
    fn block(&self) -> &Arc<Dcsc<V>> {
        self.local.get_or_init(|| {
            let r =
                (self.by_rows.as_ref()).expect("a matrix holds its block by columns or by rows");
            Arc::new(r.block.transpose_rows(r.cols.clone()))
        })
    }

    /// An empty distributed matrix. Collective only in the trivial sense
    /// (no communication).
    pub fn empty(grid: Rc<Grid>, nrows: u64, ncols: u64) -> Self {
        let frame = Frame::of(&grid, nrows, ncols);
        Self::filled(grid, nrows, ncols, Dcsc::empty(frame.rows, frame.cols))
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

    /// My local block, by columns (formed on first read, see [`DistMat`]).
    #[inline]
    pub fn local(&self) -> &Dcsc<V> {
        self.block()
    }

    /// Nonzeros stored on this rank. Forms no block by columns.
    pub fn nnz_local(&self) -> usize {
        match (self.local.get(), &self.by_rows) {
            (Some(block), _) => block.nnz(),
            (None, Some(r)) if r.cols == (0..r.block.nrows() as u64) => r.block.nnz(),
            (None, Some(r)) => (r.block.iter())
                .filter(|&(c, _, _)| r.cols.contains(&(c as u64)))
                .count(),
            (None, None) => unreachable!("a matrix holds its block by columns or by rows"),
        }
    }

    /// Total nonzeros. Collective.
    pub fn nnz(&self) -> u64 {
        self.grid
            .world()
            .allreduce(self.nnz_local() as u64, |a, b| a + b)
    }

    /// Iterate my block's nonzeros with *global* indices.
    pub fn iter_local(&self) -> impl Iterator<Item = (u64, u64, &V)> + '_ {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        self.block()
            .iter()
            .map(move |(r, c, v)| (r0 + r as u64, c0 + c, v))
    }

    /// Keep entries where `keep(global_row, global_col, &v)`. Local; copies
    /// the block only if something still shares it (a SUMMA panel, or the
    /// row form of a transpose), and drops this matrix's own row form.
    pub fn retain(&mut self, keep: impl Fn(u64, u64, &V) -> bool) {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        self.block();
        self.by_rows = None;
        let block = self.local.get_mut().expect("formed above");
        Arc::make_mut(block).retain(|r, c, v| keep(r0 + r as u64, c0 + c, v));
    }

    /// Map values, keeping structure. Local; copies the block only if
    /// something still shares it (see [`retain`](Self::retain)). The result
    /// has no row form.
    pub fn map<W: Payload + Clone + Sync>(self, f: impl Fn(u64, u64, V) -> W) -> DistMat<W> {
        let (r0, _) = self.row_range();
        let (c0, _) = self.col_range();
        self.block();
        let DistMat {
            grid,
            nrows,
            ncols,
            local,
            by_rows,
        } = self;
        drop(by_rows);
        let block = Arc::unwrap_or_clone(local.into_inner().expect("formed above"));
        let block = block.map(|r, c, v| f(r0 + r as u64, c0 + c, v));
        DistMat::filled(grid, nrows, ncols, block)
    }

    /// Column-restricted view for the out-of-core batch driver: same
    /// global shape and grid distribution, but only entries whose *global*
    /// column lies in `[range.0, range.1)` survive. Local (no
    /// communication) — batch `k` of a batched multiply reuses the
    /// already-distributed operand without re-shuffling anything, and
    /// because the block boundaries are unchanged, every surviving entry
    /// reaches the same SUMMA stage, in the same fold order, as in the
    /// unrestricted product — which is what makes batched edge sets
    /// bit-identical to monolithic ones. A row form is shared, not copied,
    /// with its column window narrowed to `range`; a block by columns, if
    /// formed, is copied as one contiguous slice, and otherwise stays
    /// unformed.
    pub fn restrict_cols(&self, range: (u64, u64)) -> DistMat<V> {
        let (c0, _) = self.col_range();
        let cols = range.0.saturating_sub(c0)..range.1.saturating_sub(c0);
        let local = match self.local.get() {
            Some(block) => OnceCell::from(Arc::new(block.restrict_cols(cols.clone()))),
            None => OnceCell::new(),
        };
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
            local,
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
            None => {
                let block = self.block();
                (Arc::new(block.transpose()), 0..block.ncols())
            }
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
            None => (Arc::clone(b.block()), 0..b.local().ncols()),
        };
        // Post stage `t`'s panel broadcasts nonblocking. Past the last
        // stage this posts nothing but still emits the post-span skeleton.
        let post = |t: usize| {
            let _s = obs::span!("summa.prefetch", stage = t);
            if t < q {
                let ha = grid
                    .row_comm()
                    .ibcast(t, (mycol == t).then(|| Arc::clone(self.block())));
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
            // The first stage's output is the buffer itself, not a copy.
            if acc.is_empty() {
                acc = triples;
            } else {
                acc.extend(triples);
            }
        }
        // Stable sort keeps stage order for duplicates, so the add fold is
        // in ascending global inner index — identical for every grid size.
        // The fully accumulated partial-triple buffer is the product's
        // peak-footprint moment.
        obs::alloc::probe("mem.watermark.sparse.triples", &acc);
        let _fold = obs::span!("summa.fold", triples = acc.len());
        let frame = Frame::of(grid, self.nrows, b.ncols);
        let local = Dcsc::from_triples(frame.rows, frame.cols, acc, |a, v| sr.add(a, v));
        DistMat::filled(Rc::clone(grid), self.nrows, b.ncols, local)
    }

    /// Distributed transpose: every rank sends its block, as an `Arc`, to
    /// its transpose partner, which keeps it as the result's row form —
    /// block `(r, c)` of `Aᵀ` is block `(c, r)` of `A` transposed, in the
    /// same local indices. Nothing is transposed here: the block by columns
    /// ([`Dcsc::transpose`] of the row form) is formed on first read (see
    /// [`DistMat`]). Collective.
    pub fn transpose(&self) -> DistMat<V> {
        let _span = obs::span!("sparse.transpose");
        let grid = &self.grid;
        let partner = grid.transpose_partner();
        let theirs = if partner == grid.world().rank() {
            Arc::clone(self.block())
        } else {
            const TRANSPOSE_TAG: u64 = 0x7A;
            grid.world()
                .isend(partner, TRANSPOSE_TAG, Arc::clone(self.block()));
            grid.world().recv::<Arc<Dcsc<V>>>(partner, TRANSPOSE_TAG)
        };
        let cols = 0..theirs.nrows() as u64;
        DistMat {
            grid: Rc::clone(grid),
            nrows: self.ncols,
            ncols: self.nrows,
            local: OnceCell::new(),
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
        let (mine, theirs) = (self.local(), other.local());
        let mut triples: Vec<(u32, u64, V)> =
            mine.iter().map(|(r, c, v)| (r, c, v.clone())).collect();
        triples.extend(theirs.iter().map(|(r, c, v)| (r, c, v.clone())));
        let local = Dcsc::from_triples(mine.nrows(), mine.ncols(), triples, combine);
        DistMat::filled(Rc::clone(&self.grid), self.nrows, self.ncols, local)
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
