//! Out-of-core batch sizer (DESIGN.md §15).
//!
//! The extreme-scale PASTIS successor (arXiv:2303.01845) bounds the memory
//! of any one overlap SpGEMM by splitting the target sequences into column
//! batches. This module is the sizer: it estimates, per global column `j`
//! of `B = A·Aᵀ`, how many multiply flops the column attracts — the flop
//! count upper-bounds the partial triples the SUMMA multiply materializes
//! for that column — and greedily packs contiguous columns into batches
//! whose estimated per-rank footprint stays under the caller's byte
//! budget.
//!
//! The estimate reads the k-mer counts the frequency pre-filter reads, and
//! is collective and deterministic: every rank derives the identical
//! full-length weight vector from three allgathers, so every rank computes
//! the identical plan with no further agreement round.

use pcomm::Grid;
use sparse::DistMat;

/// Bytes charged per estimated multiply flop when sizing a batch.
///
/// One flop can contribute a `(u32, u64, SeedPair)` stage triple (~40
/// bytes payload) that transiently coexists with the local multiply's
/// stage buffer and the fold's stable sort of the accumulated triples,
/// and `Vec` growth doubling can briefly hold both the old and new triple
/// buffers. 128 bytes/flop covers the sum with allocator slack; the
/// release `ALLOC_TRACK=1` acceptance test (`ooc_budget.rs`) checks the
/// measured peak stays under budgets sized with this constant.
pub const OOC_BYTES_PER_FLOP: u64 = 128;

/// A batched-run plan: contiguous global column ranges of `B`, ascending,
/// covering the full width. Identical on every rank of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// The per-rank byte budget the plan was sized for.
    pub budget_bytes: u64,
    /// Column ranges `[start, end)` of each batch.
    pub ranges: Vec<(u64, u64)>,
    /// Estimated per-rank peak bytes of each batch (same indexing as
    /// `ranges`). A batch of a single column may exceed the budget — one
    /// column is the partitioning floor.
    pub est_bytes: Vec<u64>,
}

/// Size the batches for `B = A·Aᵀ` from the distributed `Aᵀ` operand.
/// Collective over the grid; every rank returns the identical plan.
///
/// Column `j` of `B` accumulates one flop per (k-mer `k` in sequence `j`,
/// occurrence of `k` anywhere), i.e. `w[j] = Σ_{k: Aᵀ(k,j)≠0}
/// nnz(Aᵀ(k,·))`: each k-mer's global count along the grid row, added to
/// every sequence of its column in `Aᵀ`'s row form, then summed down the
/// grid column and concatenated along the grid row.
pub fn plan(grid: &Grid, a_t: &DistMat<u32>, budget_bytes: u64) -> BatchPlan {
    plan_dropped(grid, a_t, &[], budget_bytes)
}

/// [`plan`] for the `Aᵀ` of [`crate::form_shared_a`]'s `A`, sized as for
/// [`crate::form_a`]'s: `dropped` holds, per sequence, the nonzeros that
/// `A` lost (or nothing, for none). Each is a k-mer its sequence alone
/// holds, one flop of that sequence's column, so `w[j] += dropped[j]`.
pub(crate) fn plan_dropped(
    grid: &Grid,
    a_t: &DistMat<u32>,
    dropped: &[u32],
    budget_bytes: u64,
) -> BatchPlan {
    let _span = obs::span!("pastis.batch_plan");
    let mut weights = column_weights(grid, a_t);
    if !dropped.is_empty() {
        assert_eq!(
            dropped.len(),
            weights.len(),
            "one dropped count per sequence"
        );
        weights
            .iter_mut()
            .zip(dropped)
            .for_each(|(w, &d)| *w += d as u64);
    }
    let (ranges, est_bytes) = partition(&weights, grid.q(), budget_bytes);
    BatchPlan {
        budget_bytes,
        ranges,
        est_bytes,
    }
}

/// Full-length flop-weight vector for `B`'s columns (see [`plan`]).
/// Collective; identical on every rank.
fn column_weights(grid: &Grid, a_t: &DistMat<u32>) -> Vec<u64> {
    // 1. My block of `Aᵀ` by rows: its columns are the k-mers of my row
    //    block, its rows my local sequence columns. The ranks of my grid
    //    row hold the other sequence slices of the same k-mers.
    let (by_kmer, seqs) = a_t.by_rows();
    debug_assert_eq!(seqs, 0..by_kmer.nrows() as u64, "plan sizes a whole Aᵀ");
    let counts = crate::matrices::kmer_counts(grid.row_comm(), &by_kmer);
    let mut union = counts.iter();
    let mut w = vec![0u64; by_kmer.nrows()];
    for (i, &c) in by_kmer.cols().iter().enumerate() {
        // Both ascending, and the union holds each of my columns.
        let (_, n) = union
            .find(|&(id, _)| id as u64 == c)
            .expect("my column is in the union");
        for &s in by_kmer.col_by_index(i).0 {
            w[s as usize] += n as u64;
        }
    }
    // 2. Sum down my grid column (those ranks hold the other k-mer slices
    //    of the same sequence columns).
    let mut col_block = vec![0u64; w.len()];
    for part in grid.col_comm().allgather(w) {
        for (acc, x) in col_block.iter_mut().zip(part) {
            *acc += x;
        }
    }
    // 3. Concatenate the column blocks along my grid row (subcommunicator
    //    ranks are ordered by grid column, and column blocks are
    //    contiguous ascending) into the full-length vector.
    grid.row_comm()
        .allgather(col_block)
        .into_iter()
        .flatten()
        .collect()
}

/// Greedily pack columns into contiguous batches whose estimated per-rank
/// bytes stay under `budget_bytes`, with a floor of one column per batch.
/// Returns `(ranges, est_bytes)`.
///
/// The per-rank share divides by `q` (not `p`): one column of `B` lives in
/// a single grid-column block, so a narrow batch concentrates its triples
/// on the `q` ranks of one grid column — `Σw·bytes/q` is the worst-case
/// per-rank footprint, not the mean `Σw·bytes/p`.
fn partition(weights: &[u64], q: usize, budget_bytes: u64) -> (Vec<(u64, u64)>, Vec<u64>) {
    if weights.is_empty() {
        return (vec![(0, 0)], vec![0]);
    }
    let col_bytes = |w: u64| (w * OOC_BYTES_PER_FLOP).div_ceil(q as u64);
    let mut ranges = Vec::new();
    let mut est = Vec::new();
    let mut start = 0u64;
    let mut acc = 0u64;
    for (j, &w) in weights.iter().enumerate() {
        let c = col_bytes(w);
        if j as u64 > start && acc.saturating_add(c) > budget_bytes {
            ranges.push((start, j as u64));
            est.push(acc);
            start = j as u64;
            acc = 0;
        }
        acc = acc.saturating_add(c);
    }
    ranges.push((start, weights.len() as u64));
    est.push(acc);
    (ranges, est)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_tiles(ranges: &[(u64, u64)], n: u64) {
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must tile contiguously");
        }
        for &(a, b) in ranges {
            assert!(a < b, "empty batch ({a},{b})");
        }
    }

    #[test]
    fn partition_tiles_and_respects_budget() {
        let w = [5u64, 1, 9, 2, 2, 2, 7, 0, 3];
        let q = 2;
        let budget = 4 * OOC_BYTES_PER_FLOP;
        let (ranges, est) = partition(&w, q, budget);
        assert_tiles(&ranges, w.len() as u64);
        for (&(a, b), &e) in ranges.iter().zip(&est) {
            let exact: u64 = w[a as usize..b as usize]
                .iter()
                .map(|&x| (x * OOC_BYTES_PER_FLOP).div_ceil(q as u64))
                .sum();
            assert_eq!(e, exact);
            // Multi-column batches stay under budget; a single column may
            // legitimately exceed it (the partitioning floor).
            if b - a > 1 {
                assert!(e <= budget, "batch ({a},{b}) est {e} > budget {budget}");
            }
        }
    }

    #[test]
    fn zero_budget_degenerates_to_single_columns() {
        let w = [3u64, 3, 3, 3];
        let (ranges, _) = partition(&w, 1, 0);
        assert_tiles(&ranges, 4);
        assert_eq!(ranges.len(), 4);
    }

    #[test]
    fn huge_budget_is_one_batch() {
        let w = [3u64, 3, 3, 3];
        let (ranges, est) = partition(&w, 1, u64::MAX);
        assert_eq!(ranges, vec![(0, 4)]);
        assert_eq!(est, vec![12 * OOC_BYTES_PER_FLOP]);
    }

    #[test]
    fn empty_width_yields_one_empty_range() {
        let (ranges, est) = partition(&[], 3, 0);
        assert_eq!(ranges, vec![(0, 0)]);
        assert_eq!(est, vec![0]);
    }
}
