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
//! The estimate is collective and deterministic: every rank derives the
//! identical full-length weight vector from three allgathers, so every
//! rank computes the identical plan with no further agreement round.

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
/// nnz(Aᵀ(k,·))`. The three allgathers assemble: global per-row counts of
/// `Aᵀ` within each grid row, then per-column weights summed down each
/// grid column, then the full-length weight vector along the grid row.
pub fn plan(grid: &Grid, a_t: &DistMat<u32>, budget_bytes: u64) -> BatchPlan {
    let _span = obs::span!("pastis.batch_plan");
    let weights = column_weights(grid, a_t);
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
    // 1. Global nonzero count of each Aᵀ row present in my row block: the
    //    ranks of my grid row hold the other column slices of the same
    //    rows, so an allgather along the row communicator completes the
    //    counts. The row space is hypersparse (24^k), so counts travel as
    //    sorted `(row, count)` runs.
    let row_nnz = {
        let local = row_runs(a_t.local().iter().map(|(r, _, _)| r).collect());
        let mut parts = grid.row_comm().allgather(local);
        if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            merge_runs(parts)
        }
    };
    let count = |r: u32| {
        let i = row_nnz
            .binary_search_by_key(&r, |&(row, _)| row)
            .expect("every local row has a global count");
        row_nnz[i].1 as u64
    };
    // 2. Per-column weights of my column block, then summed down my grid
    //    column (those ranks hold the other row slices of the same
    //    columns).
    let (c0, c1) = a_t.col_range();
    let mut w = vec![0u64; (c1 - c0) as usize];
    for (r, c, _) in a_t.local().iter() {
        w[c as usize] += count(r);
    }
    drop(row_nnz);
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

/// Run-length encode row indices: sorted, distinct `(row, occurrences)`
/// pairs, allocated at their exact length.
fn row_runs(mut rows: Vec<u32>) -> Vec<(u32, u32)> {
    rows.sort_unstable();
    let mut runs = Vec::with_capacity(rows.chunk_by(|a, b| a == b).count());
    runs.extend(rows.chunk_by(|a, b| a == b).map(|g| (g[0], g.len() as u32)));
    runs
}

/// Merge the runs of a grid row's ranks into one sorted run list, summing
/// the counts of a row several ranks hold. Each part is copied into a
/// buffer of the exact total length and dropped, so the merge holds at
/// most two copies of the runs.
fn merge_runs(parts: Vec<Vec<(u32, u32)>>) -> Vec<(u32, u32)> {
    let mut runs = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        runs.extend(part);
    }
    runs.sort_unstable_by_key(|&(r, _)| r);
    runs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    runs
}

/// Greedily pack columns into contiguous batches whose estimated per-rank
/// bytes stay under `budget_bytes`, with a floor of one column per batch.
/// Returns `(ranges, est_bytes)`.
///
/// The per-rank share divides by `q` (not `p`): one column of `B` lives in
/// a single grid-column block, so a narrow batch concentrates its triples
/// on the `q` ranks of one grid column — `Σw·bytes/q` is the worst-case
/// per-rank footprint, not the mean `Σw·bytes/p`.
pub fn partition(weights: &[u64], q: usize, budget_bytes: u64) -> (Vec<(u64, u64)>, Vec<u64>) {
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
    fn row_runs_count_and_merge_sums() {
        assert_eq!(row_runs(vec![5, 3, 5, 1, 5]), vec![(1, 1), (3, 1), (5, 3)]);
        assert_eq!(row_runs(Vec::new()), Vec::new());
        let merged = merge_runs(vec![vec![(1, 2), (4, 1)], vec![], vec![(1, 3), (2, 1)]]);
        assert_eq!(merged, vec![(1, 5), (2, 1), (4, 1)]);
    }

    #[test]
    fn empty_width_yields_one_empty_range() {
        let (ranges, est) = partition(&[], 3, 0);
        assert_eq!(ranges, vec![(0, 0)]);
        assert_eq!(est, vec![0]);
    }
}
