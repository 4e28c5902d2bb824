//! The held-only substitute search: the substitutes of a k-mer that a
//! `keep` predicate passes, out of its m nearest, found without
//! materialising the others.
//!
//! `S`'s held form (paper §IV-C; DESIGN.md §4) keeps `S(K, t)` only for
//! the `t` some sequence holds, about 0.5% of what the frontier search
//! returns. [`HeldSearcher`] finds that share in three steps:
//!
//! 1. **Count.** A substitute's distance is a sum of per-position
//!    expenses, so the number of k-mers at each distance is the product
//!    of the positions' expense histograms (the seed itself removed).
//!    Counted distance by distance, it gives `d_m`, the first distance
//!    whose running count reaches `m`, and how many substitutes lie
//!    within it.
//! 2. **Walk.** A depth-first walk of the substitution tree (the
//!    frontier's tree: substitutions only right of the last one) under
//!    the bound `d_m` derives each child's id from its parent's and
//!    probes `keep`. Everything below `d_m` is among the m nearest.
//! 3. **Defer.** When more than `m` substitutes lie within `d_m`, the
//!    m nearest hold only some of the ties at `d_m`, and which ones is
//!    the frontier's choice, not the `(dist, id)`-least. A kept k-mer at
//!    `d_m` then sends the row to [`SubKmerSearcher::search`], filtered
//!    by `keep`. So does a tie level too wide to walk cheaply.
//!
//! The kept set is therefore exactly that of the frontier search, in
//! walk order instead of confirmation order.

use seqstore::kmer_id;

use crate::expense::ExpenseTable;
use crate::find::{SubKmer, SubKmerSearcher, PLACE};

/// Row stride of [`HeldSearcher::counts`]: one prefix product per
/// position count `0..=13`.
const STRIDE: usize = 14;

/// Widest walk, in substitutes within `d_m` per returned one, that a row
/// with cut ties takes before deferring outright. A walked node costs a
/// few ns; the frontier search materialises tens of children per search
/// at tens of ns each.
const WALK_PER_M: u64 = 16;

/// Held-only search state that lives across searches: the distance
/// counts, the found substitutes and the frontier searcher for deferred
/// rows. Once it has seen the largest search, it allocates nothing more.
#[derive(Debug, Default)]
pub struct HeldSearcher {
    frontier: SubKmerSearcher,
    /// `counts[d * STRIDE + j]`: how many ways the first `j` positions
    /// spend exactly `d` (a position kept as is spends 0).
    counts: Vec<u64>,
    found: Vec<SubKmer>,
    deferred: u64,
}

impl HeldSearcher {
    /// An empty searcher; its buffers grow over the first searches.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many searches so far went to the frontier search.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// The substitutes among the `m` nearest of `seed` (base indices)
    /// that `keep` passes: the kept part of [`SubKmerSearcher::search`]'s
    /// output, as a set. The seed itself is not included.
    ///
    /// Charges one `SubkmerChild` per walked node, and a deferred search's
    /// own charges.
    pub fn search(
        &mut self,
        seed: &[u8],
        table: &ExpenseTable,
        m: usize,
        keep: impl Fn(u64) -> bool,
    ) -> &[SubKmer] {
        let k = seed.len();
        assert!((1..=13).contains(&k));
        self.found.clear();
        if m == 0 {
            return &self.found;
        }
        let (bound, within) = self.mth_distance(seed, table, m as u64);
        let cut = within > m as u64;
        let mut walk = Walk {
            seed,
            table,
            bound,
            cut,
            keep: &keep,
            found: &mut self.found,
            rest: [u32::MAX; STRIDE],
            nodes: 0,
        };
        for pos in (0..k).rev() {
            walk.rest[pos] = walk.rest[pos + 1].min(table.cheapest(seed[pos]) as u32);
        }
        let wide = cut && within > WALK_PER_M.saturating_mul(m as u64);
        let walked = !wide && walk.children(kmer_id(seed), 0, 0);
        pcomm::work::record_class(walk.nodes, pcomm::work::CostClass::SubkmerChild);
        if !walked {
            self.deferred += 1;
            self.found.clear();
            let subs = self.frontier.search(seed, table, m);
            self.found.extend(subs.filter(|s| keep(s.id)));
        }
        &self.found
    }

    /// `d_m`, the smallest distance within which at least `m` substitutes
    /// of `seed` lie (the largest distance when fewer exist), and how many
    /// lie within it. Counts stay below `24^13`, so none overflows.
    fn mth_distance(&mut self, seed: &[u8], table: &ExpenseTable, m: u64) -> (u32, u64) {
        let k = seed.len();
        let space = PLACE[k - 1] * PLACE[1] - 1;
        self.counts.clear();
        let mut within = 0u64;
        for d in 0usize.. {
            let row = self.counts.len();
            self.counts.resize(row + STRIDE, 0);
            self.counts[row] = (d == 0) as u64;
            for (j, &b) in seed.iter().enumerate() {
                // Position j kept as is, or substituted at expense e.
                let mut n = self.counts[row + j];
                for &(e, ways) in table.hist(b) {
                    let Some(rest) = d.checked_sub(e as usize) else {
                        break;
                    };
                    n += ways as u64 * self.counts[rest * STRIDE + j];
                }
                self.counts[row + j + 1] = n;
            }
            within += self.counts[row + k] - (d == 0) as u64;
            if within >= m || within == space {
                return (d as u32, within);
            }
        }
        unreachable!("the running count reaches the whole space")
    }
}

/// One depth-first walk under `bound`.
struct Walk<'a, F> {
    seed: &'a [u8],
    table: &'a ExpenseTable,
    bound: u32,
    /// Whether the m nearest hold only some of the ties at `bound`.
    cut: bool,
    keep: &'a F,
    found: &'a mut Vec<SubKmer>,
    /// `rest[pos]`: the cheapest substitution at positions `pos..k`.
    rest: [u32; STRIDE],
    nodes: u64,
}

impl<F: Fn(u64) -> bool> Walk<'_, F> {
    /// Walk the subtrees of the children of the node `id` at `dist` that
    /// substitute at positions `from..`, in the frontier's tree order.
    /// False, with the walk abandoned, on a kept k-mer at a cut `bound`.
    fn children(&mut self, id: u64, dist: u32, from: usize) -> bool {
        let k = self.seed.len();
        for pos in from..k {
            if dist + self.rest[pos] > self.bound {
                break;
            }
            let old = self.seed[pos];
            let place = PLACE[k - 1 - pos];
            let stem = id - old as u64 * place;
            for &(e, new) in self.table.row(old) {
                let d = dist + e as u32;
                if d > self.bound {
                    break;
                }
                self.nodes += 1;
                let child = stem + new as u64 * place;
                if (self.keep)(child) {
                    if self.cut && d == self.bound {
                        return false;
                    }
                    self.found.push(SubKmer { id: child, dist: d });
                }
                if !self.children(child, d, pos + 1) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find::kmer_distance;
    use align::BLOSUM62;
    use seqstore::{kmer_unpack, SIGMA};

    /// The counted `d_m` and tie width are the brute force's over the
    /// whole 1-, 2- and 3-mer spaces, the exhausted space included.
    #[test]
    fn mth_distance_is_the_brute_force() {
        let t = ExpenseTable::new(&BLOSUM62);
        let mut searcher = HeldSearcher::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for k in 1..=3usize {
            for _ in 0..8 {
                let seed: Vec<u8> = (0..k)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % SIGMA as u64) as u8
                    })
                    .collect();
                let mut dists: Vec<u32> = (0..(SIGMA as u64).pow(k as u32))
                    .filter(|&id| id != kmer_id(&seed))
                    .map(|id| kmer_distance(&seed, &kmer_unpack(id, k), &BLOSUM62))
                    .collect();
                dists.sort_unstable();
                for m in [1u64, 2, 5, 23, 25, 60, 575, 600, 20_000] {
                    let d_m = dists[(m as usize).min(dists.len()) - 1];
                    let within = dists.iter().filter(|&&d| d <= d_m).count() as u64;
                    assert_eq!(
                        searcher.mth_distance(&seed, &t, m),
                        (d_m, within),
                        "k={k} m={m} seed={seed:?}"
                    );
                }
            }
        }
    }
}
