//! Construction of the distributed matrices `A` (|sequences| × |k-mers|,
//! paper Fig. 2) and `S` (|k-mers| × |k-mers|, paper §IV-C).

use std::rc::Rc;

use pcomm::{Comm, Grid};
use seqstore::{kmers_of, SeqRecord, SIGMA};
use sparse::{Dcsc, DistMat};
use subkmer::{build_s_triples, ExpenseTable};

/// Size of the k-mer id space, `24^k`.
pub fn kmer_space(k: usize) -> u64 {
    (SIGMA as u64).pow(k as u32)
}

/// Whether `k` is a usable k-mer length on a `q × q` grid: `24^k` must fit
/// `u64` (`k ≤ 13`), and every k-mer block, at most `⌈24^k / q⌉` ids wide,
/// must fit `u32` local ids, because the transpose turns k-mer columns into
/// `u32` rows and [`kmer_counts`] ships them as `u32`.
pub fn kmer_fits_grid(k: usize, q: usize) -> bool {
    (1..=13).contains(&k) && kmer_space(k).div_ceil(q as u64) <= 1 << 32
}

/// Global occurrence count of each k-mer column of `by_kmer` (a block of
/// `A`), in `by_kmer.cols()` order: its DCSC column lengths, summed over
/// `comm`, the ranks holding the other sequence blocks of the same k-mers.
/// Each rank ships its ascending `(local id, length)` pairs and
/// merge-joins every part against its own columns. Collective.
pub(crate) fn kmer_counts(comm: &Comm, by_kmer: &Dcsc<u32>) -> Vec<u32> {
    let lens = (0..by_kmer.nzc()).map(|i| by_kmer.col_by_index(i).0.len() as u32);
    if comm.size() == 1 {
        return lens.collect();
    }
    let cols = by_kmer.cols();
    // Local ids fit `u32` by `kmer_fits_grid`.
    let mine: Vec<(u32, u32)> = cols.iter().map(|&c| c as u32).zip(lens).collect();
    let mut counts = vec![0u32; cols.len()];
    for part in comm.allgather(mine) {
        let mut i = 0;
        for (id, n) in part {
            while cols.get(i).is_some_and(|&c| c < id as u64) {
                i += 1;
            }
            if cols.get(i) == Some(&(id as u64)) {
                counts[i] += n;
            }
        }
    }
    counts
}

/// Triples `(sequence gid, k-mer id, starting position)` for a rank's owned
/// sequences. When a k-mer occurs several times in one sequence the
/// earliest position is kept (deterministic; the matrix stores *a* starting
/// position per paper Fig. 2). With `reduced`, k-mers are drawn from the
/// Murphy-10 reduction of the sequence (group indexes live inside the
/// 24-letter base space, so ids and dimensions are unchanged — the space is
/// simply occupied more densely per k-mer).
pub fn build_a_triples(owned: &[SeqRecord], k: usize, reduced: bool) -> Vec<(u64, u64, u32)> {
    // Exactly `L − k + 1` k-mers per sequence (reduction keeps lengths).
    let len = owned
        .iter()
        .map(|s| (s.data.len() + 1).saturating_sub(k))
        .sum();
    let mut out = Vec::with_capacity(len);
    for s in owned {
        if reduced {
            let red = seqstore::reduce_murphy10(&s.data);
            for (kid, pos) in kmers_of(&red, k) {
                out.push((s.gid, kid, pos));
            }
        } else {
            for (kid, pos) in kmers_of(&s.data, k) {
                out.push((s.gid, kid, pos));
            }
        }
    }
    out
}

/// Distinct k-mer ids present in a rank's owned sequences, ascending.
pub fn distinct_kmers(owned: &[SeqRecord], k: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = owned
        .iter()
        .flat_map(|s| kmers_of(&s.data, k).map(|(id, _)| id))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Build the distributed substitution matrix `S` for the k-mers this rank
/// contributes, with `m` substitutes (+identity) per row. Collective: the
/// triples are shuffled into the 2D distribution. Different ranks may
/// generate the same row (shared k-mers); duplicates collapse to one entry.
pub fn build_s_dist(
    grid: Rc<Grid>,
    local_kmers: &[u64],
    k: usize,
    table: &ExpenseTable,
    m: usize,
) -> DistMat<u32> {
    let triples = build_s_triples(local_kmers, k, table, m);
    let space = kmer_space(k);
    let triples: Vec<(u64, u64, u32)> = triples.into_iter().collect();
    // Duplicate (K, Ks) rows generated by different ranks carry identical
    // distances; keep the min for robustness.
    DistMat::from_triples(grid, space, space, triples, |a, b| *a = (*a).min(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcomm::World;
    use seqstore::{encode_seq, kmer_id};

    fn rec(gid: u64, s: &[u8]) -> SeqRecord {
        SeqRecord {
            gid,
            name: format!("s{gid}"),
            data: encode_seq(s),
        }
    }

    #[test]
    fn kmer_space_sizes() {
        assert_eq!(kmer_space(1), 24);
        assert_eq!(kmer_space(6), 191_102_976);
    }

    #[test]
    fn kmer_fits_grid_bounds() {
        // ⌈24^7 / 2^32⌉ = 2 and ⌈24^8 / 2^32⌉ = 26.
        assert!(kmer_fits_grid(6, 1) && !kmer_fits_grid(7, 1) && kmer_fits_grid(7, 2));
        assert!(!kmer_fits_grid(8, 25) && kmer_fits_grid(8, 26));
        assert!(!kmer_fits_grid(0, 1) && !kmer_fits_grid(14, usize::MAX));
    }

    /// Rank `r`'s block (4 sequences × 12 k-mers): k-mer `r` on 1 sequence,
    /// `r + 1` on 3 and 11 on `r + 1`, so k-mer 0 is rank 0's alone and 11
    /// on every rank; rank `empty` holds nothing.
    fn counts_block(r: usize, empty: Option<usize>) -> Vec<(u32, u64, u32)> {
        if empty == Some(r) {
            return Vec::new();
        }
        [(r, 1), (r + 1, 3), (11, r as u32 + 1)]
            .into_iter()
            .flat_map(|(c, n)| (0..n).map(move |s| (s, c as u64, s)))
            .collect()
    }

    #[test]
    fn kmer_counts_sum_column_lengths_over_the_comm() {
        for q in 1..=3 {
            for empty in [None, Some(q - 1)] {
                World::run(q, |comm| {
                    let mut brute = [0u32; 12];
                    for (_, c, _) in (0..q).flat_map(|r| counts_block(r, empty)) {
                        brute[c as usize] += 1;
                    }
                    let mine = counts_block(comm.rank(), empty);
                    let block = Dcsc::from_triples(4, 12, mine, |_, _| unreachable!());
                    let want: Vec<u32> = block.cols().iter().map(|&c| brute[c as usize]).collect();
                    assert_eq!(kmer_counts(&comm, &block), want, "q={q} empty={empty:?}");
                });
            }
        }
    }

    #[test]
    fn a_triples_positions() {
        let owned = vec![rec(5, b"AVGDMI")];
        let t = build_a_triples(&owned, 3, false);
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], (5, kmer_id(&encode_seq(b"AVG")), 0));
        assert_eq!(t[3], (5, kmer_id(&encode_seq(b"DMI")), 3));
    }

    #[test]
    fn distinct_kmers_dedup() {
        // AVGAVG: AVG appears at 0 and 3.
        let owned = vec![rec(0, b"AVGAVG"), rec(1, b"AVG")];
        let d = distinct_kmers(&owned, 3);
        // k-mers of AVGAVG: AVG, VGA, GAV, AVG → 3 distinct; plus AVG from
        // the second sequence (already seen).
        assert_eq!(d.len(), 3);
        assert!(d.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn short_sequences_contribute_nothing() {
        let owned = vec![rec(0, b"AV")];
        assert!(build_a_triples(&owned, 3, false).is_empty());
        assert!(distinct_kmers(&owned, 3).is_empty());
    }
}
