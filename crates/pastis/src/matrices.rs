//! Construction of the distributed matrices `A` (|sequences| × |k-mers|,
//! paper Fig. 2) and `S` (|k-mers| × |k-mers|, paper §IV-C).

use std::rc::Rc;

use pcomm::{Comm, Grid};
use seqstore::{kmers_of, SeqRecord, SIGMA};
use sparse::{Dcsc, DistMat};
use subkmer::{build_s_rows, ExpenseTable};

use crate::params::REDUCED_ALPHABET_REFUSAL;

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

/// The k-mer columns of `by_kmer` (a block of `A`) or of any other rank
/// of `comm`, which hold the other sequence blocks of the same k-mers,
/// with each one's global occurrence count, the sum of the column's DCSC
/// lengths. Each rank ships its ascending `(local id, length)` pairs; the
/// union is merged from the parts as it is read. Collective.
pub(crate) fn kmer_counts(comm: &Comm, by_kmer: &Dcsc<u32>) -> KmerUnion {
    // Local ids fit `u32` by `kmer_fits_grid`.
    let mine: Vec<(u32, u32)> = (by_kmer.cols().iter().enumerate())
        .map(|(i, &c)| (c as u32, by_kmer.col_by_index(i).0.len() as u32))
        .collect();
    // Gathered at p = 1 too, so the trace has one shape on every grid.
    KmerUnion(comm.allgather(mine))
}

/// Every rank's ascending `(local id, length)` part, as [`kmer_counts`]
/// gathered them.
pub(crate) struct KmerUnion(Vec<Vec<(u32, u32)>>);

impl KmerUnion {
    /// The union, ascending `(local id, global count)`, the same on every
    /// rank: merged as it is read, so no copy of it is ever held.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut heads: Vec<_> = self.0.iter().map(|p| p.iter().peekable()).collect();
        std::iter::from_fn(move || {
            let id = heads
                .iter_mut()
                .filter_map(|h| h.peek().map(|p| p.0))
                .min()?;
            let parts = heads.iter_mut().filter_map(|h| h.next_if(|p| p.0 == id));
            Some((id, parts.map(|p| p.1).sum()))
        })
    }
}

/// The k-mer columns some block of `a`'s grid column holds: ascending ids
/// local to `a.col_range()`, the same on every rank of the grid column.
/// They are the columns of `S` that `(A·S)·Aᵀ` reads there (see
/// [`build_s_dist`]). Each rank ships its ascending ids alone, without the
/// lengths [`kmer_counts`] sums. Collective over the grid column.
pub fn held_kmers(a: &DistMat<u32>) -> Vec<u32> {
    // Local ids fit `u32` by `kmer_fits_grid`.
    let mine: Vec<u32> = a.local().cols().iter().map(|&c| c as u32).collect();
    let mut held: Vec<u32> = a.grid().col_comm().allgather(mine).concat();
    held.sort_unstable();
    held.dedup();
    held
}

/// Drop the columns of `A` (k-mers) whose global occurrence count exceeds
/// `limit`, and return the [`held_kmers`] left. A k-mer column is spread
/// over the ranks of one grid column, down which [`kmer_counts`] sums its
/// lengths, so the one exchange gives both. Collective.
pub fn prune_frequent_kmers(a: &mut DistMat<u32>, limit: u32) -> Vec<u32> {
    let (mut held, mut frequent) = (Vec::new(), Vec::new());
    for (id, n) in kmer_counts(a.grid().col_comm(), a.local()).iter() {
        if n <= limit {
            held.push(id)
        } else {
            frequent.push(id)
        }
    }
    let (c0, _) = a.col_range();
    a.retain(|_, c, _| frequent.binary_search(&((c - c0) as u32)).is_err());
    held
}

/// The distributed `A` (|sequences| × `24^k`, paper Fig. 2) of the `n`
/// sequences: the owned sequences' [`a_entries`] streamed into the
/// shuffle and radix sort, never collected ([`DistMat::from_source`]).
/// Where a k-mer occurs several times in one sequence the earliest
/// position is kept. Equal, block for block, to `DistMat::from_triples`
/// of [`build_a_triples`] under the same fold. Collective.
pub fn form_a(grid: &Rc<Grid>, owned: &[SeqRecord], n: u64, k: usize) -> DistMat<u32> {
    let source = || a_entries(owned, k);
    DistMat::from_source(Rc::clone(grid), n, kmer_space(k), source, |a, b| {
        *a = (*a).min(b)
    })
}

/// [`form_a`] less the k-mer columns that hold one sequence: the exact
/// path's `A` (DESIGN.md §4). Such a column meets only its own row in
/// `A·Aᵀ`, on the diagonal that [`crate::ExactSemiring`]'s mask drops,
/// and [`DistMat::from_source_shared`] drops it before `A`'s arrays are
/// allocated and, on a grid, before its triple is shipped: only its k-mer
/// id travels (now and then a hash collision keeps one, which the mask
/// drops all the same). Returns `A` and, per sequence (global id, the same
/// on every rank), how many of its nonzeros were dropped, counted by the
/// sequence's owner and summed in one allreduce: `form_a`'s nonzeros are
/// `A`'s plus those. Collective.
pub fn form_shared_a(
    grid: &Rc<Grid>,
    owned: &[SeqRecord],
    n: u64,
    k: usize,
) -> (DistMat<u32>, Vec<u32>) {
    let source = || a_entries(owned, k);
    let (a, dropped) = DistMat::from_source_shared(
        Rc::clone(grid),
        n,
        kmer_space(k),
        entry_count(owned, k),
        source,
        |a, b| *a = (*a).min(b),
    );
    // Each rank counted the drops of its own sequences' entries.
    let sum = |x: Vec<u32>, y: Vec<u32>| x.iter().zip(y).map(|(x, y)| x + y).collect();
    (a, grid.world().allreduce(dropped, sum))
}

/// How many entries [`a_entries`] yields: exactly `L − k + 1` k-mers per
/// sequence.
fn entry_count(owned: &[SeqRecord], k: usize) -> usize {
    (owned.iter())
        .map(|s| (s.data.len() + 1).saturating_sub(k))
        .sum()
}

/// The entries `(sequence gid, k-mer id, starting position)` of a rank's
/// owned sequences, sequence by sequence, k-mers in position order.
fn a_entries(owned: &[SeqRecord], k: usize) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
    (owned.iter()).flat_map(move |s| kmers_of(&s.data, k).map(move |(kid, pos)| (s.gid, kid, pos)))
}

/// The owned sequences' [`a_entries`], collected: the triples whose
/// `DistMat::from_triples` is [`form_a`]'s `A`. When a k-mer occurs
/// several times in one sequence, each occurrence is a triple; the
/// matrix keeps the earliest position (deterministic; it stores *a*
/// starting position per paper Fig. 2).
///
/// # Panics
///
/// On `reduced`: reduced-alphabet seeding is retired, and the argument
/// stays only because the frozen benchmark harness passes it.
pub fn build_a_triples(owned: &[SeqRecord], k: usize, reduced: bool) -> Vec<(u64, u64, u32)> {
    assert!(!reduced, "{REDUCED_ALPHABET_REFUSAL}");
    let mut out = Vec::with_capacity(entry_count(owned, k));
    a_entries(owned, k).for_each(|t| out.push(t));
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
/// contributes, with `m` substitutes (+identity) per row, over the columns
/// `A` holds: `held` is [`held_kmers`] of `a` (or what
/// [`prune_frequent_kmers`] returned), ids local to `a.col_range()`, which
/// is `S`'s column range on this rank too. `A·S`'s column `t` meets only
/// row `t` of `Aᵀ`, empty unless some sequence holds `t`, so
/// `(A·S)·Aᵀ` is the same product as with the whole `S`.
///
/// The grid row gathers its columns' held lists, so every rank knows the
/// held columns of the whole k-mer space and generates only the triples
/// some owner keeps ([`build_s_rows`]). Collective: the triples are
/// shuffled into the 2D distribution. Different ranks may generate the
/// same row (shared k-mers); duplicates collapse to one entry.
pub fn build_s_dist(
    a: &DistMat<u32>,
    held: &[u32],
    local_kmers: &[u64],
    k: usize,
    table: &ExpenseTable,
    m: usize,
) -> DistMat<u32> {
    let triples = {
        // Grid column c's held ids made global; the columns ascend with c.
        // Gathered at p = 1 too, so the trace has one shape on every grid.
        let parts = (a.grid().row_comm()).allgather((a.col_range().0, encode_gaps(held)));
        let mut ids = Vec::new();
        for (c0, gaps) in parts {
            ids.extend(decode_gaps(&gaps).map(|t| c0 + t as u64));
        }
        let held = HeldSet::new(&ids);
        build_s_rows(local_kmers, k, table, m, |t| held.contains(t))
    };
    let space = kmer_space(k);
    // Duplicate (K, Ks) rows generated by different ranks carry identical
    // distances; keep the min for robustness.
    DistMat::from_triples(Rc::clone(a.grid()), space, space, triples, |a, b| {
        *a = (*a).min(b)
    })
}

/// Ascending `ids` as the LEB128 varints of their gaps (the first id's
/// from 0): about 2 bytes an id where held ids lie thousands apart,
/// against a `u32`'s 4.
fn encode_gaps(ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * ids.len());
    let mut last = 0;
    for &id in ids {
        let mut gap = id - last;
        last = id;
        while gap >= 0x80 {
            out.push(gap as u8 | 0x80);
            gap >>= 7;
        }
        out.push(gap as u8);
    }
    out
}

/// The ids [`encode_gaps`] encoded, ascending.
fn decode_gaps(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let (mut at, mut last) = (0, 0u32);
    std::iter::from_fn(move || {
        let mut gap = 0u32;
        for shift in (0..).step_by(7) {
            let byte = *bytes.get(at)?;
            at += 1;
            gap |= ((byte & 0x7f) as u32) << shift;
            if byte < 0x80 {
                break;
            }
        }
        last += gap;
        Some(last)
    })
}

/// Exact membership in an ascending id list behind a bitmap pre-test.
/// Each id sets one bit, picked by a multiplicative hash, of a
/// power-of-two array of about 16 bits per id. A clear bit rejects an id
/// at once, which is the common answer for `S`'s generated columns; a set
/// bit falls through to the binary search.
struct HeldSet<'a> {
    ids: &'a [u64],
    bits: Vec<u64>,
    /// `64 − log2(bit count)`: the hash's top bits index the array.
    shift: u32,
}

impl<'a> HeldSet<'a> {
    fn new(ids: &'a [u64]) -> Self {
        let nbits = (16 * ids.len()).next_power_of_two().max(64);
        let mut set = HeldSet {
            ids,
            bits: vec![0; nbits / 64],
            shift: 64 - nbits.trailing_zeros(),
        };
        for &id in ids {
            let b = set.bit(id);
            set.bits[b / 64] |= 1 << (b % 64);
        }
        set
    }

    #[inline]
    fn bit(&self, id: u64) -> usize {
        (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    #[inline]
    fn contains(&self, id: u64) -> bool {
        let b = self.bit(id);
        (self.bits[b / 64] >> (b % 64)) & 1 == 1 && self.ids.binary_search(&id).is_ok()
    }
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
                    // Every rank, the empty one included, gets the whole
                    // union: each held column once, ascending, with its
                    // global count.
                    let want: Vec<(u32, u32)> = (0..12u32)
                        .filter(|&c| brute[c as usize] > 0)
                        .map(|c| (c, brute[c as usize]))
                        .collect();
                    let mine = counts_block(comm.rank(), empty);
                    let block = Dcsc::from_triples(4, 12, mine, |_, _| unreachable!());
                    let got: Vec<_> = kmer_counts(&comm, &block).iter().collect();
                    assert_eq!(got, want, "q={q} empty={empty:?}");
                });
            }
        }
    }

    #[test]
    fn gaps_round_trip() {
        let cases: [&[u32]; 5] = [
            &[],
            &[0],
            &[0, 1, 127, 128, 16_511],
            &[5, 300, 70_000],
            &[u32::MAX],
        ];
        for ids in cases {
            let bytes = encode_gaps(ids);
            assert_eq!(decode_gaps(&bytes).collect::<Vec<_>>(), ids);
        }
        let spread: Vec<u32> = (0..1000).map(|i| i * 3000).collect();
        assert!(encode_gaps(&spread).len() <= 2 * spread.len());
    }

    #[test]
    fn held_set_is_the_binary_search() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 3, 4, 5, 1000] {
            let mut ids: Vec<u64> = (0..n).map(|_| next() % 50_000).collect();
            ids.sort_unstable();
            ids.dedup();
            let set = HeldSet::new(&ids);
            assert!(set.bits.len().is_power_of_two() && set.bits.len() * 64 >= 16 * ids.len());
            let probes = ids
                .iter()
                .copied()
                .chain((0..20_000).map(|_| next() % 60_000));
            for id in probes.chain([0, u64::MAX]) {
                assert_eq!(
                    set.contains(id),
                    ids.binary_search(&id).is_ok(),
                    "n={n} id={id}"
                );
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
