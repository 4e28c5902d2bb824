//! Construction of the distributed matrices `A` (|sequences| × |k-mers|,
//! paper Fig. 2) and `S` (|k-mers| × |k-mers|, paper §IV-C).

use std::rc::Rc;

use pcomm::Grid;
use seqstore::{kmers_of, SeqRecord, SIGMA};
use sparse::DistMat;
use subkmer::{build_s_triples, ExpenseTable};

/// Size of the k-mer id space, `24^k`.
pub fn kmer_space(k: usize) -> u64 {
    (SIGMA as u64).pow(k as u32)
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
