//! Builder for the sparse substitution matrix `S` (paper §IV-C): rows and
//! columns are the `24^k` k-mer id space, row `K` holds `K`'s m nearest
//! substitute k-mers (plus the identity at distance 0) so that `(A·S)`
//! expands each sequence's k-mer set without inflating `A` itself.

use crate::expense::ExpenseTable;
use crate::find::SubKmerSearcher;
use crate::held::HeldSearcher;
use seqstore::kmer_unpack_into;

/// A nonzero of `S`: distance of the substitute to its source k-mer.
pub type SubEntry = u32;

/// Triples `(kmer_id, substitute_kmer_id, distance)` for the distinct
/// k-mers in `kmers`. Each row gets its `m` nearest substitutes plus the
/// identity entry `(K, K, 0)` — exact sharing must keep matching under
/// `(A·S)·Aᵀ` — the identity first, then the substitutes in the order
/// [`SubKmerSearcher::search`] confirms them.
///
/// With `m == 0` only identity entries are produced, which makes
/// `(A·S)·Aᵀ` coincide with `A·Aᵀ` (the paper's `s0` configuration).
pub fn build_s_triples(
    kmers: &[u64],
    k: usize,
    table: &ExpenseTable,
    m: usize,
) -> Vec<(u64, u64, SubEntry)> {
    let mut out = Vec::with_capacity(kmers.len());
    let mut searcher = SubKmerSearcher::new();
    let mut bases = [0u8; 13];
    for &id in kmers {
        out.push((id, id, 0));
        if m > 0 {
            kmer_unpack_into(id, &mut bases[..k]);
            for sub in searcher.search(&bases[..k], table, m) {
                out.push((id, sub.id, sub.dist));
            }
        }
    }
    out
}

/// The triples of [`build_s_triples`] whose column (substitute id, the
/// identity's included) passes `keep`, found by the [`HeldSearcher`]
/// without generating the others. Row by row the same set; within a row
/// the identity comes first and the substitutes follow in walk order.
pub fn build_s_rows(
    kmers: &[u64],
    k: usize,
    table: &ExpenseTable,
    m: usize,
    keep: impl Fn(u64) -> bool,
) -> Vec<(u64, u64, SubEntry)> {
    let mut out = Vec::with_capacity(kmers.len());
    let mut searcher = HeldSearcher::new();
    let mut bases = [0u8; 13];
    for &id in kmers {
        if keep(id) {
            out.push((id, id, 0));
        }
        if m > 0 {
            kmer_unpack_into(id, &mut bases[..k]);
            let subs = searcher.search(&bases[..k], table, m, &keep);
            out.extend(subs.iter().map(|sub| (id, sub.id, sub.dist)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::BLOSUM62;
    use seqstore::{encode_seq, kmer_id};

    #[test]
    fn identity_always_present() {
        let t = ExpenseTable::new(&BLOSUM62);
        let kmers = vec![kmer_id(&encode_seq(b"AAC")), kmer_id(&encode_seq(b"WWW"))];
        let triples = build_s_triples(&kmers, 3, &t, 0);
        assert_eq!(triples.len(), 2);
        for (r, c, d) in triples {
            assert_eq!(r, c);
            assert_eq!(d, 0);
        }
    }

    #[test]
    fn m_substitutes_per_row() {
        let t = ExpenseTable::new(&BLOSUM62);
        let kmers = vec![kmer_id(&encode_seq(b"AAC"))];
        let triples = build_s_triples(&kmers, 3, &t, 25);
        assert_eq!(triples.len(), 26);
        // Row ids all equal the source k-mer; distances ascend after the
        // identity entry.
        assert!(triples.iter().all(|&(r, _, _)| r == kmers[0]));
        let dists: Vec<u32> = triples.iter().map(|&(_, _, d)| d).collect();
        assert_eq!(dists[0], 0);
        assert!(dists[1..].windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn no_duplicate_columns_within_row() {
        let t = ExpenseTable::new(&BLOSUM62);
        let kmers = vec![kmer_id(&encode_seq(b"MKVLAW"))];
        let triples = build_s_triples(&kmers, 6, &t, 50);
        let mut cols: Vec<u64> = triples.iter().map(|&(_, c, _)| c).collect();
        let n = cols.len();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), n);
    }

    /// Rows come in `kmers`' order; within a row the walk's order is not
    /// the frontier's, so each row is compared as a sorted set.
    #[test]
    fn build_s_rows_filters_build_s_triples_in_order() {
        let t = ExpenseTable::new(&BLOSUM62);
        let kmers: Vec<u64> = [b"AAC", b"WWW", b"MKV", b"GGH"]
            .iter()
            .map(|s| kmer_id(&encode_seq(*s)))
            .collect();
        let rows = |triples: Vec<(u64, u64, u32)>| {
            let mut rows: Vec<Vec<(u64, u64, u32)>> = Vec::new();
            for x in triples {
                match rows.last_mut() {
                    Some(row) if row[0].0 == x.0 => row.push(x),
                    _ => rows.push(vec![x]),
                }
            }
            rows.iter_mut().for_each(|row| row.sort_unstable());
            rows
        };
        for m in [0, 1, 25] {
            let all = build_s_triples(&kmers, 3, &t, m);
            let keeps: [fn(u64) -> bool; 3] = [|c| c % 3 != 0, |c| c % 2 == 0, |_| false];
            for keep in keeps {
                let want: Vec<_> = all.iter().copied().filter(|&(_, c, _)| keep(c)).collect();
                let got = build_s_rows(&kmers, 3, &t, m, keep);
                assert_eq!(rows(got), rows(want), "m={m}");
            }
        }
    }
}
