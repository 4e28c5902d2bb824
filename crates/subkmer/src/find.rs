//! The m-nearest substitute k-mer search (paper Algorithms 1–3).
//!
//! Exploration is best-first over the implicit substitution tree. Each
//! candidate may only substitute positions to the right of its last
//! substituted position, which makes every multi-substitution k-mer
//! reachable by exactly one path (the tree property the paper relies on)
//! while leaving distances — which are order-independent sums — unchanged.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use align::ScoringMatrix;
use seqstore::kmer_id;

use crate::expense::ExpenseTable;

/// A substitute k-mer: its packed id and its distance (total substitution
/// expense) from the seed k-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubKmer {
    /// Packed k-mer id of the substitute.
    pub id: u64,
    /// Total expense relative to the seed (0 only for clamped-expense
    /// substitutions of ambiguity codes).
    pub dist: u32,
}

/// Frontier candidate: ordered by (dist, id) so ties are deterministic.
/// `bases[..k]` spells the k-mer; the tail past `k` stays zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cand {
    dist: u32,
    id: u64,
    bases: [u8; 13],
    /// First position allowed for further substitutions (canonical order).
    next_pos: u8,
}

/// Distance between two equal-length k-mers: the summed (clamped)
/// substitution expense of turning `from` into `to`.
pub fn kmer_distance(from: &[u8], to: &[u8], matrix: &ScoringMatrix) -> u32 {
    assert_eq!(from.len(), to.len());
    from.iter()
        .zip(to)
        .map(|(&f, &t)| {
            if f == t {
                0
            } else {
                matrix.expense(f, t).max(0) as u32
            }
        })
        .sum()
}

/// Find the `m` nearest substitute k-mers of `seed` (base indices), sorted
/// by ascending `(dist, id)`. The seed itself is not included. Fewer than
/// `m` are returned only when the whole substitution space is smaller.
///
/// The frontier — the paper's min-max heap — is an ordered set of at most
/// `m` candidates: the nearest is confirmed from its low end, the farthest
/// evicted from its high end when a closer child arrives.
pub fn find_sub_kmers(seed: &[u8], table: &ExpenseTable, m: usize) -> Vec<SubKmer> {
    let k = seed.len();
    assert!((1..=13).contains(&k));
    if m == 0 {
        return Vec::new();
    }
    let mut nbrs: Vec<SubKmer> = Vec::with_capacity(m);
    let mut frontier: BTreeSet<Cand> = BTreeSet::new();
    let mut bases = [0u8; 13];
    bases[..k].copy_from_slice(seed);
    let root = Cand {
        dist: 0,
        id: kmer_id(seed),
        bases,
        next_pos: 0,
    };
    explore(&root, k, &mut frontier, table, m);
    while nbrs.len() < m {
        let Some(confirmed) = frontier.pop_first() else {
            break; // substitution space exhausted
        };
        nbrs.push(SubKmer {
            id: confirmed.id,
            dist: confirmed.dist,
        });
        explore(&confirmed, k, &mut frontier, table, m);
    }
    nbrs
}

/// Paper Algorithm 2 (+3 inlined): insert the nearest unseen children of
/// `p` into the frontier. A local min-heap iterates `p`'s possible single
/// substitutions in increasing total distance; insertion stops once the
/// cheapest remaining child cannot beat the frontier's maximum (with the
/// frontier full), because no later child can either.
fn explore(p: &Cand, k: usize, frontier: &mut BTreeSet<Cand>, table: &ExpenseTable, m: usize) {
    // (total distance, position, substitution index) per free position.
    let mut mh: BinaryHeap<Reverse<(u32, u8, u8)>> = BinaryHeap::new();
    for pos in p.next_pos as usize..k {
        let b = p.bases[pos];
        mh.push(Reverse((p.dist + table.row(b)[0].0 as u32, pos as u8, 0)));
    }
    loop {
        let Some(&Reverse((msb, pos, sid))) = mh.peek() else {
            return;
        };
        if frontier.len() >= m {
            let max = frontier.last().expect("frontier non-empty");
            if msb >= max.dist {
                return; // no remaining child can improve the m-nearest set
            }
        }
        mh.pop();
        // MAKENEWSUBK: materialize the child, evicting the current worst
        // candidate when the frontier is at capacity.
        let b = p.bases[pos as usize];
        let (exp, newbase) = table.row(b)[sid as usize];
        debug_assert_eq!(p.dist + exp as u32, msb);
        let mut bases = p.bases;
        bases[pos as usize] = newbase;
        let child = Cand {
            dist: msb,
            id: kmer_id(&bases[..k]),
            bases,
            next_pos: pos + 1,
        };
        if frontier.len() >= m {
            frontier.pop_last();
        }
        let fresh = frontier.insert(child);
        debug_assert!(fresh, "the tree property reaches each k-mer once");
        // Work accounting: copy + set ops per materialized child.
        pcomm::work::record_class(1, pcomm::work::CostClass::SubkmerChild);
        // Queue the next-cheapest substitution at this position.
        if (sid as usize + 1) < table.row(b).len() {
            mh.push(Reverse((
                p.dist + table.row(b)[sid as usize + 1].0 as u32,
                pos,
                sid + 1,
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::BLOSUM62;
    use seqstore::{encode_seq, kmer_unpack, SIGMA};

    fn table() -> ExpenseTable {
        ExpenseTable::new(&BLOSUM62)
    }

    /// Brute force: distances of ALL k-mers to the seed, m smallest.
    fn brute_force_dists(seed: &[u8], m: usize) -> Vec<u32> {
        let k = seed.len();
        let total = (SIGMA as u64).pow(k as u32);
        let mut dists: Vec<u32> = (0..total)
            .filter(|&id| id != seqstore::kmer_id(seed))
            .map(|id| kmer_distance(seed, &kmer_unpack(id, k), &BLOSUM62))
            .collect();
        dists.sort_unstable();
        dists.truncate(m);
        dists
    }

    #[test]
    fn paper_example_aac() {
        // §IV-B: the nearest neighbours of AAC are SAC and ASC at distance
        // 3 (A→S costs 4−1). The paper's walkthrough then names SSC (6),
        // but under the full BLOSUM62 several distance-4 single
        // substitutions (A→C/G/T/V/X score 0) come first.
        let t = table();
        let seed = encode_seq(b"AAC");
        let subs = find_sub_kmers(&seed, &t, 40);
        assert_eq!(subs.len(), 40);
        assert_eq!(subs[0].dist, 3);
        assert_eq!(subs[1].dist, 3);
        assert_eq!(subs[2].dist, 4);
        let names: Vec<String> = subs
            .iter()
            .map(|s| seqstore::kmer_string(s.id, 3))
            .collect();
        assert_eq!(names[0], "ASC"); // ties broken by k-mer id: A=0 < S=15
        assert_eq!(names[1], "SAC");
        assert!(names.contains(&"SSC".to_string()));
        // The cheapest substitution of C costs 9, so no AA* variant can be
        // among anything closer than that (§IV-B's central claim).
        for (s, name) in subs.iter().zip(&names) {
            if s.dist < 9 {
                assert!(!name.starts_with("AA"), "{name} at {}", s.dist);
            }
        }
    }

    #[test]
    fn matches_brute_force_k2() {
        let t = table();
        for seed_str in [b"AC".as_ref(), b"WW", b"MK", b"CC"] {
            let seed = encode_seq(seed_str);
            for m in [1usize, 5, 17, 40] {
                let got: Vec<u32> = find_sub_kmers(&seed, &t, m)
                    .iter()
                    .map(|s| s.dist)
                    .collect();
                let want = brute_force_dists(&seed, m);
                assert_eq!(got, want, "seed={seed_str:?} m={m}");
            }
        }
    }

    #[test]
    fn matches_brute_force_k3() {
        let t = table();
        for seed_str in [b"AAC".as_ref(), b"WCH", b"MKV"] {
            let seed = encode_seq(seed_str);
            for m in [1usize, 10, 25, 50] {
                let got: Vec<u32> = find_sub_kmers(&seed, &t, m)
                    .iter()
                    .map(|s| s.dist)
                    .collect();
                let want = brute_force_dists(&seed, m);
                assert_eq!(got, want, "seed={seed_str:?} m={m}");
            }
        }
    }

    #[test]
    fn results_are_distinct_and_sorted() {
        let t = table();
        let seed = encode_seq(b"MKVLAW");
        let subs = find_sub_kmers(&seed, &t, 100);
        assert_eq!(subs.len(), 100);
        let mut ids: Vec<u64> = subs.iter().map(|s| s.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate substitute k-mers");
        assert!(
            !ids.contains(&seqstore::kmer_id(&seed)),
            "seed returned as its own substitute"
        );
        assert!(subs
            .windows(2)
            .all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)));
    }

    #[test]
    fn multi_hop_beats_single_hop_when_cheaper() {
        // §IV-B's key observation: two cheap substitutions can beat one
        // expensive one. For AAC, TTC (two hops, 4+4=8) must be returned
        // before AAM (one hop, 10).
        let t = table();
        let seed = encode_seq(b"AAC");
        let subs = find_sub_kmers(&seed, &t, 400);
        let pos_of = |name: &str| {
            let id = seqstore::kmer_id(&encode_seq(name.as_bytes()));
            subs.iter().position(|s| s.id == id)
        };
        let ttc = pos_of("TTC").expect("TTC in 400-nearest");
        if let Some(aam) = pos_of("AAM") {
            assert!(ttc < aam);
        }
    }

    #[test]
    fn m_zero_and_exhausted_space() {
        let t = table();
        let seed = encode_seq(b"A");
        assert!(find_sub_kmers(&seed, &t, 0).is_empty());
        // 1-mer space has only 23 substitutes.
        let all = find_sub_kmers(&seed, &t, 100);
        assert_eq!(all.len(), 23);
    }

    #[test]
    fn distance_is_consistent_with_kmer_distance() {
        let t = table();
        let seed = encode_seq(b"HERTY");
        for s in find_sub_kmers(&seed, &t, 40) {
            let bases = kmer_unpack(s.id, 5);
            assert_eq!(s.dist, kmer_distance(&seed, &bases, &BLOSUM62));
        }
    }
}
