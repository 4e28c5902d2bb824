//! The m-nearest substitute k-mer search (paper Algorithms 1–3).
//!
//! Exploration is best-first over the implicit substitution tree. Each
//! candidate may only substitute positions to the right of its last
//! substituted position, which makes every multi-substitution k-mer
//! reachable by exactly one path (the tree property the paper relies on)
//! while leaving distances — which are order-independent sums — unchanged.
//!
//! The frontier — the paper's min-max heap — is one sorted `Vec` that a
//! [`SubKmerSearcher`] keeps across searches. Its prefix up to a head
//! index holds the confirmed substitutes in the order they were confirmed;
//! the rest holds at most `m` candidates ascending by `(dist, id)`. The
//! nearest is confirmed by advancing the head, the farthest evicted from
//! the tail, and a child is inserted at its `partition_point`. `explore`
//! keeps one cursor per free position on the stack in place of a heap, so
//! a warm searcher makes no heap allocation.

use align::ScoringMatrix;
use seqstore::{kmer_id, SIGMA};

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

/// `PLACE[i]` = `24^i`, the weight of the base `i` places from the right
/// of a k-mer id.
pub(crate) const PLACE: [u64; 13] = {
    let mut p = [1u64; 13];
    let mut i = 1;
    while i < 13 {
        p[i] = p[i - 1] * SIGMA as u64;
        i += 1;
    }
    p
};

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

/// Find the `m` nearest substitute k-mers of `seed` (base indices). The
/// seed itself is not included. Fewer than `m` are returned only when the
/// whole substitution space is smaller. One-shot form of
/// [`SubKmerSearcher::search`], whose order it returns.
pub fn find_sub_kmers(seed: &[u8], table: &ExpenseTable, m: usize) -> Vec<SubKmer> {
    SubKmerSearcher::new().search(seed, table, m).collect()
}

/// Search state that lives across searches: the frontier's buffer, so a
/// searcher that has seen the largest search allocates nothing more.
#[derive(Debug, Default)]
pub struct SubKmerSearcher {
    /// `cands[..head]` confirmed, in confirmation order; `cands[head..]`
    /// the frontier, ascending by `(dist, id)`, at most `m` long.
    cands: Vec<Cand>,
    head: usize,
}

impl SubKmerSearcher {
    /// An empty searcher; its buffer grows over the first searches.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `m` nearest substitute k-mers of `seed` (base indices) in the
    /// order they are confirmed: ascending distance, equal distances by id
    /// as the frontier held them. The seed itself is not included. Fewer
    /// than `m` are returned only when the whole substitution space is
    /// smaller.
    ///
    /// Where more than `m` substitutes lie within the m-th distance, the
    /// ties returned at that distance are the frontier's, not the
    /// `(dist, id)`-least: a full frontier stops taking children that
    /// cannot beat its maximum, so ties are kept in exploration order.
    /// Seed AAA at `m = 5` returns CAA and GAA at distance 4, where the
    /// least ids at 4 are AAC and AAG.
    pub fn search(
        &mut self,
        seed: &[u8],
        table: &ExpenseTable,
        m: usize,
    ) -> impl ExactSizeIterator<Item = SubKmer> + '_ {
        let k = seed.len();
        assert!((1..=13).contains(&k));
        self.cands.clear();
        self.head = 0;
        if m > 0 {
            let mut bases = [0u8; 13];
            bases[..k].copy_from_slice(seed);
            let root = Cand {
                dist: 0,
                id: kmer_id(seed),
                bases,
                next_pos: 0,
            };
            let mut children = self.explore(&root, k, table, m);
            // An empty frontier before `m` confirmations means the
            // substitution space is exhausted.
            while self.head < m.min(self.cands.len()) {
                let confirmed = self.cands[self.head];
                self.head += 1;
                children += self.explore(&confirmed, k, table, m);
            }
            // Work accounting: copy + frontier insert per materialized child.
            pcomm::work::record_class(children, pcomm::work::CostClass::SubkmerChild);
        }
        self.cands[..self.head].iter().map(|c| SubKmer {
            id: c.id,
            dist: c.dist,
        })
    }

    /// Paper Algorithm 2 (+3 inlined): insert the nearest unseen children
    /// of `p` into the frontier and return how many. Each free position's
    /// cursor walks its sorted substitutions; the cheapest cursor, lowest
    /// position on ties, goes next. Insertion stops once it cannot beat the
    /// frontier's maximum (with the frontier full), because no later child
    /// can either.
    fn explore(&mut self, p: &Cand, k: usize, table: &ExpenseTable, m: usize) -> u64 {
        // (total distance, substitution index) per free position;
        // `u32::MAX` once the position's substitutions are spent.
        let free = p.next_pos as usize..k;
        let mut cursor = [(u32::MAX, 0u8); 13];
        for pos in free.clone() {
            cursor[pos] = (p.dist + table.cheapest(p.bases[pos]) as u32, 0);
        }
        let mut children = 0;
        loop {
            let mut pos = k;
            let mut msb = u32::MAX;
            for i in free.clone() {
                if cursor[i].0 < msb {
                    (pos, msb) = (i, cursor[i].0);
                }
            }
            if pos == k {
                return children;
            }
            // MAKENEWSUBK: materialize the child, evicting the current
            // worst candidate when the frontier is at capacity.
            if self.cands.len() - self.head >= m {
                let max = self.cands.last().expect("frontier non-empty");
                if msb >= max.dist {
                    return children; // no remaining child can improve the m-nearest set
                }
                self.cands.pop();
            }
            let sid = cursor[pos].1 as usize;
            let old = p.bases[pos];
            let row = table.row(old);
            let (exp, new) = row[sid];
            debug_assert_eq!(p.dist + exp as u32, msb);
            let mut bases = p.bases;
            bases[pos] = new;
            let place = PLACE[k - 1 - pos];
            let id = p.id - old as u64 * place + new as u64 * place;
            debug_assert_eq!(id, kmer_id(&bases[..k]));
            let at =
                self.head + self.cands[self.head..].partition_point(|c| (c.dist, c.id) < (msb, id));
            debug_assert!(
                self.cands.get(at).is_none_or(|c| c.id != id),
                "the tree property reaches each k-mer once"
            );
            self.cands.insert(
                at,
                Cand {
                    dist: msb,
                    id,
                    bases,
                    next_pos: pos as u8 + 1,
                },
            );
            children += 1;
            // Queue the next-cheapest substitution at this position.
            cursor[pos] = match row.get(sid + 1) {
                Some(&(exp, _)) => (p.dist + exp as u32, sid as u8 + 1),
                None => (u32::MAX, 0),
            };
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

    /// The search as it was before [`SubKmerSearcher`]: a `BTreeSet`
    /// frontier per search, a `BinaryHeap` per `explore`, one ledger charge
    /// per child. The oracle of `searcher_equals_reference`.
    fn find_sub_kmers_ref(seed: &[u8], table: &ExpenseTable, m: usize) -> Vec<SubKmer> {
        use std::cmp::Reverse;
        use std::collections::{BTreeSet, BinaryHeap};

        fn explore(
            p: &Cand,
            k: usize,
            frontier: &mut BTreeSet<Cand>,
            table: &ExpenseTable,
            m: usize,
        ) {
            let mut mh: BinaryHeap<Reverse<(u32, u8, u8)>> = BinaryHeap::new();
            for pos in p.next_pos as usize..k {
                let b = p.bases[pos];
                mh.push(Reverse((p.dist + table.row(b)[0].0 as u32, pos as u8, 0)));
            }
            while let Some(&Reverse((msb, pos, sid))) = mh.peek() {
                if frontier.len() >= m && msb >= frontier.last().unwrap().dist {
                    return;
                }
                mh.pop();
                let b = p.bases[pos as usize];
                let mut bases = p.bases;
                bases[pos as usize] = table.row(b)[sid as usize].1;
                let child = Cand {
                    dist: msb,
                    id: kmer_id(&bases[..k]),
                    bases,
                    next_pos: pos + 1,
                };
                if frontier.len() >= m {
                    frontier.pop_last();
                }
                assert!(frontier.insert(child));
                pcomm::work::record_class(1, pcomm::work::CostClass::SubkmerChild);
                if (sid as usize + 1) < table.row(b).len() {
                    let exp = table.row(b)[sid as usize + 1].0 as u32;
                    mh.push(Reverse((p.dist + exp, pos, sid + 1)));
                }
            }
        }

        let k = seed.len();
        if m == 0 {
            return Vec::new();
        }
        let mut nbrs = Vec::new();
        let mut frontier = BTreeSet::new();
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
                break;
            };
            nbrs.push(SubKmer {
                id: confirmed.id,
                dist: confirmed.dist,
            });
            explore(&confirmed, k, &mut frontier, table, m);
        }
        nbrs
    }

    /// One searcher, reused across every call, returns the reference's
    /// substitutes in the reference's order and charges the same work, on
    /// seeded k-mers (ambiguity codes included, whose zero-expense
    /// substitutions make distance ties) over k ∈ {1, 2, 3, 6, 13} and m
    /// up to past the whole 1-mer (23) and 2-mer (575) spaces.
    #[test]
    fn searcher_equals_reference() {
        use pcomm::work::counter_milli_ns;
        let t = table();
        let mut searcher = SubKmerSearcher::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut base = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % SIGMA as u64) as u8
        };
        for k in [1usize, 2, 3, 6, 13] {
            for m in [0usize, 1, 5, 25, 60, 600] {
                for _ in 0..12 {
                    let seed: Vec<u8> = (0..k).map(|_| base()).collect();
                    let w0 = counter_milli_ns();
                    let want = find_sub_kmers_ref(&seed, &t, m);
                    let w1 = counter_milli_ns();
                    let got: Vec<SubKmer> = searcher.search(&seed, &t, m).collect();
                    let w2 = counter_milli_ns();
                    assert_eq!(got, want, "k={k} m={m} seed={seed:?}");
                    assert_eq!(w2 - w1, w1 - w0, "work charged, k={k} m={m}");
                    let space = (SIGMA as u64).pow(k as u32) - 1;
                    assert_eq!(got.len() as u64, space.min(m as u64));
                }
            }
        }
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
