//! The held-only search against the frontier search it replaces in
//! `build_s_rows`: for every `keep`, the held-only rows are the frontier's
//! rows filtered by `keep`, as sets. The frontier cuts the ties at the
//! m-th distance in its own order, not by `(dist, id)`, so a row whose
//! kept k-mers include one of those ties must come from the frontier;
//! these tests make such rows occur and check that they do.

use align::BLOSUM62;
use seqstore::{encode_seq, kmer_id, kmer_unpack, SIGMA};
use subkmer::{
    build_s_rows, build_s_triples, find_sub_kmers, kmer_distance, ExpenseTable, HeldSearcher,
    SubKmer,
};

/// A named `keep` predicate.
type Keep = (&'static str, fn(u64) -> bool);

/// Keeps ≡ none, about 0.5%, about 50% and all, by a hash of the id.
fn keeps() -> [Keep; 4] {
    fn mix(id: u64) -> u64 {
        let x = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 29)
    }
    [
        ("none", |_| false),
        ("0.5%", |t| mix(t).is_multiple_of(200)),
        ("50%", |t| mix(t).is_multiple_of(2)),
        ("all", |_| true),
    ]
}

/// Seeded k-mers: half uniform over the 24 bases, half drawn from the
/// ambiguity codes B, Z, X and `*` (whose zero-expense substitutions make
/// wide distance ties) mixed with A, plus all-X and all-A k-mers.
fn seeds(k: usize) -> Vec<Vec<u8>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ k as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let ambiguous = encode_seq(b"BZX*A");
    let mut out: Vec<Vec<u8>> = (0..16)
        .map(|i| {
            (0..k)
                .map(|_| match i % 2 {
                    0 => (next() % SIGMA as u64) as u8,
                    _ => ambiguous[(next() % 5) as usize],
                })
                .collect()
        })
        .collect();
    out.push(encode_seq(&b"XXXXXXXXXXXXX"[..k]));
    out.push(encode_seq(&b"AAAAAAAAAAAAA"[..k]));
    out
}

fn sorted(subs: Vec<SubKmer>) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = subs.iter().map(|s| (s.id, s.dist)).collect();
    out.sort_unstable();
    out
}

/// Row by row, one reused held-only searcher returns the frontier's
/// substitutes that `keep` passes, over k ∈ {1, 2, 3, 6, 13}, m up to
/// past the whole 1-mer and 2-mer spaces, and keeps from none to all;
/// and `build_s_rows` is `build_s_triples` filtered, as sorted triples.
/// Some rows go to the frontier and some are walked, at every k past 1.
#[test]
fn held_rows_equal_filtered_frontier_rows() {
    let t = ExpenseTable::new(&BLOSUM62);
    let mut held = HeldSearcher::new();
    for k in [1usize, 2, 3, 6, 13] {
        let seeds = seeds(k);
        let ids: Vec<u64> = seeds.iter().map(|s| kmer_id(s)).collect();
        let deferred_before = held.deferred();
        for m in [0usize, 1, 5, 25, 60, 600] {
            for (name, keep) in keeps() {
                for seed in &seeds {
                    let want = (find_sub_kmers(seed, &t, m).into_iter())
                        .filter(|s| keep(s.id))
                        .collect();
                    let got = held.search(seed, &t, m, keep).to_vec();
                    assert_eq!(
                        sorted(got),
                        sorted(want),
                        "k={k} m={m} keep={name} seed={seed:?}"
                    );
                }
                let mut want: Vec<_> = (build_s_triples(&ids, k, &t, m).into_iter())
                    .filter(|&(_, c, _)| keep(c))
                    .collect();
                let mut got = build_s_rows(&ids, k, &t, m, keep);
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "k={k} m={m} keep={name}");
            }
        }
        if k > 1 {
            assert!(held.deferred() > deferred_before, "k={k}: no row deferred");
        }
    }
}

/// Seed AAA at m = 5: the five nearest by the frontier are AAS, ASA, SAA
/// at 3 and CAA, GAA at 4, but by `(dist, id)` the ties at 4 would be
/// AAC, AAG (the least ids of the 15 at that distance). With CAA kept, a
/// `(dist, id)` cut would drop it from the row; the held-only search
/// defers the row and keeps it.
#[test]
fn a_kept_tie_the_frontier_chose_is_returned() {
    let t = ExpenseTable::new(&BLOSUM62);
    let seed = encode_seq(b"AAA");
    let caa = kmer_id(&encode_seq(b"CAA"));
    let m = 5;
    let frontier = find_sub_kmers(&seed, &t, m);
    assert!(frontier.iter().any(|s| s.id == caa && s.dist == 4));
    let mut least: Vec<(u32, u64)> = (0..(SIGMA as u64).pow(3))
        .filter(|&id| id != kmer_id(&seed))
        .map(|id| (kmer_distance(&seed, &kmer_unpack(id, 3), &BLOSUM62), id))
        .collect();
    least.sort_unstable();
    assert!(
        !least[..m].iter().any(|&(_, id)| id == caa),
        "CAA is among the (dist, id)-least {m}"
    );
    let mut held = HeldSearcher::new();
    let got = held.search(&seed, &t, m, |id| id == caa).to_vec();
    assert_eq!(got, [SubKmer { id: caa, dist: 4 }]);
    assert_eq!(held.deferred(), 1);
}
