//! Pins the exact output of `build_s_triples`: every `(row, col, dist)`
//! triple, in order, for 1 000 random 6-mers at three values of m. The
//! brute-force oracles compare distances only, so this is the test that
//! catches a change in how the search breaks ties or which candidate it
//! evicts from a full frontier.

use align::BLOSUM62;
use rand::prelude::*;
use seqstore::SIGMA;
use subkmer::{build_s_triples, ExpenseTable};

/// FNV-1a over the little-endian bytes of every triple, in output order.
fn fnv(triples: &[(u64, u64, u32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(r, c, d) in triples {
        let bytes = r
            .to_le_bytes()
            .into_iter()
            .chain(c.to_le_bytes())
            .chain(d.to_le_bytes());
        for b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn s_triples_are_pinned() {
    let k = 6;
    let mut rng = StdRng::seed_from_u64(7);
    let space = (SIGMA as u64).pow(k as u32);
    let kmers: Vec<u64> = (0..1000).map(|_| rng.random_range(0..space)).collect();
    let table = ExpenseTable::new(&BLOSUM62);
    let got: Vec<(usize, usize, u64)> = [5usize, 25, 60]
        .into_iter()
        .map(|m| {
            let t = build_s_triples(&kmers, k, &table, m);
            (m, t.len(), fnv(&t))
        })
        .collect();
    let want = [
        (5, 6_000, 11742740322302692565),
        (25, 26_000, 9556980353680868284),
        (60, 61_000, 253524978641811002),
    ];
    assert_eq!(got, want);
}
