//! Property-based tests: the best-first substitute k-mer search agrees
//! with brute force on the full k-mer space.

use align::BLOSUM62;
use proptest::prelude::*;
use subkmer::{find_sub_kmers, kmer_distance, ExpenseTable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_bruteforce_k2(seed in proptest::collection::vec(0u8..24, 2..3), m in 1usize..60) {
        let table = ExpenseTable::new(&BLOSUM62);
        let got: Vec<u32> = find_sub_kmers(&seed, &table, m).iter().map(|s| s.dist).collect();
        let mut want: Vec<u32> = (0..24u64 * 24)
            .filter(|&id| id != seqstore::kmer_id(&seed))
            .map(|id| kmer_distance(&seed, &seqstore::kmer_unpack(id, 2), &BLOSUM62))
            .collect();
        want.sort_unstable();
        want.truncate(m);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn results_unique_sorted_correct_distance(
        seed in proptest::collection::vec(0u8..20, 3..6),
        m in 1usize..40,
    ) {
        let table = ExpenseTable::new(&BLOSUM62);
        let subs = find_sub_kmers(&seed, &table, m);
        prop_assert_eq!(subs.len(), m); // space is large enough for k>=3
        prop_assert!(subs.windows(2).all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)));
        for s in &subs {
            let bases = seqstore::kmer_unpack(s.id, seed.len());
            prop_assert_eq!(s.dist, kmer_distance(&seed, &bases, &BLOSUM62));
            prop_assert_ne!(s.id, seqstore::kmer_id(&seed));
        }
    }
}
