//! Steady-state allocation accounting for the substitute-k-mer search.
//!
//! `build_s_rows` runs one search per distinct k-mer, tens of thousands
//! per dataset, so a search that allocated would pay the allocator per
//! k-mer. Once a reused `SubKmerSearcher` or `HeldSearcher` has seen a
//! search of the same `m`, further searches must not touch the heap, the
//! held-only searches that defer to the frontier search included.
//! Counting goes through the workspace-wide tracking allocator in
//! `obs::alloc`. This file holds exactly one test so no concurrent test
//! can perturb the global counter.

#[test]
fn warm_searcher_does_not_allocate() {
    use align::BLOSUM62;
    use subkmer::{ExpenseTable, HeldSearcher, SubKmerSearcher};

    const K: usize = 6;
    const M: usize = 25;
    // Deterministic pseudo-random 6-mers (ambiguity codes included)
    // without pulling in an RNG.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let seeds: Vec<[u8; K]> = (0..1000)
        .map(|_| {
            std::array::from_fn(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 24) as u8
            })
        })
        .collect();
    let table = ExpenseTable::new(&BLOSUM62);
    let mut searcher = SubKmerSearcher::new();
    let mut held = HeldSearcher::new();
    // Half the ids kept, so rows with a kept tie at the m-th distance
    // defer to the frontier search.
    let keep = |id: u64| id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0;
    let mut run = || {
        let all = seeds.iter().fold(0u64, |acc, seed| {
            searcher.search(seed, &table, M).fold(acc, |a, s| {
                a.wrapping_mul(31).wrapping_add(s.id ^ s.dist as u64)
            })
        });
        let kept = seeds.iter().fold(0u64, |acc, seed| {
            held.search(seed, &table, M, keep).iter().fold(acc, |a, s| {
                a.wrapping_mul(31).wrapping_add(s.id ^ s.dist as u64)
            })
        });
        (all, kept, held.deferred())
    };

    // Count through the workspace tracking allocator; forced on so the
    // test also holds in release builds (`ALLOC_TRACK` defaults off there).
    obs::alloc::set_tracking(true);

    // Warm-up pass grows the frontier buffer to its high-water mark.
    let want = run();

    let before = obs::alloc::total_allocs();
    let got = run();
    let after = obs::alloc::total_allocs();
    assert_eq!((got.0, got.1), (want.0, want.1));
    let deferred = got.2 - want.2;
    assert!(deferred > 0, "no held-only search deferred");
    let delta = after - before;
    assert_eq!(
        delta, 0,
        "1 000 warm searches and 1 000 held-only ones ({deferred} deferred) made {delta} allocations"
    );
}
