//! Steady-state allocation accounting for the batch alignment path.
//!
//! Once the thread-local scratch arenas have seen the largest task of a
//! batch, re-running the batch must not touch the heap beyond the single
//! output vector — per-task allocations would dominate the runtime of
//! small alignments. Counting goes through the workspace-wide tracking
//! allocator in `obs::alloc` (the only `#[global_allocator]` in the
//! workspace). This file holds exactly one test so no concurrent test can
//! perturb the global counter.

#[test]
fn steady_state_batch_does_not_allocate_per_task() {
    use align::{align_batch, smith_waterman, striped_align, xdrop_align, AlignParams};

    // Deterministic pseudo-random residues without pulling in an RNG.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut residue = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 24) as u8
    };
    let tasks: Vec<(Vec<u8>, Vec<u8>)> = (0..200)
        .map(|i| {
            // Lengths sweep up and down so later tasks are NOT all smaller
            // than earlier ones — reuse must survive shape changes.
            let m = 20 + (i * 13) % 180;
            let n = 20 + (i * 29) % 180;
            let a: Vec<u8> = (0..m).map(|_| residue()).collect();
            let b: Vec<u8> = (0..n).map(|_| residue()).collect();
            (a, b)
        })
        .collect();

    let p = AlignParams::default();
    let run = |tasks: &[(Vec<u8>, Vec<u8>)]| {
        // Exercise all three arena-backed kernels per task; threads = 1
        // keeps the work on this thread's arena (and avoids counting
        // thread-spawn allocations).
        align_batch(tasks, 1, |(a, b)| {
            let st = striped_align(a, b, &p);
            assert_eq!(st, smith_waterman(a, b, &p));
            let xd = xdrop_align(a, b, 0, 0, 4, &p);
            st.score + xd.score
        })
    };

    // Count through the workspace tracking allocator; forced on so the
    // test also holds in release builds (`ALLOC_TRACK` defaults off there).
    obs::alloc::set_tracking(true);

    // Warm-up pass grows every arena buffer to the batch's high-water mark.
    let want = run(&tasks);

    let before = obs::alloc::total_allocs();
    let got = run(&tasks);
    let after = obs::alloc::total_allocs();
    assert_eq!(got, want);

    // The only permitted allocation is the output Vec of align_batch (its
    // exact-size collect is one allocation); everything else must come
    // from the warm arenas. "≤ 2" leaves room for one harness hiccup while
    // still proving per-task allocation is zero (200 tasks, ~600 kernel
    // calls).
    let delta = after - before;
    assert!(delta <= 2, "steady-state batch made {delta} allocations");
}
