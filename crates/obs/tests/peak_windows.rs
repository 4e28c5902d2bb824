//! The two ways a peak window declines to answer: tracking off, and no
//! free slot. One test in a process of its own, because it turns the
//! process-wide tracking switch off and takes every window slot — either
//! would starve a window opened by a test running beside it.

use obs::alloc::{peak_during, set_tracking};

/// Open `depth` nested windows and return the innermost one's answer.
fn innermost(depth: usize) -> Option<i64> {
    if depth == 1 {
        peak_during(|| ()).1
    } else {
        peak_during(|| innermost(depth - 1)).0
    }
}

#[test]
fn a_window_without_tracking_or_a_free_slot_reports_none() {
    set_tracking(false);
    assert_eq!(peak_during(|| vec![0u8; 1 << 20].len()), (1 << 20, None));

    set_tracking(true);
    assert!(innermost(64).is_some(), "64 slots, 64 nested windows");
    assert_eq!(innermost(65), None, "the 65th has no slot");
    // Every slot came back when its window closed.
    assert!(innermost(64).is_some());
}
