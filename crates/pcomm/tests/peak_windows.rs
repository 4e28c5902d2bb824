//! Allocation peak windows across ranks: ranks are threads of one process
//! sharing one ledger, so a window one rank opens must not reset a window
//! another rank has open. Lives here because ranks are the workspace's
//! threads (xlint's `thread-spawn` rule); a file — a process — of its own
//! so no other test allocates into the figures.

use obs::alloc::{peak_during, set_tracking};
use pcomm::World;

const MIB: i64 = 1 << 20;

#[test]
fn one_ranks_window_does_not_reset_anothers() {
    set_tracking(true);
    let base = obs::alloc::live_bytes() as i64;
    // Barriers force the order: both outer windows open, rank 0's
    // transient, rank 1's whole inner window, both outer windows close.
    let peaks = World::run(2, |comm| {
        let ((), peak) = peak_during(|| {
            comm.barrier();
            if comm.rank() == 0 {
                drop(Vec::<u8>::with_capacity(16 << 20));
            }
            comm.barrier();
            if comm.rank() == 1 {
                let ((), inner) = peak_during(|| drop(Vec::<u8>::with_capacity(2 << 20)));
                let inner = inner.expect("tracking on, slots free");
                assert!(
                    inner >= base + MIB && inner < base + 8 * MIB,
                    "rank 1's window opened after rank 0's transient: base={base} inner={inner}"
                );
            }
            comm.barrier();
        });
        peak.expect("tracking on, slots free")
    });
    // Both outer windows were open across rank 1's inner one and still
    // hold the transient from before it.
    for (rank, &peak) in peaks.iter().enumerate() {
        assert!(
            peak >= base + 15 * MIB,
            "rank {rank}'s window forgot the 16 MiB transient: base={base} peak={peak}"
        );
    }
}
