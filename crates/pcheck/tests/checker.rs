//! End-to-end checker tests: drive real `pcomm` worlds into the failure
//! modes pcheck exists to diagnose and assert the diagnostics, and confirm
//! that legal-but-unusual patterns stay accepted.
//!
//! Every failing world here would previously either hang (unmatched recv,
//! misordered collectives) or die with an anonymous `Any` downcast panic.

use std::panic::AssertUnwindSafe;
use std::time::Duration;

use pcomm::{Comm, World, WorldBuilder};

/// Run a world expected to fail and return the panic message that
/// `World::run` re-raises (the checker's primary report, when one exists).
fn run_expect_panic<R, F>(builder: WorldBuilder, p: usize, f: F) -> String
where
    R: Send,
    F: Fn(Comm) -> R + Sync,
{
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| builder.run(p, f)))
        .err()
        .expect("world was expected to fail");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&'static str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn checked(watchdog_ms: u64) -> WorldBuilder {
    WorldBuilder::new().checked(true).watchdog_ms(watchdog_ms)
}

#[test]
fn misordered_collective_fails_with_ledger_diff() {
    // Rank 1 swaps the order of a barrier and an allreduce — the classic
    // divergent-branch bug. The conformance ledger must catch it at entry
    // and print a side-by-side per-rank history instead of hanging.
    let msg = run_expect_panic(checked(400), 2, |comm| {
        if comm.rank() == 0 {
            comm.barrier();
            comm.allreduce(1u64, |a, b| a + b);
        } else {
            comm.allreduce(1u64, |a, b| a + b);
            comm.barrier();
        }
    });
    assert!(
        msg.starts_with("pcheck: "),
        "primary report expected: {msg}"
    );
    assert!(msg.contains("conformance violation"), "{msg}");
    assert!(msg.contains("barrier"), "{msg}");
    assert!(msg.contains("allreduce"), "{msg}");
    assert!(msg.contains("first divergence"), "{msg}");
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
}

#[test]
fn recv_with_no_sender_reports_deadlock_not_hang() {
    // Rank 0 waits for a message nobody will ever send. The watchdog must
    // turn the would-be infinite hang into a report naming the pending
    // receive (src, tag, type) and every rank's state.
    let msg = run_expect_panic(checked(150), 2, |comm| {
        if comm.rank() == 0 {
            let _ = comm.recv::<u64>(1, 7);
        }
    });
    assert!(msg.starts_with("pcheck: "), "{msg}");
    assert!(msg.contains("deadlock detected"), "{msg}");
    assert!(msg.contains("rank 0: blocked"), "{msg}");
    assert!(msg.contains("src=1"), "{msg}");
    assert!(msg.contains("tag=7"), "{msg}");
    assert!(msg.contains("u64"), "{msg}");
    assert!(msg.contains("rank 1: finalized"), "{msg}");
}

#[test]
fn mutual_recv_cycle_detected_while_other_rank_runs() {
    // Ranks 0 and 1 wait on each other (a true wait-for cycle) while rank 2
    // keeps itself busy. Cycle detection must fire even though the world as
    // a whole still shows activity.
    let msg = run_expect_panic(checked(120), 3, |comm| match comm.rank() {
        0 => {
            let _ = comm.recv::<u64>(1, 3);
        }
        1 => {
            let _ = comm.recv::<u64>(0, 4);
        }
        _ => std::thread::sleep(Duration::from_millis(600)),
    });
    assert!(msg.contains("deadlock detected"), "{msg}");
    assert!(msg.contains("wait-for cycle"), "{msg}");
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
}

#[test]
fn deadlock_report_lists_stashed_messages() {
    // Rank 1 sends on tag 9 but rank 0 listens on tag 8: the message lands
    // in the stash and the deadlock report must surface it — that mismatch
    // IS the bug, and seeing the near-miss is what makes it debuggable.
    let msg = run_expect_panic(checked(150), 2, |comm| {
        if comm.rank() == 0 {
            let _ = comm.recv::<u64>(1, 8);
        } else {
            comm.send(0, 9, 42u64);
        }
    });
    assert!(msg.contains("deadlock detected"), "{msg}");
    assert!(msg.contains("undelivered messages"), "{msg}");
    assert!(msg.contains("tag 9"), "{msg}");
    assert!(msg.contains("rank 0 <- rank 1"), "{msg}");
}

#[test]
fn finalize_audits_unreceived_messages() {
    // Every send must be matched by a receive; three forgotten messages
    // must show up in the finalize verdict with full addressing and sizes.
    let msg = run_expect_panic(checked(400), 2, |comm| {
        if comm.rank() == 0 {
            for _ in 0..3 {
                comm.send(1, 9, vec![1u64, 2, 3]);
            }
        }
    });
    assert!(msg.starts_with("pcheck: "), "{msg}");
    assert!(msg.contains("3 unreceived message(s)"), "{msg}");
    assert!(msg.contains("rank 0 -> rank 1"), "{msg}");
    assert!(msg.contains("tag 9"), "{msg}");
    assert!(msg.contains("u64"), "{msg}");
    assert!(msg.contains("96 bytes"), "{msg}");
}

#[test]
fn finalize_audit_waits_for_slow_senders() {
    // The receiver is long done when the sender sends: an audit that
    // drained rank 1's mailbox as soon as rank 1 itself finished would
    // find it empty and pass the world. (The sleep only widens the window
    // the old audit raced in; the verdict is the same without it.)
    let msg = run_expect_panic(checked(400), 2, |comm| {
        if comm.rank() == 0 {
            std::thread::sleep(Duration::from_millis(100));
            comm.send(1, 9, 7u64);
        }
    });
    assert!(msg.starts_with("pcheck: "), "{msg}");
    assert!(msg.contains("1 unreceived message(s)"), "{msg}");
    assert!(msg.contains("rank 0 -> rank 1"), "{msg}");
}

#[test]
fn type_mismatch_names_source_tag_and_types() {
    let msg = run_expect_panic(checked(400), 2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, String::from("hello"));
        } else {
            let _ = comm.recv::<u64>(0, 5);
        }
    });
    assert!(msg.contains("payload type mismatch"), "{msg}");
    assert!(msg.contains("world rank 0"), "{msg}");
    assert!(msg.contains("tag 5"), "{msg}");
    assert!(msg.contains("expected u64"), "{msg}");
    assert!(msg.contains("String"), "{msg}");
}

#[test]
fn alltoallv_rejects_wrong_part_count() {
    let msg = run_expect_panic(checked(150), 2, |comm| {
        if comm.rank() == 0 {
            // One part on a two-rank communicator: shape bug, not a hang.
            comm.alltoallv(vec![vec![1u32]])
        } else {
            comm.alltoallv(vec![vec![2u32], vec![3u32]])
        }
    });
    assert!(
        msg.contains("one part per destination rank"),
        "expected the alltoallv shape panic, got: {msg}"
    );
    assert!(msg.contains("got 1 part(s)"), "{msg}");
    assert!(msg.contains("size 2"), "{msg}");
}

#[test]
fn count_mismatch_at_finalize_is_reported() {
    // Rank 0 runs one extra allreduce right before exiting. No rank blocks
    // (the tree send is buffered), so only the finalize audit can see it.
    let msg = run_expect_panic(checked(400), 4, |comm| {
        comm.barrier();
        if comm.rank() == 3 {
            // Rank 3 is a leaf of the reduce tree: its lone stray `reduce`
            // only performs a buffered send, so nothing blocks and only the
            // finalize audit can see the divergence.
            comm.reduce(0, 1u64, |a, b| a + b);
        }
    });
    assert!(msg.starts_with("pcheck: "), "{msg}");
    assert!(
        msg.contains("count mismatch") || msg.contains("unreceived"),
        "{msg}"
    );
}

#[test]
fn per_rank_subcomm_groups_are_legal() {
    // Singleton subcomms with per-rank member lists are an accepted pattern
    // (documented on `Comm::subcomm`); the ledger must not flag them.
    let results = checked(400).run(4, |comm| {
        let solo = comm.subcomm(&[comm.rank()]).expect("member of own group");
        solo.allreduce(comm.rank() as u64, |a, b| a + b)
    });
    assert_eq!(results, vec![0, 1, 2, 3]);
}

#[test]
fn asymmetric_alltoallv_counts_are_legal() {
    // Per-destination part sizes legitimately differ across ranks.
    let results = checked(400).run(2, |comm| {
        let parts = if comm.rank() == 0 {
            vec![vec![], vec![1u64, 2, 3]]
        } else {
            vec![vec![9u64], vec![]]
        };
        let got = comm.alltoallv(parts);
        got.into_iter().flatten().sum::<u64>()
    });
    assert_eq!(results, vec![9, 6]);
}

#[test]
fn clean_world_passes_checked_and_perturbed() {
    // A correct mixed p2p + collective program must be accepted and produce
    // identical results under different perturbation seeds.
    let gold = run_mixed(&WorldBuilder::new().checked(true));
    for seed in [1u64, 7, 1234] {
        let got = run_mixed(&WorldBuilder::new().perturb(seed));
        assert_eq!(got, gold, "seed {seed} diverged");
    }
}

fn run_mixed(builder: &WorldBuilder) -> Vec<u64> {
    builder.clone().watchdog_ms(1500).run(4, |comm| {
        let me = comm.rank();
        let p = comm.size();
        comm.send((me + 1) % p, 1, me as u64);
        let from_left = comm.recv::<u64>((me + p - 1) % p, 1);
        let sum = comm.allreduce(from_left, |a, b| a + b);
        let parts: Vec<Vec<u64>> = (0..p).map(|d| vec![(me * p + d) as u64]).collect();
        let shuffled = comm.alltoallv(parts);
        comm.barrier();
        let gathered = comm.allgather(shuffled.into_iter().flatten().sum::<u64>());
        sum + gathered.iter().sum::<u64>() + comm.exscan(1u64, |a, b| a + b).unwrap_or(0)
    })
}

#[test]
fn unchecked_mode_still_panics_on_type_mismatch() {
    // The named mismatch panic is part of the runtime, not the checker.
    // One-directional on purpose: in unchecked mode there is no watchdog, so
    // no rank may end up waiting on the panicking one.
    let msg = run_expect_panic(WorldBuilder::new().checked(false), 2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, 1.5f64);
        } else {
            let _ = comm.recv::<u32>(0, 5);
        }
    });
    assert!(msg.contains("payload type mismatch"), "{msg}");
    assert!(msg.contains("expected u32"), "{msg}");
    assert!(msg.contains("f64"), "{msg}");
}

#[test]
fn world_run_defaults_are_sane() {
    // `World::run` must stay a drop-in front door (checked under debug
    // assertions, plain otherwise) — the whole existing test suite runs
    // through it, so a smoke check here suffices.
    let sums = World::run(3, |comm| comm.allreduce(1u32, |a, b| a + b));
    assert_eq!(sums, vec![3, 3, 3]);
}
