//! Flight-recorder integration: a forced watchdog abort must write
//! per-rank black-box dumps naming each rank's last completed pipeline
//! stage, and ring event *structure* must be deterministic across
//! perturbation seeds (timestamps and payload sizes are stripped by
//! `obs::blackbox::signature`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use obs::JsonValue;
use pcomm::{Comm, WorldBuilder};

/// Forced deadlock: rank 1 hangs mid-pipeline after completing only the
/// `pastis.fasta` stage, rank 0 finishes a second stage and returns. The
/// watchdog must abort the world and the dumps must tell the two ranks
/// apart by their last completed stage.
#[test]
fn watchdog_abort_dumps_name_last_completed_stage() {
    let dir = std::env::temp_dir().join(format!("pcomm-bbdump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    obs::blackbox::set_dump_dir(&dir);
    obs::blackbox::reset_dump_once();

    let err = catch_unwind(AssertUnwindSafe(|| {
        WorldBuilder::new()
            .checked(true)
            .watchdog_ms(60)
            .run(2, |comm: Comm| {
                let rec = obs::Recorder::install(comm.rank());
                {
                    let _s = obs::span!("pastis.fasta");
                }
                if comm.rank() == 1 {
                    // Straggler: this message never arrives.
                    let _: u64 = comm.recv(0, 9);
                    unreachable!("recv above can never complete");
                }
                {
                    let _s = obs::span!("pastis.form_a");
                }
                drop(rec.finish());
            })
    }));
    let msg = match err {
        Ok(_) => panic!("world must abort"),
        Err(e) => e
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into()),
    };
    assert!(msg.contains("deadlock detected"), "{msg}");

    let parse = |rank: usize| -> JsonValue {
        let path = dir.join(format!("blackbox-rank{rank}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing dump {}: {e}", path.display()));
        JsonValue::parse(&text).expect("dump parses as JSON")
    };
    let d0 = parse(0);
    let d1 = parse(1);
    assert_eq!(
        d1.get("last_completed_stage").and_then(|v| v.as_str()),
        Some("pastis.fasta"),
        "straggler's dump must name the stage it finished last"
    );
    assert_eq!(
        d0.get("last_completed_stage").and_then(|v| v.as_str()),
        Some("pastis.form_a")
    );
    for d in [&d0, &d1] {
        let reason = d.get("reason").and_then(|v| v.as_str()).unwrap_or("");
        assert!(reason.contains("deadlock"), "{reason}");
        assert!(d.get("live_bytes_total").is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One rank's workload: a collective, a ring-neighbor exchange, and a span,
/// all captured by a ring interposed over the runtime-installed one.
fn traced_workload(comm: &Comm) -> String {
    let ring = obs::blackbox::install_with_capacity(comm.rank(), 1 << 14);
    let rec = obs::Recorder::install(comm.rank());
    {
        let _s = obs::span!("pastis.stage");
        let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
        if comm.size() > 1 {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 7, vec![sum; 3]);
            let got: Vec<u64> = comm.recv(left, 7);
            assert_eq!(got.len(), 3);
        }
    }
    drop(rec.finish());
    obs::blackbox::signature(&ring.finish())
}

/// Schedule perturbation may reorder stash hits vs. direct receives and
/// stretch wall-clock arbitrarily, but each rank's recorded event
/// structure — what happened, in program order — must be identical for
/// every seed.
#[test]
fn ring_signatures_are_stable_across_perturbation_seeds() {
    for p in [1usize, 4, 16] {
        let mut baseline: Option<Vec<String>> = None;
        for seed in [11u64, 22, 33, 44] {
            let sigs = WorldBuilder::new()
                .perturb(seed)
                .watchdog_ms(5000)
                .run(p, |comm: Comm| traced_workload(&comm));
            match &baseline {
                None => baseline = Some(sigs),
                Some(base) => {
                    for (rank, (a, b)) in base.iter().zip(sigs.iter()).enumerate() {
                        assert_eq!(
                            a, b,
                            "p={p} rank {rank}: ring signature diverged at seed {seed}"
                        );
                    }
                }
            }
        }
    }
}
