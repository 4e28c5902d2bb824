//! Heartbeat-channel integration: a monitored world must leave behind a
//! schema-valid `status.json` whose final snapshot covers every rank, the
//! in-memory latest snapshot must feed the abort path, and a checked
//! (pcheck) world must stay ledger-clean with the heartbeat thread active
//! — the monitor gathers progress through shared memory only, so the
//! conformance ledger and the finalize leak audit never see it. The
//! monitor is armed per world, so a world samples only its own ranks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

use obs::JsonValue;
use pcomm::monitor::{self, MonitorConfig};
use pcomm::{Comm, WorldBuilder};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pcomm-monitor-{}-{name}", std::process::id()))
}

fn monitored(path: &std::path::Path) -> WorldBuilder {
    WorldBuilder::new().checked(true).monitor(MonitorConfig {
        path: Some(path.to_path_buf()),
        interval_ms: 5,
        ..Default::default()
    })
}

/// One rank's program: a span holding `items` progress items, each
/// retired after an allreduce.
fn retire_items(comm: &Comm, items: u64) -> u64 {
    let _span = obs::span!("pastis.fasta");
    obs::blackbox::add_items(0, items);
    for chunk in 0..items {
        let sum: u64 = comm.allreduce(comm.rank() as u64 + chunk, |a, b| a + b);
        obs::blackbox::add_items(1, 0);
        std::hint::black_box(sum);
    }
    comm.barrier();
    items
}

/// The final snapshot's rank rows of a complete, valid `status.json`.
fn final_rows(path: &std::path::Path) -> (JsonValue, Vec<JsonValue>) {
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("status.json written"))
        .expect("status.json parses");
    monitor::validate_status(&doc, true).expect("complete document validates");
    let rows = match doc.get("final").and_then(|f| f.get("ranks")) {
        Some(JsonValue::Arr(rows)) => rows.clone(),
        _ => panic!("final snapshot has no ranks"),
    };
    (doc, rows)
}

/// A checked world with the monitor armed: the run completes (leak audit
/// clean), the document validates as complete, and every rank appears in
/// the final snapshot with its progress accounted.
#[test]
fn monitored_checked_world_writes_valid_status() {
    let path = tmp("status.json");
    let _ = std::fs::remove_file(&path);
    let p = 4;
    let sums = monitored(&path).run(p, |comm: Comm| retire_items(&comm, 8));
    assert_eq!(sums, vec![8; p]);

    let (_, rows) = final_rows(&path);
    assert_eq!(rows.len(), p);
    for (rank, row) in rows.iter().enumerate() {
        assert_eq!(
            row.get("rank").and_then(JsonValue::as_u64),
            Some(rank as u64)
        );
        // Every rank ran the same program: one span, 8 progress items.
        assert_eq!(row.get("done").and_then(JsonValue::as_u64), Some(8));
        assert_eq!(row.get("total").and_then(JsonValue::as_u64), Some(8));
        assert_eq!(row.get("active"), Some(&JsonValue::Bool(false)));
        assert_eq!(row.get("straggler"), Some(&JsonValue::Bool(false)));
    }
    // The abort feed saw the same world.
    let latest = monitor::latest_snapshot().expect("latest snapshot retained");
    assert!(matches!(latest.get("ranks"), Some(JsonValue::Arr(_))));
    let _ = std::fs::remove_file(&path);
}

/// Two worlds run at once from two OS threads, only one of them
/// monitored, and a barrier holds every rank of both until all have
/// started. The monitored world's final snapshot holds exactly its own
/// ranks and items, and the other world writes nothing. The other world
/// launches second and finishes last, so an arming that leaked across
/// worlds would reach it and its snapshot would be the one left on disk.
#[test]
fn monitor_samples_only_its_own_world() {
    let dir = tmp("two-worlds");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("status.json");
    let (p_mon, p_other) = (3, 2);
    let (items_mon, items_other) = (5, 11);
    let launched = Barrier::new(p_mon + 1);
    let started = Barrier::new(p_mon + p_other);
    let mon_returned = Barrier::new(p_other + 1);
    std::thread::scope(|s| {
        s.spawn(|| {
            let sums = monitored(&path).run(p_mon, |comm| {
                launched.wait();
                started.wait();
                retire_items(&comm, items_mon)
            });
            mon_returned.wait();
            assert_eq!(sums, vec![items_mon; p_mon]);
        });
        launched.wait();
        let sums = WorldBuilder::new().checked(true).run(p_other, |comm| {
            started.wait();
            let n = retire_items(&comm, items_other);
            mon_returned.wait();
            n
        });
        assert_eq!(sums, vec![items_other; p_other]);
    });

    let (doc, rows) = final_rows(&path);
    assert_eq!(doc.get("p").and_then(JsonValue::as_u64), Some(p_mon as u64));
    assert_eq!(rows.len(), p_mon);
    for (rank, row) in rows.iter().enumerate() {
        let num = |k: &str| row.get(k).and_then(JsonValue::as_u64);
        assert_eq!(num("rank"), Some(rank as u64));
        assert_eq!(num("done"), Some(items_mon));
        assert_eq!(num("total"), Some(items_mon));
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        written,
        vec!["status.json"],
        "the unmonitored world wrote nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watchdog abort with the monitor armed must leave `status-abort.json`
/// next to the black-box dumps: the postmortem carries the last known
/// per-rank progress.
#[test]
fn abort_dumps_last_snapshot() {
    let dir = tmp("abortdir");
    std::fs::create_dir_all(&dir).unwrap();
    obs::blackbox::set_dump_dir(&dir);
    obs::blackbox::reset_dump_once();
    let err = catch_unwind(AssertUnwindSafe(|| {
        WorldBuilder::new()
            .checked(true)
            .watchdog_ms(80)
            .monitor(MonitorConfig {
                interval_ms: 5,
                ..Default::default()
            })
            .run(2, |comm: Comm| {
                let _span = obs::span!("pastis.fasta");
                if comm.rank() == 1 {
                    // Straggler: this message never arrives.
                    let _: u64 = comm.recv(0, 9);
                    unreachable!("recv above can never complete");
                }
                comm.barrier();
            })
    }));
    assert!(err.is_err(), "world must abort");
    let status = dir.join("status-abort.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(&status).expect("status-abort written"))
        .expect("status-abort parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("pastis_status")
    );
    assert!(doc.get("last_snapshot").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
