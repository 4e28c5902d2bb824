//! `pcomm::monitor` — the heartbeat channel of the live telemetry plane.
//!
//! A world armed with [`crate::WorldBuilder::monitor`] spawns one monitor
//! thread next to its rank threads. The thread is a periodic, nonblocking
//! gather running entirely outside the critical path: it samples the
//! world's own flight-recorder rings ([`obs::blackbox::RankRing`]; shared
//! memory, no mailboxes, no collectives — invisible to the pcheck
//! conformance ledger and the finalize leak audit), aggregates the rows
//! into a snapshot, appends it to a `status.json` document next to the
//! output, and optionally renders a refreshing per-rank table to stderr
//! (`pastis --monitor`; the `pastis-top` bin renders the same table from
//! the file).
//!
//! Rank-side heartbeats are the ring's own events: every span open/close
//! and every collective entry stamps it, so a rank deep in a long
//! exchange still reads as alive.
//!
//! **Straggler flagging** is the seed of the ROADMAP's rank-death
//! detection: a rank whose progress epoch lags the world median beyond a
//! threshold, or whose heartbeat is older than a stall window, is flagged
//! in the snapshot and the table.
//!
//! The latest snapshot is also kept in memory and written as
//! `status-abort.json` by [`crate::dump_blackbox`], so postmortems carry
//! the last known per-rank progress alongside the flight-recorder rings.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use obs::blackbox::{RankRing, RankSample};
use obs::JsonValue;

/// Schema version of the `status.json` document.
pub const STATUS_SCHEMA_VERSION: u64 = 2;

/// Snapshots retained in the document (a bounded flight window, like the
/// black-box ring); older snapshots are dropped and counted.
const MAX_SNAPSHOTS: usize = 256;

/// A rank is a straggler when `median_epoch - epoch` exceeds this.
const STRAGGLER_LAG: u64 = 5_000;

/// How the monitor thread runs. Built by the CLI (`pastis --monitor`) or
/// tests and handed to [`crate::WorldBuilder::monitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Where to write the `status.json` document; `None` keeps snapshots
    /// in memory only (overhead measurement, abort feed).
    pub path: Option<PathBuf>,
    /// Snapshot period in milliseconds.
    pub interval_ms: u64,
    /// Render the refreshing per-rank table to stderr on every snapshot.
    pub render: bool,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            path: None,
            interval_ms: 200,
            render: false,
        }
    }
}

/// Latest aggregated snapshot, for the abort path.
static LATEST: Mutex<Option<JsonValue>> = Mutex::new(None);

/// Latest snapshot taken by any monitor thread, for `status-abort.json`.
pub fn latest_snapshot() -> Option<JsonValue> {
    LATEST.lock().unwrap().clone()
}

/// Straggler dissection of one gather: `flags[i]` is set when rank `i`'s
/// progress epoch lags the median of *active* ranks beyond `lag`.
/// Finished ranks (inactive, stage idle) are never flagged.
fn straggler_flags(samples: &[RankSample], lag: u64) -> Vec<bool> {
    let mut epochs: Vec<u64> = samples
        .iter()
        .filter(|s| s.active)
        .map(|s| s.epoch)
        .collect();
    if epochs.is_empty() {
        return vec![false; samples.len()];
    }
    epochs.sort_unstable();
    let median = epochs[epochs.len() / 2];
    samples
        .iter()
        .map(|s| s.active && median.saturating_sub(s.epoch) > lag)
        .collect()
}

/// One aggregated gather of the plane as a JSON snapshot object.
fn snapshot_doc(seq: u64, t_ms: u64, samples: &[RankSample], flags: &[bool]) -> JsonValue {
    let num = |n: u64| JsonValue::Num(n as f64);
    let ranks: Vec<JsonValue> = samples
        .iter()
        .zip(flags)
        .map(|(s, &straggler)| {
            JsonValue::obj([
                ("rank", num(s.rank as u64)),
                ("stage", JsonValue::Str(s.stage.into())),
                ("epoch", num(s.epoch)),
                ("done", num(s.done)),
                ("total", num(s.total)),
                ("hb_age_ms", JsonValue::Num(s.hb_age_ns as f64 / 1e6)),
                ("active", JsonValue::Bool(s.active)),
                ("straggler", JsonValue::Bool(straggler)),
            ])
        })
        .collect();
    JsonValue::obj([
        ("seq", num(seq)),
        ("t_ms", num(t_ms)),
        ("ranks", JsonValue::Arr(ranks)),
        // Ranks are threads of one process and the allocation ledger is
        // process-wide: one figure per snapshot, not one per rank.
        (
            "live_bytes_total",
            JsonValue::Num(obs::alloc::live_bytes() as f64),
        ),
    ])
}

/// Assemble the full `status.json` document.
fn status_doc(
    p: usize,
    cfg: &MonitorConfig,
    snapshots: &[JsonValue],
    snapshots_dropped: u64,
    finished: bool,
) -> JsonValue {
    let final_snapshot = match (finished, snapshots.last()) {
        (true, Some(last)) => last.clone(),
        _ => JsonValue::Null,
    };
    JsonValue::obj([
        ("schema", JsonValue::Str("pastis_status".into())),
        ("version", JsonValue::Num(STATUS_SCHEMA_VERSION as f64)),
        ("p", JsonValue::Num(p as f64)),
        ("interval_ms", JsonValue::Num(cfg.interval_ms as f64)),
        (
            "snapshots_dropped",
            JsonValue::Num(snapshots_dropped as f64),
        ),
        ("snapshots", JsonValue::Arr(snapshots.to_vec())),
        ("final", final_snapshot),
    ])
}

/// Render one snapshot as the refreshing per-rank table.
pub fn render_snapshot(snap: &JsonValue, p: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let top = |k: &str| snap.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "== pastis monitor (p={p}, t={:.1}s, process live {}) ==",
        top("t_ms") / 1e3,
        obs::dissect::human_bytes(top("live_bytes_total") as u64)
    );
    let _ = writeln!(
        out,
        "{:<5} {:<22} {:>9} {:>14} {:<12} {:>8}",
        "rank", "stage", "epoch", "items", "progress", "hb age"
    );
    let empty = Vec::new();
    let rows = match snap.get("ranks") {
        Some(JsonValue::Arr(rows)) => rows,
        _ => &empty,
    };
    for row in rows {
        let num = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let (done, total) = (num("done"), num("total"));
        let stage = row
            .get("stage")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        let straggler = matches!(row.get("straggler"), Some(JsonValue::Bool(true)));
        let active = matches!(row.get("active"), Some(JsonValue::Bool(true)));
        let _ = writeln!(
            out,
            "{:<5} {:<22} {:>9} {:>14} {:<12} {:>7.0}ms{}",
            format!("r{}", num("rank") as u64),
            stage,
            num("epoch") as u64,
            format!("{}/{}", done as u64, total as u64),
            progress_bar(done, total, 10),
            num("hb_age_ms"),
            match (straggler, active) {
                (true, _) => "  STRAGGLER",
                (false, false) => "  done",
                _ => "",
            }
        );
    }
    out
}

/// A ten-ish-cell progress bar: `[####......]`, `[----]` when the total
/// is still unknown.
fn progress_bar(done: f64, total: f64, cells: usize) -> String {
    if total <= 0.0 {
        return format!("[{}]", "-".repeat(cells));
    }
    let filled = ((done / total) * cells as f64)
        .round()
        .clamp(0.0, cells as f64) as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(cells - filled))
}

/// Handle returned by [`spawn_monitor`]; [`MonitorStop::finish`] asks the
/// thread to take a final snapshot and exit. Must be called before the
/// world's thread scope closes (the scope joins the monitor).
pub(crate) struct MonitorStop {
    stop: Arc<AtomicBool>,
    thread: thread::Thread,
}

impl MonitorStop {
    pub(crate) fn finish(self) {
        self.stop.store(true, Relaxed);
        // Wake the thread out of its inter-snapshot park immediately —
        // the world's scope join waits for it, and letting it doze out a
        // sleep would tax every run's wall clock by up to the interval.
        self.thread.unpark();
    }
}

/// Spawn the heartbeat thread into the world's thread scope; it samples
/// `rings`, one per rank of that world, and records into the last one,
/// its own.
pub(crate) fn spawn_monitor<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    rings: Arc<[RankRing]>,
    cfg: MonitorConfig,
) -> MonitorStop {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = thread::Builder::new()
        .name("pcomm-monitor".into())
        .spawn_scoped(scope, move || monitor_loop(&rings, cfg, flag))
        .expect("failed to spawn monitor thread");
    MonitorStop {
        stop,
        thread: handle.thread().clone(),
    }
}

fn monitor_loop(rings: &[RankRing], cfg: MonitorConfig, stop: Arc<AtomicBool>) {
    // The monitor gets its own flight-recorder ring (past the rank ids)
    // so postmortems show the gather cadence too.
    let (own, rings) = rings
        .split_last()
        .expect("the world made the monitor a ring");
    let p = rings.len();
    let _bb = own.install();
    let clock = obs::Stopwatch::start();
    let mut snapshots: Vec<JsonValue> = Vec::new();
    let mut dropped = 0u64;
    let mut seq = 0u64;
    loop {
        // Park first, sample after: the ranks are busiest right at
        // launch, and a spawn-time snapshot would tax short runs for a
        // row of still-empty rings. `MonitorStop::finish` unparks, so
        // the shutdown handshake costs microseconds, not a sleep
        // quantum, and the final snapshot below is never skipped.
        // park_timeout may wake spuriously; re-park for the remainder.
        let mut left = Duration::from_millis(cfg.interval_ms.max(1));
        while !stop.load(Relaxed) && left > Duration::ZERO {
            let t0 = std::time::Instant::now();
            thread::park_timeout(left);
            left = left.saturating_sub(t0.elapsed());
        }
        let finishing = stop.load(Relaxed);
        let samples: Vec<RankSample> = rings.iter().map(RankRing::sample).collect();
        let flags = straggler_flags(&samples, STRAGGLER_LAG);
        let snap = snapshot_doc(seq, clock.elapsed_ns() / 1_000_000, &samples, &flags);
        obs::blackbox::record(
            obs::blackbox::BbKind::Mark,
            "monitor.snapshot",
            seq,
            samples.len() as u64,
        );
        *LATEST.lock().unwrap() = Some(snap.clone());
        snapshots.push(snap);
        if snapshots.len() > MAX_SNAPSHOTS {
            snapshots.remove(0);
            dropped += 1;
        }
        seq += 1;
        if let Some(path) = &cfg.path {
            let doc = status_doc(p, &cfg, &snapshots, dropped, finishing);
            let _ = std::fs::write(path, format!("{doc}\n"));
        }
        if cfg.render {
            eprint!("{}", render_snapshot(snapshots.last().unwrap(), p));
        }
        if finishing {
            return;
        }
    }
}

/// Write the latest snapshot next to the black-box dumps on abort.
pub(crate) fn dump_latest_snapshot(dir: &Path) -> Option<PathBuf> {
    let snap = latest_snapshot()?;
    let path = dir.join("status-abort.json");
    let doc = JsonValue::obj([
        ("schema", JsonValue::Str("pastis_status".into())),
        ("version", JsonValue::Num(STATUS_SCHEMA_VERSION as f64)),
        ("last_snapshot", snap),
    ]);
    std::fs::write(&path, format!("{doc}\n")).ok()?;
    Some(path)
}

/// Validate a `status.json` document: schema/version header, the
/// process-wide live bytes and rank rows with every field on each
/// snapshot, and per-rank epochs monotone across snapshots. A
/// `complete` document must also carry a `final` snapshot whose ranks all
/// finished (`done == total`, inactive). Returns a description of the
/// first violation.
pub fn validate_status(doc: &JsonValue, complete: bool) -> Result<(), String> {
    if doc.get("schema").and_then(|v| v.as_str()) != Some("pastis_status") {
        return Err("schema field is not \"pastis_status\"".into());
    }
    if doc.get("version").and_then(|v| v.as_u64()) != Some(STATUS_SCHEMA_VERSION) {
        return Err(format!("version is not {STATUS_SCHEMA_VERSION}"));
    }
    let p = doc
        .get("p")
        .and_then(|v| v.as_u64())
        .ok_or("missing world size p")? as usize;
    let snaps = match doc.get("snapshots") {
        Some(JsonValue::Arr(s)) if !s.is_empty() => s,
        _ => return Err("snapshots array is missing or empty".into()),
    };
    let mut last_epochs: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, snap) in snaps.iter().enumerate() {
        let rows = match snap.get("ranks") {
            Some(JsonValue::Arr(r)) => r,
            _ => return Err(format!("snapshot {i}: missing ranks array")),
        };
        if rows.len() > p {
            return Err(format!("snapshot {i}: {} rows for p={p}", rows.len()));
        }
        if snap
            .get("live_bytes_total")
            .and_then(|v| v.as_f64())
            .is_none()
        {
            return Err(format!("snapshot {i}: missing live_bytes_total"));
        }
        for row in rows {
            let rank = row
                .get("rank")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("snapshot {i}: row missing rank"))?;
            for key in ["epoch", "done", "total", "hb_age_ms"] {
                if row.get(key).and_then(|v| v.as_f64()).is_none() {
                    return Err(format!("snapshot {i}: rank {rank} missing {key}"));
                }
            }
            if row.get("stage").and_then(|v| v.as_str()).is_none() {
                return Err(format!("snapshot {i}: rank {rank} missing stage"));
            }
            for key in ["active", "straggler"] {
                if !matches!(row.get(key), Some(JsonValue::Bool(_))) {
                    return Err(format!("snapshot {i}: rank {rank} missing {key}"));
                }
            }
            let epoch = row.get("epoch").and_then(|v| v.as_u64()).unwrap_or(0);
            let prev = last_epochs.insert(rank, epoch).unwrap_or(0);
            if epoch < prev {
                return Err(format!(
                    "snapshot {i}: rank {rank} epoch went backwards ({prev} -> {epoch})"
                ));
            }
            let (done, total) = (
                row.get("done").and_then(|v| v.as_u64()).unwrap_or(0),
                row.get("total").and_then(|v| v.as_u64()).unwrap_or(0),
            );
            if done > total {
                return Err(format!(
                    "snapshot {i}: rank {rank} done {done} > total {total}"
                ));
            }
        }
    }
    if complete {
        let fin = doc.get("final").ok_or("missing final snapshot")?;
        let rows = match fin.get("ranks") {
            Some(JsonValue::Arr(r)) if r.len() == p => r,
            Some(JsonValue::Arr(r)) => {
                return Err(format!("final snapshot has {} rows for p={p}", r.len()))
            }
            _ => return Err("final snapshot missing ranks".into()),
        };
        for row in rows {
            let rank = row.get("rank").and_then(|v| v.as_u64()).unwrap_or(0);
            if !matches!(row.get("active"), Some(JsonValue::Bool(false))) {
                return Err(format!("final snapshot: rank {rank} still active"));
            }
            let (done, total) = (
                row.get("done").and_then(|v| v.as_u64()).unwrap_or(0),
                row.get("total").and_then(|v| v.as_u64()).unwrap_or(0),
            );
            if done != total {
                return Err(format!(
                    "final snapshot: rank {rank} retired {done} of {total} items"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: usize, epoch: u64, active: bool) -> RankSample {
        RankSample {
            rank,
            stage: "pastis.spgemm_b",
            epoch,
            done: 3,
            total: 4,
            hb_age_ns: 0,
            active,
        }
    }

    #[test]
    fn straggler_lags_median_of_active_ranks() {
        let samples = vec![
            sample(0, 100, true),
            sample(1, 100, true),
            sample(2, 2, true),    // lags by 98 > 50
            sample(3, 990, false), // finished rank: never flagged
        ];
        let flags = straggler_flags(&samples, 50);
        assert_eq!(flags, vec![false, false, true, false]);
        // A generous threshold flags nobody.
        assert!(straggler_flags(&samples, 1_000).iter().all(|&f| !f));
        assert!(straggler_flags(&[], 1).is_empty());
    }

    #[test]
    fn status_doc_roundtrips_and_validates() {
        let cfg = MonitorConfig::default();
        let samples = vec![sample(0, 5, true), sample(1, 7, true)];
        let flags = straggler_flags(&samples, 50);
        let s0 = snapshot_doc(0, 10, &samples, &flags);
        let samples2 = vec![
            RankSample {
                epoch: 9,
                done: 4,
                active: false,
                stage: "-",
                ..sample(0, 0, false)
            },
            RankSample {
                epoch: 8,
                done: 4,
                active: false,
                stage: "-",
                ..sample(1, 0, false)
            },
        ];
        let flags2 = straggler_flags(&samples2, 50);
        let s1 = snapshot_doc(1, 20, &samples2, &flags2);
        let doc = status_doc(2, &cfg, &[s0, s1], 0, true);
        let text = format!("{doc}");
        let parsed = JsonValue::parse(&text).expect("status doc parses");
        validate_status(&parsed, true).expect("valid document");

        // Truncated documents and epoch regressions are rejected.
        assert!(validate_status(&JsonValue::parse("{}").unwrap(), false).is_err());
        let bad = status_doc(2, &cfg, &[], 0, false);
        assert!(validate_status(&bad, false)
            .unwrap_err()
            .contains("snapshots"));
        // The version-1 document (per-rank `live_bytes`, a per-subsystem
        // split) is not this schema.
        let old = JsonValue::parse(&text.replace("\"version\":2", "\"version\":1")).unwrap();
        assert_ne!(old, parsed);
        assert!(validate_status(&old, true).unwrap_err().contains("version"));
    }

    #[test]
    fn epoch_regression_is_rejected() {
        let cfg = MonitorConfig::default();
        let hi = vec![sample(0, 9, true)];
        let lo = vec![sample(0, 3, true)];
        let s0 = snapshot_doc(0, 10, &hi, &[false]);
        let s1 = snapshot_doc(1, 20, &lo, &[false]);
        let doc = status_doc(1, &cfg, &[s0, s1], 0, false);
        let err = validate_status(&doc, false).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn render_includes_stage_and_bar() {
        let samples = vec![sample(0, 5, true)];
        let snap = snapshot_doc(0, 1500, &samples, &[true]);
        let table = render_snapshot(&snap, 1);
        assert!(table.contains("pastis.spgemm_b"), "{table}");
        assert!(table.contains("3/4"), "{table}");
        assert!(table.contains("STRAGGLER"), "{table}");
        assert!(table.contains("process live"), "{table}");
        assert_eq!(progress_bar(0.0, 0.0, 4), "[----]");
        assert_eq!(progress_bar(2.0, 4.0, 4), "[##..]");
    }
}
