//! `pastis-top` — watch a live `pastis --monitor` run from another
//! terminal.
//!
//! ```text
//! pastis-top [status.json] [--watch] [--interval-ms N]
//! ```
//!
//! Reads the `status.json` document the run's heartbeat thread keeps next
//! to its output and renders the latest per-rank snapshot (the same table
//! `--monitor` prints from inside the run: stage, progress bar, heartbeat
//! age, straggler flags, the process's live bytes in the header).
//! `--watch` refreshes until the
//! document carries a final snapshot, tolerating partially-written
//! documents (the heartbeat writer is not atomic — a torn read that fails
//! to parse or validate just retries next tick); one-shot invocations
//! exit 1 when the document is missing or fails schema validation.

use std::process::exit;

use obs::JsonValue;

fn usage() -> ! {
    eprintln!("usage: pastis-top [status.json] [--watch] [--interval-ms N]");
    exit(2);
}

fn main() {
    let mut path = None;
    let mut watch = false;
    let mut interval_ms = 500u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--watch" => watch = true,
            "--interval-ms" => {
                interval_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            other => path = Some(other.to_string()),
        }
    }
    let path = path.unwrap_or_else(|| "status.json".into());
    loop {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if watch => {
                // The run may not have written its first snapshot yet.
                eprintln!("pastis-top: waiting for {path}: {e}");
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                continue;
            }
            Err(e) => {
                eprintln!("pastis-top: cannot read {path}: {e}");
                exit(1);
            }
        };
        let doc = match JsonValue::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                // A torn read can race the writer mid-rewrite; retry in
                // watch mode, fail one-shot.
                if watch {
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                    continue;
                }
                eprintln!("pastis-top: {path} does not parse: {e}");
                exit(1);
            }
        };
        if let Err(e) = pcomm::monitor::validate_status(&doc, false) {
            // Same torn-read race as the parse failure above: a rewrite
            // can be caught with, e.g., a truncated snapshots array that
            // parses but fails the schema. Retry next tick in watch mode.
            if watch {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                continue;
            }
            eprintln!("pastis-top: {path} failed validation: {e}");
            exit(1);
        }
        let p = doc.get("p").and_then(|v| v.as_u64()).unwrap_or(0) as usize;
        let finished = !matches!(doc.get("final"), Some(JsonValue::Null) | None);
        let last = match doc.get("snapshots") {
            Some(JsonValue::Arr(snaps)) => snaps.last().cloned(),
            _ => None,
        };
        if let Some(snap) = last {
            println!("{}", pcomm::monitor::render_snapshot(&snap, p));
        }
        if finished {
            println!("pastis-top: run complete");
            return;
        }
        if !watch {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
