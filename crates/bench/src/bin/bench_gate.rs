//! bench_gate — schema and regression gate over the committed bench
//! baselines, wired into `scripts/verify.sh`.
//!
//! Modes:
//!
//! - `schema`: validate `machine_profile.json` (if present) and every
//!   recognized document under the baseline dir. Catches hand-edits that
//!   would silently disarm the gate.
//! - `gate`: diff the current `BENCH_align.json` / `BENCH_obs.json` in
//!   the working directory against the committed baselines. Both are
//!   wall-clock benches, so a document is compared only when a current
//!   copy is present; nothing is regenerated here. Skips with a note when
//!   no baseline is committed, and likewise when a committed baseline
//!   predates the current document schema (rerun the bench bins to re-arm
//!   those checks).
//!
//! `BASELINE=<dir>` overrides the baseline directory (default
//! `results/baseline`).

use std::path::{Path, PathBuf};

use obs::JsonValue;
use pastis_bench::gate;
use pcomm::MachineProfile;

fn baseline_dir() -> PathBuf {
    PathBuf::from(std::env::var("BASELINE").unwrap_or_else(|_| "results/baseline".into()))
}

fn read_doc(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

const BENCH_FILES: [&str; 2] = ["BENCH_align.json", "BENCH_obs.json"];

fn run_schema() -> Result<(), String> {
    let mut checked = 0;
    let profile_path =
        PathBuf::from(std::env::var("PROFILE").unwrap_or_else(|_| "machine_profile.json".into()));
    if profile_path.exists() {
        MachineProfile::load(&profile_path)?;
        println!("schema OK: {}", profile_path.display());
        checked += 1;
    }
    let dir = baseline_dir();
    for file in BENCH_FILES {
        let path = dir.join(file);
        if !path.exists() {
            continue;
        }
        let doc = read_doc(&path)?;
        if let Some(note) = gate::schema_age(file, &doc) {
            println!("schema STALE: {} — {note}", path.display());
            checked += 1;
            continue;
        }
        gate::validate(file, &doc).map_err(|e| format!("{}: {e}", dir.display()))?;
        println!("schema OK: {}", path.display());
        checked += 1;
    }
    if checked == 0 {
        println!("bench_gate schema: nothing to check (no profile or baselines committed)");
    }
    Ok(())
}

fn run_gate() -> Result<bool, String> {
    let dir = baseline_dir();
    if !dir.exists() {
        println!(
            "bench_gate: no baseline at {} — skipping (commit one with the \
             `calibrate`/`alnperf`/`obsperf` bins)",
            dir.display()
        );
        return Ok(true);
    }
    let mut baselines: Vec<(&str, JsonValue)> = Vec::new();
    let mut currents: Vec<(&str, JsonValue)> = Vec::new();
    for file in BENCH_FILES {
        let path = dir.join(file);
        if !path.exists() {
            println!("bench_gate: {} not committed — skipping its checks", file);
            continue;
        }
        let doc = read_doc(&path)?;
        if let Some(note) = gate::schema_age(file, &doc) {
            println!("bench_gate: {file} baseline {note}; skipping its checks");
            continue;
        }
        gate::validate(file, &doc)?;
        let cur = Path::new(file);
        if !cur.exists() {
            println!("bench_gate: no fresh ./{file} — skipping (run the bench bin to gate it)");
            continue;
        }
        let cur_doc = read_doc(cur)?;
        gate::validate(file, &cur_doc)?;
        currents.push((file, cur_doc));
        baselines.push((file, doc));
    }
    let (outcomes, all_ok) = gate::run(&baselines, &currents);
    if outcomes.is_empty() {
        println!("bench_gate: no comparable documents — nothing gated");
        return Ok(true);
    }
    let fmt = |v: f64| {
        if v.abs() >= 1e4 {
            format!("{v:.3e}")
        } else {
            format!("{v:.4}")
        }
    };
    println!(
        "{:<42}{:>12}{:>12}  verdict",
        "metric", "baseline", "current"
    );
    for o in &outcomes {
        println!(
            "{:<42}{:>12}{:>12}  {} {}",
            o.name,
            fmt(o.baseline),
            fmt(o.current),
            if o.ok { "PASS" } else { "FAIL" },
            o.detail
        );
    }
    Ok(all_ok)
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "gate".into());
    let result = match mode.as_str() {
        "schema" => run_schema().map(|()| true),
        "gate" => run_gate(),
        other => Err(format!("unknown mode `{other}` (want `schema` or `gate`)")),
    };
    match result {
        Ok(true) => println!("bench_gate {mode}: OK"),
        Ok(false) => {
            eprintln!("bench_gate {mode}: FAILED");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("bench_gate {mode}: error: {e}");
            std::process::exit(1);
        }
    }
}
