//! obsperf — recorder overhead on the alignment workload.
//!
//! The `obs` layer promises zero cost when no recorder is installed and
//! low single-digit-percent cost when one is. This bench times the same
//! instrumented batch — [`align::align_batch`] driving
//! [`align::local_align`], the hottest obs-annotated path (one histogram
//! sample per alignment, one span per batch/worker) — with the thread's
//! recorder absent and present, plus per-call micro costs of the span and
//! histogram primitives in both states.
//!
//! A second macro section measures the black-box flight recorder on the
//! full pipeline (its events come from the pcomm chokepoints, which the
//! align batch never crosses): the same `run_on` workload with the global
//! recording switch off vs on, plus the per-push micro cost.
//!
//! A third macro section measures the live monitor plane (heartbeat
//! cells + the snapshot thread `pastis --monitor` arms) the same way:
//! pipeline with the plane configured vs disarmed.
//!
//! Writes `BENCH_obs.json` (override with `OUT=<path>`); `SCALE=<f64>`
//! multiplies pair counts. Targets: < 2% recorder macro overhead, < 3%
//! flight-recorder overhead, < 2% monitor-plane overhead.

use obs::Stopwatch;
use std::fmt::Write as _;

use align::{align_batch, local_align, AlignParams};
use datagen::random_protein;
use pastis::{AlignMode, PastisParams};
use pastis_bench::{metaclust_dataset, run_on};
use rand::prelude::*;

/// Pair of `len`-residue sequences at `rate` point-mutation distance
/// (`rate >= 1.0` means unrelated) — the alnperf mixed-metaclust recipe.
fn pairs(scale: f64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(2020);
    let n = ((200.0 * scale).round() as usize).max(8);
    (0..n)
        .map(|_| {
            let len = rng.random_range(100..300);
            let rate = if rng.random::<f64>() < 0.3 { 0.12 } else { 1.0 };
            let a = random_protein(&mut rng, len);
            let b = if rate >= 1.0 {
                random_protein(&mut rng, len)
            } else {
                a.iter()
                    .map(|&x| {
                        if rng.random::<f64>() < rate {
                            rng.random_range(0..20u8)
                        } else {
                            x
                        }
                    })
                    .collect()
            };
            (a, b)
        })
        .collect()
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        std::hint::black_box(f());
        best = best.min(t0.elapsed_secs());
    }
    best
}

/// Nanoseconds per iteration of `f`, best of `reps`.
fn ns_per_op(iters: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    time_best(reps, || {
        for _ in 0..iters {
            f();
        }
    }) * 1e9
        / iters as f64
}

fn main() {
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let out_path = std::env::var("OUT").unwrap_or_else(|_| "BENCH_obs.json".into());
    let p = AlignParams::default();
    let reps = 51;
    let tasks = pairs(scale);
    let cells: u64 = tasks.iter().map(|(a, b)| (a.len() * b.len()) as u64).sum();

    let run = |threads: usize| {
        align_batch(&tasks, threads, |(a, b)| local_align(a, b, &p).score as i64)
            .iter()
            .sum::<i64>()
    };

    // Macro: the whole instrumented batch, recorder absent vs present.
    // Single samples on a shared host swing by tens of percent, so the
    // estimator is the *median* over many samples, interleaved with the
    // order swapped every rep so clock-frequency drift and cache warming
    // hit both sides equally.
    assert!(
        !obs::enabled(),
        "bench thread must start without a recorder"
    );
    std::hint::black_box(run(1)); // warmup
    let mut off_samples = Vec::new();
    let mut on_samples = Vec::new();
    let mut events = 0usize;
    let mut hists = 0usize;
    let sample_off = |off_samples: &mut Vec<f64>| {
        let t0 = Stopwatch::start();
        std::hint::black_box(run(1));
        off_samples.push(t0.elapsed_secs());
    };
    let sample_on = |on_samples: &mut Vec<f64>, events: &mut usize, hists: &mut usize| {
        let rec = obs::Recorder::install(0);
        let t0 = Stopwatch::start();
        std::hint::black_box(run(1));
        on_samples.push(t0.elapsed_secs());
        let trace = rec.finish();
        *events = trace.events.len();
        *hists = trace.metrics.hists.len();
    };
    for rep in 0..reps {
        if rep % 2 == 0 {
            sample_off(&mut off_samples);
            sample_on(&mut on_samples, &mut events, &mut hists);
        } else {
            sample_on(&mut on_samples, &mut events, &mut hists);
            sample_off(&mut off_samples);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let secs_off = median(&mut off_samples.clone());
    let secs_on = median(&mut on_samples.clone());
    // The overhead estimate comes from *paired* ratios: the i-th off and on
    // samples ran back-to-back, so slow drift cancels inside each ratio and
    // the median rejects the scheduler spikes that hit one side of a pair.
    let mut ratios: Vec<f64> = on_samples
        .iter()
        .zip(&off_samples)
        .map(|(on, off)| on / off)
        .collect();
    let overhead_pct = 100.0 * (median(&mut ratios) - 1.0);

    // Micro: per-call primitive costs in both states.
    let span_off = ns_per_op(1_000_000, reps, || drop(obs::span!("bench.noop")));
    let hist_off = ns_per_op(1_000_000, reps, || obs::hist!("bench.h", 42));
    let rec2 = obs::Recorder::with_capacity(0, 64); // tiny: steady-state drops
    let span_on = ns_per_op(1_000_000, reps, || drop(obs::span!("bench.noop")));
    let hist_on = ns_per_op(1_000_000, reps, || obs::hist!("bench.h", 42));
    drop(rec2);

    // Flight recorder: every pcomm chokepoint pushes one ring event, so
    // its cost only shows on a communication-heavy workload. Time the
    // full pipeline on a small simulated grid with the process-wide
    // recording switch off vs on (rings stay installed either way — that
    // is exactly how the runtime runs), paired and median'd like the
    // recorder macro above. Target: < 3% (ratio ≤ 1.03).
    let bb_reps = 15;
    let bb_fasta = metaclust_dataset(0.12 * scale, 7);
    let bb_params = PastisParams {
        k: 5,
        mode: AlignMode::XDrop,
        threads: 1,
        ..Default::default()
    };
    let bb_run = || {
        run_on(&bb_fasta, 4, &bb_params)
            .iter()
            .map(|r| r.edges.len())
            .sum::<usize>()
    };
    std::hint::black_box(bb_run()); // warmup
    let mut bb_off = Vec::new();
    let mut bb_on = Vec::new();
    let bb_sample = |samples: &mut Vec<f64>, on: bool| {
        obs::blackbox::set_recording(on);
        let t0 = Stopwatch::start();
        std::hint::black_box(bb_run());
        samples.push(t0.elapsed_secs());
    };
    for rep in 0..bb_reps {
        if rep % 2 == 0 {
            bb_sample(&mut bb_off, false);
            bb_sample(&mut bb_on, true);
        } else {
            bb_sample(&mut bb_on, true);
            bb_sample(&mut bb_off, false);
        }
    }
    obs::blackbox::set_recording(true);
    let bb_secs_off = median(&mut bb_off.clone());
    let bb_secs_on = median(&mut bb_on.clone());
    let mut bb_ratios: Vec<f64> = bb_on
        .iter()
        .zip(&bb_off)
        .map(|(on, off)| on / off)
        .collect();
    let bb_ratio = median(&mut bb_ratios);
    let bb_pct = 100.0 * (bb_ratio - 1.0);
    // Micro: one ring push with a ring installed vs the no-ring fast path.
    let bb_rec_off = ns_per_op(1_000_000, reps, || {
        obs::blackbox::record(obs::BbKind::Mark, "bench.bb", 1, 2)
    });
    let bb_guard = obs::blackbox::install_with_capacity(0, 64);
    let bb_rec_on = ns_per_op(1_000_000, reps, || {
        obs::blackbox::record(obs::BbKind::Mark, "bench.bb", 1, 2)
    });
    drop(bb_guard);

    // Monitor plane: live heartbeat cells plus the snapshot thread. A
    // pipeline run with `--monitor` armed (cells enabled, snapshot
    // thread sampling at the default interval, snapshots kept in memory
    // so disk jitter stays out of the measurement) vs the plane fully
    // disarmed, paired and median'd as above. The workload is larger
    // than the flight-recorder one: the plane's only fixed cost is the
    // monitor thread's spawn/final-snapshot handshake, which a
    // too-short run would overstate against the 2% target (and a ~25ms
    // run cannot resolve 2% against single-core scheduler jitter at
    // all). Target: < 2% (ratio ≤ 1.02).
    let mon_reps = 15;
    let mon_fasta = metaclust_dataset(0.5 * scale, 7);
    let mon_run = || {
        run_on(&mon_fasta, 4, &bb_params)
            .iter()
            .map(|r| r.edges.len())
            .sum::<usize>()
    };
    let mon_cfg = pcomm::monitor::MonitorConfig {
        path: None,
        render: false,
        ..Default::default()
    };
    let mut mon_off = Vec::new();
    let mut mon_on = Vec::new();
    let mon_sample = |samples: &mut Vec<f64>, on: bool| {
        if on {
            pcomm::monitor::configure(mon_cfg.clone());
        } else {
            pcomm::monitor::deconfigure();
        }
        let t0 = Stopwatch::start();
        std::hint::black_box(mon_run());
        samples.push(t0.elapsed_secs());
    };
    std::hint::black_box(mon_run()); // warmup the larger dataset
    for rep in 0..mon_reps {
        if rep % 2 == 0 {
            mon_sample(&mut mon_off, false);
            mon_sample(&mut mon_on, true);
        } else {
            mon_sample(&mut mon_on, true);
            mon_sample(&mut mon_off, false);
        }
    }
    pcomm::monitor::deconfigure();
    let mon_secs_off = median(&mut mon_off.clone());
    let mon_secs_on = median(&mut mon_on.clone());
    let mut mon_ratios: Vec<f64> = mon_on
        .iter()
        .zip(&mon_off)
        .map(|(on, off)| on / off)
        .collect();
    let mon_ratio = median(&mut mon_ratios);
    let mon_pct = 100.0 * (mon_ratio - 1.0);
    // Micro: one heartbeat touch with the plane off (a relaxed load) vs
    // on with a cell installed (clock read + allocator sample + stores).
    let touch_off = ns_per_op(1_000_000, reps, obs::live::touch);
    let live_guard = obs::live::install(0);
    obs::live::set_enabled(true);
    let touch_on = ns_per_op(1_000_000, reps, obs::live::touch);
    obs::live::set_enabled(false);
    drop(live_guard);

    println!(
        "== obs recorder overhead (align batch, {} pairs, {cells} cells) ==",
        tasks.len()
    );
    println!("recorder off: {secs_off:.4}s   on: {secs_on:.4}s   overhead: {overhead_pct:+.2}%");
    println!("span  ns/op: off {span_off:.1}  on {span_on:.1}");
    println!("hist  ns/op: off {hist_off:.1}  on {hist_on:.1}");
    println!("trace captured {events} events, {hists} histograms while on");
    let verdict = if overhead_pct < 2.0 { "PASS" } else { "FAIL" };
    println!("target < 2%: {verdict}");
    println!("== flight recorder overhead (pipeline, p=4) ==");
    println!(
        "recording off: {bb_secs_off:.4}s   on: {bb_secs_on:.4}s   \
         overhead: {bb_pct:+.2}% (ratio {bb_ratio:.4})"
    );
    println!("bb record ns/op: no ring {bb_rec_off:.1}  ring {bb_rec_on:.1}");
    let bb_verdict = if bb_ratio < 1.03 { "PASS" } else { "FAIL" };
    println!("target < 3%: {bb_verdict}");
    println!("== monitor plane overhead (pipeline, p=4) ==");
    println!(
        "monitor off: {mon_secs_off:.4}s   on: {mon_secs_on:.4}s   \
         overhead: {mon_pct:+.2}% (ratio {mon_ratio:.4})"
    );
    println!("live touch ns/op: off {touch_off:.1}  on {touch_on:.1}");
    let mon_verdict = if mon_ratio < 1.02 { "PASS" } else { "FAIL" };
    println!("target < 2%: {mon_verdict}");

    let mut json = String::from("{\n  \"bench\": \"obs_overhead\",\n");
    let _ = writeln!(json, "  \"workload\": \"align_batch/local_align\",");
    let _ = writeln!(json, "  \"pairs\": {}, \"cells\": {cells},", tasks.len());
    let _ = writeln!(json, "  \"secs_recorder_off\": {secs_off:.6},");
    let _ = writeln!(json, "  \"secs_recorder_on\": {secs_on:.6},");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(
        json,
        "  \"target_pct\": 2.0, \"pass\": {},",
        overhead_pct < 2.0
    );
    let _ = writeln!(
        json,
        "  \"micro_ns_per_op\": {{\"span_off\": {span_off:.2}, \"span_on\": {span_on:.2}, \"hist_off\": {hist_off:.2}, \"hist_on\": {hist_on:.2}}},"
    );
    let _ = writeln!(
        json,
        "  \"blackbox\": {{\"secs_off\": {bb_secs_off:.6}, \"secs_on\": {bb_secs_on:.6}, \
         \"overhead_pct\": {bb_pct:.3}, \"overhead_ratio\": {bb_ratio:.5}, \
         \"target_pct\": 3.0, \"pass\": {}, \
         \"record_ns_no_ring\": {bb_rec_off:.2}, \"record_ns_ring\": {bb_rec_on:.2}}},",
        bb_ratio < 1.03
    );
    let _ = writeln!(
        json,
        "  \"monitor\": {{\"secs_off\": {mon_secs_off:.6}, \"secs_on\": {mon_secs_on:.6}, \
         \"overhead_pct\": {mon_pct:.3}, \"overhead_ratio\": {mon_ratio:.5}, \
         \"target_pct\": 2.0, \"pass\": {}, \
         \"touch_ns_off\": {touch_off:.2}, \"touch_ns_on\": {touch_on:.2}}}",
        mon_ratio < 1.02
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_obs.json");
    println!("wrote {out_path}");
}
