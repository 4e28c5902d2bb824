//! alnperf — alignment-engine throughput (DP cells per second), scalar vs
//! striped, on datagen sequence families.
//!
//! Every pair is aligned by both engines and the results are checked for
//! bit-identity before timing, so the reported speedups compare equal
//! work. Three entry points are timed per family:
//!
//! - `scalar`: [`align::smith_waterman`] (full traceback, O(m·n) dirs)
//! - `striped`: [`align::striped_align`] (full traceback, bit-identical)
//! - `striped_score`: [`align::striped_score`] (score + end cell only —
//!   what score-threshold prefilters would use)
//! - `xdrop`: [`align::xdrop_align`] from one seed per pair (the first
//!   shared 6-mer, else mid-sequence), in *computed* cells per second —
//!   the cell count is the `align.xdrop_cells` histogram sum, not `m·n`.
//!   `xdrop_vs_scalar` divides that by the scalar engine's cells/s on the
//!   same pairs: what one banded cell costs relative to one full-DP cell.
//!
//! A `cascade` section measures the Smith–Waterman engine's passes on
//! workloads built to exercise them:
//!
//! - `striped_avx2`: the striped score pass pinned to the AVX2 lanes vs
//!   pinned to the SLP lanes (only meaningful where AVX2 is detected)
//! - `traceback_span`: full traceback on long pairs sharing only a short
//!   homologous core, where the reverse start-cell pass shrinks the
//!   traceback rectangle
//!
//! Writes `BENCH_align.json` to the working directory (override with
//! `OUT=<path>`); `SCALE=<f64>` multiplies pair counts. A document
//! already at that path is the reference: the run is checked against it
//! row by row ([`CHECKS`]), prints the verdict table, and on any failure
//! exits 1 and leaves the file untouched.

use obs::{JsonValue, Stopwatch};
use std::fmt::Write as _;

use align::{
    avx2_available, smith_waterman, striped_align, striped_score, striped_score_at_level,
    xdrop_align, AlignParams, SimdLevel,
};
use datagen::random_protein;
use rand::prelude::*;

struct Family {
    name: &'static str,
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Pair of `len`-residue sequences at `rate` point-mutation distance
/// (`rate >= 1.0` means unrelated).
fn pair(rng: &mut StdRng, len: usize, rate: f64) -> (Vec<u8>, Vec<u8>) {
    let a = random_protein(rng, len);
    let b = if rate >= 1.0 {
        random_protein(rng, len)
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
}

fn families(scale: f64) -> Vec<Family> {
    let n = |base: usize| ((base as f64 * scale).round() as usize).max(2);
    let mut rng = StdRng::seed_from_u64(2020);
    let mut out = Vec::new();
    for (name, len, rate, base) in [
        ("homolog_150", 150usize, 0.12, 200usize),
        ("homolog_400", 400, 0.12, 60),
        ("distant_300", 300, 0.45, 80),
        ("unrelated_300", 300, 1.0, 80),
        ("mixed_metaclust", 0, 0.0, 0), // filled below
    ] {
        if name == "mixed_metaclust" {
            // Length and relatedness mix akin to the metaclust-like
            // datasets (lengths 100–300, 30% related).
            let pairs = (0..n(150))
                .map(|_| {
                    let len = rng.random_range(100..300);
                    let rate = if rng.random::<f64>() < 0.3 { 0.12 } else { 1.0 };
                    pair(&mut rng, len, rate)
                })
                .collect();
            out.push(Family { name, pairs });
        } else {
            let pairs = (0..n(base)).map(|_| pair(&mut rng, len, rate)).collect();
            out.push(Family { name, pairs });
        }
    }
    out
}

/// Seed length of the x-drop rows.
const SEED_K: usize = 6;

/// Where the x-drop rows anchor a pair: the first 6-mer the two share at
/// the same offset (the families mutate by substitution only), else the
/// middle of the shorter sequence.
fn seed_pos(a: &[u8], b: &[u8]) -> u32 {
    let span = a.len().min(b.len()) - SEED_K;
    (0..=span)
        .find(|&i| a[i..i + SEED_K] == b[i..i + SEED_K])
        .unwrap_or(span / 2) as u32
}

/// Best-of-`reps` wall-clock seconds for `f` over the whole batch.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        std::hint::black_box(f());
        best = best.min(t0.elapsed_secs());
    }
    best
}

/// How one checked value may move.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Throughput: may fall at most this fraction below the reference
    /// document's value.
    Ratio(f64),
    /// Spec: must be at least this value. Reads only the new run, and
    /// skips when the run does not emit the key — the AVX2 row exists
    /// only where AVX2 is detected.
    Floor(f64),
}

/// The checked scalars, by key path. Engine throughputs tolerate 20%
/// wall-clock noise on a shared host; each floor sits below its ratio's
/// observed band, so only a real regression trips it.
const CHECKS: &[(&[&str], Kind)] = &[
    (&["aggregate", "scalar"], Kind::Ratio(0.20)),
    (&["aggregate", "striped"], Kind::Ratio(0.20)),
    (&["aggregate", "striped_score"], Kind::Ratio(0.20)),
    (
        &["cascade", "traceback_span", "cells_per_sec"],
        Kind::Ratio(0.20),
    ),
    // X-drop per computed cell against scalar SW per full-DP cell. The
    // x-drop open interior runs in the dispatched SIMD lanes and the SW
    // reference is scalar, so the ratio depends on the host's lane width:
    // 0.4 before the three-phase kernel (DESIGN.md §7), 0.75–0.85 with it,
    // 1.4–1.8 with AVX2 interior lanes. The floor assumes AVX2: the SSE2
    // lanes read 0.97–1.16.
    (&["aggregate", "xdrop_vs_scalar"], Kind::Floor(1.2)),
    // AVX2 lanes against SLP lanes: 1.4–1.6×.
    (&["cascade", "striped_avx2", "vs_slp"], Kind::Floor(1.25)),
];

/// One row of the verdict table.
#[derive(Debug)]
struct Outcome {
    name: String,
    /// The reference value (a floor's own value for floor rows).
    reference: f64,
    current: f64,
    ok: bool,
    detail: String,
}

fn lookup(doc: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |cur, k| cur.get(k))?.as_f64()
}

/// Apply every check of [`CHECKS`] to a new run against the reference
/// document. Returns the verdict rows and whether all passed.
fn compare(reference: &JsonValue, current: &JsonValue) -> (Vec<Outcome>, bool) {
    let outcomes: Vec<Outcome> = CHECKS
        .iter()
        .map(|&(path, kind)| {
            let (r, c) = (lookup(reference, path), lookup(current, path));
            let (reference, current, ok, detail) = match (kind, r, c) {
                (Kind::Floor(f), _, Some(c)) => {
                    (f, c, c >= f, format!("value {c:.3} (floor {f:.3})"))
                }
                (Kind::Floor(f), _, None) => {
                    (f, f64::NAN, true, "absent on this host; skipped".into())
                }
                (Kind::Ratio(tol), Some(r), Some(c)) => {
                    let (ratio, min) = (c / r, 1.0 - tol);
                    (
                        r,
                        c,
                        ratio >= min,
                        format!("ratio {ratio:.3} (min {min:.3})"),
                    )
                }
                (Kind::Ratio(_), r, c) => {
                    let (r, c) = (r.unwrap_or(f64::NAN), c.unwrap_or(f64::NAN));
                    (r, c, false, "metric missing from document".into())
                }
            };
            let name = path.join(".");
            Outcome {
                name,
                reference,
                current,
                ok,
                detail,
            }
        })
        .collect();
    let all_ok = outcomes.iter().all(|o| o.ok);
    (outcomes, all_ok)
}

struct Row {
    name: &'static str,
    pairs: usize,
    cells: u64,
    scalar_cups: f64,
    striped_cups: f64,
    striped_score_cups: f64,
    /// Cells the x-drop band actually computed over the family.
    xdrop_cells: u64,
    xdrop_cups: f64,
}

fn main() {
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let out_path = std::env::var("OUT").unwrap_or_else(|_| "BENCH_align.json".into());
    // The reference is read before timing anything, so a malformed one
    // fails fast.
    let reference = std::fs::read_to_string(&out_path).ok().map(|text| {
        JsonValue::parse(&text).unwrap_or_else(|e| {
            eprintln!("alnperf: {out_path}: {e}");
            std::process::exit(1);
        })
    });
    let p = AlignParams::default();
    let reps = 3;

    let mut rows = Vec::new();
    println!("== alignment engine throughput (cells/sec) ==");
    println!(
        "{:<18}{:>7}{:>14}{:>14}{:>14}{:>16}{:>9}{:>14}{:>11}",
        "family",
        "pairs",
        "cells",
        "scalar",
        "striped",
        "striped_score",
        "speedup",
        "xdrop",
        "vs_scalar"
    );
    for fam in families(scale) {
        let cells: u64 = fam
            .pairs
            .iter()
            .map(|(a, b)| (a.len() * b.len()) as u64)
            .sum();
        // Correctness gate: both engines must agree on every pair.
        for (a, b) in &fam.pairs {
            let sw = smith_waterman(a, b, &p);
            assert_eq!(
                striped_align(a, b, &p),
                sw,
                "engines disagree in {}",
                fam.name
            );
            assert_eq!(striped_score(a, b, &p).0, sw.score);
        }
        let t_scalar = time_best(reps, || {
            fam.pairs
                .iter()
                .map(|(a, b)| smith_waterman(a, b, &p).score as i64)
                .sum::<i64>()
        });
        let t_striped = time_best(reps, || {
            fam.pairs
                .iter()
                .map(|(a, b)| striped_align(a, b, &p).score as i64)
                .sum::<i64>()
        });
        let t_score = time_best(reps, || {
            fam.pairs
                .iter()
                .map(|(a, b)| striped_score(a, b, &p).0 as i64)
                .sum::<i64>()
        });
        // X-drop from one seed per pair. One untimed pass under a recorder
        // reads the computed-cell count the kernel itself reports.
        let seeds: Vec<u32> = fam.pairs.iter().map(|(a, b)| seed_pos(a, b)).collect();
        let run_xdrop = || {
            fam.pairs
                .iter()
                .zip(&seeds)
                .map(|((a, b), &pos)| xdrop_align(a, b, pos, pos, SEED_K, &p).score as i64)
                .sum::<i64>()
        };
        let rec = obs::Recorder::install(0);
        std::hint::black_box(run_xdrop());
        let xdrop_cells = rec.finish().metrics.hists["align.xdrop_cells"].sum;
        let t_xdrop = time_best(reps, run_xdrop);
        let row = Row {
            name: fam.name,
            pairs: fam.pairs.len(),
            cells,
            scalar_cups: cells as f64 / t_scalar,
            striped_cups: cells as f64 / t_striped,
            striped_score_cups: cells as f64 / t_score,
            xdrop_cells,
            xdrop_cups: xdrop_cells as f64 / t_xdrop,
        };
        println!(
            "{:<18}{:>7}{:>14}{:>14.3e}{:>14.3e}{:>16.3e}{:>8.2}x{:>14.3e}{:>10.2}x",
            row.name,
            row.pairs,
            row.cells,
            row.scalar_cups,
            row.striped_cups,
            row.striped_score_cups,
            row.striped_cups / row.scalar_cups,
            row.xdrop_cups,
            row.xdrop_cups / row.scalar_cups
        );
        rows.push(row);
    }

    // Aggregate over all families: total cells / total best time per engine.
    let total_cells: u64 = rows.iter().map(|r| r.cells).sum();
    let agg = |f: fn(&Row) -> f64| {
        let total_secs: f64 = rows.iter().map(|r| r.cells as f64 / f(r)).sum();
        total_cells as f64 / total_secs
    };
    let (scalar, striped, score) = (
        agg(|r| r.scalar_cups),
        agg(|r| r.striped_cups),
        agg(|r| r.striped_score_cups),
    );
    // X-drop aggregates over its own (computed) cell counts.
    let xdrop = rows.iter().map(|r| r.xdrop_cells as f64).sum::<f64>()
        / rows
            .iter()
            .map(|r| r.xdrop_cells as f64 / r.xdrop_cups)
            .sum::<f64>();
    println!(
        "\naggregate: scalar {scalar:.3e}  striped {striped:.3e} ({:.2}x)  striped_score {score:.3e} ({:.2}x)  xdrop {xdrop:.3e} ({:.2}x)",
        striped / scalar,
        score / scalar,
        xdrop / scalar
    );

    // ---- cascade: the engine's passes ----
    let n = |base: usize| ((base as f64 * scale).round() as usize).max(2);
    let mut rng = StdRng::seed_from_u64(4040);

    // striped_avx2: the score pass pinned to each lane width. The ratio is
    // only emitted where AVX2 is actually detected (on other hosts both
    // pins run the SLP lanes and the ratio would be noise around 1). The
    // dispatched level is not the test: an AVX-512 host runs these AVX2
    // lanes too.
    let avx2_detected = avx2_available();
    let lane_pairs: Vec<_> = (0..n(40)).map(|_| pair(&mut rng, 800, 0.12)).collect();
    let lane_cells: u64 = lane_pairs
        .iter()
        .map(|(a, b)| (a.len() * b.len()) as u64)
        .sum();
    for (a, b) in &lane_pairs {
        assert_eq!(
            striped_score_at_level(SimdLevel::Slp, a, b, &p),
            striped_score_at_level(SimdLevel::Avx2, a, b, &p),
            "lane widths disagree"
        );
    }
    let t_slp = time_best(reps, || {
        lane_pairs
            .iter()
            .map(|(a, b)| striped_score_at_level(SimdLevel::Slp, a, b, &p).0 as i64)
            .sum::<i64>()
    });
    let t_avx2 = time_best(reps, || {
        lane_pairs
            .iter()
            .map(|(a, b)| striped_score_at_level(SimdLevel::Avx2, a, b, &p).0 as i64)
            .sum::<i64>()
    });
    let (slp_cups, avx2_cups) = (lane_cells as f64 / t_slp, lane_cells as f64 / t_avx2);
    println!(
        "striped_avx2: slp {slp_cups:.3e}  avx2 {avx2_cups:.3e} ({:.2}x){}",
        avx2_cups / slp_cups,
        if avx2_detected {
            ""
        } else {
            "  [avx2 not detected: both pins ran slp]"
        }
    );

    // traceback_span: long flanked pairs sharing an identical 80-residue
    // core — the reverse start-cell pass confines the traceback rerun to
    // the core's rectangle instead of the full prefix rectangle.
    let span_pairs: Vec<_> = (0..n(40))
        .map(|_| {
            let core = random_protein(&mut rng, 80);
            let mut a = random_protein(&mut rng, 600);
            let mut b = random_protein(&mut rng, 600);
            let (ra, rb) = (rng.random_range(100..420), rng.random_range(100..420));
            a.splice(ra..ra + 80, core.iter().copied());
            b.splice(rb..rb + 80, core.iter().copied());
            (a, b)
        })
        .collect();
    let span_cells: u64 = span_pairs
        .iter()
        .map(|(a, b)| (a.len() * b.len()) as u64)
        .sum();
    for (a, b) in &span_pairs {
        assert_eq!(
            striped_align(a, b, &p),
            smith_waterman(a, b, &p),
            "span-pass traceback must stay bit-identical"
        );
    }
    let t_span = time_best(reps, || {
        span_pairs
            .iter()
            .map(|(a, b)| striped_align(a, b, &p).score as i64)
            .sum::<i64>()
    });
    let t_span_scalar = time_best(reps, || {
        span_pairs
            .iter()
            .map(|(a, b)| smith_waterman(a, b, &p).score as i64)
            .sum::<i64>()
    });
    let span_cups = span_cells as f64 / t_span;
    println!(
        "traceback_span: {span_cups:.3e} cells/s ({:.2}x scalar)",
        t_span_scalar / t_span
    );

    let mut json = String::from("{\n  \"bench\": \"align_engines\",\n  \"unit\": \"dp_cells_per_sec\",\n  \"families\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"pairs\": {}, \"cells\": {}, \"scalar\": {:.1}, \"striped\": {:.1}, \"striped_score\": {:.1}, \"speedup_striped\": {:.3}, \"speedup_striped_score\": {:.3}, \"xdrop_cells\": {}, \"xdrop\": {:.1}, \"xdrop_vs_scalar\": {:.3}}}{}",
            r.name,
            r.pairs,
            r.cells,
            r.scalar_cups,
            r.striped_cups,
            r.striped_score_cups,
            r.striped_cups / r.scalar_cups,
            r.striped_score_cups / r.scalar_cups,
            r.xdrop_cells,
            r.xdrop_cups,
            r.xdrop_cups / r.scalar_cups,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"aggregate\": {{\"scalar\": {scalar:.1}, \"striped\": {striped:.1}, \"striped_score\": {score:.1}, \"speedup_striped\": {:.3}, \"speedup_striped_score\": {:.3}, \"xdrop\": {xdrop:.1}, \"xdrop_vs_scalar\": {:.3}}},\n",
        striped / scalar,
        score / scalar,
        xdrop / scalar
    );
    json.push_str("  \"cascade\": {\n");
    let vs_slp = if avx2_detected {
        format!(", \"vs_slp\": {:.3}", avx2_cups / slp_cups)
    } else {
        String::new()
    };
    let _ = writeln!(
        json,
        "    \"striped_avx2\": {{\"pairs\": {}, \"cells\": {lane_cells}, \"avx2_detected\": {avx2_detected}, \"slp\": {slp_cups:.1}, \"avx2\": {avx2_cups:.1}{vs_slp}}},",
        lane_pairs.len()
    );
    let _ = writeln!(
        json,
        "    \"traceback_span\": {{\"pairs\": {}, \"cells\": {span_cells}, \"cells_per_sec\": {span_cups:.1}, \"vs_scalar\": {:.3}}}\n  }}\n}}",
        span_pairs.len(),
        t_span_scalar / t_span
    );
    match reference {
        Some(reference) => {
            let current = JsonValue::parse(&json).expect("alnperf writes valid JSON");
            let (outcomes, all_ok) = compare(&reference, &current);
            let fmt = |v: f64| {
                if v.abs() >= 1e4 {
                    format!("{v:.3e}")
                } else {
                    format!("{v:.4}")
                }
            };
            println!("\n== checked against {out_path} ==");
            println!(
                "{:<42}{:>12}{:>12}  verdict",
                "metric", "reference", "current"
            );
            for o in &outcomes {
                let verdict = if o.ok { "PASS" } else { "FAIL" };
                let (r, c) = (fmt(o.reference), fmt(o.current));
                println!("{:<42}{r:>12}{c:>12}  {verdict} {}", o.name, o.detail);
            }
            if !all_ok {
                eprintln!("alnperf: regression against {out_path}; left it untouched");
                std::process::exit(1);
            }
        }
        None => println!("\nno document at {out_path}: nothing compared"),
    }
    std::fs::write(&out_path, json).expect("write BENCH_align.json");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with every checked key. Throughputs scale with `scalar`;
    /// `vs_slp: None` is a run on a host without AVX2.
    fn doc(scalar: f64, vs_slp: Option<f64>) -> JsonValue {
        let vs_slp = vs_slp.map_or(String::new(), |v| format!(",\"vs_slp\":{v}"));
        JsonValue::parse(&format!(
            "{{\"aggregate\":{{\"scalar\":{scalar},\"striped\":{},\"striped_score\":{},\
             \"xdrop_vs_scalar\":1.8}},\"cascade\":{{\"striped_avx2\":{{\"slp\":1{vs_slp}}},\"traceback_span\":{{\"cells_per_sec\":{}}}}}}}",
            scalar * 4.0,
            scalar * 5.0,
            scalar * 6.0
        ))
        .unwrap()
    }

    /// Verdict rows paired with whether their check is a floor.
    fn with_kind(out: &[Outcome]) -> impl Iterator<Item = (&Outcome, bool)> {
        let floor = |&(_, kind): &(&[&str], Kind)| matches!(kind, Kind::Floor(_));
        out.iter().zip(CHECKS.iter().map(floor))
    }

    #[test]
    fn small_drift_passes_large_regression_fails() {
        let reference = doc(1.0e9, Some(1.55));
        // 5% slowdown on every engine: within the 20% band.
        let (out, ok) = compare(&reference, &doc(0.95e9, Some(1.55)));
        assert!(ok, "{out:?}");
        assert_eq!(out.len(), CHECKS.len());
        // 25% slowdown fails every ratio row; the floors compare against
        // the spec, not the reference, so they still hold.
        let (out, ok) = compare(&reference, &doc(0.75e9, Some(1.55)));
        assert!(!ok);
        for (o, floor) in with_kind(&out) {
            assert_eq!(o.ok, floor, "{o:?}");
        }
    }

    #[test]
    fn floors_fail_below_their_value_and_skip_when_absent() {
        // The reference's own value is irrelevant to a floor.
        let reference = doc(1.0e9, Some(99.0));
        let vs_slp = |current: JsonValue| {
            let (out, ok) = compare(&reference, &current);
            let row = out
                .into_iter()
                .find(|o| o.name.ends_with("vs_slp"))
                .unwrap();
            assert_eq!(ok, row.ok);
            (row.ok, row.detail)
        };
        assert!(vs_slp(doc(1.0e9, Some(1.3))).0);
        assert!(!vs_slp(doc(1.0e9, Some(1.1))).0);
        let (ok, detail) = vs_slp(doc(1.0e9, None));
        assert!(ok && detail.contains("skipped"), "{detail}");
    }

    #[test]
    fn a_key_missing_from_the_committed_document_fails() {
        let gutted = JsonValue::parse("{\"bench\":\"align_engines\"}").unwrap();
        let (out, ok) = compare(&gutted, &doc(1.0e9, Some(1.55)));
        assert!(!ok);
        // Every ratio row fails on the missing reference; floors read only
        // the new run.
        for (o, floor) in with_kind(&out) {
            assert!(
                floor == o.ok && (floor || o.detail.contains("missing")),
                "{o:?}"
            );
        }
    }

    /// The committed document is the reference every full-scale run is
    /// checked against: it must carry every checked key and clear every
    /// floor.
    #[test]
    fn committed_document_has_every_checked_key_and_clears_every_floor() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_align.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("read")).unwrap();
        for (key, _) in CHECKS {
            assert!(
                lookup(&doc, key).is_some(),
                "{path} lacks {}",
                key.join(".")
            );
        }
        let (out, ok) = compare(&doc, &doc);
        assert!(ok, "{out:?}");
    }
}
