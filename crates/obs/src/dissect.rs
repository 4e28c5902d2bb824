//! Critical-path dissection: per stage, the limiting rank and its
//! compute/comm/wait split, rendered as a plain-text table in the layout of
//! the paper's Fig. 15/16.
//!
//! The inputs are recorded span traces, not hand-threaded timer fields,
//! reduced once by `crate::project::extract_stages`: a "stage" is
//! identified by its span name, a rank's stage time is the exclusive sum
//! of all its spans with that name, and the limiting rank is the one with
//! the largest wall-clock total. `obs` carries no α-β model of its own —
//! callers pass latency/bandwidth coefficients (e.g. from
//! `pcomm::CostModel`) when they want a modeled comm column.

use crate::metrics::MetricsSnapshot;
use crate::project::StageExtract;
use crate::span::CounterSet;

/// One row of the dissection table.
#[derive(Debug, Clone)]
pub struct DissectionRow {
    /// Display label (paper component name, e.g. `(AS)AT`).
    pub label: String,
    /// Span name the row was built from.
    pub span: String,
    /// Rank with the largest wall-clock total for this stage.
    pub crit_rank: usize,
    /// The limiting rank's wall-clock seconds.
    pub secs: f64,
    /// The limiting rank's deterministic compute seconds (`work_ns`).
    pub compute_secs: f64,
    /// Modeled communication seconds of the limiting rank
    /// (α·msgs + β·bytes with the caller's coefficients).
    pub comm_secs: f64,
    /// The limiting rank's measured blocked-wait seconds.
    pub wait_secs: f64,
    /// The limiting rank's full counter deltas.
    pub counters: CounterSet,
    /// Per-rank wall-clock seconds (index = position in the input slice).
    pub per_rank_secs: Vec<f64>,
}

/// Project per-stage extracts ([`crate::project::extract_stages`], which
/// attributes nested stage spans exclusively, so rows still sum to the run
/// total) to dissection rows: per stage, the limiting rank — the slice with
/// the largest wall-clock total, the last such on ties — and its split.
/// `alpha`/`beta` are seconds per message / per byte for the modeled comm
/// column (pass 0.0 to disable).
pub fn dissect(extracts: &[StageExtract], alpha: f64, beta: f64) -> Vec<DissectionRow> {
    extracts
        .iter()
        .map(|ex| {
            let crit = ex
                .per_rank
                .iter()
                .max_by(|a, b| a.secs.total_cmp(&b.secs))
                .copied()
                .unwrap_or_default();
            let c = crit.counters;
            let msgs = c.msgs_sent.max(c.msgs_recv) as f64;
            let bytes = c.bytes_sent.max(c.bytes_recv) as f64;
            DissectionRow {
                label: ex.label.clone(),
                span: ex.span.clone(),
                crit_rank: crit.rank,
                secs: crit.secs,
                compute_secs: c.work_ns as f64 * 1e-9,
                comm_secs: alpha * msgs + beta * bytes,
                wait_secs: c.wait_ns as f64 * 1e-9,
                counters: c,
                per_rank_secs: ex.per_rank.iter().map(|r| r.secs).collect(),
            }
        })
        .collect()
}

/// Render rows as a plain-text table: stage, share of total, limiting rank,
/// and that rank's wall/compute/comm/wait seconds plus bytes.
pub fn render_dissection(rows: &[DissectionRow]) -> String {
    use std::fmt::Write as _;
    let total: f64 = rows.iter().map(|r| r.secs).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14}{:>7}{:>6}{:>11}{:>11}{:>11}{:>11}{:>12}",
        "component", "%", "crit", "secs", "compute", "comm", "wait", "bytes"
    );
    for r in rows {
        // `r.secs` can be IEEE −0.0 when a caller derives it by exclusive-
        // time subtraction (overlap accounting); `+ 0.0` normalizes the
        // sign so an empty stage renders `0.0%`, not `-0.0%`.
        let pct = if total > 0.0 {
            100.0 * r.secs / total + 0.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<14}{:>6.1}%{:>6}{:>11.4}{:>11.4}{:>11.6}{:>11.4}{:>12}",
            r.label,
            pct,
            r.crit_rank,
            r.secs,
            r.compute_secs,
            r.comm_secs,
            r.wait_secs,
            r.counters.bytes_sent.max(r.counters.bytes_recv)
        );
    }
    let _ = writeln!(
        out,
        "{:<14}{:>6.1}%{:>6}{:>11.4}",
        "total", 100.0, "", total
    );
    out
}

/// Prefix of the per-stage memory gauges the pipeline's peak windows
/// record (`mem.stage.<stage-span>`, one per window).
pub const MEM_STAGE_PREFIX: &str = "mem.stage.";

/// Humanize a byte count in binary units, one decimal (`1.5 MiB`). The
/// single unit table shared by the dissection tables, the monitor
/// renderer (`pcomm::monitor`), and `pastis-top`.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    // Boundary rounding: a value like 1023.96 KiB renders as "1024.0 KiB"
    // under `{:.1}` — promote to the next unit instead when one exists.
    if u + 1 < UNITS.len() && format!("{v:.1}") == "1024.0" {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Render the per-stage peak-live-bytes table from merged metrics: one row
/// per stage that recorded a `mem.stage.<stage>` gauge — the peak of the
/// process-wide live bytes while the stage ran (rows follow `stage_order`;
/// stages not listed are appended alphabetically). Returns `None` when no
/// stage recorded a window — i.e. the run had allocation tracking off.
pub fn render_stage_memory(metrics: &MetricsSnapshot, stage_order: &[&str]) -> Option<String> {
    use std::fmt::Write as _;
    let rows: std::collections::BTreeMap<&str, u64> = metrics
        .gauges
        .iter()
        .filter_map(|(name, &v)| Some((name.strip_prefix(MEM_STAGE_PREFIX)?, v.max(0) as u64)))
        .collect();
    if rows.is_empty() {
        return None;
    }
    let listed = stage_order.iter().filter(|s| rows.contains_key(*s));
    let unlisted = rows.keys().filter(|s| !stage_order.contains(s));
    let mut out = String::new();
    let _ = writeln!(out, "{:<22}{:>12}", "stage", "peak");
    for stage in listed.chain(unlisted) {
        let _ = writeln!(out, "{stage:<22}{:>12}", human_bytes(rows[stage]));
    }
    Some(out)
}

/// Render structure watermarks (`(structure, peak heap bytes)` pairs, as
/// produced by [`crate::project::extract_mem_watermarks`]) as a two-column
/// table.
pub fn render_watermarks(watermarks: &[(String, u64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<22}{:>12}", "structure", "peak");
    for (name, bytes) in watermarks {
        let _ = writeln!(out, "{name:<22}{:>12}", human_bytes(*bytes));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::extract_stages;
    use crate::span::{RankTrace, SpanEvent};

    fn ev(name: &'static str, seq: u32, dur_ns: u64, c: CounterSet) -> SpanEvent {
        SpanEvent {
            name,
            track: 0,
            depth: 0,
            seq,
            arg: None,
            start_ns: 0,
            dur_ns,
            counters: c,
        }
    }

    fn trace(rank: usize, events: Vec<SpanEvent>) -> RankTrace {
        RankTrace {
            rank,
            events,
            metrics: Default::default(),
            dropped: 0,
        }
    }

    #[test]
    fn critical_rank_and_split() {
        let t0 = trace(0, vec![ev("p.a", 0, 2_000_000_000, CounterSet::default())]);
        let t1 = trace(
            7,
            vec![ev(
                "p.a",
                0,
                3_000_000_000,
                CounterSet {
                    work_ns: 1_000_000_000,
                    wait_ns: 500_000_000,
                    msgs_sent: 10,
                    bytes_sent: 1_000_000,
                    ..Default::default()
                },
            )],
        );
        let rows = dissect(&extract_stages(&[t0, t1], &[("p.a", "a")], &[]), 1e-6, 1e-9);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.crit_rank, 7);
        assert!((r.secs - 3.0).abs() < 1e-12);
        assert!((r.compute_secs - 1.0).abs() < 1e-12);
        assert!((r.wait_secs - 0.5).abs() < 1e-12);
        assert!((r.comm_secs - (10.0 * 1e-6 + 1e-3)).abs() < 1e-12);
        assert_eq!(r.per_rank_secs.len(), 2);
        let table = render_dissection(&rows);
        assert!(table.contains("component"));
        assert!(table.contains('a'));
    }

    #[test]
    fn negative_zero_share_renders_as_plain_zero() {
        // Overlap accounting derives some rows' seconds by f64 subtraction,
        // which can leave an empty stage at IEEE −0.0; the rendered share
        // column must read `0.0%`, never `-0.0%`.
        let mk = |label: &str, secs| DissectionRow {
            label: label.into(),
            span: "s".into(),
            crit_rank: 0,
            secs,
            compute_secs: 0.0,
            comm_secs: 0.0,
            wait_secs: 0.0,
            counters: CounterSet::default(),
            per_rank_secs: vec![secs],
        };
        let rows = vec![mk("busy", 2.0), mk("empty", -0.0)];
        let table = render_dissection(&rows);
        assert!(!table.contains("-0.0%"), "table renders -0.0%:\n{table}");
        assert!(table.contains("0.0%"), "empty stage row missing:\n{table}");
    }

    #[test]
    fn nested_stage_spans_count_once() {
        // summa(align) overlap shape: align's time belongs to the align
        // row only, and summa's row shows its exclusive remainder.
        let deep = |name, depth, seq, dur_ns, work_ns| SpanEvent {
            name,
            track: 0,
            depth,
            seq,
            arg: None,
            start_ns: 0,
            dur_ns,
            counters: CounterSet {
                work_ns,
                ..Default::default()
            },
        };
        let t = trace(
            0,
            vec![
                deep("summa", 0, 0, 5_000_000_000, 50),
                deep("align", 1, 1, 2_000_000_000, 30),
            ],
        );
        let stages = [("summa", "S"), ("align", "A")];
        let rows = dissect(&extract_stages(&[t], &stages, &[]), 0.0, 0.0);
        assert!((rows[0].secs - 3.0).abs() < 1e-12, "align not excluded");
        assert!((rows[0].compute_secs - 20e-9).abs() < 1e-18);
        assert!((rows[1].secs - 2.0).abs() < 1e-12);
        assert!((rows[1].compute_secs - 30e-9).abs() < 1e-18);
        let total: f64 = rows.iter().map(|r| r.secs).sum();
        assert!((total - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stage_memory_table_renders_in_pipeline_order() {
        let mut m = MetricsSnapshot::default();
        m.gauges.insert("mem.stage.pastis.wait".into(), 4096);
        m.gauges.insert("mem.stage.pastis.fasta".into(), 1 << 20);
        m.gauges.insert("mem.stage.pastis.align".into(), 2048);
        m.gauges.insert("unrelated.gauge".into(), 99);
        let order = ["pastis.fasta", "pastis.wait"];
        let t = render_stage_memory(&m, &order).expect("gauges present");
        let row = |stage: &str| t.find(stage).unwrap_or_else(|| panic!("{stage} in\n{t}"));
        assert!(
            row("pastis.fasta") < row("pastis.wait") && row("pastis.wait") < row("pastis.align"),
            "rows follow pipeline order, unlisted stages last:\n{t}"
        );
        assert!(t.contains("1.0 MiB") && t.contains("4.0 KiB"), "{t}");
        assert!(!t.contains("unrelated"), "{t}");
        // One figure per row: a stage cannot show a part above its whole.
        assert!(t.lines().all(|l| l.split_whitespace().count() <= 3), "{t}");
    }

    #[test]
    fn stage_memory_table_absent_without_windows() {
        let m = MetricsSnapshot::default();
        assert!(render_stage_memory(&m, &["pastis.fasta"]).is_none());
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1536), "1.5 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
    }

    /// Values that round to 1024.0 of their unit must promote to the next
    /// unit rather than render an impossible "1024.0 KiB".
    #[test]
    fn human_bytes_boundary_promotes() {
        assert_eq!(human_bytes((1 << 20) - 30), "1.0 MiB"); // 1023.97 KiB
        assert_eq!(human_bytes((1 << 30) - 1024), "1.0 GiB");
        assert_eq!(human_bytes(1023), "1023 B");
        // The top unit has nowhere to promote; keep the raw rendering.
        let top = human_bytes(u64::MAX);
        assert!(top.ends_with("TiB"), "{top}");
    }

    #[test]
    fn watermark_table_lists_structures() {
        let wm = vec![
            ("seqstore.store".to_string(), (2u64) << 20),
            ("sparse.accum".to_string(), 4096u64),
        ];
        let t = render_watermarks(&wm);
        assert!(t.contains("seqstore.store") && t.contains("2.0 MiB"), "{t}");
        assert!(t.contains("sparse.accum") && t.contains("4.0 KiB"), "{t}");
    }
}
