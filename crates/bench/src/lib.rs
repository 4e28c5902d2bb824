//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! # Methodology
//!
//! The paper's evaluation ran on Cray XC40 nodes; this reproduction runs
//! ranks as threads on whatever host is available, so wall-clock time at
//! high rank counts reflects host core count, not the algorithm. The
//! harness therefore reports **modeled seconds** from the postal cost model
//! ([`pcomm::CostModel`]): deterministic per-rank work (estimated-ns
//! counters inside every kernel, see [`pcomm::work`]) on the critical-path
//! rank, plus `α·messages + β·bytes` for the communication that rank
//! issued. Dataset sizes are scaled from the paper's millions to thousands
//! (the mapping is recorded in `EXPERIMENTS.md`); node counts keep the
//! paper's values where the host can simulate them as threads.

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{run_pipeline, PastisParams, PastisRun, Timings};
use pcomm::{CostModel, World};
use seqstore::write_fasta;

/// Scaled stand-ins for the paper's Metaclust50 subsets. The paper's
/// `metaclust50-<X>M` becomes `<X>k` sequences here (1000× reduction),
/// with lengths 100–300 rather than 100–1000 to fit single-host memory.
pub fn metaclust_dataset(kilo_seqs: f64, seed: u64) -> Vec<u8> {
    let n = (kilo_seqs * 1000.0).round() as usize;
    write_fasta(&metaclust_like(
        n,
        &MetaclustConfig {
            seed,
            len_range: (100, 300),
            related_fraction: 0.3,
            mutation_rate: 0.12,
        },
    ))
}

/// Run the pipeline on `p` simulated ranks; returns one run per rank.
pub fn run_on(fasta: &[u8], p: usize, params: &PastisParams) -> Vec<PastisRun> {
    World::run(p, |comm| run_pipeline(&comm, fasta, params))
}

/// Critical-path timings across ranks (per-component element-wise max).
pub fn critical_timings(runs: &[PastisRun]) -> Timings {
    let mut out = runs[0].timings.clone();
    for r in &runs[1..] {
        let t = r.timings.clone();
        out.fasta = out.fasta.max(t.fasta);
        out.form_a = out.form_a.max(t.form_a);
        out.tr_a = out.tr_a.max(t.tr_a);
        out.form_s = out.form_s.max(t.form_s);
        out.a_s = out.a_s.max(t.a_s);
        out.spgemm_b = out.spgemm_b.max(t.spgemm_b);
        out.symmetricize = out.symmetricize.max(t.symmetricize);
        out.wait = out.wait.max(t.wait);
        out.align = out.align.max(t.align);
        out.total = out.total.max(t.total);
    }
    out
}

/// Modeled pipeline seconds (sparse + align) for a set of per-rank runs.
pub fn modeled_total_secs(runs: &[PastisRun], model: &CostModel) -> f64 {
    critical_timings(runs).total_modeled_secs(model)
}

/// Modeled sparse-only seconds.
pub fn modeled_sparse_secs(runs: &[PastisRun], model: &CostModel) -> f64 {
    critical_timings(runs).sparse_modeled_secs(model)
}

/// The node counts a figure sweeps, capped by what the host can hold as
/// threads (each rank is a thread; grids need perfect squares).
pub const FIG12_NODES: [usize; 5] = [1, 4, 16, 64, 256];

/// Scaled-down Fig. 14 node counts actually simulated (same 4× ratios as
/// the paper's 64→2025 sweep, shifted to thread-scale).
pub const FIG14_NODES_SCALED: [usize; 6] = [1, 4, 9, 16, 36, 64];

/// Format a seconds column like the paper's log-scale plots (3 significant
/// digits).
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Per-component modeled seconds, in the paper's component order.
pub fn component_modeled(timings: &Timings, model: &CostModel) -> Vec<(&'static str, f64)> {
    timings
        .components()
        .iter()
        .map(|(l, m)| (*l, m.modeled_secs(model)))
        .collect()
}

/// Critical-path dissection rows straight from the ranks' recorded span
/// traces: per stage, the limiting rank and its compute/comm/wait split.
/// Render with [`obs::dissect::render_dissection`].
pub fn dissect_runs(runs: &[PastisRun], model: &CostModel) -> Vec<obs::dissect::DissectionRow> {
    obs::dissect::dissect(&extract_runs(runs), model.alpha, model.beta)
}

/// Reduce per-rank runs to per-stage extracts (stage spans in paper order,
/// collective kinds from the model's rule table).
pub fn extract_runs(runs: &[PastisRun]) -> Vec<obs::project::StageExtract> {
    let traces: Vec<obs::RankTrace> = runs.iter().map(|r| r.trace.clone()).collect();
    obs::project::extract_stages(&traces, &Timings::STAGE_SPANS, &pcomm::kind_names())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastis::AlignMode;

    #[test]
    fn harness_runs_and_aggregates() {
        let fasta = metaclust_dataset(0.03, 5);
        let params = PastisParams {
            k: 4,
            mode: AlignMode::None,
            ..Default::default()
        };
        let runs = run_on(&fasta, 4, &params);
        assert_eq!(runs.len(), 4);
        let crit = critical_timings(&runs);
        assert!(crit.spgemm_b.work_ns > 0);
        let model = CostModel::default();
        assert!(modeled_sparse_secs(&runs, &model) > 0.0);
        assert!(modeled_total_secs(&runs, &model) >= modeled_sparse_secs(&runs, &model));
        // The trace-driven dissection agrees with the Timings-based
        // critical path (both are built from the same recorded spans).
        let rows = dissect_runs(&runs, &model);
        assert_eq!(rows.len(), Timings::STAGE_SPANS.len());
        let b_row = rows.iter().find(|r| r.label == "(AS)AT").unwrap();
        assert!((b_row.secs - crit.spgemm_b.secs).abs() <= 1e-9 + crit.spgemm_b.secs * 1e-6);
        assert!(b_row.counters.work_ns > 0);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.34");
        assert_eq!(fmt_secs(0.1234), "0.1234");
    }

    #[test]
    fn dataset_is_deterministic() {
        assert_eq!(metaclust_dataset(0.01, 3), metaclust_dataset(0.01, 3));
    }
}
