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

use std::collections::BTreeMap;

use datagen::{metaclust_like, MetaclustConfig};
use obs::JsonValue;
use pastis::{run_pipeline, AlignMode, PastisParams, PastisRun, Timings};
use pcomm::{CostModel, MachineProfile, Projection, WhatIfOverlap, World};
use seqstore::write_fasta;

pub mod gate;

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

/// Paper Fig. 14 strong-scaling node counts (all perfect squares).
pub const FIG14_NODES: [usize; 6] = [64, 121, 256, 529, 1024, 2025];

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

// ---------------------------------------------------------------------------
// Scaling observatory: trace extraction, projection, and the BENCH_scale
// report (see `pcomm::cost` for the model and DESIGN.md §10 for the method).
// ---------------------------------------------------------------------------

/// Rank count the reference scaling recording uses. Must exceed 1 so every
/// collective actually moves bytes, and be a perfect square for the grid.
pub const SCALE_RECORD_P: usize = 16;
/// Dataset size (thousand sequences) of the reference recording.
pub const SCALE_KSEQS: f64 = 2.0;
/// Dataset seed of the reference recording.
pub const SCALE_SEED: u64 = 14;
/// Schema version of the BENCH_scale document. v3 added the memory
/// section (`watermarks` + `mem` projections); v4 added the measured
/// per-stage skew section (`skew` + `summary.max_stage_lambda`) and the
/// per-stage `lambda` the projector now applies to compute time; v5 added
/// the out-of-core section (`ooc`: memory-vs-makespan rows at a
/// half-of-monolithic-peak budget, plus the headline
/// `batch_overhead_ratio` / `mem_peak_bytes` scalars the gate pins).
pub const SCALE_SCHEMA_VERSION: u64 = 5;

/// Budget policy of the report's out-of-core rows: the resident floor
/// (sequence store, alignment scratch — memory no batch count frees) plus
/// the batch-scalable footprint divided by this, i.e. "what does halving
/// the reducible memory cost in makespan". Keyed off the split rather
/// than the raw peak because at large p the resident floor dominates the
/// projected peak and a flat `peak/2` budget would be infeasible.
pub const OOC_BUDGET_DIVISOR: u64 = 2;

/// Pipeline parameters of the reference scaling recording: the paper's
/// PASTIS-XD fast mode, one thread per rank so the recording itself is
/// schedule-independent.
pub fn scale_params() -> PastisParams {
    PastisParams {
        k: 5,
        mode: AlignMode::XDrop,
        threads: 1,
        ..Default::default()
    }
}

/// Record the reference run the projector replays (deterministic: work
/// ledgers and communication counters do not depend on wall clock).
pub fn scale_runs() -> Vec<PastisRun> {
    let fasta = metaclust_dataset(SCALE_KSEQS, SCALE_SEED);
    run_on(&fasta, SCALE_RECORD_P, &scale_params())
}

/// Reduce per-rank runs to the projector's per-stage extracts (stage spans
/// in paper order, collective kinds from the model's rule table).
pub fn extract_runs(runs: &[PastisRun]) -> Vec<obs::project::StageExtract> {
    let traces: Vec<obs::RankTrace> = runs.iter().map(|r| r.trace.clone()).collect();
    obs::project::extract_stages(&traces, &Timings::STAGE_SPANS, &pcomm::kind_names())
}

/// Project recorded runs to each target rank count.
pub fn project_runs(runs: &[PastisRun], model: &CostModel, p_targets: &[usize]) -> Vec<Projection> {
    let extracts = extract_runs(runs);
    p_targets
        .iter()
        .map(|&p| pcomm::project(&extracts, runs.len(), model, p))
        .collect()
}

/// Render one projection as a Fig. 9/10-style compute-vs-communication
/// dissection table.
pub fn render_projection(proj: &Projection) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== projected dissection at p={} (recorded at p={}, imbalance {:.2}) ==",
        proj.p, proj.p_recorded, proj.imbalance
    );
    let _ = writeln!(
        out,
        "{:<14}{:>12}{:>12}{:>12}{:>8}",
        "component", "compute", "comm", "total", "share"
    );
    for s in &proj.stages {
        let _ = writeln!(
            out,
            "{:<14}{:>12}{:>12}{:>12}{:>7.1}%",
            s.label,
            fmt_secs(s.compute_secs),
            fmt_secs(s.comm_secs),
            fmt_secs(s.compute_secs + s.comm_secs),
            100.0 * proj.share(&s.label)
        );
    }
    let _ = writeln!(
        out,
        "{:<14}{:>36}{:>8}",
        "total",
        fmt_secs(proj.total_secs()),
        "100.0%"
    );
    out
}

/// Render the cross-p alignment-share table (the paper's Table I view).
pub fn render_share_table(projections: &[Projection]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6}{:>12}{:>10}{:>10}",
        "p", "total", "align%", "comm%"
    );
    for proj in projections {
        let total = proj.total_secs();
        let comm: f64 = proj.stages.iter().map(|s| s.comm_secs).sum();
        let _ = writeln!(
            out,
            "{:>6}{:>12}{:>9.1}%{:>9.1}%",
            proj.p,
            fmt_secs(total),
            100.0 * proj.share("align"),
            if total > 0.0 {
                100.0 * comm / total
            } else {
                0.0
            }
        );
    }
    out
}

/// Render the projected per-rank peak-memory table: one row per target
/// rank count, one column per watermarked structure, plus the summed
/// per-rank upper bound. The first row is the recording itself (growth
/// factor 1 everywhere).
pub fn render_mem_table(
    p_recorded: usize,
    watermarks: &[(String, u64)],
    mem: &[pcomm::MemProjection],
) -> String {
    use obs::dissect::human_bytes;
    use std::fmt::Write as _;
    let mut names: Vec<&str> = watermarks.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    let mut out = String::new();
    let _ = write!(out, "{:>8}", "p");
    for n in &names {
        let _ = write!(out, "{n:>18}");
    }
    let _ = writeln!(out, "{:>14}", "peak (bound)");
    let row = |out: &mut String, label: String, by: &[(String, u64)], peak: u64| {
        let _ = write!(out, "{label:>8}");
        for n in &names {
            let cell = by
                .iter()
                .find(|(k, _)| k == n)
                .map(|&(_, b)| human_bytes(b))
                .unwrap_or_else(|| "-".into());
            let _ = write!(out, "{cell:>18}");
        }
        let _ = writeln!(out, "{:>14}", human_bytes(peak));
    };
    let recorded: Vec<(String, u64)> = watermarks.to_vec();
    let rec_peak: u64 = watermarks.iter().map(|&(_, b)| b).sum();
    row(&mut out, format!("{p_recorded}*"), &recorded, rec_peak);
    for m in mem {
        row(&mut out, m.p.to_string(), &m.by_structure, m.peak_bytes);
    }
    out.push_str("(* = recorded; peak is the sum of structure peaks, an upper bound)\n");
    out
}

/// Overlap actually achieved by the streamed pipeline, measured from the
/// reference recording's work and communication ledgers (deterministic —
/// no wall clock). The streamed SUMMA posts stage `t+1`'s panel broadcasts
/// before stage `t`'s local multiply and alignment chunk run, so the
/// broadcast seconds that fit under that compute are hidden from the
/// critical path. Compare `hidden_secs` (from the implemented overlap,
/// which also hides broadcasts under the local multiplies) against
/// `whatif_hidden_secs` (the pre-implementation what-if, which only
/// considered alignment compute).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredOverlap {
    /// Rank count of the recording the measure was taken at.
    pub p: usize,
    /// Modeled per-rank seconds of the SUMMA panel broadcasts (`ibcast`
    /// traffic of the `(AS)AT` stage).
    pub bcast_secs: f64,
    /// Modeled per-rank compute seconds of the local multiplies
    /// (`summa.local_mul`) the broadcasts overlap with.
    pub mul_secs: f64,
    /// Modeled per-rank compute seconds of the per-stage alignment chunks
    /// (`align.overlap`) the broadcasts overlap with.
    pub align_secs: f64,
    /// Broadcast seconds hidden by the implemented overlap:
    /// `min(bcast_secs, mul_secs + align_secs)`.
    pub hidden_secs: f64,
    /// The what-if projection of the same quantity at the same p
    /// ([`Projection::whatif_overlap`]), for the measured-vs-projected
    /// comparison.
    pub whatif_hidden_secs: f64,
}

impl MeasuredOverlap {
    /// Measure the overlap from recorded runs: price the recording's
    /// extracts at its own rank count (growth factors are 1, so this
    /// reproduces the recorded traffic) and take the broadcast seconds
    /// that fit under the overlapped compute.
    pub fn measure(runs: &[PastisRun], model: &CostModel) -> MeasuredOverlap {
        let p = runs.len();
        let extracts = extract_runs(runs);
        let proj = pcomm::project(&extracts, p, model, p);
        let bcast_secs = proj
            .stages
            .iter()
            .find(|s| s.label == "(AS)AT")
            .map(|s| {
                s.cost
                    .colls
                    .iter()
                    .filter(|c| c.shape == pcomm::CollShape::Bcast)
                    .map(|c| model.coll_seconds(c))
                    .sum::<f64>()
            })
            .unwrap_or(0.0);
        let align_secs = proj
            .stages
            .iter()
            .find(|s| s.label == "align")
            .map(|s| s.compute_secs)
            .unwrap_or(0.0);
        let traces: Vec<obs::RankTrace> = runs.iter().map(|r| r.trace.clone()).collect();
        let mul = obs::project::extract_stages(&traces, &[("summa.local_mul", "mul")], &[]);
        let mul_secs = mul[0].work_ns_total as f64 * 1e-9 / p.max(1) as f64 / model.compute_scale;
        let whatif_hidden_secs = proj.whatif_overlap(model, "(AS)AT", "align").hidden_secs;
        MeasuredOverlap {
            p,
            bcast_secs,
            mul_secs,
            align_secs,
            hidden_secs: bcast_secs.min(mul_secs + align_secs),
            whatif_hidden_secs,
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let mut o = BTreeMap::new();
        o.insert("p".into(), JsonValue::Num(self.p as f64));
        o.insert("bcast_secs".into(), JsonValue::Num(self.bcast_secs));
        o.insert("mul_secs".into(), JsonValue::Num(self.mul_secs));
        o.insert("align_secs".into(), JsonValue::Num(self.align_secs));
        o.insert("hidden_secs".into(), JsonValue::Num(self.hidden_secs));
        o.insert(
            "whatif_hidden_secs".into(),
            JsonValue::Num(self.whatif_hidden_secs),
        );
        JsonValue::Obj(o)
    }
}

/// The BENCH_scale document: projections of the reference recording at the
/// paper's node counts, the what-if overlap analysis, and the overlap the
/// streamed pipeline actually achieves at the recorded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Rank count of the recording.
    pub p_recorded: usize,
    /// `host` string of the machine profile used for pricing.
    pub profile_host: String,
    /// One projection per entry of [`FIG14_NODES`].
    pub projections: Vec<Projection>,
    /// Overlap what-if per projection: `(AS)AT` broadcasts hidden under
    /// `align` compute.
    pub whatif: Vec<WhatIfOverlap>,
    /// Overlap measured from the streamed recording at `p_recorded`.
    pub overlap: MeasuredOverlap,
    /// Per-structure peak heap bytes measured by the recording's
    /// `HeapSize` watermark probes (max across ranks, prefix stripped).
    pub watermarks: Vec<(String, u64)>,
    /// Per-rank peak-memory projections, one per entry of [`FIG14_NODES`],
    /// from the profile's byte-growth laws applied to `watermarks`.
    pub mem: Vec<pcomm::MemProjection>,
    /// Measured per-stage skew of the recording (deterministic work λ,
    /// Gini, critical rank) — the distributions whose λ the projections
    /// apply instead of the balanced-compute assumption.
    pub skew: Vec<obs::imbalance::StageSkew>,
    /// Out-of-core memory-vs-makespan rows, one per entry of
    /// [`FIG14_NODES`]: the batch count, per-rank peak, and A-rebroadcast
    /// overhead of running each grid under the [`OOC_BUDGET_DIVISOR`]
    /// budget policy.
    pub ooc: Vec<pcomm::OocProjection>,
}

/// A-side panel-broadcast seconds of one projected grid: each extra
/// out-of-core batch replays the stationary matrix's SUMMA broadcasts,
/// which are half of the `(AS)AT` stage's priced broadcast traffic (the
/// other half is the B panels, paid once — the batches tile B's columns).
fn rebcast_secs(proj: &Projection, model: &CostModel) -> f64 {
    proj.stages
        .iter()
        .find(|s| s.label == "(AS)AT")
        .map(|s| {
            s.cost
                .colls
                .iter()
                .filter(|c| c.shape == pcomm::CollShape::Bcast)
                .map(|c| model.coll_seconds(c))
                .sum::<f64>()
        })
        .unwrap_or(0.0)
        * 0.5
}

impl ScaleReport {
    /// Record the reference run and project it under `profile`. The
    /// profile's compute constants are installed first so the work
    /// ledgers use the calibrated values.
    pub fn build(profile: &MachineProfile) -> ScaleReport {
        profile.install();
        let runs = scale_runs();
        let model = CostModel::from_profile(profile);
        let skew = obs::imbalance::skew_from_extracts(&extract_runs(&runs));
        let projections = project_runs(&runs, &model, &FIG14_NODES);
        let whatif = projections
            .iter()
            .map(|p| p.whatif_overlap(&model, "(AS)AT", "align"))
            .collect();
        let overlap = MeasuredOverlap::measure(&runs, &model);
        let traces: Vec<obs::RankTrace> = runs.iter().map(|r| r.trace.clone()).collect();
        let watermarks = obs::project::extract_mem_watermarks(&traces);
        let mem: Vec<pcomm::MemProjection> = FIG14_NODES
            .iter()
            .map(|&p| pcomm::project_mem(&watermarks, runs.len(), profile, p))
            .collect();
        let ooc = mem
            .iter()
            .zip(&projections)
            .map(|(m, proj)| {
                let (resident, scaled) = pcomm::ooc_split(m);
                let budget = resident + (scaled / OOC_BUDGET_DIVISOR).max(1);
                pcomm::project_ooc(m, budget, proj.total_secs(), rebcast_secs(proj, &model))
            })
            .collect();
        ScaleReport {
            p_recorded: runs.len(),
            profile_host: profile.host.clone(),
            projections,
            whatif,
            overlap,
            watermarks,
            mem,
            skew,
            ooc,
        }
    }

    /// The largest-p projection (the headline row the gate pins).
    pub fn headline(&self) -> &Projection {
        self.projections
            .last()
            .expect("report has at least one projection")
    }

    /// Largest measured per-stage work λ (1.0 when no stage recorded
    /// work) — the headline imbalance number the gate pins.
    pub fn max_stage_lambda(&self) -> f64 {
        self.skew
            .iter()
            .filter(|s| s.work_ns_mean > 0.0)
            .map(|s| s.lambda_work)
            .fold(1.0, f64::max)
    }

    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for proj in &self.projections {
            out.push_str(&render_projection(proj));
            out.push('\n');
        }
        out.push_str("== alignment share vs node count ==\n");
        out.push_str(&render_share_table(&self.projections));
        out.push_str("\n== what-if: overlap (AS)AT broadcasts with alignment ==\n");
        let _ = writeln!(
            out,
            "{:>6}{:>12}{:>12}{:>12}{:>8}",
            "p", "baseline", "hidden", "overlapped", "saved"
        );
        for w in &self.whatif {
            let _ = writeln!(
                out,
                "{:>6}{:>12}{:>12}{:>12}{:>7.1}%",
                w.p,
                fmt_secs(w.baseline_secs),
                fmt_secs(w.hidden_secs),
                fmt_secs(w.overlapped_secs),
                w.saved_pct()
            );
        }
        out.push_str("\n== measured per-stage skew (recorded grid) ==\n");
        out.push_str(&obs::imbalance::render_skew_table(&self.skew));
        out.push_str("\n== projected per-rank peak memory (growth laws) ==\n");
        out.push_str(&render_mem_table(
            self.p_recorded,
            &self.watermarks,
            &self.mem,
        ));
        out.push_str("\n== projected out-of-core batching (half the reducible memory) ==\n");
        let _ = writeln!(
            out,
            "{:>6}{:>14}{:>9}{:>14}{:>12}{:>12}{:>10}",
            "p", "budget", "batches", "peak", "base", "batched", "overhead"
        );
        for r in &self.ooc {
            let _ = writeln!(
                out,
                "{:>6}{:>14}{:>9}{:>14}{:>12}{:>12}{:>9.1}%",
                r.p,
                obs::dissect::human_bytes(r.budget_bytes),
                r.n_batches,
                obs::dissect::human_bytes(r.mem_peak_bytes),
                fmt_secs(r.base_secs),
                fmt_secs(r.ooc_secs),
                100.0 * (r.batch_overhead_ratio() - 1.0)
            );
        }
        let o = &self.overlap;
        out.push_str("\n== measured overlap (streamed pipeline, recorded grid) ==\n");
        let _ = writeln!(
            out,
            "{:>6}{:>12}{:>12}{:>12}{:>12}{:>12}",
            "p", "bcast", "mul", "align", "hidden", "whatif"
        );
        let _ = writeln!(
            out,
            "{:>6}{:>12}{:>12}{:>12}{:>12}{:>12}",
            o.p,
            fmt_secs(o.bcast_secs),
            fmt_secs(o.mul_secs),
            fmt_secs(o.align_secs),
            fmt_secs(o.hidden_secs),
            fmt_secs(o.whatif_hidden_secs)
        );
        out
    }

    pub fn to_json(&self) -> JsonValue {
        let headline = self.headline();
        let mut o = BTreeMap::new();
        o.insert("schema".into(), JsonValue::Str("bench_scale".into()));
        o.insert(
            "version".into(),
            JsonValue::Num(SCALE_SCHEMA_VERSION as f64),
        );
        o.insert("bench".into(), JsonValue::Str("scale_projection".into()));
        o.insert("p_recorded".into(), JsonValue::Num(self.p_recorded as f64));
        o.insert(
            "profile_host".into(),
            JsonValue::Str(self.profile_host.clone()),
        );
        o.insert(
            "projections".into(),
            JsonValue::Arr(self.projections.iter().map(Projection::to_json).collect()),
        );
        o.insert(
            "whatif".into(),
            JsonValue::Arr(
                self.whatif
                    .iter()
                    .map(|w| {
                        let mut wo = BTreeMap::new();
                        wo.insert("p".into(), JsonValue::Num(w.p as f64));
                        wo.insert("baseline_secs".into(), JsonValue::Num(w.baseline_secs));
                        wo.insert("hidden_secs".into(), JsonValue::Num(w.hidden_secs));
                        wo.insert("overlapped_secs".into(), JsonValue::Num(w.overlapped_secs));
                        wo.insert("saved_pct".into(), JsonValue::Num(w.saved_pct()));
                        JsonValue::Obj(wo)
                    })
                    .collect(),
            ),
        );
        o.insert("overlap".into(), self.overlap.to_json());
        o.insert(
            "watermarks".into(),
            JsonValue::Obj(
                self.watermarks
                    .iter()
                    .map(|(k, b)| (k.clone(), JsonValue::Num(*b as f64)))
                    .collect(),
            ),
        );
        o.insert(
            "mem".into(),
            JsonValue::Arr(self.mem.iter().map(pcomm::MemProjection::to_json).collect()),
        );
        o.insert(
            "skew".into(),
            JsonValue::Arr(
                self.skew
                    .iter()
                    .map(obs::imbalance::StageSkew::to_json)
                    .collect(),
            ),
        );
        // The headline row (largest grid) is lifted to scalars next to the
        // rows so the bench gate can address them by key path.
        let mut ooc = BTreeMap::new();
        ooc.insert(
            "rows".into(),
            JsonValue::Arr(self.ooc.iter().map(pcomm::OocProjection::to_json).collect()),
        );
        ooc.insert(
            "budget_divisor".into(),
            JsonValue::Num(OOC_BUDGET_DIVISOR as f64),
        );
        if let Some(head) = self.ooc.last() {
            ooc.insert(
                "batch_overhead_ratio".into(),
                JsonValue::Num(head.batch_overhead_ratio()),
            );
            ooc.insert(
                "mem_peak_bytes".into(),
                JsonValue::Num(head.mem_peak_bytes as f64),
            );
            ooc.insert(
                "budget_bytes".into(),
                JsonValue::Num(head.budget_bytes as f64),
            );
        }
        o.insert("ooc".into(), JsonValue::Obj(ooc));
        let mut summary = BTreeMap::new();
        summary.insert("p_max".into(), JsonValue::Num(headline.p as f64));
        summary.insert("total_secs".into(), JsonValue::Num(headline.total_secs()));
        summary.insert(
            "align_share".into(),
            JsonValue::Num(headline.share("align")),
        );
        summary.insert(
            "overlap_hidden_secs".into(),
            JsonValue::Num(self.overlap.hidden_secs),
        );
        summary.insert(
            "mem_peak_bytes".into(),
            JsonValue::Num(self.mem.last().map_or(0, |m| m.peak_bytes) as f64),
        );
        summary.insert(
            "max_stage_lambda".into(),
            JsonValue::Num(self.max_stage_lambda()),
        );
        o.insert("summary".into(), JsonValue::Obj(summary));
        JsonValue::Obj(o)
    }
}

/// Load the machine profile named by the `PROFILE` env var (default
/// `machine_profile.json`), falling back to built-in defaults with a note
/// when the file does not exist. An existing-but-invalid profile is an
/// error, not a fallback.
pub fn load_profile_or_default() -> Result<MachineProfile, String> {
    let path = std::env::var("PROFILE").unwrap_or_else(|_| "machine_profile.json".into());
    let path = std::path::Path::new(&path);
    if path.exists() {
        MachineProfile::load(path)
    } else {
        println!(
            "note: {} not found; using built-in default profile (run the `calibrate` bin)",
            path.display()
        );
        Ok(MachineProfile::defaults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
