//! Scaling-observatory integration tests: critical-path dissection on real
//! multi-rank traces, cross-p invariance of the projector, report serde,
//! and the what-if engine's basic guarantees.

use pastis::{AlignMode, PastisParams, PastisRun, Timings};
use pastis_bench::{
    dissect_runs, extract_runs, metaclust_dataset, project_runs, run_on, MeasuredOverlap,
    ScaleReport,
};
use pcomm::{CostModel, MachineProfile};

fn params(threads: usize) -> PastisParams {
    PastisParams {
        k: 5,
        mode: AlignMode::XDrop,
        threads,
        ..Default::default()
    }
}

fn record(p: usize, threads: usize) -> Vec<PastisRun> {
    let fasta = metaclust_dataset(0.2, 14);
    run_on(&fasta, p, &params(threads))
}

#[test]
fn dissect_multirank_traces() {
    // The paper's dissection view must hold up on real traces at several
    // grid sizes: every rank contributes a column, the limiting rank is
    // one of them, and alignment carries deterministic work.
    for p in [4usize, 16] {
        let runs = record(p, 1);
        let rows = dissect_runs(&runs, &CostModel::default());
        assert_eq!(rows.len(), Timings::STAGE_SPANS.len(), "p={p}");
        for r in &rows {
            assert_eq!(r.per_rank_secs.len(), p, "p={p} stage={}", r.label);
            assert!(
                runs.iter().any(|run| run.trace.rank == r.crit_rank),
                "p={p} stage={} crit_rank={} not a recorded rank",
                r.label,
                r.crit_rank
            );
        }
        let align = rows.iter().find(|r| r.label == "align").unwrap();
        assert!(align.counters.work_ns > 0, "p={p}: align did no work");
        assert!(align.secs > 0.0, "p={p}");
        // The alignment stage dominates at small scale (paper Table I).
        let total: f64 = rows.iter().map(|r| r.secs).sum();
        assert!(
            align.secs / total > 0.3,
            "p={p}: align share {:.2} unexpectedly small",
            align.secs / total
        );
    }
}

#[test]
fn dissection_sees_worker_tracks() {
    // With per-rank threads the batch driver emits worker spans on tracks
    // ≥ 1; they must appear in the trace, carry the kernel work, and the
    // stage dissection must still fold the folded-back work into `align`.
    let runs = record(4, 2);
    let worker_events: Vec<_> = runs
        .iter()
        .flat_map(|r| r.trace.events.iter())
        .filter(|e| e.name == "align.worker" && e.track >= 1)
        .collect();
    assert!(
        !worker_events.is_empty(),
        "no worker-track spans recorded at threads=2"
    );
    let rows = obs::dissect::dissect(&extract_runs(&runs), 0.0, 0.0);
    let align = rows.iter().find(|r| r.label == "align").unwrap();
    assert!(align.counters.work_ns > 0);
    // The span forest must retain the worker spans (at any depth — they
    // sit on their own tracks).
    let forest = obs::span_forest(&runs[0].trace.events);
    fn find_worker(nodes: &[obs::SpanNode]) -> bool {
        nodes.iter().any(|n| {
            (n.event.name == "align.worker" && n.event.track >= 1) || find_worker(&n.children)
        })
    }
    assert!(find_worker(&forest));
}

#[test]
fn projected_shares_are_invariant_to_recording_p() {
    // The tentpole invariant: replaying a p=4 recording and a p=16
    // recording of the SAME dataset at the SAME target grid must tell the
    // same story. Compute totals are identical (deterministic ledgers);
    // communication goes through per-kind growth laws, so shares agree to
    // a tolerance rather than exactly.
    let model = CostModel::default();
    let target = 1024usize;
    let from_p4 = &project_runs(&record(4, 1), &model, &[target])[0];
    let from_p16 = &project_runs(&record(16, 1), &model, &[target])[0];
    assert_eq!(from_p4.p, target);
    assert_eq!(from_p4.p_recorded, 4);
    assert_eq!(from_p16.p_recorded, 16);
    for s4 in &from_p4.stages {
        let share4 = from_p4.share(&s4.label);
        let share16 = from_p16.share(&s4.label);
        assert!(
            (share4 - share16).abs() < 0.05,
            "stage {}: share from p=4 {:.3} vs from p=16 {:.3}",
            s4.label,
            share4,
            share16
        );
    }
    let (t4, t16) = (from_p4.total_secs(), from_p16.total_secs());
    assert!(
        (t4 / t16 - 1.0).abs() < 0.25,
        "projected totals diverge: {t4:.5} vs {t16:.5}"
    );
}

#[test]
fn extracts_cover_collective_kinds() {
    // A multi-rank recording must attribute collective traffic to kind
    // spans — if extraction broke, projection would silently price all
    // communication flat.
    let runs = record(4, 1);
    let extracts = extract_runs(&runs);
    let kind_count: usize = extracts.iter().map(|e| e.kinds.len()).sum();
    assert!(kind_count > 0, "no collective kinds extracted");
    for ex in &extracts {
        for (kind, agg) in &ex.kinds {
            assert!(kind.starts_with("pcomm."));
            assert!(agg.calls_total >= agg.calls_max);
        }
    }
}

#[test]
fn whatif_and_report_round_trip() {
    let profile = MachineProfile::defaults();
    let model = CostModel::from_profile(&profile);
    let runs = record(4, 1);
    let projections = project_runs(&runs, &model, &[256, 1024]);
    for proj in &projections {
        let w = proj.whatif_overlap(&model, "(AS)AT", "align");
        assert!(w.hidden_secs >= 0.0);
        assert!(w.overlapped_secs <= w.baseline_secs);
        assert!((w.baseline_secs - proj.total_secs()).abs() < 1e-12);
    }
    let overlap = MeasuredOverlap::measure(&runs, &model);
    // The streamed pipeline must actually hide time: nonzero broadcast
    // traffic fits under nonzero overlapped compute, and the measured
    // hidden seconds are comparable against the what-if's projection.
    assert!(overlap.bcast_secs > 0.0);
    assert!(overlap.mul_secs > 0.0);
    assert!(overlap.align_secs > 0.0);
    assert!(overlap.hidden_secs > 0.0);
    assert!(overlap.hidden_secs <= overlap.bcast_secs + 1e-12);
    // The implemented overlap also hides broadcasts under the local
    // multiplies, so it can only beat (or match) the align-only what-if.
    assert!(overlap.hidden_secs >= overlap.whatif_hidden_secs - 1e-12);
    let traces: Vec<obs::RankTrace> = runs.iter().map(|r| r.trace.clone()).collect();
    let watermarks = obs::project::extract_mem_watermarks(&traces);
    let mem: Vec<pcomm::MemProjection> = [256usize, 1024]
        .iter()
        .map(|&p| pcomm::project_mem(&watermarks, runs.len(), &profile, p))
        .collect();
    let skew = obs::imbalance::skew_from_extracts(&extract_runs(&runs));
    assert!(!skew.is_empty(), "recording produced no skew rows");
    // Out-of-core plans use the report builder's budget policy: the
    // resident floor survives batching, so budget the scaled share only.
    let ooc: Vec<pcomm::OocProjection> = mem
        .iter()
        .zip(&projections)
        .map(|(m, proj)| {
            let (resident, scaled) = pcomm::ooc_split(m);
            let budget = resident + (scaled / pastis_bench::OOC_BUDGET_DIVISOR).max(1);
            pcomm::project_ooc(m, budget, proj.total_secs(), proj.total_secs() * 0.01)
        })
        .collect();
    for o in &ooc {
        assert!(o.mem_peak_bytes <= o.budget_bytes);
        assert!(o.batch_overhead_ratio() >= 1.0);
    }
    let report = ScaleReport {
        p_recorded: runs.len(),
        profile_host: profile.host.clone(),
        whatif: projections
            .iter()
            .map(|p| p.whatif_overlap(&model, "(AS)AT", "align"))
            .collect(),
        projections,
        overlap,
        watermarks,
        mem,
        skew,
        ooc,
    };
    assert!(report.max_stage_lambda() >= 1.0);
    // The document is write-only — the gate reads key paths out of it —
    // so what it must survive is a trip through text and the gate's own
    // schema check.
    let text = report.to_json().to_string();
    let doc = obs::JsonValue::parse(&text).unwrap();
    assert_eq!(doc, report.to_json());
    pastis_bench::gate::validate("BENCH_scale.json", &doc).expect("a built report validates");
}
