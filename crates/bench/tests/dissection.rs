//! Critical-path dissection on real multi-rank traces: the per-stage
//! extracts and dissection rows `pastis --trace` prints.

use pastis::{AlignMode, PastisParams, PastisRun, Timings};
use pastis_bench::{dissect_runs, extract_runs, metaclust_dataset, run_on};
use pcomm::CostModel;

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
fn extracts_cover_collective_kinds() {
    // A multi-rank recording must attribute collective traffic to kind
    // spans — if extraction broke, `Timings::from_trace` would silently
    // price all communication flat.
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
