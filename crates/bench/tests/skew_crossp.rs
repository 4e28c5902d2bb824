//! Cross-p skew transfer: which stages are the most imbalanced is a
//! property of the data-driven partitioning, not of p. The λ magnitudes
//! legitimately move with the grid, so this test pins only the *ranking*
//! of stages by skew between recordings of the same workload at p=4 and
//! p=16, plus the basic sanity of every skew row.

use pastis::{AlignMode, PastisParams, PastisRun};
use pastis_bench::{extract_runs, metaclust_dataset, run_on};

fn record(p: usize) -> Vec<PastisRun> {
    let fasta = metaclust_dataset(0.2, 14);
    let params = PastisParams {
        k: 5,
        mode: AlignMode::XDrop,
        threads: 1,
        ..Default::default()
    };
    run_on(&fasta, p, &params)
}

#[test]
fn skew_ranking_transfers_across_recording_p() {
    let skews4 = obs::imbalance::skew_from_extracts(&extract_runs(&record(4)));
    let skews16 = obs::imbalance::skew_from_extracts(&extract_runs(&record(16)));
    for (p, skews) in [(4usize, &skews4), (16, &skews16)] {
        assert!(!skews.is_empty(), "p={p}: no skew rows");
        for s in skews {
            assert_eq!(s.ranks, p, "p={p} stage={}", s.label);
            assert!(s.lambda_work >= 1.0, "p={p} stage={}", s.label);
            assert!(
                s.lambda_work <= p as f64 + 1e-9,
                "p={p} stage={}: λ={} exceeds rank count",
                s.label,
                s.lambda_work
            );
            assert!(s.critical_rank < p, "p={p} stage={}", s.label);
            assert!(
                (0.0..1.0).contains(&s.gini),
                "p={p} stage={}: gini={}",
                s.label,
                s.gini
            );
            // The histogram accounts for every rank.
            let hist_ranks: u64 = s.work_hist.iter().map(|&(_, n)| n).sum();
            assert_eq!(hist_ranks as usize, p, "p={p} stage={}", s.label);
        }
    }
    let rank4 = obs::imbalance::skew_ranking(&skews4);
    let rank16 = obs::imbalance::skew_ranking(&skews16);
    // Both recordings measure skew over the same set of working stages…
    let mut set4 = rank4.clone();
    let mut set16 = rank16.clone();
    set4.sort();
    set16.sort();
    assert_eq!(set4, set16, "stage sets differ between recordings");
    // …and agree on which stages are skew-dominant: identical ordering.
    assert_eq!(
        rank4, rank16,
        "skew ranking did not transfer between p=4 and p=16 recordings"
    );
}
