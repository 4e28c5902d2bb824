//! Figure 13: the fastest PASTIS variant versus MMseqs2 (sensitivity
//! low/default/high) and LAST, on two dataset sizes.
//!
//! Paper shape: MMseqs2 wins at small node counts, but its single-writer
//! output stage stops scaling, so PASTIS-XD-s0-CK overtakes it around 16
//! nodes; LAST runs on one node only.
//!
//! `SCALE=<f64>` multiplies dataset sizes (default 1).

use baselines::{last_like, mmseqs_like_distributed, LastParams, MmseqsParams};
use pastis::{AlignMode, PastisParams};
use pastis_bench::{fmt_secs, metaclust_dataset, modeled_total_secs, run_on, FIG12_NODES};
use pcomm::{CostModel, StageCost, World};
use seqstore::parse_fasta;

fn main() {
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let model = CostModel::default();
    for (name, kseqs, seed) in [
        ("metaclust50-0.5k", 0.5 * scale, 50u64),
        ("metaclust50-1k", 1.0 * scale, 51),
    ] {
        let fasta = metaclust_dataset(kseqs, seed);
        let records = parse_fasta(&fasta);
        println!("\n== Figure 13 — {name} ==");
        print!("{:<22}", "tool \\ nodes");
        for p in FIG12_NODES {
            print!("{p:>10}");
        }
        println!();

        // Fastest PASTIS variant: XD, exact k-mers, CK threshold.
        let params = PastisParams {
            k: 5,
            mode: AlignMode::XDrop,
            common_kmer_threshold: 1,
            ..Default::default()
        };
        print!("{:<22}", "PASTIS-XD-s0-CK");
        for p in FIG12_NODES {
            let runs = run_on(&fasta, p, &params);
            print!("{:>10}", fmt_secs(modeled_total_secs(&runs, &model)));
        }
        println!();

        // MMseqs2-like at three sensitivities.
        for (label, s) in [
            ("MMseqs2-low", 1.0),
            ("MMseqs2-default", 5.7),
            ("MMseqs2-high", 7.5),
        ] {
            let mp = MmseqsParams {
                k: 5,
                sensitivity: s,
                ..Default::default()
            };
            print!("{label:<22}");
            for p in FIG12_NODES {
                let costs = World::run(p, |comm| {
                    let w0 = pcomm::work::counter();
                    let c0 = comm.stats();
                    let run = mmseqs_like_distributed(&comm, &records, &mp);
                    let search_work = pcomm::work::counter() - w0;
                    (search_work, comm.stats() - c0, run.postprocess_secs)
                });
                // Modeled: critical-rank search work + comm; the
                // post-processing work (instrumented as part of rank 0's
                // counter) already rides in rank 0's work term.
                let crit = costs
                    .iter()
                    .map(|&(w, c, _)| StageCost {
                        compute_secs: w as f64 * 1e-9,
                        comm: c,
                        colls: Vec::new(),
                    })
                    .fold(StageCost::default(), StageCost::max);
                print!("{:>10}", fmt_secs(model.stage(&crit)));
            }
            println!();
        }

        // LAST-like: single node (paper: "LAST's parallelism is constrained
        // to a single node").
        print!("{:<22}", "LAST (1 node)");
        let w0 = pcomm::work::counter();
        let _edges = last_like(
            &records,
            &LastParams {
                max_initial_matches: 100,
                ..Default::default()
            },
        );
        let w = pcomm::work::counter() - w0;
        print!("{:>10}", fmt_secs(w as f64 * 1e-9));
        for _ in &FIG12_NODES[1..] {
            print!("{:>10}", "-");
        }
        println!();
    }
    println!("\nPaper shapes: MMseqs2 fastest at 1 node; PASTIS overtakes by ~16");
    println!("nodes as MMseqs2's single-writer post-processing stops scaling.");
}
