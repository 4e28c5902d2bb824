//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Local SpGEMM strategy** (hash vs heap vs hybrid) — wall-clock of
//!    the substitute path's `A·S` on one rank (paper §II-A cites the
//!    hybrid local multiply as a CombBLAS advantage). The exact overlap
//!    `B = A·Aᵀ` is a masked outer product that reads no strategy, so the
//!    products that do are the substitute path's.
//! 2. **DCSC vs CSC storage** for the hypersparse `A` blocks — the memory a
//!    plain CSC column-pointer array would need versus DCSC, as the grid
//!    grows (paper §IV-D's argument for DCSC).
//!
//! `SCALE=<f64>` multiplies dataset sizes (default 1).

use pastis::{AlignMode, PastisParams};
use pastis_bench::{metaclust_dataset, run_on};
use sparse::SpGemmStrategy;

fn main() {
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let fasta = metaclust_dataset(1.0 * scale, 51);

    println!("== Ablation 1 — local SpGEMM accumulator (A·S, s = 25, 1 rank, wall-clock) ==");
    println!(
        "{:<10}{:>12}{:>16}{:>16}",
        "strategy", "A·S (s)", "(AS)·Aᵀ (s)", "nnz(B)"
    );
    let subs_fasta = metaclust_dataset(0.4 * scale, 51);
    for (label, strat) in [
        ("hash", SpGemmStrategy::Hash),
        ("heap", SpGemmStrategy::Heap),
        ("hybrid", SpGemmStrategy::Hybrid),
    ] {
        let params = PastisParams {
            k: 5,
            substitutes: 25,
            mode: AlignMode::None,
            spgemm: strat,
            ..Default::default()
        };
        let runs = run_on(&subs_fasta, 1, &params);
        let t = &runs[0].timings;
        println!(
            "{label:<10}{:>12.3}{:>16.3}{:>16}",
            t.a_s.secs, t.spgemm_b.secs, runs[0].counters.nnz_b
        );
    }

    println!("\n== Ablation 2 — DCSC vs CSC for the A blocks (paper §IV-D) ==");
    println!("A is |seqs| × 24^k; with a 2D grid each block's column space is 24^k/√p.");
    let params = PastisParams {
        k: 6,
        mode: AlignMode::None,
        ..Default::default()
    };
    let kspace = 24u64.pow(6);
    println!(
        "{:<8}{:>16}{:>16}{:>18}{:>14}",
        "p", "nnz(A)/rank", "nzc(A)/rank", "CSC colptr (MB)", "DCSC (MB)"
    );
    for p in [1usize, 4, 16, 64] {
        let runs = run_on(&fasta, p, &params);
        let q = (p as f64).sqrt() as u64;
        let nnz = runs[0].counters.nnz_a / p as u64;
        // DCSC stores jc+cp per non-empty column (≤ nnz), ir+values per nnz;
        // CSC stores an 8-byte pointer per column of the block.
        let nzc = nnz; // upper bound: every nonzero in its own column
        let csc_mb = (kspace / q) as f64 * 8.0 / 1e6;
        let dcsc_mb = (nzc * 16 + nnz * 8) as f64 / 1e6;
        println!("{p:<8}{nnz:>16}{nzc:>16}{csc_mb:>18.1}{dcsc_mb:>14.3}");
    }
    println!("\nShape: CSC column pointers alone would cost ~1.5 GB per rank at");
    println!("p=1 (24^6 columns) and still dwarf the data at p=64; DCSC stays");
    println!("proportional to the nonzeros (paper §IV-D).");
}
