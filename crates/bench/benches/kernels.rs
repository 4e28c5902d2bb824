//! Criterion microbenchmarks of the computational kernels: the alignment
//! modes (SW vs x-drop — the Table I cost gap), local SpGEMM accumulation
//! strategies (the CombBLAS hybrid ablation), substitute k-mer generation
//! (Algorithm 1), and the suffix array of the LAST-like baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use align::{
    smith_waterman, striped_align, striped_score, ungapped_xdrop, xdrop_align, AlignParams,
    BLOSUM62,
};
use baselines::SuffixArray;
use datagen::random_protein;
use rand::prelude::*;
use seqstore::kmers_of;
use sparse::{local_spgemm, ArithmeticSemiring, Dcsc, SpGemmStrategy};
use subkmer::{find_sub_kmers, ExpenseTable};

fn homologous_pair(len: usize, rate: f64, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_protein(&mut rng, len);
    let b = a
        .iter()
        .map(|&x| {
            if rng.random::<f64>() < rate {
                rng.random_range(0..20u8)
            } else {
                x
            }
        })
        .collect();
    (a, b)
}

fn bench_alignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("alignment");
    g.sample_size(20);
    let p = AlignParams::default();
    for len in [100usize, 300] {
        let (a, b) = homologous_pair(len, 0.1, len as u64);
        g.bench_with_input(BenchmarkId::new("smith_waterman", len), &len, |bench, _| {
            bench.iter(|| black_box(smith_waterman(&a, &b, &p)));
        });
        g.bench_with_input(BenchmarkId::new("striped_align", len), &len, |bench, _| {
            bench.iter(|| black_box(striped_align(&a, &b, &p)));
        });
        g.bench_with_input(BenchmarkId::new("striped_score", len), &len, |bench, _| {
            bench.iter(|| black_box(striped_score(&a, &b, &p)));
        });
        // Seed at the first exact 6-mer match (position 0..len-6 scan).
        let seed = (0..len - 6)
            .find(|&i| a[i..i + 6] == b[i..i + 6])
            .unwrap_or(0) as u32;
        g.bench_with_input(BenchmarkId::new("xdrop_homolog", len), &len, |bench, _| {
            bench.iter(|| black_box(xdrop_align(&a, &b, seed, seed, 6, &p)));
        });
        // Unrelated pair: x-drop terminates almost immediately — the source
        // of its big average-case win.
        let (u, v) = {
            let mut rng = StdRng::seed_from_u64(7 + len as u64);
            (random_protein(&mut rng, len), random_protein(&mut rng, len))
        };
        g.bench_with_input(
            BenchmarkId::new("xdrop_unrelated", len),
            &len,
            |bench, _| {
                bench.iter(|| black_box(xdrop_align(&u, &v, 0, 0, 6, &p)));
            },
        );
        g.bench_with_input(BenchmarkId::new("ungapped", len), &len, |bench, _| {
            bench.iter(|| black_box(ungapped_xdrop(&a, &b, seed, seed, 6, &p)));
        });
    }
    g.finish();
}

fn random_dcsc(nrows: usize, ncols: u64, nnz: usize, seed: u64) -> Dcsc<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let triples: Vec<(u32, u64, f64)> = (0..nnz)
        .map(|_| {
            (
                rng.random_range(0..nrows) as u32,
                rng.random_range(0..ncols),
                1.0,
            )
        })
        .collect();
    Dcsc::from_triples(nrows, ncols, triples, |a, b| *a += b)
}

fn bench_spgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_spgemm");
    g.sample_size(15);
    // Square-ish product with moderate fill (like A·Aᵀ blocks).
    let a = random_dcsc(2000, 2000, 20_000, 1);
    let b = random_dcsc(2000, 2000, 20_000, 2);
    for (label, s) in [
        ("hash", SpGemmStrategy::Hash),
        ("heap", SpGemmStrategy::Heap),
        ("hybrid", SpGemmStrategy::Hybrid),
    ] {
        g.bench_function(BenchmarkId::new("dense-ish", label), |bench| {
            bench.iter(|| black_box(local_spgemm(&a, &b, &ArithmeticSemiring, s)));
        });
    }
    // Hypersparse product (like k-mer-space blocks): heap should shine.
    let ah = random_dcsc(2000, 1 << 24, 10_000, 3);
    let bh = random_dcsc(1 << 24_usize, 2000, 10_000, 4);
    for (label, s) in [
        ("hash", SpGemmStrategy::Hash),
        ("heap", SpGemmStrategy::Heap),
        ("hybrid", SpGemmStrategy::Hybrid),
    ] {
        g.bench_function(BenchmarkId::new("hypersparse", label), |bench| {
            bench.iter(|| black_box(local_spgemm(&ah, &bh, &ArithmeticSemiring, s)));
        });
    }
    g.finish();
}

fn bench_subkmer(c: &mut Criterion) {
    let mut g = c.benchmark_group("substitute_kmers");
    g.sample_size(20);
    let table = ExpenseTable::new(&BLOSUM62);
    let mut rng = StdRng::seed_from_u64(5);
    let seed_kmer = random_protein(&mut rng, 6);
    for m in [10usize, 25, 50] {
        g.bench_with_input(BenchmarkId::new("find_m_nearest", m), &m, |bench, &m| {
            bench.iter(|| black_box(find_sub_kmers(&seed_kmer, &table, m)));
        });
    }
    g.finish();
}

fn bench_suffix_array(c: &mut Criterion) {
    let mut g = c.benchmark_group("suffix_array");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(8);
    let seqs: Vec<Vec<u8>> = (0..100).map(|_| random_protein(&mut rng, 200)).collect();
    let refs: Vec<&[u8]> = seqs.iter().map(|v| v.as_slice()).collect();
    g.bench_function("build_100x200", |bench| {
        bench.iter(|| black_box(SuffixArray::build(&refs)));
    });
    let sa = SuffixArray::build(&refs);
    let pattern = seqs[0][10..16].to_vec();
    g.bench_function("locate_6mer", |bench| {
        bench.iter(|| black_box(sa.locate(&pattern)));
    });
    g.finish();
}

fn bench_kmer_iteration(c: &mut Criterion) {
    let mut g = c.benchmark_group("kmer_extraction");
    let mut rng = StdRng::seed_from_u64(9);
    let seq = random_protein(&mut rng, 1000);
    g.bench_function("rolling_6mers_len1000", |bench| {
        bench.iter(|| black_box(kmers_of(&seq, 6).map(|(id, _)| id).sum::<u64>()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_alignment,
    bench_spgemm,
    bench_subkmer,
    bench_suffix_array,
    bench_kmer_iteration
);
criterion_main!(benches);
