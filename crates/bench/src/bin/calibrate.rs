//! calibrate — measure this host's postal parameters (α, β) and per-op
//! compute constants, writing a versioned `machine_profile.json`
//! (`MachineProfile::load` validates it; `MachineProfile::install` loads
//! it into the runtime cost table).
//!
//! Method:
//!
//! - **α/β**: ping-pong over the thread runtime at p = 2. The receiver
//!   checksums every payload byte — `Vec` messages move by pointer
//!   between rank threads, so untouched payloads would show zero
//!   bandwidth slope. A least-squares fit of round-trip time vs size
//!   gives `t(s) = a + b·s`, with α = a/2 and β = b/2.
//! - **Validation**: timed broadcasts at p ∈ {2, 4, 8, 16} against the
//!   shape-aware model prediction (printed, not stored — thread "ranks"
//!   share one memory bus, so large-p collective times saturate).
//! - **Compute constants**: each single-class kernel runs once to read
//!   its op count back from the work ledger (ops = Δcounter / default
//!   cost — exact, since the ledger is `ops × cost`), then is timed
//!   best-of-N; ns/op = wall / ops.
//!
//! `OUT=<path>` overrides the output path; `SCALE=<f64>` scales kernel
//! workload sizes.

use obs::Stopwatch;

use align::{smith_waterman, striped_score, ungapped_xdrop, xdrop_align, AlignParams};
use datagen::random_protein;
use pcomm::work::{self, CostClass};
use pcomm::{CollAgg, CollShape, CostModel, MachineProfile, World};
use rand::prelude::*;
use seqstore::{encode_seq, parse_fasta, write_fasta, FastaRecord};
use sparse::{local_spgemm, ArithmeticSemiring, Dcsc, SpGemmStrategy};

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        std::hint::black_box(f());
        best = best.min(t0.elapsed_secs());
    }
    best
}

/// Seconds per ping-pong round trip at payload size `size`.
fn pingpong_secs(size: usize, rounds: usize) -> f64 {
    let times = World::run(2, move |comm| {
        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let touch = |v: &Vec<u8>| v.iter().map(|&b| b as u64).sum::<u64>();
        comm.barrier();
        let t0 = Stopwatch::start();
        let mut sink = 0u64;
        for r in 0..rounds {
            if comm.rank() == 0 {
                comm.send(1, r as u64, payload.clone());
                let back: Vec<u8> = comm.recv(1, rounds as u64 + r as u64);
                sink += touch(&back);
            } else {
                let got: Vec<u8> = comm.recv(0, r as u64);
                sink += touch(&got);
                comm.send(0, rounds as u64 + r as u64, got);
            }
        }
        std::hint::black_box(sink);
        t0.elapsed_secs()
    });
    // Rank 0's clock covers full round trips.
    times[0] / rounds as f64
}

/// Least-squares fit `t = a + b·s` over `(size, secs)` samples.
fn fit_line(samples: &[(f64, f64)]) -> (f64, f64) {
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|(x, _)| x).sum();
    let sy: f64 = samples.iter().map(|(_, y)| y).sum();
    let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = samples.iter().map(|(x, y)| x * y).sum();
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = (sy - b * sx) / n;
    (a, b)
}

/// One measured kernel: recover its op count from the work ledger, then
/// time it. Panics if the kernel recorded work in any other class (the
/// recovery would silently misattribute it).
fn calibrate_class(class: CostClass, reps: usize, mut kernel: impl FnMut()) -> (u64, f64) {
    work::reset_costs();
    let before = work::counter_milli_ns();
    kernel();
    let delta_milli = work::counter_milli_ns() - before;
    assert!(
        delta_milli > 0 && delta_milli.is_multiple_of(class.milli_ns()),
        "{}: ledger delta {delta_milli} not a multiple of the class cost — \
         kernel is not single-class",
        class.key()
    );
    let ops = delta_milli / class.milli_ns();
    let secs = time_best(reps, &mut kernel);
    (ops, secs)
}

fn main() {
    let scale: f64 = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let out_path = std::env::var("OUT").unwrap_or_else(|_| "machine_profile.json".into());
    let n = |base: usize| ((base as f64 * scale).round() as usize).max(1);

    let mut profile = MachineProfile::defaults();
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .or_else(|_| std::env::var("HOSTNAME"))
        .unwrap_or_else(|_| "unknown-host".into());
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    profile.host = format!("{host} ({cores} cores, thread-runtime calibration)");

    // -- postal parameters ------------------------------------------------
    println!("== ping-pong (p=2, payload checksummed on receive) ==");
    let sizes = [1usize << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20];
    let rounds = n(200);
    let mut samples = Vec::new();
    for &size in &sizes {
        let secs = (0..3)
            .map(|_| pingpong_secs(size, rounds))
            .fold(f64::INFINITY, f64::min);
        println!("  {size:>8} B  {:.3} µs/roundtrip", secs * 1e6);
        samples.push((size as f64, secs));
    }
    let (a, b) = fit_line(&samples);
    // Half a round trip per message; clamp against a degenerate fit on a
    // noisy host.
    profile.alpha = (a / 2.0).max(1e-9);
    profile.beta = (b / 2.0).max(1e-13);
    println!(
        "  fit: alpha {:.3} µs/msg, beta {:.3} GB/s effective",
        profile.alpha * 1e6,
        1e-9 / profile.beta
    );

    // -- collective validation (printed only) -----------------------------
    println!("\n== bcast validation (measured vs shape model) ==");
    let model = CostModel::from_profile(&profile);
    let payload_bytes = 64usize << 10;
    for p in [2usize, 4, 8, 16] {
        let rounds = n(50);
        let times = World::run(p, move |comm| {
            let payload: Vec<u8> = vec![7u8; payload_bytes];
            comm.barrier();
            let t0 = Stopwatch::start();
            for _ in 0..rounds {
                let got = comm.bcast(0, (comm.rank() == 0).then(|| payload.clone()));
                std::hint::black_box(got.len());
            }
            t0.elapsed_secs()
        });
        let measured = times.iter().cloned().fold(0.0f64, f64::max) / rounds as f64;
        let predicted = model.coll_seconds(&CollAgg {
            shape: CollShape::Bcast,
            comm_size: p,
            calls: 1.0,
            payload_bytes: payload_bytes as f64,
        });
        println!(
            "  p={p:>2}  measured {:>8.2} µs  model {:>8.2} µs  ratio {:.2}",
            measured * 1e6,
            predicted * 1e6,
            measured / predicted
        );
    }

    // -- compute constants -------------------------------------------------
    println!("\n== compute constants (single-class kernels) ==");
    let mut rng = StdRng::seed_from_u64(2020);
    let params = AlignParams::default();
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..n(60))
        .map(|_| {
            let a = random_protein(&mut rng, 220);
            let mut b = a.clone();
            for x in b.iter_mut() {
                if rng.random::<f64>() < 0.12 {
                    *x = rng.random_range(0..20u8);
                }
            }
            (a, b)
        })
        .collect();
    let fasta = write_fasta(
        &(0..n(400))
            .map(|i| FastaRecord {
                name: format!("s{i}"),
                residues: random_protein(&mut rng, 200)
                    .iter()
                    .map(|&x| b"ARNDCQEGHILKMFPSTWYV"[x as usize])
                    .collect(),
            })
            .collect::<Vec<_>>(),
    );
    let spgemm_dim = n(300);
    let triples: Vec<(u32, u64, f64)> = (0..spgemm_dim * 12)
        .map(|_| {
            (
                rng.random_range(0..spgemm_dim) as u32,
                rng.random_range(0..spgemm_dim) as u64,
                1.0,
            )
        })
        .collect();
    let mat = Dcsc::from_triples(spgemm_dim, spgemm_dim as u64, triples, |a, v| *a += v);
    let seed = encode_seq(b"MKVLA");

    let reps = 3;
    let kernels: Vec<(CostClass, Box<dyn FnMut()>)> = vec![
        (
            CostClass::SwCell,
            Box::new(|| {
                for (a, b) in &pairs {
                    std::hint::black_box(smith_waterman(a, b, &params).score);
                }
            }),
        ),
        (
            CostClass::SwStripedCell,
            Box::new(|| {
                for (a, b) in &pairs {
                    std::hint::black_box(striped_score(a, b, &params).0);
                }
            }),
        ),
        (
            CostClass::XdropCell,
            Box::new(|| {
                for (a, b) in &pairs {
                    let r = xdrop_align(a, b, 40, 40, seed.len(), &params);
                    std::hint::black_box(r.score);
                }
            }),
        ),
        (
            CostClass::UngappedStep,
            Box::new(|| {
                for (a, b) in &pairs {
                    let r = ungapped_xdrop(a, b, 40, 40, seed.len(), &params);
                    std::hint::black_box(r.score);
                }
            }),
        ),
        (
            CostClass::FastaByte,
            Box::new(|| {
                std::hint::black_box(parse_fasta(&fasta).len());
            }),
        ),
        (
            CostClass::SpgemmFlop,
            Box::new(|| {
                let square = local_spgemm(&mat, &mat, &ArithmeticSemiring, SpGemmStrategy::Hybrid);
                std::hint::black_box(square.len());
            }),
        ),
    ];
    println!(
        "{:<18}{:>14}{:>12}{:>12}{:>12}",
        "class", "ops", "secs", "ns/op", "default"
    );
    for (class, mut kernel) in kernels {
        let (ops, secs) = calibrate_class(class, reps, &mut kernel);
        let ns_per_op = secs * 1e9 / ops as f64;
        println!(
            "{:<18}{:>14}{:>12.4}{:>12.4}{:>12.4}",
            class.key(),
            ops,
            secs,
            ns_per_op,
            class.default_milli_ns() as f64 * 1e-3
        );
        profile.cost_ns.insert(class.key().to_string(), ns_per_op);
        profile.calibrated.push(class.key().to_string());
    }
    work::reset_costs();

    profile
        .save(std::path::Path::new(&out_path))
        .expect("write machine profile");
    println!("\nwrote {out_path} (schema v{})", profile.version);
}
