//! Bad parameters and bad input, driven through the real `pastis` binary:
//! each must end in a one-line diagnostic on stderr and a non-zero exit —
//! never a backtrace, never a silent empty success, never a silently
//! ignored flag.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pastis-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Run `pastis --input <fasta> <args>` and assert the exit code and that
/// stderr is a single diagnostic line mentioning `needle`.
fn expect_rejection(fasta: &Path, args: &[&str], code: i32, needle: &str) {
    expect_rejection_with_env(fasta, args, &[], code, needle);
}

/// [`expect_rejection`] with extra environment variables set.
fn expect_rejection_with_env(
    fasta: &Path,
    args: &[&str],
    envs: &[(&str, &str)],
    code: i32,
    needle: &str,
) {
    let out = Command::new(env!("CARGO_BIN_EXE_pastis"))
        .arg("--input")
        .arg(fasta)
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("spawn pastis");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: stderr={stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: wrote a PSG to stdout");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn bad_parameters_are_usage_errors() {
    let dir = scratch("params");
    let fasta = dir.join("ok.fasta");
    std::fs::write(&fasta, ">a\nMKVLAAGIVGLLLAQ\n>b\nMKVLAAGIVGLLKAQ\n").unwrap();
    expect_rejection(&fasta, &["--k", "14"], 2, "--k");
    expect_rejection(&fasta, &["--k", "0"], 2, "--k");
    // A k-mer block wider than 2^32 ids cannot become `u32` rows.
    expect_rejection(&fasta, &["--k", "7", "--ranks", "1"], 2, "--k");
    expect_rejection(&fasta, &["--k", "8", "--ranks", "4"], 2, "--k");
    expect_rejection(&fasta, &["--ranks", "0"], 2, "--ranks");
    // Flags it does not know and values it cannot parse, each named in
    // one line: `--reduced` is retired (EXPERIMENTS.md).
    expect_rejection(&fasta, &["--reduced"], 2, "--reduced");
    expect_rejection(&fasta, &["--bogus"], 2, "--bogus");
    expect_rejection(&fasta, &["--k", "six"], 2, "--k: invalid value \"six\"");
    expect_rejection(&fasta, &["--k"], 2, "--k");
    expect_rejection(&fasta, &["--mode", "zz"], 2, "--mode: invalid value \"zz\"");
    expect_rejection(
        &fasta,
        &["--mem-budget", "12q"],
        2,
        "--mem-budget: invalid value \"12q\"",
    );
    // Filter thresholds that no edge can clear: refused, not an empty PSG.
    expect_rejection(&fasta, &["--min-ani", "nan"], 2, "--min-ani");
    expect_rejection(&fasta, &["--min-ani", "1.5"], 2, "--min-ani");
    expect_rejection(&fasta, &["--min-cov", "7"], 2, "--min-cov");
    expect_rejection(&fasta, &["--max-kmer-freq", "0"], 2, "--max-kmer-freq");
    // NS applies no cut-off, so an explicit threshold would be dropped.
    expect_rejection(
        &fasta,
        &["--measure", "ns", "--min-ani", "0.5"],
        2,
        "--min-ani",
    );
    expect_rejection(
        &fasta,
        &["--min-cov", "0.5", "--measure", "ns"],
        2,
        "--min-cov",
    );
    // A monitor period that is not a positive integer is refused, not
    // replaced by the default.
    for bad in ["0", "fast", ""] {
        expect_rejection_with_env(
            &fasta,
            &["--monitor"],
            &[("PASTIS_MONITOR_MS", bad)],
            2,
            "PASTIS_MONITOR_MS",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fasta_without_records_is_an_error() {
    let dir = scratch("input");
    let headerless = dir.join("headerless.fasta");
    std::fs::write(&headerless, "MKVLAAGIVGLLLAQ\nMKVLAAGIVGLLKAQ\n").unwrap();
    expect_rejection(&headerless, &[], 1, "no sequences in");
    let empty = dir.join("empty.fasta");
    std::fs::write(&empty, "").unwrap();
    expect_rejection(&empty, &[], 1, "no sequences in");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The out-of-core flags work under substitute k-mers: a batched,
/// checkpointed `--subs` run writes the monolithic run's PSG.
#[test]
fn substitute_kmers_run_out_of_core() {
    let dir = scratch("subs");
    let fasta = dir.join("in.fasta");
    std::fs::write(
        &fasta,
        ">a\nMKVLAAGIVGLLLAQWERTY\n>b\nMKVLAAGIVGLLKAQWERTY\n>c\nMKVLSAGIVGLLKAQWERTA\n",
    )
    .unwrap();
    let run = |out: &Path, args: &[&str]| {
        let st = Command::new(env!("CARGO_BIN_EXE_pastis"))
            .arg("--input")
            .arg(&fasta)
            .arg("--output")
            .arg(out)
            .args(["--k", "4", "--subs", "5", "--quiet"])
            .args(args)
            .status()
            .expect("spawn pastis");
        assert!(st.success(), "{args:?}: {st}");
        std::fs::read(out).expect("read PSG")
    };
    let mono = run(&dir.join("mono.tsv"), &[]);
    assert!(!mono.is_empty(), "the monolithic run wrote no edge");
    let ckpt = dir.join("ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();
    let args = ["--mem-budget", "1", "--ckpt-dir", ckpt_arg];
    assert_eq!(run(&dir.join("ooc.tsv"), &args), mono);
    assert!(ckpt.join("manifest.json").exists(), "no checkpoint written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The library refuses the same combinations by name, and the frozen
/// `build_a_triples(.., reduced)` refuses `true` as `run_pipeline` refuses
/// `reduced_alphabet`.
#[test]
fn run_pipeline_refuses_what_the_binary_rejects() {
    use pastis::{build_a_triples, run_pipeline, PastisParams};
    let fasta = b">a\nMKVLAAGIVGLLLAQ\n>b\nMKVLAAGIVGLLKAQ\n";
    let message = |err: Box<dyn std::any::Any + Send>| {
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    let refusal = |params: PastisParams| {
        message(
            std::panic::catch_unwind(|| {
                pcomm::World::run(1, |comm| run_pipeline(&comm, fasta, &params));
            })
            .expect_err("run_pipeline must refuse"),
        )
    };
    let base = PastisParams {
        k: 4,
        ..Default::default()
    };
    for k in [14, 7] {
        let msg = refusal(PastisParams { k, ..base.clone() });
        assert!(msg.contains("k must be in 1..=13"), "{msg}");
    }
    let retired = "reduced-alphabet seeding is retired: exact seeding at a smaller k \
                   finds more family edges at every candidate count (EXPERIMENTS.md)";
    let msg = refusal(PastisParams {
        reduced_alphabet: true,
        ..base
    });
    assert!(msg.contains(retired), "{msg}");
    let owned = [seqstore::SeqRecord {
        gid: 0,
        name: "a".into(),
        data: seqstore::encode_seq(b"MKVLAAGIVGLLLAQ"),
    }];
    assert_eq!(build_a_triples(&owned, 4, false).len(), 12);
    let err = std::panic::catch_unwind(|| build_a_triples(&owned, 4, true));
    assert_eq!(
        message(err.expect_err("build_a_triples must refuse")),
        retired
    );
}
