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
    expect_rejection(&fasta, &["--ranks", "0"], 2, "--ranks");
    expect_rejection(&fasta, &["--reduced", "--subs", "5"], 2, "--reduced");
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
    // Out-of-core flags need exact seeding: rejected with --subs, never
    // silently ignored.
    expect_rejection(
        &fasta,
        &["--subs", "25", "--mem-budget", "16m"],
        2,
        "--subs",
    );
    let ckpt = dir.join("ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();
    expect_rejection(
        &fasta,
        &["--subs", "25", "--ckpt-dir", ckpt_arg],
        2,
        "--subs",
    );
    assert!(
        !ckpt.exists(),
        "a rejected run must not create its ckpt dir"
    );
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

/// The library refuses the same combinations by name instead of ignoring
/// the out-of-core parameters.
#[test]
fn run_pipeline_refuses_what_the_binary_rejects() {
    use pastis::{run_pipeline, PastisParams};
    let fasta = b">a\nMKVLAAGIVGLLLAQ\n>b\nMKVLAAGIVGLLKAQ\n";
    let refusal = |params: PastisParams| {
        let err = std::panic::catch_unwind(|| {
            pcomm::World::run(1, |comm| run_pipeline(&comm, fasta, &params));
        })
        .expect_err("run_pipeline must refuse");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    let base = PastisParams {
        k: 4,
        ..Default::default()
    };
    let budget = Some(1 << 20);
    let ckpt = Some(std::env::temp_dir().join("pastis-cli-never-created"));
    for params in [
        PastisParams {
            substitutes: 5,
            mem_budget_bytes: budget,
            ..base.clone()
        },
        PastisParams {
            substitutes: 5,
            ckpt_dir: ckpt,
            ..base.clone()
        },
    ] {
        let msg = refusal(params);
        assert!(msg.contains("mem_budget_bytes / ckpt_dir"), "{msg}");
    }
    let msg = refusal(PastisParams { k: 14, ..base });
    assert!(msg.contains("k must be in 1..=13"), "{msg}");
}
