//! Kill-safe checkpoint/resume (DESIGN.md §15): a batched run checkpoints
//! every completed batch (per-rank shards + rank-0 manifest, committed
//! tmp-then-rename), so a run killed mid-flight resumes after the last
//! complete batch and still produces the monolithic output byte for byte.
//!
//! Exercised against the real `pastis` binary. The states a kill can leave
//! behind are built from one completed checkpoint directory instead of
//! being waited for: the manifest cut back to batches `0..=k` and the later
//! shards deleted — plus, for some `k`, what a kill *inside* batch `k+1`'s
//! commit leaves (its uncommitted shards, a half-written shard `.tmp`, an
//! unrenamed `manifest.tmp`). The resumed run must restore exactly the
//! committed batches (their shard files are read, never rewritten, so they
//! keep their inode), recompute the rest, and write the reference bytes.
//! One real SIGKILL, delivered at whatever point the run has reached,
//! checks the same end state. The corruption case flips one byte of a
//! committed shard: the checksum must reject it and the resumed run must
//! recompute that batch rather than trust the manifest. A completed
//! directory copied elsewhere and resumed with another thread count must
//! restore every batch: where a checkpoint lives and how many threads align
//! do not shape the output, so they are not part of the run fingerprint.

use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use datagen::{metaclust_like, MetaclustConfig};
use obs::JsonValue;
use pastis::ckpt;
use seqstore::write_fasta;

const RANKS: usize = 4;
const BUDGET: &str = "96k";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pastis")
}

/// Scratch directory for this test process (removed best-effort on rerun).
fn scratch() -> &'static Path {
    static D: OnceLock<PathBuf> = OnceLock::new();
    D.get_or_init(|| {
        let d = std::env::temp_dir().join(format!("pastis-ooc-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch dir");
        d
    })
}

fn fasta_path() -> &'static Path {
    static F: OnceLock<PathBuf> = OnceLock::new();
    F.get_or_init(|| {
        let fasta = write_fasta(&metaclust_like(
            50,
            &MetaclustConfig {
                seed: 9,
                len_range: (100, 300),
                related_fraction: 0.3,
                mutation_rate: 0.12,
            },
        ));
        let p = scratch().join("input.fasta");
        std::fs::write(&p, fasta).expect("write fasta");
        p
    })
}

/// Base invocation; every run is unchecked (`PCHECK=0`) — the resume
/// protocol is what is under test, and checked-mode collective conformance
/// of the batched driver is covered in-process by `ooc_equivalence.rs`.
fn cmd(out: &Path) -> Command {
    let mut c = Command::new(bin());
    c.arg("--input")
        .arg(fasta_path())
        .arg("--output")
        .arg(out)
        .args(["--ranks", &RANKS.to_string(), "--k", "5", "--quiet"])
        .env("PCHECK", "0");
    c
}

/// The budgeted, checkpointed invocation every resume test runs.
fn ckpt_cmd(dir: &Path, out: &Path) -> Command {
    let mut c = cmd(out);
    c.args(["--mem-budget", BUDGET]).arg("--ckpt-dir").arg(dir);
    c
}

/// Monolithic reference output (no budget, no checkpointing).
fn reference() -> &'static Vec<u8> {
    static R: OnceLock<Vec<u8>> = OnceLock::new();
    R.get_or_init(|| {
        let out = scratch().join("mono.tsv");
        let st = cmd(&out).status().expect("run monolithic pastis");
        assert!(st.success(), "monolithic run failed: {st}");
        let bytes = std::fs::read(&out).expect("read monolithic output");
        assert!(!bytes.is_empty(), "monolithic run produced no edges");
        bytes
    })
}

/// Run the checkpointed command on `ckpt_dir` and require the reference.
fn resume_and_compare(ckpt_dir: &Path, out: &Path) {
    let st = ckpt_cmd(ckpt_dir, out)
        .status()
        .expect("run checkpointed pastis");
    assert!(st.success(), "checkpointed run failed: {st}");
    assert_eq!(
        std::fs::read(out).expect("read resumed output"),
        *reference(),
        "resumed output diverged from the monolithic reference"
    );
}

/// Files of a checkpoint directory, by name.
type Files = BTreeMap<String, Vec<u8>>;

/// Run the checkpointed command to completion in `scratch()/name` and
/// return that directory with its files: the source every post-kill state
/// is cut from.
fn completed(name: &str) -> (PathBuf, Files) {
    let dir = scratch().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    resume_and_compare(&dir, &scratch().join(format!("{name}.tsv")));
    let files = std::fs::read_dir(&dir)
        .expect("list ckpt dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read ckpt file"))
        })
        .collect();
    (dir, files)
}

/// Replace `dir`'s contents with `files`.
fn rebuild(dir: &Path, files: &Files) {
    std::fs::remove_dir_all(dir).expect("clear ckpt dir");
    std::fs::create_dir_all(dir).expect("create ckpt dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write ckpt file");
    }
}

/// `manifest` with its `batches` cut to indices below `keep`.
fn manifest_cut(manifest: &[u8], keep: usize) -> String {
    let text = std::str::from_utf8(manifest).expect("manifest is text");
    let mut doc = JsonValue::parse(text).expect("manifest parses");
    let JsonValue::Obj(fields) = &mut doc else {
        panic!("manifest is not an object");
    };
    let kept = fields["batches"]
        .as_arr()
        .expect("batches array")
        .iter()
        .filter(|b| b.get("index").and_then(JsonValue::as_u64).unwrap() < keep as u64)
        .cloned()
        .collect();
    fields.insert("batches".into(), JsonValue::Arr(kept));
    format!("{doc}\n")
}

/// Inode of every file in `dir`, by file name.
fn inodes(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().unwrap();
            (name, e.metadata().expect("stat").ino())
        })
        .collect()
}

fn shard_name(batch: usize, rank: usize) -> String {
    ckpt::shard_path(Path::new(""), batch, rank)
        .to_string_lossy()
        .into_owned()
}

/// The state a SIGKILL leaves after batch `k`'s manifest commit, for every
/// `k` but the last: batches `0..=k` committed, nothing of the later ones
/// — and, for `k % 3 == 1`, a kill during batch `k+1`'s shard writes (all
/// but the last rank's shards on disk, that one a half-written `.tmp`);
/// for `k % 3 == 2`, a kill between batch `k+1`'s manifest write and its
/// rename (every shard on disk, the new manifest still `manifest.tmp`).
/// The resumed run must restore `0..=k` from their files and recompute the
/// rest.
#[test]
fn sigkill_after_any_batch_resumes_bit_identically() {
    let (dir, files) = completed("kill");
    let n = ckpt::load_manifest(&dir)
        .expect("complete run left a manifest")
        .n_batches;
    assert!(n >= 4, "recipe must cut at least 4 batches (plan has {n})");
    let manifest = &files["manifest.json"];
    for k in 0..n - 1 {
        rebuild(&dir, &files);
        std::fs::write(dir.join("manifest.json"), manifest_cut(manifest, k + 1)).unwrap();
        let torn = k + 1;
        for b in torn..n {
            for r in 0..RANKS {
                let keep = b == torn && (k % 3 == 2 || (k % 3 == 1 && r + 1 < RANKS));
                if !keep {
                    std::fs::remove_file(ckpt::shard_path(&dir, b, r)).unwrap();
                }
            }
        }
        match k % 3 {
            1 => {
                let shard = &files[&shard_name(torn, RANKS - 1)];
                let tmp = ckpt::shard_path(&dir, torn, RANKS - 1).with_extension("tmp");
                std::fs::write(tmp, &shard[..shard.len() / 2]).unwrap();
            }
            2 => {
                std::fs::write(dir.join("manifest.tmp"), manifest_cut(manifest, torn + 1)).unwrap()
            }
            _ => {}
        }
        let before = inodes(&dir);

        resume_and_compare(&dir, &scratch().join("kill.tsv"));

        let after = inodes(&dir);
        for b in 0..n {
            for r in 0..RANKS {
                let name = shard_name(b, r);
                let now = after.get(&name);
                assert!(now.is_some(), "k={k}: {name} missing after the resume");
                match (b <= k, before.get(&name)) {
                    (true, was) => assert_eq!(now, was, "k={k}: committed {name} was rewritten"),
                    (false, Some(was)) => {
                        assert_ne!(now, Some(was), "k={k}: uncommitted {name} was trusted")
                    }
                    (false, None) => {}
                }
            }
        }
        let m = ckpt::load_manifest(&dir).expect("resumed run left a manifest");
        assert_eq!(m.completed.len(), n, "k={k}: manifest misses batches");
        let stale: Vec<_> = after.keys().filter(|f| f.ends_with(".tmp")).collect();
        assert!(stale.is_empty(), "k={k}: stale temporaries {stale:?}");
    }
}

/// A real SIGKILL at whatever point the run has reached when its first
/// manifest appears (or after it finished). Only the end state is checked,
/// so the assertion holds in every interleaving.
#[test]
fn real_sigkill_resumes_bit_identically() {
    let dir = scratch().join("real-kill");
    let _ = std::fs::remove_dir_all(&dir);
    let out = scratch().join("real-kill.tsv");
    let mut child = ckpt_cmd(&dir, &out).spawn().expect("spawn pastis");
    let deadline = Instant::now() + Duration::from_secs(120);
    while child.try_wait().expect("poll pastis").is_none()
        && !dir.join("manifest.json").exists()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
    resume_and_compare(&dir, &out);
}

#[test]
fn corrupted_shard_is_rejected_and_recomputed() {
    let (dir, _) = completed("corrupt");
    let manifest = ckpt::load_manifest(&dir).expect("complete run left a manifest");
    // Batch 0's largest shard, so the tampered byte sits in an edge line.
    let rank = (0..RANKS)
        .max_by_key(|&r| {
            std::fs::metadata(ckpt::shard_path(&dir, 0, r))
                .unwrap()
                .len()
        })
        .unwrap();
    let shard = ckpt::shard_path(&dir, 0, rank);
    let original = std::fs::read(&shard).expect("read shard");
    assert!(
        original.split(|&b| b == b'\n').count() > 3,
        "batch 0 has no edges"
    );
    // Flip the low bit of the shard's last decimal or hex digit ('0'↔'1',
    // …, '8'↔'9'): same length, still parseable, so only the checksum can
    // tell.
    let mut bytes = original.clone();
    let at = bytes
        .iter()
        .rposition(u8::is_ascii_digit)
        .expect("shard has a digit");
    bytes[at] ^= 0x01;
    std::fs::write(&shard, &bytes).unwrap();
    let before = inodes(&dir);

    // The checksum rejects the tampered shard outright…
    let rec = manifest.completed.iter().find(|b| b.index == 0).unwrap();
    let err = ckpt::read_shard(&dir, 0, rec.shard(rank).expect("shard record"))
        .expect_err("tampered shard must fail its checksum");
    assert!(err.contains("checksum"), "unexpected error: {err}");

    // …and the resumed run recomputes batch 0 on every rank instead of
    // trusting the manifest, restores the others, and converges to the
    // reference anyway.
    resume_and_compare(&dir, &scratch().join("corrupt.tsv"));
    assert_eq!(std::fs::read(&shard).unwrap(), original);
    let after = inodes(&dir);
    for b in 0..manifest.n_batches {
        for r in 0..RANKS {
            let name = shard_name(b, r);
            let (was, now) = (before.get(&name), after.get(&name));
            if b == 0 {
                assert_ne!(was, now, "{name} was restored, not recomputed");
            } else {
                assert_eq!(was, now, "{name} was recomputed, not restored");
            }
        }
    }
}

#[test]
fn copied_checkpoint_restores_every_batch_with_other_threads() {
    let (_, files) = completed("original");
    let copy = scratch().join("copy");
    std::fs::create_dir_all(&copy).expect("create copy dir");
    rebuild(&copy, &files);
    let before = inodes(&copy);

    let out = scratch().join("copy.tsv");
    let st = ckpt_cmd(&copy, &out)
        .args(["--threads", "2"])
        .status()
        .expect("run pastis on the copy");
    assert!(st.success(), "run on the copied checkpoint failed: {st}");
    assert_eq!(
        std::fs::read(&out).expect("read output"),
        *reference(),
        "output from the copied checkpoint diverged from the monolithic reference"
    );
    // Restoring reads files and never writes them; a recomputed batch (or
    // a rewritten manifest) would have been renamed into a new inode.
    assert_eq!(
        inodes(&copy),
        before,
        "the copied checkpoint was not restored in full"
    );
}
