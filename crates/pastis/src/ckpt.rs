//! Kill-safe checkpoint/resume for batched runs (DESIGN.md §15).
//!
//! Directory layout:
//!
//! ```text
//! <ckpt_dir>/manifest.json        versioned manifest (see [`Manifest`])
//! <ckpt_dir>/batch<k>.rank<r>.psg one shard per (completed batch, rank)
//! ```
//!
//! Every file commits via tmp-then-rename, and the manifest only ever
//! references batches whose shards are all durably on disk, so a run
//! killed at any instant leaves either no trace of the in-flight batch or
//! a complete, checksummed record of it. Shard weights are stored as raw
//! `f64` bits (hex), so a resumed run's edge set is bit-identical to the
//! uninterrupted one; each shard also carries the rank's counter deltas
//! for the batch, so resumed runs reproduce the pipeline's statistics.
//!
//! The whole protocol lives behind [`BatchLog`]: the pipeline's batch loop
//! only asks it to `restore` or `commit` a batch. All checkpoint filesystem
//! writes live in this module — the `ckpt-confinement` xlint rule keeps the
//! `fs::rename` commit primitive here, so nothing can bypass the
//! manifest/checksum protocol.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use obs::JsonValue;
use pcomm::Comm;

use crate::params::PastisParams;

/// Manifest schema version; bump on any layout change, or when a recorded
/// field changes meaning (version 4: a shard's `nnzb=` counts only the
/// owned off-diagonal entries the masked product forms). A manifest with a
/// different version is ignored (the run restarts from scratch) rather
/// than misread.
pub const CKPT_SCHEMA_VERSION: u64 = 4;

/// One rank's shard of one completed batch, as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// World rank that wrote the shard.
    pub rank: usize,
    /// Exact file length in bytes.
    pub len: u64,
    /// FNV-1a checksum of the file bytes.
    pub checksum: u64,
}

/// A completed batch: one shard per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Batch index in the plan.
    pub index: usize,
    /// Shards, one per rank (any order; looked up by rank).
    pub shards: Vec<ShardRecord>,
}

impl BatchRecord {
    /// The shard `rank` wrote, if recorded.
    pub fn shard(&self, rank: usize) -> Option<&ShardRecord> {
        self.shards.iter().find(|s| s.rank == rank)
    }
}

/// The checkpoint manifest: which batches of which run are durably done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// [`CKPT_SCHEMA_VERSION`] at write time.
    pub version: u64,
    /// Run fingerprint (input + params + grid + plan); a manifest from a
    /// different run must never be resumed from.
    pub fingerprint: u64,
    /// World size of the writing run.
    pub p: usize,
    /// Total batches in the plan.
    pub n_batches: usize,
    /// Completed batches, ascending by index.
    pub completed: Vec<BatchRecord>,
}

/// Per-rank, per-batch counter deltas stored in the shard header, so a
/// resumed run reports the same [`crate::Counters`] as an uninterrupted
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterDelta {
    /// Candidate pairs this rank owned in the batch.
    pub candidates: u64,
    /// Alignments this rank ran in the batch.
    pub alignments: u64,
    /// Score-pass culls in the batch.
    pub striped_culled: u64,
    /// Pairs that reached `min_score` in the batch.
    pub passed: u64,
    /// Nonzeros of `B` this rank drained in the batch.
    pub nnz_b: u64,
}

impl CounterDelta {
    /// Fold another batch's deltas into this running total.
    pub(crate) fn add(&mut self, d: &CounterDelta) {
        self.candidates += d.candidates;
        self.alignments += d.alignments;
        self.striped_culled += d.striped_culled;
        self.passed += d.passed;
        self.nnz_b += d.nnz_b;
    }
}

/// A decoded shard: the rank's edges for one batch plus its counter
/// deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// `(gid_low, gid_high, weight)` edges, in drain order.
    pub edges: Vec<(u64, u64, f64)>,
    /// Counter deltas for the batch.
    pub delta: CounterDelta,
}

/// FNV-1a 64-bit hash — the shard checksum and fingerprint primitive (no
/// external digest crates in this workspace).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Fingerprint of a run: FASTA digest, parameter signature, world size,
/// and the batch plan's column boundaries. Any mismatch means the
/// manifest describes a different computation and is ignored.
fn fingerprint(fasta_digest: u64, params_sig: &str, p: usize, ranges: &[(u64, u64)]) -> u64 {
    let mut s = format!("pastis-ckpt:{fasta_digest:016x}:{p}:{params_sig}");
    for &(a, b) in ranges {
        s.push_str(&format!(":{a}-{b}"));
    }
    fnv1a(s.as_bytes())
}

/// The parameters that shape a run's output, in the form the fingerprint
/// hashes. `threads` and `ckpt_dir` are left out, so a checkpoint
/// directory resumes after being moved or copied, or with another thread
/// count; the memory budget enters through the plan's column ranges.
/// Destructured field by field, so a new parameter cannot be forgotten.
fn params_signature(params: &PastisParams) -> String {
    let PastisParams {
        k,
        substitutes,
        mode,
        common_kmer_threshold,
        reduced_alphabet,
        max_kmer_frequency,
        measure,
        min_ani,
        min_coverage,
        align,
        spgemm,
        min_score,
        threads: _,
        mem_budget_bytes: _,
        ckpt_dir: _,
    } = params;
    format!(
        "{k}:{substitutes}:{mode:?}:{common_kmer_threshold}:{reduced_alphabet}:\
         {max_kmer_frequency:?}:{measure:?}:{min_ani:?}:{min_coverage:?}:{align:?}:\
         {spgemm:?}:{min_score}"
    )
}

/// Path of the manifest inside `dir`.
fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Path of rank `rank`'s shard for batch `batch` inside `dir`.
pub fn shard_path(dir: &Path, batch: usize, rank: usize) -> PathBuf {
    dir.join(format!("batch{batch}.rank{rank}.psg"))
}

/// Write bytes to `path` durably: write `<path>.tmp`, then rename over
/// `path`. A kill between the two calls leaves at worst a stale `.tmp`
/// that the next run overwrites; `path` itself is always either absent or
/// complete.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Serialize and durably write one rank's shard for `batch`. Returns the
/// record (length + checksum) destined for the manifest.
fn write_shard(
    dir: &Path,
    batch: usize,
    rank: usize,
    edges: &[(u64, u64, f64)],
    delta: &CounterDelta,
) -> io::Result<ShardRecord> {
    use std::fmt::Write as _;
    let mut text = format!("#pastis-ckpt {CKPT_SCHEMA_VERSION} batch={batch} rank={rank}\n");
    let d = delta;
    let _ = writeln!(
        text,
        "#counters cand={} aln={} sc={} passed={} nnzb={}",
        d.candidates, d.alignments, d.striped_culled, d.passed, d.nnz_b
    );
    for &(lo, hi, w) in edges {
        let _ = writeln!(text, "{lo}\t{hi}\t{:016x}", w.to_bits());
    }
    write_atomic(&shard_path(dir, batch, rank), text.as_bytes())?;
    Ok(ShardRecord {
        rank,
        len: text.len() as u64,
        checksum: fnv1a(text.as_bytes()),
    })
}

/// Read back and verify one shard against its manifest record. Any
/// mismatch — missing file, wrong length, checksum failure, malformed
/// line — returns `Err`, and the caller treats the batch as incomplete
/// and recomputes it.
pub fn read_shard(dir: &Path, batch: usize, rec: &ShardRecord) -> Result<Shard, String> {
    let path = shard_path(dir, batch, rec.rank);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.len() as u64 != rec.len {
        return Err(format!(
            "{}: length {} != recorded {}",
            path.display(),
            bytes.len(),
            rec.len
        ));
    }
    let sum = fnv1a(&bytes);
    if sum != rec.checksum {
        return Err(format!(
            "{}: checksum {sum:016x} != recorded {:016x}",
            path.display(),
            rec.checksum
        ));
    }
    let text = std::str::from_utf8(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let head = lines.next().unwrap_or_default();
    if !head.starts_with("#pastis-ckpt ") {
        return Err(format!("{}: bad header {head:?}", path.display()));
    }
    let counters = lines.next().unwrap_or_default();
    let delta = parse_counters(counters)
        .ok_or_else(|| format!("{}: bad counters line {counters:?}", path.display()))?;
    let mut edges = Vec::new();
    for line in lines {
        let mut it = line.split('\t');
        let lo = it.next().and_then(|s| s.parse::<u64>().ok());
        let hi = it.next().and_then(|s| s.parse::<u64>().ok());
        let w = it
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(f64::from_bits);
        match (lo, hi, w) {
            (Some(lo), Some(hi), Some(w)) if it.next().is_none() => edges.push((lo, hi, w)),
            _ => return Err(format!("{}: malformed edge line {line:?}", path.display())),
        }
    }
    Ok(Shard { edges, delta })
}

fn parse_counters(line: &str) -> Option<CounterDelta> {
    let rest = line.strip_prefix("#counters ")?;
    let mut vals = BTreeMap::new();
    for field in rest.split(' ') {
        let (k, v) = field.split_once('=')?;
        vals.insert(k, v.parse::<u64>().ok()?);
    }
    Some(CounterDelta {
        candidates: *vals.get("cand")?,
        alignments: *vals.get("aln")?,
        striped_culled: *vals.get("sc")?,
        passed: *vals.get("passed")?,
        nnz_b: *vals.get("nnzb")?,
    })
}

/// Durably write the manifest (tmp-then-rename).
fn write_manifest(dir: &Path, m: &Manifest) -> io::Result<()> {
    let shard = |s: &ShardRecord| {
        JsonValue::obj([
            ("rank", JsonValue::Num(s.rank as f64)),
            ("len", JsonValue::Num(s.len as f64)),
            // Hex string: JSON numbers are f64 and would round 64-bit
            // checksums.
            ("checksum", JsonValue::Str(format!("{:016x}", s.checksum))),
        ])
    };
    let batches = m
        .completed
        .iter()
        .map(|b| {
            JsonValue::obj([
                ("index", JsonValue::Num(b.index as f64)),
                (
                    "shards",
                    JsonValue::Arr(b.shards.iter().map(shard).collect()),
                ),
            ])
        })
        .collect();
    let doc = JsonValue::obj([
        ("schema", JsonValue::Str("pastis-ckpt".into())),
        ("version", JsonValue::Num(m.version as f64)),
        (
            "fingerprint",
            JsonValue::Str(format!("{:016x}", m.fingerprint)),
        ),
        ("p", JsonValue::Num(m.p as f64)),
        ("n_batches", JsonValue::Num(m.n_batches as f64)),
        ("batches", JsonValue::Arr(batches)),
    ]);
    write_atomic(&manifest_path(dir), format!("{doc}\n").as_bytes())
}

/// Load the manifest from `dir`, or `None` when there is nothing usable —
/// missing file, unparseable JSON, wrong schema name or version, or any
/// malformed record. Callers treat `None` as "start fresh".
pub fn load_manifest(dir: &Path) -> Option<Manifest> {
    let text = std::fs::read_to_string(manifest_path(dir)).ok()?;
    let doc = JsonValue::parse(&text).ok()?;
    if doc.get("schema")?.as_str()? != "pastis-ckpt" {
        return None;
    }
    let version = doc.get("version")?.as_u64()?;
    if version != CKPT_SCHEMA_VERSION {
        return None;
    }
    let fingerprint = u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?;
    let p = doc.get("p")?.as_u64()? as usize;
    let n_batches = doc.get("n_batches")?.as_u64()? as usize;
    let mut completed = Vec::new();
    for b in doc.get("batches")?.as_arr()? {
        let index = b.get("index")?.as_u64()? as usize;
        let mut shards = Vec::new();
        for s in b.get("shards")?.as_arr()? {
            shards.push(ShardRecord {
                rank: s.get("rank")?.as_u64()? as usize,
                len: s.get("len")?.as_u64()?,
                checksum: u64::from_str_radix(s.get("checksum")?.as_str()?, 16).ok()?,
            });
        }
        completed.push(BatchRecord { index, shards });
    }
    Some(Manifest {
        version,
        fingerprint,
        p,
        n_batches,
        completed,
    })
}

/// The checkpoint protocol of one batched run, as the batch loop sees it:
/// [`BatchLog::restore`] a batch a previous run completed, or compute it
/// and [`BatchLog::commit`] the result. Both are collective over the world
/// communicator the log was opened on.
pub struct BatchLog<'a> {
    dir: &'a Path,
    world: &'a Comm,
    fingerprint: u64,
    n_batches: usize,
    /// Completed batches by index: the manifest's at open, plus (on rank
    /// 0, the only manifest writer) every commit since.
    completed: BTreeMap<usize, BatchRecord>,
}

impl<'a> BatchLog<'a> {
    /// Open the checkpoint directory for the run identified by the input,
    /// the parameters, the world size and the batch plan. A manifest left
    /// by the same run seeds the resume state; a manifest of any other
    /// run is ignored. Every rank reads the same file with no writer
    /// active, so all ranks derive the same state and the restore
    /// decisions stay uniform — the final word is still the collective
    /// shard-verification vote in [`BatchLog::restore`].
    pub fn open(
        dir: &'a Path,
        world: &'a Comm,
        fasta: &[u8],
        params: &PastisParams,
        ranges: &[(u64, u64)],
    ) -> BatchLog<'a> {
        if world.rank() == 0 {
            // Created up front (and again at world launch by the binary)
            // so per-rank shard writes never race on mkdir.
            let _ = std::fs::create_dir_all(dir);
        }
        let p = world.size();
        let fingerprint = fingerprint(fnv1a(fasta), &params_signature(params), p, ranges);
        let completed = load_manifest(dir)
            .filter(|m| m.fingerprint == fingerprint && m.p == p && m.n_batches == ranges.len())
            .map(|m| m.completed.into_iter().map(|b| (b.index, b)).collect())
            .unwrap_or_default();
        BatchLog {
            dir,
            world,
            fingerprint,
            n_batches: ranges.len(),
            completed,
        }
    }

    /// This rank's shard of batch `k`, when the manifest lists the batch
    /// and *every* rank's shard verifies; any corrupt shard votes the
    /// whole grid back to recomputing the batch, keeping the SUMMA
    /// collectives uniform.
    pub fn restore(&self, k: usize) -> Option<Shard> {
        let rec = self.completed.get(&k)?;
        let mine = rec
            .shard(self.world.rank())
            .and_then(|sr| read_shard(self.dir, k, sr).ok());
        let all_ok = self.world.allreduce(mine.is_some() as u64, |a, b| a.min(b)) == 1;
        mine.filter(|_| all_ok)
    }

    /// Durably record batch `k`: write this rank's shard, then let rank 0
    /// commit the manifest once every shard is on disk.
    pub fn commit(&mut self, k: usize, edges: &[(u64, u64, f64)], delta: &CounterDelta) {
        let rank = self.world.rank();
        let rec =
            write_shard(self.dir, k, rank, edges, delta).expect("checkpoint shard write failed");
        // Rank 0 learns every shard's record, then commits the manifest;
        // the allgather doubles as the barrier that guarantees all shards
        // are durable first.
        let recs = self
            .world
            .allgather((rec.rank as u64, rec.len, rec.checksum));
        if rank == 0 {
            let shards = recs
                .into_iter()
                .map(|(r, len, checksum)| ShardRecord {
                    rank: r as usize,
                    len,
                    checksum,
                })
                .collect();
            self.completed.insert(k, BatchRecord { index: k, shards });
            let m = Manifest {
                version: CKPT_SCHEMA_VERSION,
                fingerprint: self.fingerprint,
                p: self.world.size(),
                n_batches: self.n_batches,
                completed: self.completed.values().cloned().collect(),
            };
            write_manifest(self.dir, &m).expect("checkpoint manifest write failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pastis_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn shard_roundtrip_is_bit_exact() {
        let d = tmpdir("roundtrip");
        let edges = vec![
            (0u64, 7u64, 1.0 / 3.0),
            (2, 5, -0.0),
            (3, 9, f64::MIN_POSITIVE),
        ];
        let delta = CounterDelta {
            candidates: 5,
            alignments: 3,
            striped_culled: 1,
            passed: 1,
            nnz_b: 12,
        };
        let rec = write_shard(&d, 2, 1, &edges, &delta).unwrap();
        let shard = read_shard(&d, 2, &rec).unwrap();
        assert_eq!(shard.delta, delta);
        assert_eq!(shard.edges.len(), edges.len());
        for (a, b) in shard.edges.iter().zip(&edges) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "weight bits must survive");
        }
        // tmp-then-rename leaves no temporary behind.
        assert!(!shard_path(&d, 2, 1).with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupted_shard_is_rejected_by_checksum() {
        let d = tmpdir("corrupt");
        let rec = write_shard(&d, 0, 0, &[(1, 2, 0.5)], &CounterDelta::default()).unwrap();
        let path = shard_path(&d, 0, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let i = bytes.len() - 2;
        bytes[i] ^= 0x01; // same length, different content
        std::fs::write(&path, &bytes).unwrap();
        let err = read_shard(&d, 0, &rec).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");
        // A truncated shard fails on length before checksum.
        std::fs::write(&path, &bytes[..i]).unwrap();
        let err = read_shard(&d, 0, &rec).unwrap_err();
        assert!(err.contains("length"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn manifest_roundtrip_and_version_gate() {
        let d = tmpdir("manifest");
        let m = Manifest {
            version: CKPT_SCHEMA_VERSION,
            fingerprint: 0xdead_beef_cafe_f00d,
            p: 4,
            n_batches: 7,
            completed: vec![BatchRecord {
                index: 0,
                shards: vec![
                    ShardRecord {
                        rank: 0,
                        len: 10,
                        checksum: u64::MAX,
                    },
                    ShardRecord {
                        rank: 1,
                        len: 0,
                        checksum: 3,
                    },
                ],
            }],
        };
        write_manifest(&d, &m).unwrap();
        assert_eq!(load_manifest(&d), Some(m.clone()));
        assert!(!manifest_path(&d).with_extension("tmp").exists());
        // A future-versioned manifest is ignored, not misread.
        let bumped = std::fs::read_to_string(manifest_path(&d)).unwrap().replace(
            &format!("\"version\":{CKPT_SCHEMA_VERSION}"),
            &format!("\"version\":{}", CKPT_SCHEMA_VERSION + 1),
        );
        std::fs::write(manifest_path(&d), bumped).unwrap();
        assert_eq!(load_manifest(&d), None);
        // Garbage is ignored too.
        std::fs::write(manifest_path(&d), "{not json").unwrap();
        assert_eq!(load_manifest(&d), None);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fingerprint_tracks_inputs() {
        let base = fingerprint(1, "sig", 4, &[(0, 10)]);
        assert_ne!(base, fingerprint(2, "sig", 4, &[(0, 10)]));
        assert_ne!(base, fingerprint(1, "sig2", 4, &[(0, 10)]));
        assert_ne!(base, fingerprint(1, "sig", 9, &[(0, 10)]));
        assert_ne!(base, fingerprint(1, "sig", 4, &[(0, 5), (5, 10)]));
        assert_eq!(base, fingerprint(1, "sig", 4, &[(0, 10)]));
    }

    #[test]
    fn signature_ignores_where_and_how_fast() {
        let base = PastisParams::default();
        let sig = params_signature(&base);
        let moved = PastisParams {
            threads: 7,
            ckpt_dir: Some(PathBuf::from("/elsewhere")),
            mem_budget_bytes: Some(1 << 20),
            ..base.clone()
        };
        assert_eq!(sig, params_signature(&moved));
        for changed in [
            PastisParams {
                k: 5,
                ..base.clone()
            },
            PastisParams {
                min_ani: 0.5,
                ..base.clone()
            },
            PastisParams {
                common_kmer_threshold: 1,
                ..base.clone()
            },
        ] {
            assert_ne!(sig, params_signature(&changed));
        }
    }
}
