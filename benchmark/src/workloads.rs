//! The six fixed workloads. Sizes and flags are constants: the harness has
//! no repetition or size knob, so a number means the same thing on every
//! commit.

use std::path::Path;

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{AlignMode, PastisParams};

/// K-mer length, ANI and coverage cut-offs: passed to the child explicitly
/// (and set on the in-process params) so a later change of the binary's
/// defaults cannot silently redefine a workload.
pub const K: usize = 6;
pub const MIN_ANI: f64 = 0.30;
pub const MIN_COV: f64 = 0.70;

/// The seed the committed PSG references were recorded at.
pub const REFERENCE_SEED: u64 = 7;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    /// Dataset size: `datagen::metaclust_like(n_seqs, seed)`.
    pub n_seqs: usize,
    pub mode: AlignMode,
    pub subs: usize,
    pub ck: u32,
    pub ranks: usize,
    pub threads: usize,
    /// `--mem-budget` as typed and in bytes; also turns `--ckpt-dir` on.
    pub ooc_budget: Option<(&'static str, u64)>,
    /// A workload whose PSG must be byte-identical to this one's.
    pub same_psg_as: Option<&'static str>,
    /// `(edges, FNV-1a)` of the PSG at [`REFERENCE_SEED`].
    pub reference: (u64, u64),
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "xd_exact",
        why: "Default mode, 3.5k seqs, p=1: x-drop alignment is ~80% of wall, so an x-drop change must show here and nowhere that bypasses x-drop",
        n_seqs: 3500,
        mode: AlignMode::XDrop,
        subs: 0,
        ck: 0,
        ranks: 1,
        threads: 1,
        ooc_budget: None,
        same_psg_as: None,
        reference: (2368, 0x29b6_15cd_1343_5a8a),
    },
    Workload {
        name: "sw_exact",
        why: "Same candidates as xd_exact through the other use of align: bitpack->striped->traceback cascade on the 2-thread work-stealing pool",
        n_seqs: 3500,
        mode: AlignMode::SmithWaterman,
        subs: 0,
        ck: 0,
        ranks: 1,
        threads: 2,
        ooc_budget: None,
        same_psg_as: None,
        reference: (2368, 0x894f_bc8d_5a31_0784),
    },
    Workload {
        name: "subs_ck",
        why: "The paper's substitute-k-mer path (s=25, CK=3): only workload where subkmer, the AS/Sub semirings and symmetrisation run; largest RSS per sequence",
        n_seqs: 400,
        mode: AlignMode::XDrop,
        subs: 25,
        ck: 3,
        ranks: 1,
        threads: 1,
        ooc_budget: None,
        same_psg_as: None,
        reference: (241, 0xc3e8_115d_2b0a_9c05),
    },
    Workload {
        name: "sparse_only",
        why: "The paper's scaling protocol (--mode none, 10k seqs): sparse stages and pipeline glue are ~100% of wall; the null workload for every align change",
        n_seqs: 10_000,
        mode: AlignMode::None,
        subs: 0,
        ck: 0,
        ranks: 1,
        threads: 1,
        ooc_budget: None,
        same_psg_as: None,
        reference: (82_493, 0x9ef8_c1f4_9b5c_c251),
    },
    Workload {
        name: "xd_grid4",
        why: "xd_exact's input on a 2x2 grid: pcomm collectives, SUMMA panel broadcasts, sequence exchange, align-while-broadcast overlap; PSG identical to xd_exact",
        n_seqs: 3500,
        mode: AlignMode::XDrop,
        subs: 0,
        ck: 0,
        ranks: 4,
        threads: 1,
        ooc_budget: None,
        same_psg_as: Some("xd_exact"),
        reference: (2368, 0x29b6_15cd_1343_5a8a),
    },
    Workload {
        name: "ooc_ckpt",
        why: "xd_grid4 plus --mem-budget 16m --ckpt-dir: the same layers per column batch with checksummed shard writes; its gap to xd_grid4 prices batch+ckpt",
        n_seqs: 3500,
        mode: AlignMode::XDrop,
        subs: 0,
        ck: 0,
        ranks: 4,
        threads: 1,
        ooc_budget: Some(("16m", 16 << 20)),
        same_psg_as: Some("xd_exact"),
        reference: (2368, 0x29b6_15cd_1343_5a8a),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The FASTA the workload runs on; same seed, same bytes.
    pub fn fasta(&self, seed: u64) -> Vec<u8> {
        seqstore::write_fasta(&metaclust_like(
            self.n_seqs,
            &MetaclustConfig {
                seed,
                len_range: (100, 300),
                related_fraction: 0.3,
                mutation_rate: 0.12,
            },
        ))
    }

    fn mode_flag(&self) -> &'static str {
        match self.mode {
            AlignMode::XDrop => "xd",
            AlignMode::SmithWaterman => "sw",
            AlignMode::None => "none",
        }
    }

    /// Arguments of the `pastis` child, every flag explicit. `ckpt_dir`
    /// is used only by the out-of-core workload.
    pub fn child_args(&self, fasta: &Path, psg: &Path, ckpt_dir: &Path) -> Vec<String> {
        let path = |p: &Path| p.to_string_lossy().into_owned();
        let mut args = vec![
            "--input".to_string(),
            path(fasta),
            "--output".to_string(),
            path(psg),
            "--quiet".to_string(),
        ];
        for (flag, val) in [
            ("--ranks", self.ranks.to_string()),
            ("--threads", self.threads.to_string()),
            ("--k", K.to_string()),
            ("--subs", self.subs.to_string()),
            ("--mode", self.mode_flag().to_string()),
            ("--ck", self.ck.to_string()),
            ("--measure", "ani".to_string()),
            ("--min-ani", MIN_ANI.to_string()),
            ("--min-cov", MIN_COV.to_string()),
        ] {
            args.push(flag.to_string());
            args.push(val);
        }
        if let Some((typed, _)) = self.ooc_budget {
            args.extend([
                "--mem-budget".to_string(),
                typed.to_string(),
                "--ckpt-dir".to_string(),
                path(ckpt_dir),
            ]);
        }
        args
    }

    /// The same configuration for the in-process pipeline and the replay.
    pub fn params(&self, ckpt_dir: &Path) -> PastisParams {
        PastisParams {
            k: K,
            substitutes: self.subs,
            mode: self.mode,
            common_kmer_threshold: self.ck,
            measure: align::SimilarityMeasure::Ani,
            min_ani: MIN_ANI,
            min_coverage: MIN_COV,
            threads: self.threads,
            mem_budget_bytes: self.ooc_budget.map(|(_, bytes)| bytes),
            ckpt_dir: self.ooc_budget.map(|_| ckpt_dir.to_path_buf()),
            ..PastisParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fasta_other_seed_other_fasta() {
        let w = find("subs_ck").unwrap();
        let a = pastis::ckpt::fnv1a(&w.fasta(7));
        assert_eq!(a, pastis::ckpt::fnv1a(&w.fasta(7)));
        assert_ne!(a, pastis::ckpt::fnv1a(&w.fasta(8)));
    }

    #[test]
    fn identity_partners_share_input_and_exist() {
        for w in &WORKLOADS {
            if let Some(other) = w.same_psg_as {
                let o = find(other).expect("partner exists");
                assert_eq!((w.n_seqs, w.subs, w.ck), (o.n_seqs, o.subs, o.ck));
                assert_eq!(w.mode, o.mode);
            }
        }
    }

    #[test]
    fn child_flags_and_params_agree() {
        let w = find("ooc_ckpt").unwrap();
        let args = w.child_args(Path::new("in.fa"), Path::new("o.tsv"), Path::new("ck"));
        let val = |flag: &str| {
            let i = args.iter().position(|a| a == flag).expect(flag);
            args[i + 1].clone()
        };
        let p = w.params(Path::new("ck"));
        assert_eq!(val("--k"), p.k.to_string());
        assert_eq!(val("--ranks"), "4");
        assert_eq!(val("--min-ani"), "0.3");
        assert_eq!(val("--mem-budget"), "16m");
        assert_eq!(p.mem_budget_bytes, Some(16 << 20));
        assert_eq!(p.ckpt_dir.as_deref(), Some(Path::new("ck")));
        assert!(!find("xd_grid4")
            .unwrap()
            .child_args(Path::new("a"), Path::new("b"), Path::new("c"))
            .contains(&"--ckpt-dir".to_string()));
    }
}
