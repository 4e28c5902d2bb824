//! The frozen benchmark's contract, where tier-1 can see it.
//!
//! `benchmark/` compiles against a fixed list of public items and fails a
//! run on four count equalities and one byte equality. It is a package of
//! its own that `cargo test` at the workspace root never builds, so a PR
//! can break it without tier-1 noticing. This file is a 60-sequence
//! mirror of `benchmark/src/replay.rs` and `spans.rs`: the same public
//! functions called in pipeline order with the same argument shapes, each
//! under its own stacked `obs::Recorder`, asserting what the harness
//! asserts:
//!
//! - `Counters::{nnz_a, nnz_b, Σ candidates_local, alignments_global}` of
//!   `run_pipeline` equal the staged public-API counts;
//! - the per-span recorder sees `spgemm.col_flops`, `align.xdrop_cells`,
//!   `align.dp_cells` and `align.batch.steals` under those names;
//! - the replay's PSG equals `run_pipeline`'s byte for byte, at p=1 and
//!   p=4.
//!
//! Renaming, re-typing or removing anything this file touches breaks the
//! judge; DESIGN.md "Frozen benchmark contract" lists the items.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use align::{align_batch, prefiltered_align_outcome, xdrop_align, AlignStats, PrefilterOutcome};
use datagen::{metaclust_like, MetaclustConfig};
use pastis::{
    batch, build_a_triples, distinct_kmers, run_pipeline, AlignMode, AsSemiring, Counters,
    ExactSemiring, PastisParams, SeedPair, StageMeasure, SubSemiring, Timings,
};
use pcomm::{Comm, CommStats, CostModel, Grid, World};
use seqstore::{DistSeqStore, SIGMA};
use sparse::DistMat;
use subkmer::{build_s_triples, ExpenseTable};

const N_SEQS: usize = 60;
const K: usize = 6;

/// The six benchmark workloads in miniature (`benchmark/src/workloads.rs`).
struct Case {
    name: &'static str,
    mode: AlignMode,
    subs: usize,
    ck: u32,
    ranks: usize,
    threads: usize,
    budget: Option<u64>,
}

const CASES: [Case; 6] = [
    Case {
        name: "xd_exact",
        mode: AlignMode::XDrop,
        subs: 0,
        ck: 0,
        ranks: 1,
        threads: 1,
        budget: None,
    },
    Case {
        name: "sw_exact",
        mode: AlignMode::SmithWaterman,
        subs: 0,
        ck: 0,
        ranks: 1,
        threads: 2,
        budget: None,
    },
    Case {
        name: "subs_ck",
        mode: AlignMode::XDrop,
        subs: 10,
        ck: 3,
        ranks: 1,
        threads: 1,
        budget: None,
    },
    Case {
        name: "sparse_only",
        mode: AlignMode::None,
        subs: 0,
        ck: 0,
        ranks: 1,
        threads: 1,
        budget: None,
    },
    Case {
        name: "xd_grid4",
        mode: AlignMode::XDrop,
        subs: 0,
        ck: 0,
        ranks: 4,
        threads: 1,
        budget: None,
    },
    Case {
        name: "ooc_ckpt",
        mode: AlignMode::XDrop,
        subs: 0,
        ck: 0,
        ranks: 4,
        threads: 1,
        budget: Some(64 << 10),
    },
];

impl Case {
    /// `Workload::params`: every field the harness sets, by name.
    fn params(&self, ckpt_dir: &Path) -> PastisParams {
        PastisParams {
            k: K,
            substitutes: self.subs,
            mode: self.mode,
            common_kmer_threshold: self.ck,
            measure: align::SimilarityMeasure::Ani,
            min_ani: 0.30,
            min_coverage: 0.70,
            threads: self.threads,
            mem_budget_bytes: self.budget,
            ckpt_dir: self.budget.map(|_| ckpt_dir.to_path_buf()),
            ..PastisParams::default()
        }
    }
}

/// `Workload::fasta`.
fn fasta(seed: u64) -> Vec<u8> {
    seqstore::write_fasta(&metaclust_like(
        N_SEQS,
        &MetaclustConfig {
            seed,
            len_range: (100, 300),
            related_fraction: 0.3,
            mutation_rate: 0.12,
        },
    ))
}

/// `psg::format_psg`: the binary's rendering of an edge set.
fn format_psg(mut edges: Vec<(u64, u64, f64)>) -> Vec<u8> {
    edges.sort_by(|a, b| a.partial_cmp(b).expect("weights are never NaN"));
    let mut out = String::new();
    for (i, j, w) in edges {
        writeln!(out, "mc{i}\tmc{j}\t{w:.4}").expect("writing to a String cannot fail");
    }
    out.into_bytes()
}

/// What one harness span carries away from the layer call it wraps.
struct SpanRec {
    name: &'static str,
    comm: CommStats,
    counts: Vec<(String, u64)>,
}

/// `spans::Tracer`, minus the clock: a recorder of its own per span,
/// stacked on whatever recorder an enclosing span installed.
struct Tracer<'a> {
    comm: &'a Comm,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl<'a> Tracer<'a> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            comm: CommStats::default(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        let rec = obs::Recorder::install(self.comm.rank());
        let before = self.comm.stats();
        let out = f(self);
        let span = &mut self.spans[idx];
        span.comm = self.comm.stats() - before;
        let metrics = rec.finish().metrics;
        span.counts.extend(metrics.counters);
        span.counts.extend(
            metrics
                .hists
                .into_iter()
                .map(|(k, h)| (format!("{k}.sum"), h.sum)),
        );
        self.open.pop();
        out
    }

    fn count(&mut self, key: &str, value: u64) {
        let idx = *self.open.last().expect("count() outside any span");
        self.spans[idx].counts.push((key.to_string(), value));
    }
}

enum Verdict {
    Stats(AlignStats),
    CulledBitpack,
    CulledScore,
    NoSeed,
}

/// `replay::align_pair`: the pipeline's private per-pair dispatch.
fn align_pair(
    gi: u64,
    gj: u64,
    pair: &SeedPair,
    store: &DistSeqStore,
    params: &PastisParams,
) -> (Verdict, u64) {
    let r = &store.row_seq(gi).expect("row sequence exchanged").data;
    let c = &store.col_seq(gj).expect("col sequence exchanged").data;
    match params.mode {
        AlignMode::None => unreachable!("alignment-free workloads never dispatch a pair"),
        AlignMode::SmithWaterman => {
            let v = match prefiltered_align_outcome(r, c, &params.align, params.min_score) {
                PrefilterOutcome::Passed(st) => Verdict::Stats(st),
                PrefilterOutcome::CulledBitpack => Verdict::CulledBitpack,
                PrefilterOutcome::CulledScore => Verdict::CulledScore,
            };
            (v, 0)
        }
        AlignMode::XDrop => {
            let k = params.k;
            let mut best: Option<AlignStats> = None;
            let mut done_diags: Vec<i64> = Vec::with_capacity(2);
            for &(rp, cp) in pair.seeds() {
                if rp as usize + k > r.len() || cp as usize + k > c.len() {
                    continue;
                }
                let diag = rp as i64 - cp as i64;
                if done_diags.contains(&diag) {
                    continue;
                }
                done_diags.push(diag);
                let st = xdrop_align(r, c, rp, cp, k, &params.align);
                if best.as_ref().is_none_or(|b| st.score >= b.score) {
                    best = Some(st);
                }
            }
            let v = best.map_or(Verdict::NoSeed, Verdict::Stats);
            (v, done_diags.len() as u64)
        }
    }
}

/// `replay::replay_rank`: one rank's staged walk through the layers.
fn replay_rank(
    comm: &Comm,
    fasta: &[u8],
    params: &PastisParams,
) -> (Vec<SpanRec>, Vec<(u64, u64, f64)>) {
    let mut tr = Tracer {
        comm,
        spans: Vec::new(),
        open: Vec::new(),
    };
    let edges = tr.span("replay.rank", |tr| {
        let grid = Rc::new(Grid::new(comm));
        let q = grid.q() as u64;

        let mut store = tr.span("seqstore.store", |_| DistSeqStore::from_fasta(comm, fasta));
        let n = store.len();
        let block = |i: usize| (i as u64 * n / q, (i as u64 + 1) * n / q);
        let (row_range, col_range) = (block(grid.myrow()), block(grid.mycol()));
        tr.span("seqstore.exchange", |_| {
            let exchange = store.start_exchange(&grid, row_range, col_range);
            store.finish_exchange(exchange);
        });

        let triples = tr.span("pastis.build_a", |_| {
            build_a_triples(store.owned(), params.k, params.reduced_alphabet)
        });
        let space = (SIGMA as u64).pow(params.k as u32);
        let a_mat = tr.span("sparse.from_triples", |tr| {
            let a =
                DistMat::from_triples(Rc::clone(&grid), n, space, triples, |a, b| *a = (*a).min(b));
            tr.count("nnz", a.nnz_local() as u64);
            a
        });
        let a_t = tr.span("sparse.transpose", |_| a_mat.transpose());

        if let Some(budget) = params.mem_budget_bytes {
            tr.span("pastis.plan", |tr| {
                let plan = batch::plan(&grid, &a_t, budget);
                tr.count("batches", plan.ranges.len() as u64);
            });
        }

        let b_mat = if params.substitutes > 0 {
            let s_mat = tr.span("pastis.build_s", |tr| {
                let table = ExpenseTable::new(params.align.matrix);
                let kmers = distinct_kmers(store.owned(), params.k);
                let s_triples = tr.span("subkmer.search", |_| {
                    build_s_triples(&kmers, params.k, &table, params.substitutes)
                });
                DistMat::from_triples(Rc::clone(&grid), space, space, s_triples, |a, b| {
                    *a = (*a).min(b)
                })
            });
            let as_mat = tr.span("sparse.spgemm_as", |_| {
                a_mat.spgemm(&s_mat, &AsSemiring, params.spgemm)
            });
            let b0 = tr.span("sparse.spgemm_b", |_| {
                as_mat.spgemm(&a_t, &SubSemiring, params.spgemm)
            });
            tr.span("sparse.symmetrize", |_| {
                let swapped = b0.transpose().map(|_, _, v| v.swapped());
                b0.elementwise_add(&swapped, |acc, v| acc.merge_symmetric(v))
            })
        } else {
            tr.span("sparse.spgemm_b", |_| {
                a_mat.spgemm(&a_t, &ExactSemiring, params.spgemm)
            })
        };
        tr.count("b_nnz", b_mat.nnz_local() as u64);

        let mut candidates = 0u64;
        let mut tasks: Vec<(u64, u64, SeedPair)> = Vec::new();
        for (gi, gj, pair) in b_mat.iter_local() {
            let (li, lj) = (gi - row_range.0, gj - col_range.0);
            let owned = li < lj || (li == lj && grid.myrow() <= grid.mycol());
            if gi == gj || !owned {
                continue;
            }
            candidates += 1;
            if pair.count > params.common_kmer_threshold {
                tasks.push((gi, gj, *pair));
            }
        }
        tr.count("candidates", candidates);

        let ordered = |gi: u64, gj: u64| if gi < gj { (gi, gj) } else { (gj, gi) };
        if params.mode == AlignMode::None {
            return tasks
                .iter()
                .map(|&(gi, gj, pair)| {
                    let (lo, hi) = ordered(gi, gj);
                    (lo, hi, pair.count as f64)
                })
                .collect();
        }
        tr.span("align.batch", |tr| {
            let verdicts = align_batch(&tasks, params.threads, |&(gi, gj, ref pair)| {
                align_pair(gi, gj, pair, &store, params)
            });
            let mut edges = Vec::new();
            for (&(gi, gj, _), (verdict, _)) in tasks.iter().zip(verdicts) {
                if let Verdict::Stats(st) = verdict {
                    assert!(st.score > 0, "a seeded pair scores at least its seed");
                    if st.passes_filter(params.min_ani, params.min_coverage) {
                        let (lo, hi) = ordered(gi, gj);
                        edges.push((lo, hi, st.ani()));
                    }
                }
            }
            tr.count("pairs", tasks.len() as u64);
            edges
        })
    });
    (tr.spans, edges)
}

struct PipelineRun {
    timings: Timings,
    counters: Counters,
    candidates: u64,
    psg: Vec<u8>,
}

/// `replay::run_in_process`.
fn run_in_process(case: &Case, fasta: &[u8], ckpt_dir: &Path) -> PipelineRun {
    let params = case.params(ckpt_dir);
    let runs = World::run(case.ranks, |comm| run_pipeline(&comm, fasta, &params));
    let mut timings = Timings::default();
    let fold = |acc: &mut StageMeasure, m: &StageMeasure| *acc = acc.clone().max(m.clone());
    for run in &runs {
        let t = &run.timings;
        fold(&mut timings.fasta, &t.fasta);
        fold(&mut timings.form_a, &t.form_a);
        fold(&mut timings.tr_a, &t.tr_a);
        fold(&mut timings.form_s, &t.form_s);
        fold(&mut timings.a_s, &t.a_s);
        fold(&mut timings.spgemm_b, &t.spgemm_b);
        fold(&mut timings.symmetricize, &t.symmetricize);
        fold(&mut timings.wait, &t.wait);
        fold(&mut timings.align, &t.align);
        timings.total = timings.total.max(t.total);
    }
    PipelineRun {
        timings,
        counters: runs[0].counters,
        candidates: runs.iter().map(|r| r.counters.candidates_local).sum(),
        psg: format_psg(runs.into_iter().flat_map(|r| r.edges).collect()),
    }
}

fn scratch_dir(case: &Case) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pastis-harness-contract-{}-{}",
        std::process::id(),
        case.name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir created");
    dir
}

/// The benchmark's reference seed, and three seeds at which operand order
/// once leaked the grid into an edge weight (DESIGN.md §7).
const SEEDS: [u64; 4] = [7, 26, 1400845388, 548563997];

#[test]
fn replay_through_the_public_api_agrees_with_run_pipeline() {
    for seed in SEEDS {
        let fasta = fasta(seed);
        assert_eq!(seqstore::parse_fasta(&fasta).len(), N_SEQS);
        for case in &CASES {
            let dir = scratch_dir(case);
            obs::blackbox::set_dump_dir(&dir);
            let params = case.params(&dir.join("ckpt_replay"));
            let per_rank = World::run(case.ranks, |comm| replay_rank(&comm, &fasta, &params));
            let (rank_spans, rank_edges): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
            let spans: Vec<SpanRec> = rank_spans.into_iter().flatten().collect();
            let replay_psg = format_psg(rank_edges.into_iter().flatten().collect());
            let sum = |span: &str, key: &str| -> u64 {
                spans
                    .iter()
                    .filter(|s| s.name == span)
                    .flat_map(|s| &s.counts)
                    .filter(|(k, _)| k == key)
                    .map(|&(_, v)| v)
                    .sum()
            };
            let has = |span: &str, key: &str| {
                spans
                    .iter()
                    .any(|s| s.name == span && s.counts.iter().any(|(k, _)| k == key))
            };

            let pipe = run_in_process(case, &fasta, &dir.join("ckpt_inproc"));

            // The run-failing equalities of `benchmark/src/main.rs`.
            let ctx = format!("{} at seed {seed}", case.name);
            assert_eq!(
                pipe.counters.nnz_a,
                sum("sparse.from_triples", "nnz"),
                "{ctx}: nnz_a"
            );
            assert_eq!(
                pipe.counters.nnz_b,
                sum("replay.rank", "b_nnz"),
                "{ctx}: nnz_b"
            );
            assert_eq!(
                pipe.candidates,
                sum("replay.rank", "candidates"),
                "{ctx}: candidates"
            );
            assert_eq!(
                pipe.counters.alignments_global,
                sum("align.batch", "pairs"),
                "{ctx}: alignments"
            );
            assert_eq!(
                pastis::ckpt::fnv1a(&replay_psg),
                pastis::ckpt::fnv1a(&pipe.psg),
                "{ctx}: PSG checksum"
            );
            assert_eq!(
                replay_psg, pipe.psg,
                "{ctx}: replay PSG == run_pipeline PSG"
            );
            assert_eq!(
                pipe.counters.edges_global,
                replay_psg.iter().filter(|&&b| b == b'\n').count() as u64,
                "{ctx}: edges"
            );
            assert!(pipe.candidates > 0, "{ctx}: the dataset yields candidates");

            // Metric names the per-layer table is read from.
            assert!(
                sum("sparse.spgemm_b", "spgemm.col_flops.sum") > 0,
                "{ctx}: flops"
            );
            match case.mode {
                AlignMode::XDrop => {
                    assert!(
                        sum("align.batch", "align.xdrop_cells.sum") > 0,
                        "{ctx}: x-drop cells"
                    );
                }
                AlignMode::SmithWaterman => {
                    assert!(
                        sum("align.batch", "align.dp_cells.sum") > 0,
                        "{ctx}: DP cells"
                    );
                    assert!(has("align.batch", "align.batch.steals"), "{ctx}: steals");
                }
                AlignMode::None => assert!(!has("align.batch", "pairs")),
            }
            if case.budget.is_some() {
                let batches = spans
                    .iter()
                    .filter(|s| s.name == "pastis.plan")
                    .map(|s| s.counts.iter().find(|(k, _)| k == "batches").unwrap().1)
                    .collect::<Vec<_>>();
                assert_eq!(batches.len(), case.ranks);
                assert!(
                    batches[0] >= 2 && batches.iter().all(|&b| b == batches[0]),
                    "{ctx}: {batches:?}"
                );
            }
            if case.ranks > 1 {
                let rank_span = spans.iter().find(|s| s.name == "replay.rank").unwrap();
                assert!(rank_span.comm.bytes_sent > 0 && rank_span.comm.msgs_sent > 0);
                let _ = rank_span.comm.wait_nanos;
            }

            // The cost-model columns.
            let model = CostModel::default();
            let t = &pipe.timings;
            assert!(t.total > 0.0 && t.sparse_secs() >= 0.0);
            assert!(t.total_modeled_secs(&model) > 0.0);
            assert!(t.spgemm_b.secs > 0.0 && t.spgemm_b.modeled_secs(&model) > 0.0);
            if case.subs > 0 {
                assert!(t.form_s.secs > 0.0 && t.a_s.secs > 0.0 && t.symmetricize.secs > 0.0);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn result_object_parses_the_way_the_suite_reads_it() {
    let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#;
    let doc = obs::JsonValue::parse(line).expect("result object parses");
    assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(9));
    let wall = doc.get("metrics").and_then(|m| m.get("wall_s"));
    assert_eq!(
        wall.and_then(|w| w.get("value")).and_then(|v| v.as_f64()),
        Some(1.25)
    );
}
