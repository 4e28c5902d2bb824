//! The traced replay: the pipeline's layers called one by one through
//! their public functions, in pipeline order, each under a harness span —
//! plus one stopwatched in-process `run_pipeline` to reconcile against.
//!
//! The replay is *staged* (materialise `B`, then align) where the binary
//! streams, and it re-implements the pipeline's private per-pair dispatch
//! (`align_pair` in `pastis::pipeline`). What licenses reading its layer
//! times as the binary's is that its edge set must equal the binary's,
//! byte for byte; the runner checks that on every iteration. End-to-end
//! metrics never come from here.

use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use align::{align_batch, prefiltered_align_outcome, xdrop_align, AlignStats, PrefilterOutcome};
use pastis::{
    batch, build_a_triples, distinct_kmers, run_pipeline, AlignMode, AsSemiring, Counters,
    ExactSemiring, PastisParams, SeedPair, StageMeasure, SubSemiring, Timings,
};
use pcomm::{Comm, CostModel, Grid, World};
use seqstore::{DistSeqStore, SIGMA};
use sparse::DistMat;
use subkmer::{build_s_triples, ExpenseTable};

use crate::metrics::{ratio, Values};
use crate::psg::format_psg;
use crate::spans::{merge, Span, Tracer};
use crate::workloads::Workload;

/// Name of the per-rank span whose children are the layer calls.
pub const RANK_SPAN: &str = "replay.rank";

/// The layer spans directly under [`RANK_SPAN`], in pipeline order. Their
/// durations (max over ranks) are the "replayed layer times" that, with
/// `pastis.glue_s`, sum to `pastis.pipeline_s`.
pub const LAYER_SPANS: [&str; 11] = [
    "seqstore.store",
    "seqstore.exchange",
    "pastis.build_a",
    "sparse.from_triples",
    "sparse.transpose",
    "pastis.plan",
    "pastis.build_s",
    "sparse.spgemm_as",
    "sparse.spgemm_b",
    "sparse.symmetrize",
    "align.batch",
];

pub struct Replay {
    pub spans: Vec<Span>,
    /// The replay's edge set rendered as the binary renders its PSG.
    pub psg: Vec<u8>,
}

impl Replay {
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Sum over ranks of a count attached to the spans called `name`.
    pub fn sum(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|s| s.count(key)).sum()
    }
}

enum Verdict {
    Stats(AlignStats),
    CulledBitpack,
    CulledScore,
    NoSeed,
}

/// One candidate pair under the workload's mode: the pipeline's private
/// `align_pair`, minus its opt-in x-drop prefilter (`min_score > 1`),
/// which no workload turns on. Returns the verdict and how many seeds
/// were extended.
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
            // Extend from each stored seed, first seed per diagonal only,
            // keeping the last best score.
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

/// One rank's replay. Collective over `comm`.
fn replay_rank(
    comm: &Comm,
    epoch: Instant,
    fasta: &[u8],
    params: &PastisParams,
) -> (Vec<Span>, Vec<(u64, u64, f64)>) {
    assert_eq!(
        params.min_score, 1,
        "replay omits the opt-in x-drop prefilter"
    );
    let mut tr = Tracer::new(epoch, comm.rank(), Some(comm));
    let edges = tr.span(RANK_SPAN, |tr| {
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
            tr.count("triples", triples.len() as u64);
            let a =
                DistMat::from_triples(Rc::clone(&grid), n, space, triples, |a, b| *a = (*a).min(b));
            tr.count("nnz", a.nnz_local() as u64);
            a
        });
        let a_t = tr.span("sparse.transpose", |tr| {
            tr.count("nnz", a_mat.nnz_local() as u64);
            a_mat.transpose()
        });

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
                // `pastis::build_s_dist` is these two calls; split here so
                // the search kernel gets a span of its own and S assembly
                // is what is left of `pastis.build_s`.
                let s_triples = tr.span("subkmer.search", |tr| {
                    tr.count("searches", kmers.len() as u64);
                    build_s_triples(&kmers, params.k, &table, params.substitutes)
                });
                let s = DistMat::from_triples(Rc::clone(&grid), space, space, s_triples, |a, b| {
                    *a = (*a).min(b)
                });
                tr.count("nnz", s.nnz_local() as u64);
                s
            });
            let as_mat = tr.span("sparse.spgemm_as", |_| {
                a_mat.spgemm(&s_mat, &AsSemiring, params.spgemm)
            });
            let b0 = tr.span("sparse.spgemm_b", |tr| {
                let b0 = as_mat.spgemm(&a_t, &SubSemiring, params.spgemm);
                tr.count("out_nnz", b0.nnz_local() as u64);
                b0
            });
            tr.span("sparse.symmetrize", |_| {
                let swapped = b0.transpose().map(|_, _, v| v.swapped());
                b0.elementwise_add(&swapped, |acc, v| acc.merge_symmetric(v))
            })
        } else {
            tr.span("sparse.spgemm_b", |tr| {
                let b = a_mat.spgemm(&a_t, &ExactSemiring, params.spgemm);
                tr.count("out_nnz", b.nnz_local() as u64);
                b
            })
        };
        tr.count("b_nnz", b_mat.nnz_local() as u64);

        // Candidate extraction — pipeline glue, so it stays in the rank
        // span's self time: owned upper-triangle entries, then the
        // common-k-mer threshold.
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
            let (mut seeds, mut bitpack, mut score, mut passed) = (0u64, 0u64, 0u64, 0u64);
            for (&(gi, gj, _), (verdict, extended)) in tasks.iter().zip(verdicts) {
                seeds += extended;
                match verdict {
                    Verdict::NoSeed => {}
                    Verdict::CulledBitpack => bitpack += 1,
                    Verdict::CulledScore => score += 1,
                    Verdict::Stats(st) => {
                        passed += 1;
                        if st.passes_filter(params.min_ani, params.min_coverage) {
                            let (lo, hi) = ordered(gi, gj);
                            edges.push((lo, hi, st.ani()));
                        }
                    }
                }
            }
            tr.count("pairs", tasks.len() as u64);
            tr.count("seeds_extended", seeds);
            tr.count("bitpack_culled", bitpack);
            tr.count("score_culled", score);
            tr.count("passed", passed);
            tr.count("edges", edges.len() as u64);
            edges
        })
    });
    (tr.finish(), edges)
}

/// Replay `fasta` on the workload's grid.
pub fn replay(w: &Workload, fasta: &[u8], ckpt_dir: &Path) -> Replay {
    let params = w.params(ckpt_dir);
    let epoch = Instant::now();
    let mut main = Tracer::new(epoch, 0, None);
    let per_rank = main.span("replay", |tr| {
        tr.span("seqstore.parse", |tr| {
            tr.count("bytes", fasta.len() as u64);
            tr.count("records", seqstore::parse_fasta(fasta).len() as u64);
        });
        World::run(w.ranks, |comm| replay_rank(&comm, epoch, fasta, &params))
    });
    let (rank_spans, rank_edges): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
    let mut parts = vec![main.finish()];
    parts.extend(rank_spans);
    Replay {
        spans: merge(parts),
        psg: format_psg(rank_edges.into_iter().flatten().collect()),
    }
}

/// One stopwatched in-process `run_pipeline`, configured as the child is.
pub struct PipelineRun {
    /// Stopwatch around `run_pipeline`, max over ranks.
    pub secs: f64,
    /// Per-stage critical path across ranks, as the binary's dissection
    /// would print it.
    pub timings: Timings,
    /// Rank 0's counters (the global fields are identical on every rank).
    pub counters: Counters,
    /// Candidate pairs, summed over the ranks that own them.
    pub candidates: u64,
    pub psg: Vec<u8>,
}

pub fn run_in_process(w: &Workload, fasta: &[u8], ckpt_dir: &Path) -> PipelineRun {
    let params = w.params(ckpt_dir);
    let runs = World::run(w.ranks, |comm| {
        let start = Instant::now();
        let run = run_pipeline(&comm, fasta, &params);
        (start.elapsed().as_secs_f64(), run)
    });
    let mut timings = Timings::default();
    let fold = |acc: &mut StageMeasure, m: &StageMeasure| *acc = acc.clone().max(m.clone());
    for (_, run) in &runs {
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
        secs: runs.iter().map(|(s, _)| *s).fold(0.0, f64::max),
        timings,
        counters: runs[0].1.counters,
        candidates: runs.iter().map(|(_, r)| r.counters.candidates_local).sum(),
        psg: format_psg(runs.into_iter().flat_map(|(_, r)| r.edges).collect()),
    }
}

/// What the timed child of the same iteration contributed.
pub struct ChildSide {
    pub wall_s: f64,
    pub out_bytes: u64,
    pub ckpt_files: u64,
    pub ckpt_bytes: u64,
}

/// Every per-layer metric of one iteration. Times are max over ranks,
/// counts sums over ranks.
pub fn layer_values(replay: &Replay, pipe: &PipelineRun, child: &ChildSide) -> Values {
    let named = |name: &'static str| replay.named(name);
    let secs = |name| named(name).map(Span::secs).fold(0.0, f64::max);
    let sum = |name, key: &str| replay.sum(name, key) as f64;
    let bytes = |name| named(name).map(|s| s.comm.bytes_sent).sum::<u64>() as f64;
    // Load imbalance of a layer: slowest rank over the mean rank.
    let lambda = |name| {
        let per_rank: Vec<f64> = named(name).map(Span::secs).collect();
        let mean = per_rank.iter().sum::<f64>() / per_rank.len().max(1) as f64;
        ratio(per_rank.iter().copied().fold(0.0, f64::max), mean)
    };

    let mut v = Values::new();
    let fasta_bytes = sum("seqstore.parse", "bytes");
    v.insert("seqstore.parse_s", secs("seqstore.parse"));
    v.insert(
        "seqstore.parse_mb_per_s",
        ratio(fasta_bytes / 1e6, secs("seqstore.parse")),
    );
    v.insert("seqstore.store_s", secs("seqstore.store"));
    v.insert("seqstore.exchange_s", secs("seqstore.exchange"));
    v.insert("seqstore.exchange_bytes", bytes("seqstore.exchange"));

    let layer_sum: f64 = LAYER_SPANS.iter().map(|&name| secs(name)).sum();
    let glue = pipe.secs - layer_sum;
    v.insert("pastis.build_a_s", secs("pastis.build_a"));
    v.insert("pastis.a_nnz", pipe.counters.nnz_a as f64);
    v.insert("pastis.b_nnz", pipe.counters.nnz_b as f64);
    v.insert("pastis.candidates", pipe.candidates as f64);
    v.insert("pastis.alignments", pipe.counters.alignments_global as f64);
    v.insert("pastis.edges", pipe.counters.edges_global as f64);
    v.insert("pastis.pipeline_s", pipe.secs);
    v.insert("pastis.glue_s", glue);
    v.insert("pastis.glue_share", ratio(glue, pipe.secs));
    v.insert("pastis.proc_overhead_s", child.wall_s - pipe.secs);
    v.insert("pastis.out_bytes", child.out_bytes as f64);
    v.insert("pastis.plan_s", secs("pastis.plan"));
    // Every rank computes the identical plan; report it once.
    let batches = named("pastis.plan").map(|s| s.count("batches")).max();
    v.insert("pastis.ooc_batches", batches.unwrap_or(0) as f64);
    v.insert("pastis.ckpt_files", child.ckpt_files as f64);
    v.insert("pastis.ckpt_bytes", child.ckpt_bytes as f64);
    v.insert("pastis.build_s_s", secs("pastis.build_s"));

    let searches = sum("subkmer.search", "searches");
    v.insert("subkmer.searches", searches);
    v.insert("subkmer.search_s", secs("subkmer.search"));
    v.insert(
        "subkmer.searches_per_s",
        ratio(searches, secs("subkmer.search")),
    );
    v.insert("subkmer.s_nnz", sum("pastis.build_s", "nnz"));

    let a_nnz = sum("sparse.from_triples", "nnz");
    let flops = sum("sparse.spgemm_b", "spgemm.col_flops.sum");
    let out_nnz = sum("sparse.spgemm_b", "out_nnz");
    v.insert("sparse.from_triples_s", secs("sparse.from_triples"));
    v.insert(
        "sparse.from_triples_ns_per_nnz",
        ratio(secs("sparse.from_triples") * 1e9, a_nnz),
    );
    v.insert("sparse.transpose_s", secs("sparse.transpose"));
    v.insert(
        "sparse.transpose_ns_per_nnz",
        ratio(secs("sparse.transpose") * 1e9, a_nnz),
    );
    v.insert("sparse.spgemm_b_s", secs("sparse.spgemm_b"));
    v.insert("sparse.spgemm_flops", flops);
    v.insert(
        "sparse.spgemm_mflops_per_s",
        ratio(flops / 1e6, secs("sparse.spgemm_b")),
    );
    v.insert("sparse.spgemm_out_nnz", out_nnz);
    v.insert("sparse.compression", ratio(flops, out_nnz));
    v.insert("sparse.spgemm_as_s", secs("sparse.spgemm_as"));
    v.insert("sparse.symmetrize_s", secs("sparse.symmetrize"));
    v.insert("sparse.rank_lambda", lambda("sparse.spgemm_b"));

    let pairs = sum("align.batch", "pairs");
    let cells =
        sum("align.batch", "align.xdrop_cells.sum") + sum("align.batch", "align.dp_cells.sum");
    let batch_s = secs("align.batch");
    v.insert("align.pairs", pairs);
    v.insert("align.batch_s", batch_s);
    v.insert("align.pairs_per_s", ratio(pairs, batch_s));
    v.insert("align.cells", cells);
    v.insert("align.mcells_per_s", ratio(cells / 1e6, batch_s));
    v.insert("align.ns_per_cell", ratio(batch_s * 1e9, cells));
    v.insert(
        "align.edge_yield",
        ratio(sum("align.batch", "edges"), pairs),
    );
    v.insert("align.seeds_extended", sum("align.batch", "seeds_extended"));
    v.insert("align.bitpack_culled", sum("align.batch", "bitpack_culled"));
    v.insert("align.score_culled", sum("align.batch", "score_culled"));
    v.insert("align.passed", sum("align.batch", "passed"));
    v.insert("align.steals", sum("align.batch", "align.batch.steals"));
    v.insert("align.rank_lambda", lambda("align.batch"));

    let rank_secs = secs(RANK_SPAN);
    let wait_s_max = named(RANK_SPAN)
        .map(|s| s.comm.wait_nanos as f64 * 1e-9)
        .fold(0.0, f64::max);
    v.insert("pcomm.bytes_total", bytes(RANK_SPAN));
    v.insert(
        "pcomm.msgs_total",
        named(RANK_SPAN).map(|s| s.comm.msgs_sent).sum::<u64>() as f64,
    );
    v.insert("pcomm.bytes_form_a", bytes("sparse.from_triples"));
    v.insert("pcomm.bytes_transpose", bytes("sparse.transpose"));
    v.insert(
        "pcomm.bytes_spgemm",
        bytes("sparse.spgemm_b") + bytes("sparse.spgemm_as"),
    );
    v.insert("pcomm.wait_s_max", wait_s_max);
    v.insert("pcomm.wait_share", ratio(wait_s_max, rank_secs));

    // The cost model judged against the stopwatch: in-program stage wall
    // over the modeled seconds the same run prints.
    let model = CostModel::default();
    let t = &pipe.timings;
    let model_ratio = |m: &StageMeasure| ratio(m.secs, m.modeled_secs(&model));
    v.insert("pcomm.modeled_s", t.total_modeled_secs(&model));
    v.insert("pcomm.model_ratio_align", model_ratio(&t.align));
    v.insert("pcomm.model_ratio_spgemm_b", model_ratio(&t.spgemm_b));
    v.insert("pcomm.model_ratio_form_a", model_ratio(&t.form_a));
    v.insert("pcomm.model_ratio_tr_a", model_ratio(&t.tr_a));
    v.insert("pcomm.model_ratio_form_s", model_ratio(&t.form_s));
    v.insert("pcomm.model_ratio_a_s", model_ratio(&t.a_s));

    v.insert(
        "obs.stage_agreement",
        ratio(t.sparse_secs() + t.align.secs, pipe.secs),
    );
    v
}
