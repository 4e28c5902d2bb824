//! The distributed PASTIS pipeline (paper Fig. 1, §V), instrumented with
//! `obs` spans named after the paper's dissection components (Fig. 15–16:
//! `fasta`, `form A`, `tr. A`, `form S`, `AS`, `(AS)Aᵀ`, `symmetricize`,
//! `wait`) plus the alignment stage of Table I. The public [`Timings`]
//! summary is *derived* from the recorded spans ([`Timings::from_trace`])
//! rather than hand-threaded through the stages, and the full trace rides
//! along in [`PastisRun::trace`] for Perfetto export or deeper dissection.

use std::rc::Rc;

use align::{
    align_batch, prefiltered_align_outcome, xdrop_align, AlignStats, PrefilterOutcome,
    SimilarityMeasure,
};
use pcomm::{Comm, CommStats, Grid};
use seqstore::DistSeqStore;
use sparse::DistMat;
use subkmer::ExpenseTable;

use crate::batch::{self, BatchPlan};
use crate::ckpt;
use crate::matrices::{build_a_triples, build_s_dist, distinct_kmers, kmer_space};
use crate::params::{AlignMode, PastisParams};
use crate::seedpair::SeedPair;
use crate::semirings::{AsSemiring, ExactSemiring, SubSemiring};

/// Wall-clock seconds and communication delta of one pipeline stage on this
/// rank. Feed the per-rank maxima into [`pcomm::CostModel`] to model large
/// node counts.
#[derive(Debug, Clone, Default)]
pub struct StageMeasure {
    /// Wall-clock seconds spent in the stage (compute + any embedded
    /// communication). Contaminated by scheduling when ranks are
    /// oversubscribed on few cores — prefer `work_ns` for scaling studies.
    pub secs: f64,
    /// Deterministic estimated-nanosecond work executed by this rank during
    /// the stage (see [`pcomm::work`]); immune to oversubscription.
    pub work_ns: u64,
    /// Communication issued during the stage and *not* covered by `colls`
    /// (the residual point-to-point traffic).
    pub comm: CommStats,
    /// Shape-aware aggregates of the collectives issued during the stage
    /// (one entry per outermost `pcomm.*` span family). Payload is
    /// approximated from this rank's wire bytes per call.
    pub colls: Vec<pcomm::CollAgg>,
}

impl StageMeasure {
    /// Critical-path combination across ranks.
    pub fn max(self, rhs: StageMeasure) -> StageMeasure {
        StageMeasure {
            secs: self.secs.max(rhs.secs),
            work_ns: self.work_ns.max(rhs.work_ns),
            comm: self.comm.max(rhs.comm),
            // Mirrors `StageCost::max`: keep whichever side has a shaped
            // breakdown — the pipeline's collectives are symmetric, so the
            // per-rank breakdowns are interchangeable approximations.
            colls: if self.colls.is_empty() {
                rhs.colls
            } else {
                self.colls
            },
        }
    }

    /// Modeled stage seconds: deterministic work plus each collective
    /// priced by its shape ([`pcomm::CostModel::stage`]), with the residual
    /// point-to-point traffic priced flat (α·messages + β·bytes).
    pub fn modeled_secs(&self, model: &pcomm::CostModel) -> f64 {
        model.stage(&pcomm::StageCost {
            compute_secs: self.work_ns as f64 * 1e-9,
            comm: self.comm,
            colls: self.colls.clone(),
        })
    }
}

/// Per-component timings, named after the paper's dissection plots.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Reading/parsing FASTA data and global numbering.
    pub fasta: StageMeasure,
    /// Forming the distributed `A` matrix.
    pub form_a: StageMeasure,
    /// Computing `Aᵀ`.
    pub tr_a: StageMeasure,
    /// Forming the substitution matrix `S` (zero when `substitutes == 0`).
    pub form_s: StageMeasure,
    /// The `A·S` SpGEMM (zero when `substitutes == 0`).
    pub a_s: StageMeasure,
    /// The overlap SpGEMM `A·Aᵀ` or `(AS)·Aᵀ`.
    pub spgemm_b: StageMeasure,
    /// Symmetrizing `B` (substitute path only).
    pub symmetricize: StageMeasure,
    /// Waiting on the background sequence exchange (§V-C).
    pub wait: StageMeasure,
    /// Pairwise alignment and filtering.
    pub align: StageMeasure,
    /// Whole pipeline.
    pub total: f64,
}

impl Timings {
    /// Sparse-stage seconds (everything except alignment), the quantity the
    /// paper's scaling studies report.
    pub fn sparse_secs(&self) -> f64 {
        self.fasta.secs
            + self.form_a.secs
            + self.tr_a.secs
            + self.form_s.secs
            + self.a_s.secs
            + self.spgemm_b.secs
            + self.symmetricize.secs
            + self.wait.secs
    }

    /// The sparse components with full measurements, in the paper's order
    /// (Fig. 15–16 labels).
    pub fn components(&self) -> [(&'static str, StageMeasure); 8] {
        [
            ("fasta", self.fasta.clone()),
            ("form A", self.form_a.clone()),
            ("tr. A", self.tr_a.clone()),
            ("form S", self.form_s.clone()),
            ("AS", self.a_s.clone()),
            ("(AS)AT", self.spgemm_b.clone()),
            ("sym.", self.symmetricize.clone()),
            ("wait", self.wait.clone()),
        ]
    }

    /// Modeled seconds of the sparse stages under a postal cost model.
    pub fn sparse_modeled_secs(&self, model: &pcomm::CostModel) -> f64 {
        self.components()
            .iter()
            .map(|(_, m)| m.modeled_secs(model))
            .sum()
    }

    /// Modeled seconds of the whole pipeline (sparse + alignment).
    pub fn total_modeled_secs(&self, model: &pcomm::CostModel) -> f64 {
        self.sparse_modeled_secs(model) + self.align.modeled_secs(model)
    }

    /// Modeled alignment share of total time (Table I, oversubscription-
    /// immune).
    pub fn align_fraction_modeled(&self, model: &pcomm::CostModel) -> f64 {
        let total = self.total_modeled_secs(model);
        if total <= 0.0 {
            0.0
        } else {
            self.align.modeled_secs(model) / total
        }
    }

    /// `(span_name, paper_label)` of every pipeline stage, in the paper's
    /// component order (the eight sparse components plus `align`). These
    /// are the names [`run_pipeline`] records and the rows the trace-driven
    /// dissection tables print. The alignment row is built from the
    /// `align.overlap` spans rather than the `pastis.align` wrapper: the
    /// exact overlap aligns each column batch right after multiplying it,
    /// *inside* `pastis.spgemm_b`, and the trace reducers attribute nested
    /// stage spans exclusively, so `(AS)AT` reports SUMMA-only time and
    /// `align` the alignment time for both sources of `B`.
    pub const STAGE_SPANS: [(&'static str, &'static str); 9] = [
        ("pastis.fasta", "fasta"),
        ("pastis.form_a", "form A"),
        ("pastis.tr_a", "tr. A"),
        ("pastis.form_s", "form S"),
        ("pastis.a_s", "AS"),
        ("pastis.spgemm_b", "(AS)AT"),
        ("pastis.symmetricize", "sym."),
        ("pastis.wait", "wait"),
        ("align.overlap", "align"),
    ];

    /// Rebuild the per-component summary from a recorded rank trace: each
    /// stage is the sum of its spans in the latest `pastis.run`, with
    /// wall-clock, deterministic work, and communication deltas read from
    /// the span counters and the collectives issued inside the stage
    /// broken out by shape (`p` is the run's rank count, needed to size
    /// each collective's communicator).
    pub fn from_trace(trace: &obs::RankTrace, p: usize) -> Timings {
        let root = trace
            .events
            .iter()
            .filter(|e| e.name == "pastis.run")
            .max_by_key(|e| e.seq);
        let (from_seq, total) = root
            .map(|e| (e.seq, e.dur_ns as f64 * 1e-9))
            .unwrap_or((0, 0.0));
        // Reduce the latest run's spans with the same extractor the
        // dissection uses, so stages carry the shaped collective
        // breakdown `CostModel::stage` prices.
        let run = obs::RankTrace {
            rank: trace.rank,
            events: trace
                .events
                .iter()
                .filter(|e| e.seq >= from_seq)
                .cloned()
                .collect(),
            metrics: Default::default(),
            dropped: 0,
        };
        let kinds = pcomm::kind_names();
        let extracts =
            obs::project::extract_stages(std::slice::from_ref(&run), &Self::STAGE_SPANS, &kinds);
        let mut stages = extracts.iter().map(|e| stage_measure(e, p));
        let mut next = || stages.next().expect("one extract per stage span");
        Timings {
            fasta: next(),
            form_a: next(),
            tr_a: next(),
            form_s: next(),
            a_s: next(),
            spgemm_b: next(),
            symmetricize: next(),
            wait: next(),
            align: next(),
            total,
        }
    }
}

/// One stage extract (this rank only) reduced to a [`StageMeasure`]:
/// collectives found inside the stage become shaped [`pcomm::CollAgg`]s —
/// per-call payload approximated by this rank's wire bytes per call — and
/// their traffic is subtracted from the stage counters, leaving `comm` as
/// the point-to-point residual.
fn stage_measure(e: &obs::project::StageExtract, p: usize) -> StageMeasure {
    let c = e.counters_total;
    let mut comm = CommStats {
        bytes_sent: c.bytes_sent,
        bytes_recv: c.bytes_recv,
        msgs_sent: c.msgs_sent,
        msgs_recv: c.msgs_recv,
        wait_nanos: c.wait_ns,
    };
    let mut colls = Vec::new();
    for (name, agg) in &e.kinds {
        let Some(&(_, shape, scope)) = pcomm::KIND_RULES.iter().find(|(n, _, _)| n == name) else {
            continue;
        };
        if agg.calls_total == 0 {
            continue;
        }
        let kc = agg.counters_total;
        comm.bytes_sent = comm.bytes_sent.saturating_sub(kc.bytes_sent);
        comm.bytes_recv = comm.bytes_recv.saturating_sub(kc.bytes_recv);
        comm.msgs_sent = comm.msgs_sent.saturating_sub(kc.msgs_sent);
        comm.msgs_recv = comm.msgs_recv.saturating_sub(kc.msgs_recv);
        let calls = agg.calls_total as f64;
        let wire = kc.bytes_sent.max(kc.bytes_recv) as f64;
        colls.push(pcomm::CollAgg {
            shape,
            comm_size: scope.size(p),
            calls,
            payload_bytes: wire / calls,
        });
    }
    StageMeasure {
        secs: e.secs_max,
        work_ns: e.work_ns_total,
        comm,
        colls,
    }
}

/// Aggregate pipeline statistics (identical on every rank for the
/// collective fields).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Total sequences.
    pub n_seqs: u64,
    /// Nonzeros of `A`.
    pub nnz_a: u64,
    /// Nonzeros of `S` (0 without substitutes).
    pub nnz_s: u64,
    /// Nonzeros of `B` (global, both triangles).
    pub nnz_b: u64,
    /// Candidate pairs owned by this rank (upper-triangle ownership rule).
    pub candidates_local: u64,
    /// Alignments this rank performed (after the CK threshold).
    pub alignments_local: u64,
    /// Pairs the striped score-only pass culled on this rank: the score
    /// missed `min_score` (Smith–Waterman mode only; x-drop has no
    /// prefilter).
    pub prefilter_striped_culled_local: u64,
    /// Pairs that reached `min_score` on this rank.
    pub prefilter_passed_local: u64,
    /// Prefilter totals across ranks.
    pub prefilter_striped_culled_global: u64,
    pub prefilter_passed_global: u64,
    /// Total alignments across ranks.
    pub alignments_global: u64,
    /// Total surviving edges across ranks.
    pub edges_global: u64,
}

/// Result of one rank's participation in the pipeline.
#[derive(Debug, Clone)]
pub struct PastisRun {
    /// This rank's share of the similarity graph: `(gid_low, gid_high,
    /// weight)` with `gid_low < gid_high`, each global pair reported by
    /// exactly one rank.
    pub edges: Vec<(u64, u64, f64)>,
    /// Per-component timings on this rank, derived from `trace`.
    pub timings: Timings,
    /// Pipeline statistics.
    pub counters: Counters,
    /// The spans and metrics this rank recorded (the pipeline's own when no
    /// recorder was installed by the caller, otherwise a snapshot of the
    /// caller's).
    pub trace: obs::RankTrace,
}

/// Run `f` inside an allocation peak window ([`obs::alloc::peak_during`])
/// and record the window's peak in the max-merged gauge `gauge`; no gauge
/// when tracking is off. Ranks are threads of one process, so with several
/// in flight the peak is the per-node footprint while `f` ran on this one.
fn windowed<R>(gauge: &str, f: impl FnOnce() -> R) -> R {
    let (r, peak) = obs::alloc::peak_during(f);
    if let Some(peak) = peak {
        obs::gauge_max_owned(gauge, peak);
    }
    r
}

/// Run one pipeline stage under its span; its peak window feeds the
/// `mem.stage.<span>` gauge, a row of the `--trace` per-stage memory
/// table.
fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    windowed(&format!("{}{name}", obs::dissect::MEM_STAGE_PREFIX), || {
        let _span = obs::span_start(name, None);
        f()
    })
}

/// A similarity-graph edge `(gid_low, gid_high, weight)`.
type Edge = (u64, u64, f64);

/// A candidate pair awaiting alignment: global row, global column, seeds.
type Task = (u64, u64, SeedPair);

/// What everything downstream of the choice of `B`'s source shares, built
/// once per run.
struct PipeCtx<'a> {
    a_mat: &'a DistMat<u32>,
    a_t: &'a DistMat<u32>,
    store: &'a DistSeqStore,
    params: &'a PastisParams,
    grid: &'a Grid,
    /// Global row / column range of this rank's block of `B`.
    row_range: (u64, u64),
    col_range: (u64, u64),
}

/// Run the full PASTIS pipeline on this rank. Collective over `comm`, whose
/// size must be a perfect square. The resulting edge set is independent of
/// the rank count (paper §V: "connections found in the PSG are oblivious to
/// the number of processes").
///
/// # Panics
///
/// On parameter combinations the pipeline cannot honour: `k` outside
/// `1..=13`, reduced-alphabet seeding with substitute k-mers, and a memory
/// budget or checkpoint directory with substitute k-mers (whose `B` is
/// symmetrised whole, so it cannot be cut into column batches).
pub fn run_pipeline(comm: &Comm, fasta: &[u8], params: &PastisParams) -> PastisRun {
    assert!(
        (1..=13).contains(&params.k),
        "k must be in 1..=13 (got {})",
        params.k
    );
    assert!(
        !(params.reduced_alphabet && params.substitutes > 0),
        "reduced-alphabet seeding and substitute k-mers are mutually exclusive"
    );
    // Substitute k-mers must symmetrize `B`, a global barrier, so only the
    // exact overlap can be cut into column batches and checkpointed.
    assert!(
        params.substitutes == 0 || (params.mem_budget_bytes.is_none() && params.ckpt_dir.is_none()),
        "mem_budget_bytes / ckpt_dir need the exact overlap (substitutes = {})",
        params.substitutes
    );
    // Record into the caller's recorder when one is installed (so a caller
    // can splice the pipeline into a larger trace, e.g. pipeline + MCL);
    // otherwise install our own for the duration of the run.
    let own_rec = (!obs::enabled()).then(|| obs::Recorder::install(comm.rank()));
    let (edges, counters) = {
        let _root = obs::span!("pastis.run");
        let grid = Rc::new(Grid::new(comm));
        let q = grid.q() as u64;
        let mut counters = Counters::default();

        // 1. Parse my byte-balanced FASTA chunk; number sequences globally.
        let mut store = stage("pastis.fasta", || DistSeqStore::from_fasta(comm, fasta));
        let n = store.len();
        counters.n_seqs = n;

        // 2. Kick off the background sequence exchange for my B-block's row
        //    and column ranges (paper Fig. 10: overlapped with all matrix
        //    work).
        let block = |i: usize| (i as u64 * n / q, (i as u64 + 1) * n / q);
        let (row_range, col_range) = (block(grid.myrow()), block(grid.mycol()));
        let exchange = store.start_exchange(&grid, row_range, col_range);

        // 3. Form A (|seqs| × 24^k, positions as values), optionally
        //    dropping k-mers that occur in too many sequences (§VII future
        //    work: k-mer pre-analysis; repeats otherwise inflate B
        //    quadratically).
        let space = kmer_space(params.k);
        let a_mat = stage("pastis.form_a", || {
            let triples = build_a_triples(store.owned(), params.k, params.reduced_alphabet);
            let mut a =
                DistMat::from_triples(Rc::clone(&grid), n, space, triples, |a, b| *a = (*a).min(b));
            if let Some(limit) = params.max_kmer_frequency {
                prune_frequent_kmers(&grid, &mut a, limit);
            }
            a
        });

        // 4. Aᵀ.
        let a_t = stage("pastis.tr_a", || a_mat.transpose());
        counters.nnz_a = a_mat.nnz();

        // 5. The substitute source forms all of `B` before the exchange
        //    fence; the exact source multiplies one column batch at a time
        //    and aligns it at once, so it needs the sequences first and
        //    runs after the fence (step 7).
        let b_mat = (params.substitutes > 0)
            .then(|| substitute_b(&a_mat, &a_t, &store, params, &mut counters));

        // 6. Exchange fence.
        stage("pastis.wait", || store.finish_exchange(exchange));

        // 7. One consumer for `B`, whichever source it comes from.
        let cx = PipeCtx {
            a_mat: &a_mat,
            a_t: &a_t,
            store: &store,
            params,
            grid: &grid,
            row_range,
            col_range,
        };
        let (edges, local) = match b_mat {
            Some(b) => stage("pastis.align", || align_block(&cx, b)),
            None => {
                let out = stage("pastis.spgemm_b", || run_batches(&cx, fasta));
                // The alignment work ran inside `pastis.spgemm_b` (as
                // `align.overlap` spans, which the dissection attributes to
                // the `align` row); the empty wrapper keeps the span set
                // uniform across sources.
                stage("pastis.align", || ());
                out
            }
        };

        counters.candidates_local = local.candidates;
        counters.alignments_local = local.alignments;
        counters.prefilter_striped_culled_local = local.striped_culled;
        counters.prefilter_passed_local = local.passed;
        let sums = comm.allreduce(
            vec![
                local.nnz_b,
                local.alignments,
                local.striped_culled,
                local.passed,
                edges.len() as u64,
            ],
            |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
        );
        counters.nnz_b = sums[0];
        counters.alignments_global = sums[1];
        counters.prefilter_striped_culled_global = sums[2];
        counters.prefilter_passed_global = sums[3];
        counters.edges_global = sums[4];
        obs::gauge!("pastis.nnz_b", counters.nnz_b);
        (edges, counters)
    };

    let trace = match own_rec {
        Some(rec) => rec.finish(),
        None => obs::snapshot().expect("recorder uninstalled mid-pipeline"),
    };
    let timings = Timings::from_trace(&trace, comm.size());
    PastisRun {
        edges,
        timings,
        counters,
        trace,
    }
}

/// The substitute source of `B`: `sym((AS)·Aᵀ)`, formed whole.
fn substitute_b(
    a_mat: &DistMat<u32>,
    a_t: &DistMat<u32>,
    store: &DistSeqStore,
    params: &PastisParams,
    counters: &mut Counters,
) -> DistMat<SeedPair> {
    let s_mat = stage("pastis.form_s", || {
        let table = ExpenseTable::new(params.align.matrix);
        let local_kmers = distinct_kmers(store.owned(), params.k);
        build_s_dist(
            Rc::clone(a_mat.grid()),
            &local_kmers,
            params.k,
            &table,
            params.substitutes,
        )
    });
    counters.nnz_s = s_mat.nnz();

    let as_mat = stage("pastis.a_s", || {
        a_mat.spgemm(&s_mat, &AsSemiring, params.spgemm)
    });

    let b0 = stage("pastis.spgemm_b", || {
        as_mat.spgemm(a_t, &SubSemiring, params.spgemm)
    });

    // Substitute matching is directional (row side substituted, column
    // side exact), so B must be symmetrized (paper Fig. 15 "sym.").
    stage("pastis.symmetricize", || {
        let swapped = b0.transpose().map(|_, _, v| v.swapped());
        b0.elementwise_add(&swapped, |acc, v| acc.merge_symmetric(v))
    })
}

/// Drop columns of `A` (k-mers) whose global occurrence count exceeds
/// `limit`. A k-mer column is spread over the ranks of one grid column, so
/// global counts are assembled with an allgather along the column
/// subcommunicator. Collective.
fn prune_frequent_kmers(grid: &Grid, a: &mut DistMat<u32>, limit: u32) {
    use std::collections::HashMap;
    let local: Vec<(u64, u32)> = {
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for (_, c, _) in a.iter_local() {
            *counts.entry(c).or_insert(0) += 1;
        }
        let mut v: Vec<(u64, u32)> = counts.into_iter().collect();
        v.sort_unstable();
        v
    };
    let all = grid.col_comm().allgather(local);
    let mut global: HashMap<u64, u32> = HashMap::new();
    for (c, n) in all.into_iter().flatten() {
        *global.entry(c).or_insert(0) += n;
    }
    a.retain(|_, c, _| global.get(&c).copied().unwrap_or(0) <= limit);
}

/// Alignment task ownership for a local block entry.
#[inline]
fn owns_pair(li: u64, lj: u64, myrow: usize, mycol: usize) -> bool {
    li < lj || (li == lj && myrow <= mycol)
}

/// Per-rank OS-thread budget for alignment batches: 0 = auto, splitting
/// the host's cores evenly among co-located ranks (the paper's
/// one-process-per-node × t-threads layout).
fn batch_threads(params: &PastisParams, grid: &Grid) -> usize {
    if params.threads == 0 {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        (cores / grid.world().size().max(1)).max(1)
    } else {
        params.threads
    }
}

/// Align one candidate pair under the configured mode. `None` means no
/// alignment was attempted (mode `None`) or the pair had no usable seed —
/// distinct from the culled outcomes, because a culled pair may still have
/// a positive score: statistics must not conflate "prefilter said no" with
/// "nothing aligned".
fn align_pair(
    gi: u64,
    gj: u64,
    pair: &SeedPair,
    store: &DistSeqStore,
    params: &PastisParams,
) -> Option<PrefilterOutcome> {
    if params.mode == AlignMode::None {
        return None;
    }
    let ap = &params.align;
    let r = &store.row_seq(gi).expect("row sequence prefetched").data;
    let c = &store.col_seq(gj).expect("col sequence prefetched").data;
    if params.mode == AlignMode::SmithWaterman {
        // Operands in global-id order, so the stats are a function of the
        // pair and not of which block owns it: the traceback's tie-breaks
        // are not symmetric, and a below-diagonal block holds its pairs
        // as `gi > gj` (DESIGN.md §7). At p = 1 every owned pair has
        // `gi < gj`, so this is the identity there.
        let (r, c) = if gi < gj { (r, c) } else { (c, r) };
        return Some(prefiltered_align_outcome(r, c, ap, params.min_score));
    }
    // X-drop: extend from each stored seed, keeping the best score (paper
    // §IV-E). Seeds on the same diagonal extend through the same band to
    // the same optimum, so only the first seed per diagonal is extended.
    let k = params.k;
    let mut best: Option<AlignStats> = None;
    let mut done_diags = [i64::MAX; 2];
    let mut ndiags = 0;
    for &(rp, cp) in pair.seeds() {
        if rp as usize + k > r.len() || cp as usize + k > c.len() {
            continue;
        }
        let diag = rp as i64 - cp as i64;
        if done_diags[..ndiags].contains(&diag) {
            continue;
        }
        done_diags[ndiags] = diag;
        ndiags += 1;
        let st = xdrop_align(r, c, rp, cp, k, ap);
        // `>=` keeps the last maximum on ties, matching the former
        // max_by_key semantics.
        if best.as_ref().is_none_or(|b| st.score >= b.score) {
            best = Some(st);
        }
    }
    obs::hist!("align.seeds_extended", ndiags);
    best.map(PrefilterOutcome::Passed)
}

/// The one consumer of `B`, whichever source formed it: admit every local
/// entry this rank owns that clears the CK threshold as an alignment task,
/// drop `b`, and align the tasks as one batch. Tasks run in `(row, col)`
/// order, which groups them by query row and so maximizes the striped
/// profile-cache hit rate. Returns the surviving edges plus this rank's
/// statistics (`nnz_b` = entries admitted).
fn align_block(cx: &PipeCtx, b: DistMat<SeedPair>) -> (Vec<Edge>, ckpt::CounterDelta) {
    let (store, params) = (cx.store, cx.params);
    let mut tally = ckpt::CounterDelta::default();
    let mut tasks: Vec<Task> = Vec::new();
    for (gi, gj, pair) in b.iter_local() {
        tally.nnz_b += 1;
        if gi == gj {
            continue; // self-overlap
        }
        let (li, lj) = (gi - cx.row_range.0, gj - cx.col_range.0);
        if !owns_pair(li, lj, cx.grid.myrow(), cx.grid.mycol()) {
            continue;
        }
        tally.candidates += 1;
        if pair.count <= params.common_kmer_threshold {
            continue; // CK threshold: too few shared k-mers to bother
        }
        tasks.push((gi, gj, *pair));
    }
    drop(b);
    tasks.sort_unstable_by_key(|&(gi, gj, _)| (gi, gj));

    // The span is the dissection's alignment stage (see
    // [`Timings::STAGE_SPANS`]).
    let _span = obs::span!("align.overlap", tasks = tasks.len());
    let aligned = match params.mode {
        AlignMode::None => 0,
        _ => tasks.len() as u64,
    };
    tally.alignments += aligned;
    // Live telemetry: announce the block's alignments before the batch runs
    // so the monitor shows an in-flight progress bar, retire them after.
    // Mirrors `alignments_local` exactly, so the final snapshot's per-rank
    // `done` totals reconcile against the trace counters.
    obs::blackbox::add_items(0, aligned);
    let threads = batch_threads(params, cx.grid);
    let verdicts = align_batch(&tasks, threads, |&(gi, gj, ref pair)| {
        align_pair(gi, gj, pair, store, params)
    });
    obs::blackbox::add_items(aligned, 0);

    let mut edges = Vec::new();
    for ((gi, gj, pair), verdict) in tasks.into_iter().zip(verdicts) {
        let weight = match verdict {
            // Scaling runs: candidate pairs weighted by shared k-mers.
            _ if params.mode == AlignMode::None => Some(pair.count as f64),
            None => None,
            Some(PrefilterOutcome::Passed(st)) => {
                tally.passed += 1;
                match params.measure {
                    SimilarityMeasure::Ani => st
                        .passes_filter(params.min_ani, params.min_coverage)
                        .then(|| st.ani()),
                    // The paper applies no cut-off under NS (§VI-B).
                    SimilarityMeasure::NormalizedScore => {
                        (st.score > 0).then(|| st.normalized_score())
                    }
                }
            }
            // `CulledScore` (`CulledBitpack` is never returned).
            Some(_) => {
                tally.striped_culled += 1;
                None
            }
        };
        if let Some(w) = weight {
            edges.push((gi.min(gj), gi.max(gj), w));
        }
    }
    (edges, tally)
}

/// The exact source's driver: multiply `A·Aᵀ` and align it in one pass
/// when neither a memory budget nor a checkpoint directory is configured,
/// otherwise the out-of-core batch loop of DESIGN.md §15 — size column
/// batches against the budget, multiply each batch against a
/// column-restricted `Aᵀ` and align it before the next one is formed,
/// concatenate the per-batch edges (bit-identical to the monolithic set:
/// batches tile `B`'s columns and per-entry fold order is unchanged), and
/// checkpoint each completed batch so a killed run resumes instead of
/// restarting.
fn run_batches(cx: &PipeCtx, fasta: &[u8]) -> (Vec<Edge>, ckpt::CounterDelta) {
    let params = cx.params;
    let overlap = |a_t: &DistMat<u32>| cx.a_mat.spgemm(a_t, &ExactSemiring, params.spgemm);
    if params.mem_budget_bytes.is_none() && params.ckpt_dir.is_none() {
        return align_block(cx, overlap(cx.a_t));
    }
    let plan = match params.mem_budget_bytes {
        Some(budget) => batch::plan(cx.grid, cx.a_t, budget),
        // Checkpointing without a budget: a single full-width batch still
        // gets a durable shard + manifest.
        None => BatchPlan {
            budget_bytes: u64::MAX,
            ranges: vec![(0, cx.a_mat.nrows())],
            est_bytes: vec![0],
        },
    };
    let mut log = params
        .ckpt_dir
        .as_deref()
        .map(|dir| ckpt::BatchLog::open(dir, cx.grid.world(), fasta, params, &plan.ranges));

    let mut edges = Vec::new();
    let mut total = ckpt::CounterDelta::default();
    for (k, &range) in plan.ranges.iter().enumerate() {
        let _batch = obs::span!("pastis.batch", batch = k);
        let (batch_edges, delta) = match log.as_ref().and_then(|log| log.restore(k)) {
            Some(shard) => {
                // Announce the restored alignments as instantly done so
                // the monitor's per-rank totals still reconcile against
                // the trace counters.
                obs::blackbox::add_items(shard.delta.alignments, shard.delta.alignments);
                (shard.edges, shard.delta)
            }
            None => {
                // Per-batch peak for the `--trace` batch-memory table; it
                // nests inside the stage's window, which also sees
                // `batch::plan` and everything between batches.
                let out = windowed(&format!("mem.batch.{k}"), || {
                    let b = overlap(&cx.a_t.restrict_cols(range));
                    align_block(cx, b)
                });
                if let Some(log) = &mut log {
                    log.commit(k, &out.0, &out.1);
                }
                out
            }
        };
        edges.extend(batch_edges);
        total.add(&delta);
    }
    (edges, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_rule_is_a_partition() {
        // For every grid size and pair (i, j), exactly one rank owns the
        // pair — the §V-D claim.
        let n = 23u64;
        for q in [1usize, 2, 3, 4] {
            let ranges: Vec<(u64, u64)> = (0..q)
                .map(|i| (i as u64 * n / q as u64, (i as u64 + 1) * n / q as u64))
                .collect();
            // Owners of entry (i, j) of symmetric B: it exists in block
            // (r, c) iff i ∈ rows(r), j ∈ cols(c).
            let owners = |i: u64, j: u64| {
                let mut owners = 0;
                for (r, &(r0, r1)) in ranges.iter().enumerate() {
                    for (c, &(c0, c1)) in ranges.iter().enumerate() {
                        let inside = (r0..r1).contains(&i) && (c0..c1).contains(&j);
                        if inside && owns_pair(i - r0, j - c0, r, c) {
                            owners += 1;
                        }
                    }
                }
                owners
            };
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    // B symmetric: (i,j) and (j,i) both exist; exactly one
                    // of the two entries may be owned.
                    let (o, o_t) = (owners(i, j), owners(j, i));
                    assert_eq!(o + o_t, 1, "pair ({i},{j}) q={q}: {o}+{o_t}");
                }
            }
        }
    }
}
