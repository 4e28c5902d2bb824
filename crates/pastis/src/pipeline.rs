//! The distributed PASTIS pipeline (paper Fig. 1, §V), instrumented with
//! `obs` spans named after the paper's dissection components (Fig. 15–16:
//! `fasta`, `form A`, `tr. A`, `form S`, `AS`, `(AS)Aᵀ`, `symmetricize`,
//! `wait`) plus the alignment stage of Table I. The public [`Timings`]
//! summary is *derived* from the recorded spans ([`Timings::from_trace`])
//! rather than hand-threaded through the stages, and the full trace rides
//! along in [`PastisRun::trace`] for Perfetto export or deeper dissection.

use std::rc::Rc;

use align::{
    align_batch, striped_score, striped_traceback, xdrop_align, AlignStats, SimilarityMeasure,
};
use pcomm::{Comm, CommStats, Grid};
use seqstore::DistSeqStore;
use sparse::{DistMat, Semiring};
use subkmer::ExpenseTable;

use crate::batch::{self, BatchPlan};
use crate::ckpt;
use crate::matrices::{
    self, build_s_dist, distinct_kmers, form_a, form_shared_a, held_kmers, prune_frequent_kmers,
};
use crate::params::{AlignMode, PastisParams};
use crate::seedpair::SeedPair;
use crate::semirings::{AsSemiring, ExactSemiring};

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
    /// Symmetrizing `B` (substitute path only): merging its two masked halves.
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
    /// `align.overlap` spans: each column batch of `B` is symmetrised (on
    /// the substitute path) and aligned right after it is multiplied,
    /// *inside* `pastis.spgemm_b`, and the trace reducers attribute nested
    /// stage spans exclusively, so `(AS)AT` reports SUMMA-only time, `sym.`
    /// the merge and `align` the alignment time for both sources of `B`.
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
    /// Nonzeros of `S` (0 without substitutes): only its columns some
    /// sequence holds (see [`crate::build_s_dist`]), so fewer than the
    /// whole `S` that `build_s_triples` + `DistMat::from_triples` form.
    pub nnz_s: u64,
    /// Nonzeros of `B` (global): the owned off-diagonal entries the
    /// masked exact product forms, or every entry of the symmetrised
    /// substitute product: twice its owned entries, plus one diagonal entry
    /// per sequence whose row of `A` holds a k-mer.
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

/// What the batch loop reads, built once per run.
struct PipeCtx<'a> {
    a_mat: &'a DistMat<u32>,
    a_t: &'a DistMat<u32>,
    /// Per sequence, the nonzeros [`form_shared_a`] dropped from `A`
    /// (empty when `A` keeps them all), which the batch plan still weighs.
    dropped: &'a [u32],
    /// `A·S` and its transpose under substitute k-mers (see [`overlap`]).
    subs: Option<&'a (DistMat<u32>, DistMat<u32>)>,
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
/// On parameter combinations the pipeline cannot honour: a `k` that does
/// not fit the grid ([`crate::kmer_fits_grid`]), and reduced-alphabet
/// seeding with substitute k-mers.
pub fn run_pipeline(comm: &Comm, fasta: &[u8], params: &PastisParams) -> PastisRun {
    assert!(
        !(params.reduced_alphabet && params.substitutes > 0),
        "reduced-alphabet seeding and substitute k-mers are mutually exclusive"
    );
    // Record into the caller's recorder when one is installed (so a caller
    // can splice the pipeline into a larger trace, e.g. pipeline + MCL);
    // otherwise install our own for the duration of the run.
    let own_rec = (!obs::enabled()).then(|| obs::Recorder::install(comm.rank()));
    let (edges, counters) = {
        let _root = obs::span!("pastis.run");
        let grid = Rc::new(Grid::new(comm));
        assert!(
            matrices::kmer_fits_grid(params.k, grid.q()),
            "k must be in 1..=13 and fit the grid, ⌈24^k / q⌉ ≤ 2^32 (k = {}, q = {})",
            params.k,
            grid.q()
        );
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
        //    quadratically). The exact path also drops those of one
        //    sequence, which `A·Aᵀ` puts only on the masked diagonal; the
        //    substitute path keeps them, as `(AS)·Aᵀ` pairs them with
        //    other sequences' substitutes.
        let (a_mat, dropped, held) = stage("pastis.form_a", || {
            let (owned, k, reduced) = (store.owned(), params.k, params.reduced_alphabet);
            let (mut a, dropped) = match params.substitutes {
                0 => form_shared_a(&grid, owned, n, k, reduced),
                _ => (form_a(&grid, owned, n, k, reduced), Vec::new()),
            };
            let held = params
                .max_kmer_frequency
                .map(|limit| prune_frequent_kmers(&mut a, limit));
            (a, dropped, held)
        });

        // 4. Aᵀ.
        let a_t = stage("pastis.tr_a", || a_mat.transpose());
        counters.nnz_a = a_mat.nnz() + dropped.iter().map(|&d| d as u64).sum::<u64>();

        // 5. The substitute source's `S` and `AS`, which need no
        //    sequences, go before the exchange fence.
        let subs = (params.substitutes > 0)
            .then(|| substitutes(&a_mat, held, &store, params, &mut counters));

        // 6. Exchange fence.
        stage("pastis.wait", || store.finish_exchange(exchange));

        // 7. One consumer for `B`, whichever source it comes from.
        let cx = PipeCtx {
            a_mat: &a_mat,
            a_t: &a_t,
            dropped: &dropped,
            subs: subs.as_ref(),
            store: &store,
            params,
            grid: &grid,
            row_range,
            col_range,
        };
        let (edges, mut local) = stage("pastis.spgemm_b", || run_batches(&cx, fasta));
        if subs.is_some() {
            // The symmetrised `B` also holds each pair's mirror and a diagonal.
            local.nnz_b = 2 * local.nnz_b + seeded_rows(&a_mat);
        }

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

/// The substitute source's operands: `A·S` and its transpose, with `S`
/// over the k-mer columns `A` holds (`held`, when the pre-filter already
/// exchanged them). `S` is dropped before the transpose, so the heap peak
/// stays in `pastis.a_s`.
fn substitutes(
    a_mat: &DistMat<u32>,
    held: Option<Vec<u32>>,
    store: &DistSeqStore,
    params: &PastisParams,
    counters: &mut Counters,
) -> (DistMat<u32>, DistMat<u32>) {
    let s_mat = stage("pastis.form_s", || {
        let held = held.unwrap_or_else(|| held_kmers(a_mat));
        let table = ExpenseTable::new(params.align.matrix);
        let local_kmers = distinct_kmers(store.owned(), params.k);
        build_s_dist(
            a_mat,
            &held,
            &local_kmers,
            params.k,
            &table,
            params.substitutes,
        )
    });
    counters.nnz_s = s_mat.nnz();

    stage("pastis.a_s", || {
        // Past `A·S` only the positions are read: `(AS)·Aᵀ` multiplies as
        // `SubSemiring` does, `SeedPair::single(pos, A(j, t))`.
        let a_s = a_mat.spgemm(&s_mat, &AsSemiring, params.spgemm);
        let a_s = a_s.map(|_, _, v| v.pos);
        drop(s_mat);
        let a_s_t = a_s.transpose();
        (a_s, a_s_t)
    })
}

/// This rank's share of the sequences whose row of `A` holds a k-mer,
/// each on the symmetrised `B`'s diagonal by `S`'s identity: the grid row
/// unites its blocks' rows, and its first column counts them. Collective.
fn seeded_rows(a: &DistMat<u32>) -> u64 {
    let mut rows = vec![false; a.local().nrows()];
    for (r, _, _) in a.local().iter() {
        rows[r as usize] = true;
    }
    let or = |x: Vec<bool>, y: Vec<bool>| x.iter().zip(y).map(|(x, y)| *x || y).collect();
    let rows = a.grid().row_comm().allreduce(rows, or);
    let first_col = a.grid().mycol() == 0;
    rows.into_iter().filter(|&r| r && first_col).count() as u64
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

/// What aligning one candidate pair decided.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// No alignment was attempted (mode `None`) or the pair had no usable
    /// seed.
    NotAligned,
    /// The striped score pass came in below `min_score`.
    ScoreCulled,
    /// The pair reached `min_score`, but its end cell alone rules out
    /// `min_coverage`, so it was never traced.
    CoverageCulled,
    /// The pair reached `min_score` (x-drop: aligned from a seed); the
    /// edge weight if it is an edge.
    Passed(Option<f64>),
}

/// The edge weight of an aligned pair under the configured measure, or
/// `None` when it is not an edge.
fn edge_weight(st: &AlignStats, params: &PastisParams) -> Option<f64> {
    match params.measure {
        SimilarityMeasure::Ani => st
            .passes_filter(params.min_ani, params.min_coverage)
            .then(|| st.ani()),
        // The paper applies no cut-off under NS (§VI-B).
        SimilarityMeasure::NormalizedScore => (st.score > 0).then(|| st.normalized_score()),
    }
}

/// Align one candidate pair under the configured mode. A culled pair may
/// still have a positive score, so culls are kept apart from
/// [`Verdict::NotAligned`]: statistics must not conflate "prefilter said
/// no" with "nothing aligned".
fn align_pair(
    gi: u64,
    gj: u64,
    pair: &SeedPair,
    store: &DistSeqStore,
    params: &PastisParams,
) -> Verdict {
    if params.mode == AlignMode::None {
        return Verdict::NotAligned;
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
        return smith_waterman_verdict(r, c, params);
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
    best.map_or(Verdict::NotAligned, |st| {
        Verdict::Passed(edge_weight(&st, params))
    })
}

/// Smith–Waterman on one pair (DESIGN.md §12): the striped score pass,
/// then a traceback only when the pair can still become an edge. The
/// edges and weights equal [`align::smith_waterman`] followed by
/// [`edge_weight`] on every pair that reaches `min_score`.
///
/// The score pass yields the exact score and end cell. Under NS that is
/// the whole weight, so nothing is traced. Under ANI the traced span ends
/// at the end cell, so its coverage of the shorter sequence is at most the
/// end cell's reach into it, computed as [`AlignStats::coverage_short`]
/// computes coverage (same sequence, `r` on ties, same `f64` division); a
/// reach below `min_coverage` cannot become an edge and is not traced.
fn smith_waterman_verdict(r: &[u8], c: &[u8], params: &PastisParams) -> Verdict {
    let ap = &params.align;
    obs::hist!("align.dp_cells", r.len() * c.len());
    let (score, end) = striped_score(r, c, ap);
    if score < params.min_score {
        obs::counter!("prefilter.striped_culled", 1);
        return Verdict::ScoreCulled;
    }
    obs::counter!("prefilter.passed", 1);
    let reach = score_pass_stats(r, c, score, end);
    if params.measure == SimilarityMeasure::NormalizedScore {
        return Verdict::Passed(edge_weight(&reach, params));
    }
    if reach.coverage_short() < params.min_coverage {
        obs::counter!("prefilter.coverage_culled", 1);
        return Verdict::CoverageCulled;
    }
    let st = striped_traceback(r, c, ap, score, end);
    Verdict::Passed(edge_weight(&st, params))
}

/// What the score pass alone knows of a pair's alignment: its exact score
/// and lengths, and spans from the sequence starts to the end cell. Those
/// spans contain the traced ones, so its coverage bounds the alignment's
/// from above; its normalized score is the alignment's.
fn score_pass_stats(r: &[u8], c: &[u8], score: i32, end: (u32, u32)) -> AlignStats {
    AlignStats {
        score,
        r_span: (0, end.0),
        c_span: (0, end.1),
        r_len: r.len() as u32,
        c_len: c.len() as u32,
        ..AlignStats::default()
    }
}

/// The one consumer of `B`, whichever source formed it: admit every local
/// entry — each a pair this rank owns, self-overlaps excluded, which the
/// masked multiplies already ensured — that clears the
/// CK threshold as an alignment task, drop `b`, and align the tasks as one
/// batch. Tasks run in `(row, col)` order, which groups them by query row
/// and so maximizes the striped profile-cache hit rate. Returns the
/// surviving edges plus this rank's statistics (`nnz_b` = entries
/// admitted = candidates).
fn align_block(cx: &PipeCtx, b: DistMat<SeedPair>) -> (Vec<Edge>, ckpt::CounterDelta) {
    let (store, params) = (cx.store, cx.params);
    let mut tally = ckpt::CounterDelta::default();
    let mut tasks: Vec<Task> = Vec::new();
    let mask = ExactSemiring::MASK.expect("the exact product is masked");
    let (myrow, mycol) = (cx.grid.myrow(), cx.grid.mycol());
    for (gi, gj, pair) in b.iter_local() {
        tally.nnz_b += 1;
        debug_assert!(
            mask.keeps(gi - cx.row_range.0, gj - cx.col_range.0, myrow, mycol),
            "pair ({gi},{gj}) is not this rank's, or is a self-overlap"
        );
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
            Verdict::NotAligned => None,
            Verdict::ScoreCulled => {
                tally.striped_culled += 1;
                None
            }
            // A coverage-culled pair reached `min_score`: it counts as
            // passed, as it did when every such pair was traced.
            Verdict::CoverageCulled => {
                tally.passed += 1;
                None
            }
            Verdict::Passed(weight) => {
                tally.passed += 1;
                weight
            }
        };
        if let Some(w) = weight {
            edges.push((gi.min(gj), gi.max(gj), w));
        }
    }
    (edges, tally)
}

/// The driver of both sources: multiply `B` and align it in one pass when
/// neither a memory budget nor a checkpoint directory is configured,
/// otherwise the out-of-core batch loop of DESIGN.md §15 — size column
/// batches against the budget, multiply each batch against
/// column-restricted right operands and align it before the next one is
/// formed, concatenate the per-batch edges (bit-identical to the
/// monolithic set: batches tile `B`'s columns and per-entry fold order is
/// unchanged), and checkpoint each completed batch so a killed run resumes
/// instead of restarting.
fn run_batches(cx: &PipeCtx, fasta: &[u8]) -> (Vec<Edge>, ckpt::CounterDelta) {
    let params = cx.params;
    if params.mem_budget_bytes.is_none() && params.ckpt_dir.is_none() {
        return align_block(cx, overlap(cx, None));
    }
    let plan = match params.mem_budget_bytes {
        Some(budget) => batch::plan_dropped(cx.grid, cx.a_t, cx.dropped, budget),
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
                    align_block(cx, overlap(cx, Some(range)))
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

/// The owned off-diagonal entries of `B` in the global columns `range`
/// (all of them for `None`), each product masked by [`ExactSemiring`]:
/// `A·Aᵀ`, or the symmetrised `(AS)·Aᵀ` as its two halves, `B0 = (AS)·Aᵀ`
/// and `A·(AS)ᵀ`, whose entry `(i, j)` is `B0(j, i).swapped()` (DESIGN.md
/// §4). A batch restricts the right operands' columns only, so each entry
/// folds as in the whole product.
fn overlap(cx: &PipeCtx, range: Option<(u64, u64)>) -> DistMat<SeedPair> {
    let spgemm = cx.params.spgemm;
    let product = |left: &DistMat<u32>, right: &DistMat<u32>| match range {
        Some(range) => left.spgemm(&right.restrict_cols(range), &ExactSemiring, spgemm),
        None => left.spgemm(right, &ExactSemiring, spgemm),
    };
    let Some((a_s, a_s_t)) = cx.subs else {
        return product(cx.a_mat, cx.a_t);
    };
    // Substitute matching is directional, so B must be symmetrized (paper
    // Fig. 15 "sym."). The merge keeps its first operand's seeds, so a block
    // below the grid diagonal takes the mirror first: each pair keeps the
    // seeds of its `gi < gj` entry.
    let (mut first, mut then) = (product(a_s, cx.a_t), product(cx.a_mat, a_s_t));
    if cx.grid.myrow() > cx.grid.mycol() {
        std::mem::swap(&mut first, &mut then);
    }
    stage("pastis.symmetricize", || {
        first.elementwise_add(&then, |acc, v| acc.merge_symmetric(v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqstore::encode_seq;

    fn sw_params(min_coverage: f64) -> PastisParams {
        PastisParams {
            mode: AlignMode::SmithWaterman,
            min_coverage,
            ..Default::default()
        }
    }

    #[test]
    fn coverage_gate_keeps_an_end_cell_at_exactly_the_threshold() {
        // Seven tryptophans then residues that score badly against the
        // rest of `c`: the alignment is r[0..7] = c[0..7], so it covers
        // 7 of the shorter sequence's 10 residues, exactly 0.7.
        let r = encode_seq(b"WWWWWWWPPP");
        let c = encode_seq(b"WWWWWWWGGGGGGGGGGGGG");
        let st = align::smith_waterman(&r, &c, &sw_params(0.7).align);
        assert_eq!((st.r_span, st.c_span), ((0, 7), (0, 7)));
        assert_eq!(st.coverage_short(), 0.7);
        assert_eq!(
            smith_waterman_verdict(&r, &c, &sw_params(0.7)),
            Verdict::Passed(Some(1.0))
        );
        // Just above it the end cell alone rules the pair out.
        assert_eq!(
            smith_waterman_verdict(&r, &c, &sw_params(0.71)),
            Verdict::CoverageCulled
        );
    }

    #[test]
    fn coverage_gate_reads_r_when_lengths_tie() {
        // Equal lengths: coverage is measured on `r`, and so is the end
        // cell's reach. The alignment is r[0..6] = c[3..9].
        let (head, tail) = (encode_seq(b"WWWWWWPPPP"), encode_seq(b"AAAWWWWWWA"));
        let st = align::smith_waterman(&head, &tail, &sw_params(0.7).align);
        assert_eq!((st.r_span, st.c_span), ((0, 6), (3, 9)));
        // Reach 6/10 on `r`: culled, though `c` is reached to 9/10.
        assert_eq!(
            smith_waterman_verdict(&head, &tail, &sw_params(0.7)),
            Verdict::CoverageCulled
        );
        // Swapped, `r` is reached to 9/10 and the pair is traced; its
        // span on `r` is 6 of 10, so it is no edge.
        assert_eq!(
            smith_waterman_verdict(&tail, &head, &sw_params(0.7)),
            Verdict::Passed(None)
        );
    }

    #[test]
    fn normalized_score_weight_comes_from_the_score_pass() {
        let params = PastisParams {
            measure: SimilarityMeasure::NormalizedScore,
            ..sw_params(0.7)
        };
        let (r, c) = (encode_seq(b"WWWWWWPPPP"), encode_seq(b"AAAWWWWWWA"));
        let st = align::smith_waterman(&r, &c, &params.align);
        assert_eq!(
            smith_waterman_verdict(&r, &c, &params),
            Verdict::Passed(Some(st.normalized_score()))
        );
    }

    #[test]
    fn ownership_rule_is_a_partition() {
        // The exact product's output mask on every square grid: of the
        // entries (i, j) and (j, i) of symmetric B, i ≠ j, exactly one is
        // kept, by exactly one block — the §V-D claim — and no diagonal
        // entry is kept.
        let n = 23u64;
        let mask = ExactSemiring::MASK.expect("the exact product is masked");
        for q in [1usize, 2, 3, 4] {
            let ranges: Vec<(u64, u64)> = (0..q)
                .map(|i| (i as u64 * n / q as u64, (i as u64 + 1) * n / q as u64))
                .collect();
            // Blocks keeping entry (i, j): it exists in block (r, c) iff
            // i ∈ rows(r), j ∈ cols(c).
            let keepers = |i: u64, j: u64| {
                let mut keepers = 0;
                for (r, &(r0, r1)) in ranges.iter().enumerate() {
                    for (c, &(c0, c1)) in ranges.iter().enumerate() {
                        let inside = (r0..r1).contains(&i) && (c0..c1).contains(&j);
                        if inside && mask.keeps(i - r0, j - c0, r, c) {
                            keepers += 1;
                        }
                    }
                }
                keepers
            };
            for i in 0..n {
                assert_eq!(keepers(i, i), 0, "diagonal entry ({i},{i}) kept, q={q}");
                for j in (0..n).filter(|&j| j != i) {
                    let (k, k_t) = (keepers(i, j), keepers(j, i));
                    assert_eq!(k + k_t, 1, "pair ({i},{j}) q={q}: {k}+{k_t}");
                }
            }
        }
    }
}
