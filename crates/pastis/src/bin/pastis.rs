//! `pastis` — command-line entry point: build a protein similarity graph
//! from a FASTA file on a simulated process grid.
//!
//! ```text
//! pastis --input proteins.fasta [--output psg.tsv] [--ranks 4] [--k 6]
//!        [--subs 25] [--mode xd|sw|none] [--ck N] [--measure ani|ns]
//!        [--min-ani 0.3] [--min-cov 0.7] [--max-kmer-freq N] [--threads N]
//!        [--trace trace.json] [--cluster] [--monitor]
//!        [--mem-budget SIZE] [--ckpt-dir DIR]
//! ```
//!
//! Output: one `name_i <TAB> name_j <TAB> weight` line per similarity edge
//! (to stdout when `--output` is omitted). The edge set is independent of
//! `--ranks`.
//!
//! `--trace <path>` records every rank's spans and writes a Perfetto
//! `traceEvents` JSON (load it at <https://ui.perfetto.dev>), plus a
//! critical-path dissection table and per-stage rank-skew tables on
//! stderr. `--cluster` feeds the graph to distributed Markov clustering,
//! whose per-iteration spans land in the same trace.
//!
//! `--monitor` arms the live telemetry plane: a heartbeat thread appends
//! per-rank progress snapshots to `status.json` next to the output
//! (`PASTIS_MONITOR_MS` sets the period in milliseconds, a positive
//! integer; default 200), renders a refreshing per-rank table to stderr
//! unless `--quiet`, and the document is schema-validated and reconciled
//! against the run totals on exit (watch it live from another terminal
//! with `pastis-top`).
//!
//! `--max-kmer-freq L` keeps only the k-mers that at most `L` sequences
//! hold. The exact path (`--subs 0`) never keeps a k-mer of one sequence,
//! so there the band kept is `[2, L]`, and `L = 1` finds no pair; under
//! `--subs N` it is `[1, L]`.
//!
//! `--mem-budget SIZE` (bytes, `k`/`m`/`g` suffixes) arms the out-of-core
//! driver: B's columns are computed in budget-sized batches (DESIGN.md
//! §15) with a bit-identical edge set. `--ckpt-dir DIR` checkpoints each
//! completed batch there; rerunning the same command resumes after the
//! last complete batch. Both work with either seeding: under `--subs N`
//! each batch forms its columns of the symmetrised B as two masked halves.

use std::io::Write as _;
use std::process::exit;
use std::rc::Rc;

use align::SimilarityMeasure;
use pastis::{kmer_fits_grid, run_pipeline, AlignMode, PastisParams, Timings};
use pcomm::{Grid, WorldBuilder};

struct Cli {
    input: String,
    output: Option<String>,
    ranks: usize,
    params: PastisParams,
    quiet: bool,
    trace: Option<String>,
    cluster: bool,
    /// Snapshot period of `--monitor` in milliseconds; `None` without it.
    monitor_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pastis --input <fasta> [--output <tsv>] [--ranks N] [--k N] \
         [--subs N] [--mode xd|sw|none] [--ck N] [--measure ani|ns] [--min-ani F] \
         [--min-cov F] [--max-kmer-freq N] [--threads N] [--quiet] \
         [--trace <json>] [--cluster] [--monitor] [--mem-budget SIZE[k|m|g]] \
         [--ckpt-dir <dir>]"
    );
    exit(2);
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut input = None;
    let mut output = None;
    let mut ranks = 1usize;
    let mut quiet = false;
    let mut trace = None;
    let mut cluster = false;
    let mut monitor = false;
    // A threshold the user set, as opposed to the defaults.
    let mut cutoff = None;
    let mut params = PastisParams::default();
    while let Some(flag) = args.next() {
        let mut val = || (args.next()).unwrap_or_else(|| reject(format!("{flag} needs a value")));
        match flag.as_str() {
            "--input" => input = Some(val()),
            "--output" => output = Some(val()),
            "--ranks" => ranks = parse(&flag, val()),
            "--k" => params.k = parse(&flag, val()),
            "--subs" => params.substitutes = parse(&flag, val()),
            "--mode" => {
                let v = val();
                params.mode = match v.as_str() {
                    "xd" => AlignMode::XDrop,
                    "sw" => AlignMode::SmithWaterman,
                    "none" => AlignMode::None,
                    _ => bad_value(&flag, &v),
                }
            }
            "--ck" => params.common_kmer_threshold = parse(&flag, val()),
            "--measure" => {
                let v = val();
                params.measure = match v.as_str() {
                    "ani" => SimilarityMeasure::Ani,
                    "ns" => SimilarityMeasure::NormalizedScore,
                    _ => bad_value(&flag, &v),
                }
            }
            "--min-ani" => {
                params.min_ani = parse(&flag, val());
                cutoff = Some("--min-ani");
            }
            "--min-cov" => {
                params.min_coverage = parse(&flag, val());
                cutoff = Some("--min-cov");
            }
            "--max-kmer-freq" => params.max_kmer_frequency = Some(parse(&flag, val())),
            "--threads" => params.threads = parse(&flag, val()),
            "--mem-budget" => {
                let v = val();
                params.mem_budget_bytes =
                    Some(parse_size(&v).unwrap_or_else(|| bad_value(&flag, &v)))
            }
            "--ckpt-dir" => params.ckpt_dir = Some(std::path::PathBuf::from(val())),
            "--quiet" => quiet = true,
            "--trace" => trace = Some(val()),
            "--cluster" => cluster = true,
            "--monitor" => monitor = true,
            "--help" | "-h" => usage(),
            other => reject(format!("unknown flag: {other}")),
        }
    }
    let input = input.unwrap_or_else(|| usage());
    let q = (ranks as f64).sqrt().round() as usize;
    if ranks == 0 || q * q != ranks {
        eprintln!("--ranks must be a positive perfect square (got {ranks})");
        exit(2);
    }
    if !kmer_fits_grid(params.k, q) {
        eprintln!(
            "--k {} does not fit --ranks {ranks}: --k must be in 1..=13 and a k-mer block of ⌈24^k / {q}⌉ ids must fit 2^32",
            params.k
        );
        exit(2);
    }
    // Thresholds no edge can clear would exit 0 with an empty PSG.
    for (flag, v) in [
        ("--min-ani", params.min_ani),
        ("--min-cov", params.min_coverage),
    ] {
        if !(0.0..=1.0).contains(&v) {
            eprintln!("{flag} must be in [0, 1] (got {v})");
            exit(2);
        }
    }
    // The normalized-score measure keeps every aligned pair; it has no
    // identity or coverage cut-off to apply.
    if let (SimilarityMeasure::NormalizedScore, Some(flag)) = (params.measure, cutoff) {
        eprintln!("{flag} has no effect with --measure ns (it applies no cut-off)");
        exit(2);
    }
    if params.max_kmer_frequency == Some(0) {
        eprintln!("--max-kmer-freq must be positive (0 would drop every k-mer)");
        exit(2);
    }
    let monitor_ms = monitor.then(|| match std::env::var("PASTIS_MONITOR_MS") {
        Err(std::env::VarError::NotPresent) => 200,
        Ok(v) => match v.parse() {
            Ok(ms) if ms > 0 => ms,
            _ => {
                eprintln!("PASTIS_MONITOR_MS must be a positive integer (got {v:?})");
                exit(2);
            }
        },
        Err(e) => {
            eprintln!("PASTIS_MONITOR_MS: {e}");
            exit(2);
        }
    });
    Cli {
        input,
        output,
        ranks,
        params,
        quiet,
        trace,
        cluster,
        monitor_ms,
    }
}

/// Exit 2 with `msg` as the one line on stderr.
fn reject(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    exit(2);
}

/// Exit 2 naming `flag` and the `value` it cannot take.
fn bad_value(flag: &str, value: &str) -> ! {
    reject(format!("{flag}: invalid value {value:?}"))
}

/// `value` parsed as `flag`'s value, or exit 2 naming both.
fn parse<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value.parse().unwrap_or_else(|_| bad_value(flag, &value))
}

/// Parse a byte size with optional `k`/`m`/`g` (binary) suffix.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n.saturating_mul(mult))
}

/// Stage spans of the per-stage memory table, in pipeline order (the
/// `stage()` wrappers of `run_pipeline`; each column batch is symmetrised
/// and aligned inside `pastis.spgemm_b`).
const MEM_STAGE_ORDER: [&str; 8] = [
    "pastis.fasta",
    "pastis.form_a",
    "pastis.tr_a",
    "pastis.form_s",
    "pastis.a_s",
    "pastis.wait",
    "pastis.spgemm_b",
    "pastis.symmetricize",
];

/// Monitor self-check: parse and schema-validate `status.json`, then
/// reconcile the final snapshot against the finished run — every rank
/// present and retired, and the per-rank `done` items summing to the
/// run's global alignment count (the trace-total consistency the verify
/// lane gates on).
fn check_status(
    path: &std::path::Path,
    p: usize,
    runs: &[pastis::PastisRun],
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = obs::JsonValue::parse(&text).map_err(|e| format!("status.json: {e}"))?;
    pcomm::monitor::validate_status(&doc, true)?;
    let rows = match doc.get("final").and_then(|f| f.get("ranks")) {
        Some(obs::JsonValue::Arr(rows)) => rows,
        _ => return Err("final snapshot missing ranks".into()),
    };
    if rows.len() != p {
        return Err(format!(
            "final snapshot has {} ranks, expected {p}",
            rows.len()
        ));
    }
    let done: u64 = rows
        .iter()
        .filter_map(|r| r.get("done").and_then(|v| v.as_u64()))
        .sum();
    let expect = runs[0].counters.alignments_global;
    if done != expect {
        return Err(format!(
            "final snapshot retired {done} alignments, run counted {expect}"
        ));
    }
    Ok(())
}

fn main() {
    let cli = parse_cli();
    // Resolve the allocation-tracking switch before any rank starts
    // (default on in debug, `ALLOC_TRACK=1` opts release builds in).
    obs::alloc::init_from_env();
    // Abort postmortems land next to the output (cwd when writing stdout)
    // rather than the tmpdir default.
    let dump_dir = cli
        .output
        .as_ref()
        .and_then(|p| std::path::Path::new(p).parent())
        .filter(|d| !d.as_os_str().is_empty())
        .map(|d| d.to_path_buf())
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    obs::blackbox::set_dump_dir(&dump_dir);
    // Checkpoint directory, like the dump directory, exists before any
    // rank starts — per-rank shard writes never race on mkdir.
    if let Some(dir) = &cli.params.ckpt_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create checkpoint dir {}: {e}", dir.display());
            exit(1);
        }
    }
    // Live telemetry plane: heartbeat snapshots land next to the output,
    // like the black-box dumps.
    let status_path = dump_dir.join("status.json");
    let mut world = WorldBuilder::new();
    if let Some(interval_ms) = cli.monitor_ms {
        world = world.monitor(pcomm::monitor::MonitorConfig {
            path: Some(status_path.clone()),
            interval_ms,
            render: !cli.quiet,
        });
    }
    // The pcomm runtime dumps on its own abort paths (watchdog,
    // conformance, rank panics); this hook covers everything else —
    // panics on the main thread, before or after the world runs.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        obs::blackbox::dump_once(&obs::blackbox::installed(), &format!("panic: {info}"));
        default_hook(info);
    }));
    let fasta = match std::fs::read(&cli.input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {}: {e}", cli.input);
            exit(1);
        }
    };
    if seqstore::fasta_names(&fasta).next().is_none() {
        eprintln!("pastis: no sequences in {}", cli.input);
        exit(1);
    }

    let params = cli.params.clone();
    let cluster = cli.cluster;
    let results = world.run(cli.ranks, |comm| {
        // One recorder per rank for the whole run, so pipeline and MCL
        // spans share a single trace.
        let rec = obs::Recorder::install(comm.rank());
        let run = run_pipeline(&comm, &fasta, &params);
        let labels = cluster.then(|| {
            let _span = obs::span!("mcl.cluster");
            mcl::markov_cluster_dist(
                Rc::new(Grid::new(&comm)),
                run.counters.n_seqs,
                run.edges.clone(),
                &mcl::MclParams {
                    max_per_column: 0,
                    ..Default::default()
                },
            )
        });
        (run, labels, rec.finish())
    });
    let (runs, rest): (Vec<_>, Vec<_>) = results.into_iter().map(|(r, l, t)| (r, (l, t))).unzip();
    let (labels, traces): (Vec<_>, Vec<_>) = rest.into_iter().unzip();

    if cli.monitor_ms.is_some() {
        // The status document must parse, satisfy the schema, and its
        // final snapshot must reconcile with the run totals — the monitor
        // lane of verify.sh rides on this self-check.
        if let Err(e) = check_status(&status_path, cli.ranks, &runs) {
            eprintln!("pastis: monitor self-check FAILED: {e}");
            exit(1);
        }
        if !cli.quiet {
            eprintln!(
                "pastis: monitor snapshots validated ({})",
                status_path.display()
            );
        }
    }

    let mut edges: Vec<(u64, u64, f64)> = runs.iter().flat_map(|r| r.edges.clone()).collect();
    edges.sort_by(|a, b| a.partial_cmp(b).unwrap());

    if !cli.quiet {
        let c = &runs[0].counters;
        eprintln!(
            "pastis: {} ({} ranks): {} sequences, nnz(A)={}, nnz(B)={}, {} alignments, {} edges",
            cli.params.variant_name(),
            cli.ranks,
            c.n_seqs,
            c.nnz_a,
            c.nnz_b,
            c.alignments_global,
            edges.len()
        );
        if let Some(Some(l)) = labels.first() {
            let k = l.iter().collect::<std::collections::HashSet<_>>().len();
            eprintln!(
                "pastis: MCL grouped {} sequences into {k} clusters",
                l.len()
            );
        }
    }

    if let Some(path) = &cli.trace {
        if let Err(e) = std::fs::write(path, obs::perfetto_json(&traces)) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        // One exclusive-attribution reduction of the traces feeds both the
        // critical-path dissection and the imbalance observatory.
        let model = pcomm::CostModel::default();
        let extracts =
            obs::project::extract_stages(&traces, &Timings::STAGE_SPANS, &pcomm::kind_names());
        let rows = obs::dissect::dissect(&extracts, model.alpha, model.beta);
        eprintln!("{}", obs::dissect::render_dissection(&rows));
        // Fig11-style per-stage rank skew (λ, Gini, critical-rank
        // attribution) plus per-rank metric distributions (DP cells, nnz,
        // task counts).
        let skews = obs::imbalance::skew_from_extracts(&extracts);
        if !skews.is_empty() {
            eprintln!("{}", obs::imbalance::render_skew_table(&skews));
        }
        let metric_rows = obs::imbalance::metric_skew(
            &traces,
            &[
                "align.dp_cells",
                "align.xdrop_cells",
                "align.batch.tasks",
                "pastis.nnz_b",
            ],
        );
        if !metric_rows.is_empty() {
            eprintln!("{}", obs::imbalance::render_metric_skew(&metric_rows));
        }
        // Prefilter outcomes, merged across ranks: how many pairs the
        // striped score pass culled, how many reached `min_score`, and how
        // many of those the coverage gate kept from the traceback.
        let metrics = obs::MetricsSnapshot::merged(
            &traces.iter().map(|t| t.metrics.clone()).collect::<Vec<_>>(),
        );
        let tier = |k: &str| metrics.counters.get(k).copied().unwrap_or(0);
        let (sc, ok) = (tier("prefilter.striped_culled"), tier("prefilter.passed"));
        let cc = tier("prefilter.coverage_culled");
        if sc + ok > 0 {
            let total = (sc + ok) as f64;
            eprintln!(
                "pastis: prefilter: {sc} score-culled ({:.1}%), {ok} passed ({:.1}%), \
                 {cc} of them coverage-culled ({:.1}%)",
                100.0 * sc as f64 / total,
                100.0 * ok as f64 / total,
                100.0 * cc as f64 / total,
            );
        }
        // Memory observatory: the peak of the process-wide live bytes
        // while each stage ran (peak windows) and per-structure
        // watermarks (HeapSize probes).
        match obs::dissect::render_stage_memory(&metrics, &MEM_STAGE_ORDER) {
            Some(table) => eprintln!("pastis: per-stage peak live bytes:\n{table}"),
            None => eprintln!(
                "pastis: allocation tracking off — run with ALLOC_TRACK=1 \
                 for the per-stage memory table"
            ),
        }
        // Out-of-core runs: per-batch peak live bytes, one window per
        // column batch nested in the stage's (DESIGN.md §15) — the number
        // the batch sizer's budget bounds.
        let mut batch_rows: Vec<(usize, i64)> = metrics
            .gauges
            .iter()
            .filter_map(|(name, &v)| Some((name.strip_prefix("mem.batch.")?.parse().ok()?, v)))
            .collect();
        if !batch_rows.is_empty() {
            batch_rows.sort_unstable();
            eprintln!("pastis: per-batch peak live bytes (out-of-core windows):");
            for (k, v) in batch_rows {
                eprintln!("  batch {k:>4}  {v:>14} B");
            }
        }
        let watermarks = obs::project::extract_mem_watermarks(&traces);
        if !watermarks.is_empty() {
            eprintln!(
                "pastis: structure watermarks (peak heap bytes):\n{}",
                obs::dissect::render_watermarks(&watermarks)
            );
        }
        eprintln!("pastis: wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }

    let mut out: Box<dyn std::io::Write> = match &cli.output {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                exit(1);
            }
        },
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    // Names for the report (records are numbered in file order, matching
    // the pipeline's global ids), read once the ranks are done.
    let names: Vec<String> = seqstore::fasta_names(&fasta).collect();
    for (i, j, w) in edges {
        writeln!(out, "{}\t{}\t{w:.4}", names[i as usize], names[j as usize])
            .expect("write failed");
    }
    out.flush().expect("flush failed");
}
