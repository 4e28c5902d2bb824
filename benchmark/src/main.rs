//! `pastis-benchmark` — the repo benchmark.
//!
//! End-to-end numbers come from timing the real `pastis` binary as a
//! child process (no `--trace`, no `--monitor`); per-layer numbers come
//! from a separate in-process traced replay. See `benchmark/README.md`.
//!
//! ```text
//! pastis-benchmark --pastis-bin <path> [--workload <name>] [--seed <n>]
//!                  [--seconds <n>] [--trace 0|1] [--check-repeat]
//! ```
//!
//! With `--workload` and `--trace` it makes one run and prints the
//! driver's result object as its last line. Otherwise it is the suite:
//! it re-executes itself once per workload and trace mode (a fresh
//! process each, so the replay's memory never becomes the floor of a
//! timed child's `ru_maxrss`) and prints every metric.

mod child;
mod metrics;
mod psg;
mod replay;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Instant;

use child::{run_child, self_peak_rss_mb, ChildRun};
use metrics::{median, MetricDef, Values, END_TO_END, PER_LAYER};
use psg::{check_psg, PsgSummary};
use workloads::{Workload, MIN_ANI, REFERENCE_SEED, WORKLOADS};

/// Measuring window of one run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 6;
/// Set-ups (dataset + FASTA + warm-up) per end-to-end run; `setup_s` is
/// their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions behind an end-to-end median.
const MIN_REPS: usize = 3;
/// Fewest replay iterations: two, so that "counts repeat exactly" is
/// checked on every traced run.
const MIN_ITERATIONS: usize = 2;
/// A span's children must account for this share of it.
const MIN_CHILD_COVER: f64 = 0.95;
/// Everything the harness writes lands here (relative to the repo root,
/// where `run.sh` starts it).
const OUT_DIR: &str = "benchmark/out";

struct Cli {
    pastis_bin: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    check_repeat: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pastis-benchmark --pastis-bin <path> [--workload <name>] [--seed <n>] \
         [--seconds <n>] [--trace 0|1] [--check-repeat]\nworkloads:"
    );
    for w in &WORKLOADS {
        eprintln!("  {:<12} {}", w.name, w.why);
    }
    exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        pastis_bin: String::new(),
        workload: None,
        seed: REFERENCE_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        check_repeat: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--pastis-bin" => cli.pastis_bin = val(),
            "--workload" => cli.workload = Some(workloads::find(&val()).unwrap_or_else(|| usage())),
            "--seed" => cli.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--check-repeat" => cli.check_repeat = true,
            _ => usage(),
        }
    }
    if cli.pastis_bin.is_empty() {
        usage();
    }
    cli
}

/// Tally of everything a run attempted (children, replays, in-process
/// pipelines, checks that need no process) and what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// A check that needs no process: it holds, or `why` says why not.
    fn require(&mut self, what: &str, holds: bool, why: impl FnOnce() -> String) {
        self.attempt(what, if holds { Ok(()) } else { Err(why()) });
    }

    /// Every later output of a run must equal its first PSG.
    fn same_psg(&mut self, what: &str, got: &[u8], first: &[u8]) {
        self.require(what, got == first, || {
            format!(
                "differs from this run's first PSG ({} vs {} bytes)",
                got.len(),
                first.len()
            )
        });
    }

    fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Files of one run: `out/work/<workload>.t<trace>/…`, removed at the end.
struct WorkDir {
    dir: PathBuf,
    fasta: PathBuf,
    psg: PathBuf,
    ckpt: PathBuf,
}

impl WorkDir {
    fn create(w: &Workload, trace: bool) -> WorkDir {
        let dir = Path::new(OUT_DIR)
            .join("work")
            .join(format!("{}.t{}", w.name, trace as u8));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            exit(1);
        });
        WorkDir {
            fasta: dir.join("input.fasta"),
            psg: dir.join("psg.tsv"),
            ckpt: dir.join("ckpt"),
            dir,
        }
    }

    /// An empty checkpoint directory, so no repetition ever resumes from
    /// an earlier one's shards.
    fn fresh_ckpt(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.ckpt);
        std::fs::create_dir_all(&self.ckpt).map_err(|e| format!("{}: {e}", self.ckpt.display()))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run the workload's child once and read back the PSG it wrote.
fn run_pastis(bin: &str, w: &Workload, work: &WorkDir) -> Result<(ChildRun, Vec<u8>), String> {
    work.fresh_ckpt()?;
    let _ = std::fs::remove_file(&work.psg);
    let run = run_child(bin, &w.child_args(&work.fasta, &work.psg, &work.ckpt))
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if !run.ok {
        return Err("pastis exited non-zero".into());
    }
    let psg = std::fs::read(&work.psg).map_err(|e| format!("{}: {e}", work.psg.display()))?;
    Ok((run, psg))
}

/// Check the first PSG of a run: the full format check, then — at the
/// reference seed — edge count and checksum against the committed
/// reference (other seeds print them, so two commits can be compared).
/// A well-formed PSG becomes what every later output of the run must
/// equal, whether or not it matched the reference.
fn first_psg(tally: &mut Tally, w: &Workload, seed: u64, psg: Vec<u8>) -> Option<Vec<u8>> {
    let format = check_psg(&psg, w.n_seqs as u64, w.mode, MIN_ANI);
    let PsgSummary { edges, fnv } = tally.attempt("PSG format", format)?;
    println!("{} psg edges {edges} fnv {fnv:#018x} seed {seed}", w.name);
    if seed == REFERENCE_SEED {
        tally.require("PSG reference", (edges, fnv) == w.reference, || {
            let (edges, fnv) = w.reference;
            format!("committed reference is {edges} edges fnv {fnv:#018x}")
        });
    }
    Some(psg)
}

struct Outcome {
    values: Values,
    notes: BTreeMap<&'static str, String>,
    tally: Tally,
}

impl Outcome {
    /// Nothing could be measured: every declared metric reads 0 and the
    /// tally says what failed.
    fn nothing(defs: &[MetricDef], tally: Tally) -> Outcome {
        Outcome {
            values: defs.iter().map(|d| (d.name, 0.0)).collect(),
            notes: BTreeMap::new(),
            tally,
        }
    }
}

/// `--trace 0`: time the real binary. Closed loop, one child at a time.
fn run_end_to_end(cli: &Cli, w: &'static Workload) -> Outcome {
    let mut tally = Tally::default();
    let work = WorkDir::create(w, false);
    let bin = cli.pastis_bin.as_str();

    // Set-up, several times over: dataset from the seed, FASTA on disk,
    // one untimed warm-up repetition (first runs are outliers).
    let mut setups = Vec::new();
    let mut expected: Option<Vec<u8>> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        std::fs::write(&work.fasta, w.fasta(cli.seed)).expect("FASTA written");
        let warm = tally.attempt("warm-up", run_pastis(bin, w, &work));
        setups.push(start.elapsed().as_secs_f64());
        if let Some((_, psg)) = warm {
            match &expected {
                None => expected = first_psg(&mut tally, w, cli.seed, psg),
                Some(first) => tally.same_psg("warm-up PSG", &psg, first),
            }
        }
    }

    let mut reps: Vec<ChildRun> = Vec::new();
    let window = Instant::now();
    while reps.len() < MIN_REPS || window.elapsed().as_secs() < cli.seconds {
        let Some((run, psg)) = tally.attempt("timed repetition", run_pastis(bin, w, &work)) else {
            break;
        };
        if let Some(first) = &expected {
            tally.same_psg("repetition PSG", &psg, first);
        }
        reps.push(run);
    }

    // The p-oblivious / batch-oblivious invariant: same bytes as the
    // single-rank monolithic run of the same input.
    if let (Some(other), Some(first)) = (w.same_psg_as.and_then(workloads::find), &expected) {
        if let Some((_, psg)) = tally.attempt(other.name, run_pastis(bin, other, &work)) {
            tally.same_psg(&format!("byte identity with {}", other.name), &psg, first);
        }
    }

    if reps.is_empty() {
        return Outcome::nothing(&END_TO_END, tally);
    }
    let column = |f: fn(&ChildRun) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let min_child_rss = column(|r| r.peak_rss_mb)
        .into_iter()
        .fold(f64::MAX, f64::min);
    let own_rss = self_peak_rss_mb();
    tally.require("harness RSS floor", own_rss < min_child_rss, || {
        format!(
            "the harness peaked at {own_rss:.1} MiB, not below the child's \
             {min_child_rss:.1} MiB: peak_rss_mb reads the harness, not pastis"
        )
    });
    let mut values = Values::new();
    let mut notes = BTreeMap::new();
    for (name, samples) in [
        ("wall_s", column(|r| r.wall_s)),
        ("cpu_s", column(|r| r.cpu_s)),
        ("peak_rss_mb", column(|r| r.peak_rss_mb)),
        ("setup_s", setups),
    ] {
        let (lo, hi) = samples
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        notes.insert(name, format!("min {lo:.4} max {hi:.4} n {}", samples.len()));
        values.insert(name, median(&samples));
    }
    values.insert("seqs_per_s", w.n_seqs as f64 / values["wall_s"]);
    Outcome {
        values,
        notes,
        tally,
    }
}

/// Files and bytes in a checkpoint directory (shards and manifest sit
/// side by side, no subdirectories).
fn dir_usage(dir: &Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .fold((0, 0), |(files, bytes), m| (files + 1, bytes + m.len()))
}

/// `--trace 1`: the per-layer numbers. Each iteration is one timed child,
/// one replay and one in-process pipeline; the iteration with the median
/// `pastis.pipeline_s` is the one reported and written out, so the trace
/// file, the printed numbers and the glue identity all describe the same
/// execution.
fn run_traced(cli: &Cli, w: &'static Workload) -> Outcome {
    let mut tally = Tally::default();
    let work = WorkDir::create(w, true);
    let bin = cli.pastis_bin.as_str();
    obs::blackbox::set_dump_dir(OUT_DIR);

    let fasta = w.fasta(cli.seed);
    std::fs::write(&work.fasta, &fasta).expect("FASTA written");
    let expected = tally
        .attempt("warm-up", run_pastis(bin, w, &work))
        .and_then(|(_, psg)| first_psg(&mut tally, w, cli.seed, psg));
    let Some(expected) = expected else {
        return Outcome::nothing(&PER_LAYER, tally);
    };

    let inproc_ckpt = work.dir.join("ckpt_inproc");
    let mut iterations: Vec<(Values, replay::Replay)> = Vec::new();
    let window = Instant::now();
    while iterations.len() < MIN_ITERATIONS || window.elapsed().as_secs() < cli.seconds {
        let Some((run, psg)) = tally.attempt("timed child", run_pastis(bin, w, &work)) else {
            break;
        };
        tally.same_psg("child PSG", &psg, &expected);
        let (ckpt_files, ckpt_bytes) = dir_usage(&work.ckpt);
        let child = replay::ChildSide {
            wall_s: run.wall_s,
            out_bytes: psg.len() as u64,
            ckpt_files,
            ckpt_bytes,
        };

        let rep = replay::replay(w, &fasta, &inproc_ckpt);
        tally.same_psg("replay == binary", &rep.psg, &expected);
        let covered = rep
            .spans
            .iter()
            .filter(|s| s.parent.is_none() || s.name == replay::RANK_SPAN)
            .map(|s| spans::child_cover(&rep.spans, s))
            .fold(1.0, f64::min);
        tally.require("span cover", covered >= MIN_CHILD_COVER, || {
            format!(
                "children cover only {:.1}% of a replay span",
                100.0 * covered
            )
        });

        let _ = std::fs::remove_dir_all(&inproc_ckpt);
        std::fs::create_dir_all(&inproc_ckpt).expect("checkpoint dir created");
        let pipe = replay::run_in_process(w, &fasta, &inproc_ckpt);
        tally.same_psg("in-process pipeline == binary", &pipe.psg, &expected);

        let values = replay::layer_values(&rep, &pipe, &child);
        // The replay walked the same matrices the pipeline did.
        let sum = |span: &str, key: &str| rep.sum(span, key) as f64;
        for (name, replayed) in [
            ("pastis.a_nnz", sum("sparse.from_triples", "nnz")),
            ("pastis.b_nnz", sum(replay::RANK_SPAN, "b_nnz")),
            ("pastis.candidates", sum(replay::RANK_SPAN, "candidates")),
            ("pastis.alignments", values["align.pairs"]),
        ] {
            tally.require(
                "replay count == pipeline counter",
                values[name] == replayed,
                || {
                    format!(
                        "{name}: pipeline counted {}, replay {replayed}",
                        values[name]
                    )
                },
            );
        }
        iterations.push((values, rep));
    }
    if iterations.is_empty() {
        return Outcome::nothing(&PER_LAYER, tally);
    }

    let first = &iterations[0].0;
    let drifted = PER_LAYER
        .iter()
        .filter(|d| d.exact)
        .find(|d| iterations.iter().any(|(v, _)| v[d.name] != first[d.name]));
    tally.require("counts repeat exactly", drifted.is_none(), || {
        format!("{} changed between iterations", drifted.unwrap().name)
    });

    iterations.sort_by(|a, b| {
        a.0["pastis.pipeline_s"]
            .partial_cmp(&b.0["pastis.pipeline_s"])
            .expect("times are never NaN")
    });
    let n = iterations.len();
    let (values, rep) = iterations.swap_remove((n - 1) / 2);
    let trace_path = Path::new(OUT_DIR).join(format!("{}.trace.json", w.name));
    tally.attempt(
        "trace written",
        std::fs::write(&trace_path, spans::trace_json(w.name, cli.seed, &rep.spans))
            .map_err(|e| format!("{}: {e}", trace_path.display())),
    );
    let mut notes = BTreeMap::new();
    notes.insert("pastis.pipeline_s", format!("median of n {n}"));
    Outcome {
        values,
        notes,
        tally,
    }
}

/// One run as the driver asks for it; the result object is the last line.
fn single_run(cli: &Cli, w: &'static Workload, trace: bool) {
    let (defs, outcome): (&[MetricDef], Outcome) = if trace {
        (&PER_LAYER, run_traced(cli, w))
    } else {
        (&END_TO_END, run_end_to_end(cli, w))
    };
    metrics::assert_declared(defs, &outcome.values);
    metrics::print_lines(w.name, defs, &outcome.values, &outcome.notes);
    let t = &outcome.tally;
    println!(
        "{}",
        metrics::result_json(defs, &outcome.values, t.attempted.max(1), t.failed)
    );
}

/// Results of one pass over the suite: `(workload, metric) → value`, plus
/// the failure total.
struct SuiteResult {
    values: BTreeMap<(&'static str, &'static str), f64>,
    failed: u64,
}

/// Re-execute this program for one workload and trace mode; echo its
/// metric lines and read its result object.
fn suite_run(cli: &Cli, w: &'static Workload, trace: bool, into: &mut SuiteResult) {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--pastis-bin", &cli.pastis_bin, "--workload", w.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("harness re-executes itself");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let doc = lines
        .pop()
        .filter(|_| out.status.success())
        .and_then(|last| obs::JsonValue::parse(last).ok());
    let Some(doc) = doc else {
        eprintln!(
            "FAILED {} --trace {}: no result object",
            w.name, trace as u8
        );
        into.failed += 1;
        return;
    };
    for line in lines {
        println!("{line}");
    }
    let failed = doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
    let attempted = doc.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
    println!(
        "{} failed_runs.t{} {failed} count of {attempted}",
        w.name, trace as u8
    );
    into.failed += failed;
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    for d in defs {
        let value = doc
            .get("metrics")
            .and_then(|m| m.get(d.name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN);
        into.values.insert((w.name, d.name), value);
    }
}

fn suite(cli: &Cli) -> SuiteResult {
    let mut result = SuiteResult {
        values: BTreeMap::new(),
        failed: 0,
    };
    for w in WORKLOADS
        .iter()
        .filter(|w| cli.workload.is_none_or(|only| only.name == w.name))
    {
        for trace in [false, true] {
            if cli.trace.is_none_or(|only| only == trace) {
                suite_run(cli, w, trace, &mut result);
            }
        }
    }
    result
}

/// `--check-repeat`: the suite twice on the same code. Every end-to-end
/// median must agree within its bound and every count exactly.
fn check_repeat(first: &SuiteResult, second: &SuiteResult) -> u64 {
    let mut bad = 0;
    println!("# spread between two passes: workload metric first second worse% allowed verdict");
    for (&(workload, name), &a) in &first.values {
        let b = second
            .values
            .get(&(workload, name))
            .copied()
            .unwrap_or(f64::NAN);
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .expect("suite values are declared metrics");
        // Whichever pass is the baseline, the other may not be worse
        // than the bound.
        let worse = metrics::worsening(def, a, b).max(metrics::worsening(def, b, a));
        let (allowed, ok) = match (def.bound, def.exact) {
            (Some(bound), _) => (format!("{:.0}%", 100.0 * bound), worse <= bound),
            (None, true) => ("exact".to_string(), a == b),
            (None, false) => ("-".to_string(), true),
        };
        if !ok {
            bad += 1;
        }
        println!(
            "{workload} {name} {a} {b} {:.2}% {allowed} {}",
            100.0 * worse,
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    bad
}

fn main() {
    let cli = parse_cli();
    if let (Some(w), Some(trace), false) = (cli.workload, cli.trace, cli.check_repeat) {
        return single_run(&cli, w, trace);
    }
    let first = suite(&cli);
    let mut failed = first.failed;
    if cli.check_repeat {
        let second = suite(&cli);
        failed += second.failed + check_repeat(&first, &second);
    }
    if failed > 0 {
        eprintln!("pastis-benchmark: {failed} failure(s)");
        exit(1);
    }
}
