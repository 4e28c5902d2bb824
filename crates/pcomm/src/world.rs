//! World construction: spawn one thread per rank and run a closure on each.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};

use crate::check::RankCheck;
use crate::comm::{Comm, RankCtx};
use crate::monitor::MonitorConfig;
use crate::MAX_USER_TAG;
use obs::blackbox::RankRing;
use pcheck::{CheckShared, PRIMARY_PREFIX, SECONDARY_PREFIX};

/// A message in flight between two ranks.
pub(crate) struct Packet {
    pub comm: u64,
    /// Source *world* rank.
    pub src: usize,
    pub tag: u64,
    pub bytes: usize,
    /// Payload type name, carried for checker diagnostics (mismatch panics,
    /// deadlock stash dumps, leak reports).
    pub type_name: &'static str,
    pub payload: Box<dyn Any + Send>,
}

pub(crate) struct WorldShared {
    pub senders: Vec<Sender<Packet>>,
}

/// Entry point of the runtime.
pub struct World;

/// Stack size for rank threads; generous to accommodate deep DP recursion in
/// user code.
const RANK_STACK: usize = 8 << 20;

/// Default deadlock-watchdog threshold when neither the builder nor
/// `PCHECK_WATCHDOG_MS` overrides it.
const DEFAULT_WATCHDOG_MS: u64 = 2000;

/// Configures how a world runs before launching it: runtime verification
/// (the `pcheck` layer), schedule perturbation, the deadlock watchdog, and
/// the live monitor.
///
/// Precedence for each knob: explicit builder call > environment variable >
/// default. The environment variables are `PCHECK` (`0`/`1`), `PCHECK_PERTURB`
/// (a seed), and `PCHECK_WATCHDOG_MS`. Checked mode defaults to on under
/// `cfg(debug_assertions)` — i.e. in `cargo test` — and off in release
/// builds, so benchmarks pay nothing.
///
/// ```
/// use pcomm::WorldBuilder;
///
/// let sums = WorldBuilder::new()
///     .checked(true)
///     .watchdog_ms(500)
///     .run(2, |comm| comm.allreduce(1u64, |a, b| a + b));
/// assert_eq!(sums, vec![2, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorldBuilder {
    checked: Option<bool>,
    perturb: Option<u64>,
    watchdog_ms: Option<u64>,
    monitor: Option<MonitorConfig>,
}

impl WorldBuilder {
    pub fn new() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// Force checked mode on or off, overriding `PCHECK` and the
    /// debug-assertions default.
    pub fn checked(mut self, on: bool) -> WorldBuilder {
        self.checked = Some(on);
        self
    }

    /// Enable seeded schedule perturbation (implies checked mode): ranks
    /// inject yields/short sleeps at messaging points and sometimes drain
    /// their mailbox before matching. Message matching semantics are
    /// unchanged, so correct programs produce bit-identical results under
    /// every seed.
    pub fn perturb(mut self, seed: u64) -> WorldBuilder {
        self.perturb = Some(seed);
        self
    }

    /// How long a rank may sit in a blocked receive without world-wide
    /// progress before the deadlock watchdog scans (checked mode only).
    pub fn watchdog_ms(mut self, ms: u64) -> WorldBuilder {
        self.watchdog_ms = Some(ms);
        self
    }

    /// Run a heartbeat thread beside this world's ranks that samples
    /// their flight-recorder rings into `status.json` snapshots (see
    /// [`crate::monitor`]). Other worlds, concurrent or later, are not
    /// monitored unless armed themselves.
    pub fn monitor(mut self, cfg: MonitorConfig) -> WorldBuilder {
        self.monitor = Some(cfg);
        self
    }

    /// Run `f` on `p` ranks, each on its own OS thread, and return the per
    /// rank results in rank order. See [`World::run`] for the base contract.
    pub fn run<R, F>(&self, p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        assert!(p > 0, "world must have at least one rank");
        let perturb = self.perturb.or_else(|| pcheck::env_u64("PCHECK_PERTURB"));
        let checked = perturb.is_some()
            || self
                .checked
                .or_else(|| pcheck::env_flag("PCHECK"))
                .unwrap_or(cfg!(debug_assertions));
        let watchdog_ms = self
            .watchdog_ms
            .or_else(|| pcheck::env_u64("PCHECK_WATCHDOG_MS"))
            .unwrap_or(DEFAULT_WATCHDOG_MS);
        let check_shared =
            checked.then(|| Arc::new(CheckShared::new(p, MAX_USER_TAG, watchdog_ms)));

        let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| unbounded::<Packet>()).unzip();
        let shared = Arc::new(WorldShared { senders });
        let f = &f;

        // Abort/checkpoint dump directories are created once here, before
        // any rank thread exists: the black-box dump path runs inside
        // panic/abort handlers where a per-rank `create_dir_all` race can
        // lose a dump to a sibling's concurrent mkdir failure.
        obs::blackbox::ensure_dump_dir();
        // Flight recorder: one bounded event ring per rank, for the
        // postmortem dumps written on abort (deadlock, panic, leak audit)
        // and for this world's monitor. Created here so the monitor
        // samples exactly these ranks, also after they finish.
        let rings: Vec<RankRing> = (0..p).map(RankRing::new).collect();

        std::thread::scope(|scope| {
            // Heartbeat channel: when armed, one monitor thread samples the
            // rings out-of-band (see `crate::monitor`). Spawned inside the
            // scope and always stopped before the join results are
            // triaged, so the scope can close even when a rank panicked.
            let monitor = self
                .monitor
                .clone()
                .map(|cfg| crate::monitor::spawn_monitor(scope, rings.clone(), cfg));
            let mut handles = Vec::with_capacity(p);
            for ((rank, rx), ring) in receivers.into_iter().enumerate().zip(&rings) {
                let shared = Arc::clone(&shared);
                let check_shared = check_shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(RANK_STACK)
                    .spawn_scoped(scope, move || {
                        crate::install_obs_provider();
                        // RAII-dropped with the thread, which marks the
                        // ring inactive for the monitor's final snapshot.
                        let _blackbox = ring.install();
                        let check = check_shared
                            .as_ref()
                            .map(|cs| RankCheck::new(Arc::clone(cs), rank, perturb));
                        let ctx = Rc::new(RankCtx::new(shared, rank, rx, check));
                        let comm = Comm::world(Rc::clone(&ctx), p);
                        match check_shared {
                            None => f(comm),
                            Some(cs) => {
                                // Catch rank panics so the checker can mark
                                // the rank dead: sibling ranks then fail fast
                                // with a diagnosis instead of hanging on
                                // receives that can never complete.
                                match std::panic::catch_unwind(AssertUnwindSafe(|| f(comm))) {
                                    Ok(r) => {
                                        ctx.finalize();
                                        r
                                    }
                                    Err(e) => {
                                        cs.mark_dead(rank);
                                        // Checker aborts dumped already (the
                                        // panicking rank went through
                                        // RankCheck::abort); this catches
                                        // plain user panics.
                                        crate::dump_blackbox(&format!("rank {rank} panicked"));
                                        std::panic::resume_unwind(e);
                                    }
                                }
                            }
                        }
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            let results: Vec<Result<R, Box<dyn Any + Send>>> =
                handles.into_iter().map(|h| h.join()).collect();
            // All ranks are joined; ask the monitor for its final snapshot
            // *before* triage — collect_or_unwind may resume a panic, and
            // the scope would otherwise wait on a monitor nobody stopped.
            if let Some(m) = monitor {
                m.finish();
            }
            collect_or_unwind(results)
        })
    }
}

/// Join-result triage: return all values, or re-raise the most informative
/// panic. Checker-primary reports (the rank that diagnosed the failure) win
/// over plain user panics, which win over `pcheck-abort: ` secondaries (ranks
/// that merely observed the abort flag).
fn collect_or_unwind<R>(results: Vec<Result<R, Box<dyn Any + Send>>>) -> Vec<R> {
    if results.iter().all(Result::is_ok) {
        return results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| unreachable!()))
            .collect();
    }
    fn msg_of(e: &Box<dyn Any + Send>) -> &str {
        e.downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&'static str>().copied())
            .unwrap_or("")
    }
    let errs: Vec<&Box<dyn Any + Send>> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    let pick = errs
        .iter()
        .position(|e| msg_of(e).starts_with(PRIMARY_PREFIX))
        .or_else(|| {
            errs.iter()
                .position(|e| !msg_of(e).starts_with(SECONDARY_PREFIX))
        })
        .unwrap_or(0);
    let chosen = results
        .into_iter()
        .filter_map(Result::err)
        .nth(pick)
        .expect("an error exists by construction");
    std::panic::resume_unwind(chosen)
}

impl World {
    /// Run `f` on `p` ranks, each on its own OS thread, and return the per
    /// rank results in rank order.
    ///
    /// Panics in any rank propagate to the caller after all threads have
    /// been joined. Equivalent to `WorldBuilder::new().run(p, f)`: runtime
    /// verification is on under `cfg(debug_assertions)` or `PCHECK=1` (see
    /// [`WorldBuilder`]), off otherwise.
    pub fn run<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        WorldBuilder::new().run(p, f)
    }
}
