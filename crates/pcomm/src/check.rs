//! Per-rank glue between the runtime and the `pcheck` verification layer.
//!
//! `RankCheck` lives inside `RankCtx` (one per rank thread, not `Send`) and
//! funnels the rank's sends, receives, and collective entries into the
//! world-shared [`CheckShared`]. When checked mode is off it is `None` and
//! every hook collapses to a branch on that option.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use obs::blackbox::RankRing;
use pcheck::{CheckShared, CollKind, CollRecord, Perturb, WaitInfo};

/// Token returned by [`RankCheck::enter`]; hand it back to
/// [`RankCheck::leave`] when the collective returns. `seq` is the recorded
/// top-level sequence number (`None` for nested collective calls).
pub(crate) struct CollEntry {
    pub(crate) seq: Option<u64>,
    prev_op: Option<(&'static str, u64, u64)>,
}

/// Per-rank checker state. Created only when the world runs in checked mode.
pub(crate) struct RankCheck {
    pub(crate) shared: Arc<CheckShared>,
    /// The world's flight-recorder rings, dumped on abort.
    pub(crate) rings: Arc<[RankRing]>,
    rank: usize,
    /// Collective nesting depth: barrier is built from reduce + bcast, so
    /// only depth-0 entries are recorded in the conformance ledger.
    depth: Cell<u32>,
    /// `(collective name, comm, seq)` of the innermost *recorded* collective,
    /// attached to blocked-wait reports so a deadlock inside e.g. an
    /// allgather names the allgather, not its internal recv.
    cur_op: Cell<Option<(&'static str, u64, u64)>>,
    /// Next top-level collective sequence number per communicator id. This is
    /// the checker's own ledger counter (counts only depth-0 collectives),
    /// distinct from the tag-reservation counter in `Comm`.
    next_seq: RefCell<HashMap<u64, u64>>,
    /// Seeded schedule jitter; `None` unless perturbation was requested.
    perturb: Option<RefCell<Perturb>>,
}

impl RankCheck {
    pub(crate) fn new(
        shared: Arc<CheckShared>,
        rings: Arc<[RankRing]>,
        rank: usize,
        perturb_seed: Option<u64>,
    ) -> Self {
        RankCheck {
            shared,
            rings,
            rank,
            depth: Cell::new(0),
            cur_op: Cell::new(None),
            next_seq: RefCell::new(HashMap::new()),
            perturb: perturb_seed.map(|s| RefCell::new(Perturb::new(s, rank))),
        }
    }

    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// Schedule jitter hook at send / recv / collective entry.
    pub(crate) fn before_op(&self) {
        if let Some(p) = &self.perturb {
            p.borrow_mut().before_op();
        }
    }

    /// Drain-first mailbox polling coin (perturbation mode only).
    pub(crate) fn drain_coin(&self) -> bool {
        match &self.perturb {
            Some(p) => p.borrow_mut().coin(),
            None => false,
        }
    }

    /// If another rank aborted the world, panic with the secondary message.
    pub(crate) fn check_abort(&self) {
        if let Some(msg) = self.shared.abort_message() {
            panic!("{msg}");
        }
    }

    /// Abort the world with `report` and panic. First caller's report wins
    /// and becomes the primary diagnostic. Every checker abort (deadlock
    /// watchdog, conformance violation, barrier ledger) funnels through
    /// here, so this is where the flight-recorder rings are dumped.
    pub(crate) fn abort(&self, report: String) -> ! {
        let msg = self.shared.abort_with(report);
        crate::dump_blackbox(&self.rings, &msg);
        panic!("{msg}");
    }

    /// Record entry into a top-level collective; nested collective calls (the
    /// reduce/bcast inside barrier, gather inside allgather, …) only bump the
    /// depth. Aborts the world on a conformance violation.
    #[allow(clippy::too_many_arguments)] // mirrors CollRecord's fields
    pub(crate) fn enter(
        &self,
        comm: u64,
        group: &[usize],
        kind: CollKind,
        root: Option<usize>,
        type_id: Option<std::any::TypeId>,
        type_name: Option<&'static str>,
        detail: Vec<usize>,
    ) -> CollEntry {
        self.before_op();
        self.check_abort();
        let d = self.depth.get();
        self.depth.set(d + 1);
        if d != 0 {
            return CollEntry {
                seq: None,
                prev_op: self.cur_op.get(),
            };
        }
        let seq = {
            let mut m = self.next_seq.borrow_mut();
            let e = m.entry(comm).or_insert(0);
            let s = *e;
            *e += 1;
            s
        };
        let rec = CollRecord {
            kind,
            root,
            type_id,
            type_name,
            detail,
        };
        if let Err(report) = self
            .shared
            .record_collective(self.rank, comm, seq, group, rec)
        {
            self.abort(report);
        }
        let prev = self.cur_op.replace(Some((kind.name(), comm, seq)));
        CollEntry {
            seq: Some(seq),
            prev_op: prev,
        }
    }

    /// Leave a collective entered via [`RankCheck::enter`].
    pub(crate) fn leave(&self, entry: CollEntry) {
        self.depth.set(self.depth.get() - 1);
        if entry.seq.is_some() {
            self.cur_op.set(entry.prev_op);
        }
    }

    /// Temporarily relabel blocked-wait reports with a collective op. Used by
    /// nonblocking collectives, whose completing receive runs after the
    /// recording `enter`/`leave` pair has already unwound: without this, a
    /// deadlock inside `BcastHandle::wait` would be reported as an anonymous
    /// point-to-point recv instead of naming the ibcast. Returns the previous
    /// label so the caller can restore it.
    pub(crate) fn set_op(
        &self,
        op: Option<(&'static str, u64, u64)>,
    ) -> Option<(&'static str, u64, u64)> {
        self.cur_op.replace(op)
    }

    /// Barrier-exit ledger check: every member must have recorded this
    /// barrier (and hence everything before it).
    pub(crate) fn barrier_check(&self, comm: u64, seq: u64, group: &[usize]) {
        if let Err(report) = self.shared.barrier_check(self.rank, comm, seq, group) {
            self.abort(report);
        }
    }

    /// Wait info for a blocking receive, labeled with the enclosing
    /// collective when there is one.
    pub(crate) fn wait_info(
        &self,
        src: usize,
        comm: u64,
        tag: u64,
        type_name: &'static str,
    ) -> WaitInfo {
        WaitInfo {
            src,
            comm,
            tag,
            type_name,
            op: self.cur_op.get(),
        }
    }
}
