//! Communicators: point-to-point messaging and communicator splitting.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::check::{CollEntry, RankCheck};
use crate::payload::Payload;
use crate::stats::{self, CommStats};
use crate::world::{Packet, WorldShared};
use crate::MAX_USER_TAG;
use pcheck::CollKind;

/// Per-thread rank context: mailbox, out-of-order stash and counters.
/// (communicator id, source world rank, tag) → queued (payload, bytes, type).
type Stash = HashMap<(u64, usize, u64), VecDeque<(Box<dyn Any + Send>, usize, &'static str)>>;

pub(crate) struct RankCtx {
    pub(crate) world: Arc<WorldShared>,
    pub(crate) world_rank: usize,
    pub(crate) rx: Receiver<Packet>,
    /// Messages that arrived before a matching `recv` was posted.
    stash: RefCell<Stash>,
    /// Runtime-verification hooks; `None` when checked mode is off.
    pub(crate) check: Option<RankCheck>,
}

impl RankCtx {
    pub(crate) fn new(
        world: Arc<WorldShared>,
        world_rank: usize,
        rx: Receiver<Packet>,
        check: Option<RankCheck>,
    ) -> Self {
        RankCtx {
            world,
            world_rank,
            rx,
            stash: RefCell::new(HashMap::new()),
            check,
        }
    }

    /// Park an out-of-order packet in the stash (mirroring it into the shared
    /// checker state so other ranks' deadlock reports can list it).
    fn stash_put(&self, pkt: Packet) {
        if let Some(check) = &self.check {
            check.shared.stash_push(
                self.world_rank,
                pkt.comm,
                pkt.src,
                pkt.tag,
                pkt.type_name,
                pkt.bytes as u64,
            );
            check.shared.bump(self.world_rank);
        }
        self.stash
            .borrow_mut()
            .entry((pkt.comm, pkt.src, pkt.tag))
            .or_default()
            .push_back((pkt.payload, pkt.bytes, pkt.type_name));
    }

    /// Pull everything currently queued in the mailbox into the stash.
    /// Used by the perturbation mode's drain-first polling; per-key FIFO
    /// order is preserved, so matching semantics are unchanged.
    fn drain_mailbox(&self) {
        while let Ok(pkt) = self.rx.try_recv() {
            self.stash_put(pkt);
        }
    }

    /// Finalize this rank under checked mode, in two phases so the leak
    /// audit cannot miss a message a slower rank sends after this one is
    /// done: announce that this rank will send no more and wait until that
    /// holds for every rank, *then* audit undelivered messages and wait
    /// for the world verdict (collective counts and leaks across all
    /// ranks). Panics with the verdict report on failure.
    pub(crate) fn finalize(&self) {
        let Some(check) = &self.check else { return };
        check.shared.finalize_rank(self.world_rank);
        while !check.shared.all_finalized() {
            // Another rank may abort (deadlock, conformance) while we wait.
            check.check_abort();
            std::thread::sleep(Duration::from_millis(1));
        }
        // Everything still in the mailbox joins the stash and its shared
        // mirror, which is what the verdict audits.
        self.drain_mailbox();
        check.shared.audit_done();
        loop {
            if let Some(v) = check.shared.try_verdict() {
                if let Err(msg) = v {
                    crate::dump_blackbox(&msg);
                    panic!("{msg}");
                }
                return;
            }
            // Another rank may abort (deadlock, conformance) while we wait.
            check.check_abort();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Downcast a received payload, panicking with a diagnosis (source rank,
/// tag, expected vs. actual type) instead of `Any`'s anonymous unwrap.
fn take_payload<T: Payload>(
    payload: Box<dyn Any + Send>,
    actual: &'static str,
    src_world: usize,
    tag: u64,
) -> T {
    match payload.downcast::<T>() {
        Ok(v) => *v,
        Err(_) => panic!(
            "pcomm: payload type mismatch receiving from world rank {src_world} tag {tag}: \
             expected {}, got {actual}",
            std::any::type_name::<T>()
        ),
    }
}

/// A communicator: a group of ranks that can exchange messages.
///
/// `Comm` is cheap to clone; clones share the rank context and collective
/// sequence counters, so a clone may be stored inside long-lived structures
/// (e.g. a distributed matrix) and used interchangeably with the original.
/// `Comm` is not `Send`: it belongs to the thread of its rank.
pub struct Comm {
    ctx: Rc<RankCtx>,
    /// World ranks of the members of this communicator, in rank order.
    group: Arc<Vec<usize>>,
    /// My rank within `group`.
    my: usize,
    /// Identifier separating traffic of different communicators.
    id: u64,
    /// Sequence number for collective operations (shared among clones so the
    /// reserved tags stay in sync across all copies held by this rank).
    pub(crate) coll_seq: Rc<Cell<u64>>,
    /// Sequence number for subcommunicator creation.
    split_seq: Rc<Cell<u64>>,
}

impl Clone for Comm {
    fn clone(&self) -> Self {
        Comm {
            ctx: Rc::clone(&self.ctx),
            group: Arc::clone(&self.group),
            my: self.my,
            id: self.id,
            coll_seq: Rc::clone(&self.coll_seq),
            split_seq: Rc::clone(&self.split_seq),
        }
    }
}

fn mix(mut h: u64, v: u64) -> u64 {
    // SplitMix64-style mixing for communicator id derivation.
    h ^= v
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2);
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 31)
}

impl Comm {
    pub(crate) fn world(ctx: Rc<RankCtx>, size: usize) -> Comm {
        let me = ctx.world_rank;
        if let Some(check) = &ctx.check {
            check.shared.name_comm(0, "world");
        }
        Comm {
            ctx,
            group: Arc::new((0..size).collect()),
            my: me,
            id: 0,
            coll_seq: Rc::new(Cell::new(0)),
            split_seq: Rc::new(Cell::new(0)),
        }
    }

    /// My rank within this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// My rank in the world communicator.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.ctx.world_rank
    }

    /// Snapshot of this rank's cumulative communication counters (world-wide,
    /// not per-communicator).
    pub fn stats(&self) -> CommStats {
        stats::thread_snapshot()
    }

    /// Checker hook: record entry into a top-level collective on this
    /// communicator. No-op (`None`) when checked mode is off.
    pub(crate) fn coll_enter(
        &self,
        kind: CollKind,
        root: Option<usize>,
        payload: Option<(std::any::TypeId, &'static str)>,
        detail: Vec<usize>,
    ) -> Option<CollEntry> {
        // The ring entry doubles as the monitor's heartbeat, so a rank
        // deep in a long exchange still reads as alive.
        obs::blackbox::record(
            obs::BbKind::Coll,
            kind.name(),
            self.group.len() as u64,
            self.id,
        );
        self.ctx.check.as_ref().map(|c| {
            c.enter(
                self.id,
                &self.group,
                kind,
                root,
                payload.map(|(t, _)| t),
                payload.map(|(_, n)| n),
                detail,
            )
        })
    }

    /// Checker hook: leave a collective entered via [`Comm::coll_enter`].
    pub(crate) fn coll_leave(&self, entry: Option<CollEntry>) {
        if let (Some(check), Some(e)) = (self.ctx.check.as_ref(), entry) {
            check.leave(e);
        }
    }

    /// Checker hook: barrier-exit ledger consistency over this comm's group.
    pub(crate) fn coll_barrier_check(&self, entry: &Option<CollEntry>) {
        if let (Some(check), Some(e)) = (self.ctx.check.as_ref(), entry) {
            if let Some(seq) = e.seq {
                check.barrier_check(self.id, seq, &self.group);
            }
        }
    }

    /// Blocking typed send. `dst` and `tag` address the message; the value is
    /// moved into the destination rank's mailbox immediately (the transport
    /// is buffered, so sends never deadlock).
    pub fn send<T: Payload>(&self, dst: usize, tag: u64, value: T) {
        assert!(tag < MAX_USER_TAG, "tag {tag} is reserved for collectives");
        self.send_raw(dst, tag, value);
    }

    pub(crate) fn send_raw<T: Payload>(&self, dst: usize, tag: u64, value: T) {
        if let Some(check) = &self.ctx.check {
            check.before_op();
            check.check_abort();
        }
        let bytes = value.payload_bytes();
        let dst_world = self.group[dst];
        stats::on_send(bytes);
        obs::hist!("pcomm.msg_bytes", bytes);
        obs::blackbox::record(
            obs::BbKind::Send,
            std::any::type_name::<T>(),
            bytes as u64,
            dst_world as u64,
        );
        let pkt = Packet {
            comm: self.id,
            src: self.ctx.world_rank,
            tag,
            bytes,
            type_name: std::any::type_name::<T>(),
            payload: Box::new(value),
        };
        if self.ctx.world.senders[dst_world].send(pkt).is_err() {
            // The destination dropped its mailbox: it panicked or exited.
            // Under checked mode the abort flag usually explains why.
            if let Some(check) = &self.ctx.check {
                check.check_abort();
            }
            panic!("pcomm: send to world rank {dst_world} failed: destination rank has exited");
        }
    }

    /// Blocking typed receive matching `(src, tag)` on this communicator.
    ///
    /// # Panics
    /// Panics if the matching message has a different payload type, naming
    /// the source rank, tag, and both types.
    pub fn recv<T: Payload>(&self, src: usize, tag: u64) -> T {
        assert!(tag < MAX_USER_TAG, "tag {tag} is reserved for collectives");
        self.recv_raw(src, tag)
    }

    pub(crate) fn recv_raw<T: Payload>(&self, src: usize, tag: u64) -> T {
        let src_world = self.group[src];
        let key = (self.id, src_world, tag);
        if let Some(check) = &self.ctx.check {
            check.before_op();
            check.check_abort();
            if check.drain_coin() {
                self.ctx.drain_mailbox();
            }
        }
        if let Some(q) = self.ctx.stash.borrow_mut().get_mut(&key) {
            if let Some((payload, bytes, ty)) = q.pop_front() {
                stats::on_recv(bytes);
                obs::blackbox::record(obs::BbKind::Recv, ty, bytes as u64, src_world as u64);
                if let Some(check) = &self.ctx.check {
                    check.shared.stash_pop(
                        self.ctx.world_rank,
                        self.id,
                        src_world,
                        tag,
                        ty,
                        bytes as u64,
                    );
                    check.shared.bump(self.ctx.world_rank);
                }
                return take_payload::<T>(payload, ty, src_world, tag);
            }
        }
        match &self.ctx.check {
            None => self.recv_blocking(key),
            Some(_) => self.recv_blocking_checked(key, std::any::type_name::<T>()),
        }
    }

    /// Unchecked blocking wait: straight channel receive, zero bookkeeping
    /// beyond the wait-time counters.
    fn recv_blocking<T: Payload>(&self, key: (u64, usize, u64)) -> T {
        let start = Instant::now();
        loop {
            let pkt = self.ctx.rx.recv().expect("world shut down while receiving");
            if (pkt.comm, pkt.src, pkt.tag) == key {
                let waited = start.elapsed().as_nanos() as u64;
                stats::on_wait(waited);
                obs::hist!("pcomm.wait_ns", waited);
                stats::on_recv(pkt.bytes);
                obs::blackbox::record(
                    obs::BbKind::Recv,
                    pkt.type_name,
                    pkt.bytes as u64,
                    key.1 as u64,
                );
                return take_payload::<T>(pkt.payload, pkt.type_name, key.1, key.2);
            }
            self.ctx.stash_put(pkt);
        }
    }

    /// Checked blocking wait: registers in the wait-for graph, polls with a
    /// timeout so the deadlock watchdog can run, and honors world aborts.
    fn recv_blocking_checked<T: Payload>(
        &self,
        key: (u64, usize, u64),
        expected: &'static str,
    ) -> T {
        let check = self
            .ctx
            .check
            .as_ref()
            .expect("checked path requires check");
        let (comm, src_world, tag) = key;
        check.shared.block_on(
            check.rank(),
            check.wait_info(src_world, comm, tag, expected),
        );
        let tick = Duration::from_millis(check.shared.tick_ms());
        let watchdog = Duration::from_millis(check.shared.watchdog_ms());
        let start = Instant::now();
        let mut quiet_since = Instant::now();
        loop {
            match self.ctx.rx.recv_timeout(tick) {
                Ok(pkt) => {
                    if (pkt.comm, pkt.src, pkt.tag) == key {
                        check.shared.unblock(check.rank());
                        let waited = start.elapsed().as_nanos() as u64;
                        stats::on_wait(waited);
                        obs::hist!("pcomm.wait_ns", waited);
                        stats::on_recv(pkt.bytes);
                        obs::blackbox::record(
                            obs::BbKind::Recv,
                            pkt.type_name,
                            pkt.bytes as u64,
                            src_world as u64,
                        );
                        return take_payload::<T>(pkt.payload, pkt.type_name, src_world, tag);
                    }
                    self.ctx.stash_put(pkt);
                    quiet_since = Instant::now();
                }
                Err(RecvTimeoutError::Timeout) => {
                    check.check_abort();
                    if quiet_since.elapsed() >= watchdog {
                        if let Some(report) = check.shared.deadlock_scan() {
                            check.abort(report);
                        }
                        // World still making progress elsewhere; back off a
                        // full window before scanning again.
                        quiet_since = Instant::now();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("pcomm: world shut down while receiving");
                }
            }
        }
    }

    /// Receive that belongs to an already-recorded collective `(name, seq)`
    /// on this communicator. Nonblocking collectives complete after their
    /// `coll_enter`/`coll_leave` pair has unwound, so the blocked-wait label
    /// must be re-attached here for the deadlock watchdog to name the
    /// collective instead of an anonymous point-to-point recv.
    pub(crate) fn recv_labeled<T: Payload>(
        &self,
        src: usize,
        tag: u64,
        name: &'static str,
        seq: Option<u64>,
    ) -> T {
        let label = match (&self.ctx.check, seq) {
            (Some(check), Some(s)) => Some((check, check.set_op(Some((name, self.id, s))))),
            _ => None,
        };
        let out = self.recv_raw(src, tag);
        if let Some((check, prev)) = label {
            check.set_op(prev);
        }
        out
    }

    /// Non-blocking send. The buffered transport makes every send
    /// asynchronous, so this is an alias of [`Comm::send`] kept for symmetry
    /// with the MPI calls PASTIS issues (`MPI_Isend`).
    pub fn isend<T: Payload>(&self, dst: usize, tag: u64, value: T) {
        self.send(dst, tag, value);
    }

    /// Post a non-blocking receive; completion happens at
    /// [`RecvFuture::wait`] or [`Comm::waitall`].
    pub fn irecv<T: Payload>(&self, src: usize, tag: u64) -> RecvFuture<T> {
        assert!(tag < MAX_USER_TAG, "tag {tag} is reserved for collectives");
        RecvFuture {
            comm: self.clone(),
            src,
            tag,
            _t: PhantomData,
        }
    }

    /// Complete a set of posted receives, returning payloads in post order.
    /// This is the `MPI_Waitall` fence PASTIS uses after computing B to
    /// guarantee remote sequences have arrived (§V-C).
    pub fn waitall<T: Payload>(&self, futures: Vec<RecvFuture<T>>) -> Vec<T> {
        let _span = obs::span!("pcomm.waitall", pending = futures.len());
        futures.into_iter().map(RecvFuture::wait).collect()
    }

    /// Create a subcommunicator from a list of member ranks (indices in
    /// *this* communicator, strictly increasing). Collective: every rank of
    /// `self` must call it the same number of times in the same order (the
    /// conformance ledger checks the call kind; member lists may differ per
    /// rank — per-rank singleton groups are an accepted pattern). Returns
    /// `None` on ranks not in `members`.
    pub fn subcomm(&self, members: &[usize]) -> Option<Comm> {
        self.subcomm_named(members, "sub")
    }

    /// [`Comm::subcomm`] with a human scope name ("row1", "col0", …) that
    /// shows up in checker diagnostics — watchdog deadlock reports and the
    /// finalize leak audit name the communicator instead of a bare hash id.
    pub fn subcomm_named(&self, members: &[usize], name: &str) -> Option<Comm> {
        let entry = self.coll_enter(CollKind::Subcomm, None, None, members.to_vec());
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be strictly increasing"
        );
        let result = members.iter().position(|&m| m == self.my).map(|my| {
            let group: Vec<usize> = members.iter().map(|&m| self.group[m]).collect();
            let id = mix(
                mix(self.id, seq),
                group[0] as u64 ^ (group.len() as u64) << 32,
            );
            if let Some(check) = &self.ctx.check {
                check.shared.name_comm(id, name);
            }
            Comm {
                ctx: Rc::clone(&self.ctx),
                group: Arc::new(group),
                my,
                id,
                coll_seq: Rc::new(Cell::new(0)),
                split_seq: Rc::new(Cell::new(0)),
            }
        });
        self.coll_leave(entry);
        result
    }

    /// MPI-style `comm_split`: ranks with the same `color` end up in the same
    /// subcommunicator, ordered by `(key, rank)`. Collective over `self`.
    pub fn split(&self, color: u64, key: u64) -> Comm {
        // `color`/`key` legitimately differ across ranks: record them as
        // diagnostic detail only.
        let entry = self.coll_enter(
            CollKind::Split,
            None,
            None,
            vec![color as usize, key as usize],
        );
        let triples = self.allgather((color, key, self.my as u64));
        let mut members: Vec<usize> = triples
            .iter()
            .filter(|&&(c, _, _)| c == color)
            .map(|&(_, _, r)| r as usize)
            .collect();
        // Order by key, then original rank, then renumber as group indices.
        members.sort_by_key(|&r| {
            let k = triples
                .iter()
                .find(|&&(_, _, rr)| rr as usize == r)
                .unwrap()
                .1;
            (k, r)
        });
        // subcomm requires strictly increasing member indices; reorder via a
        // rank permutation is not needed by our users, so assert sortedness.
        let mut sorted = members.clone();
        sorted.sort_unstable();
        // Keep split_seq consistent across colors: every rank made the same
        // number of subcomm calls regardless of its color.
        let sub = self
            .subcomm_named(&sorted, "split")
            .expect("self must be a member of its own color group");
        debug_assert_eq!(
            sorted, members,
            "split with non-monotone keys is not supported"
        );
        self.coll_leave(entry);
        sub
    }
}

/// Handle for a posted non-blocking receive.
pub struct RecvFuture<T: Payload> {
    comm: Comm,
    src: usize,
    tag: u64,
    _t: PhantomData<T>,
}

impl<T: Payload> RecvFuture<T> {
    /// Block until the matching message arrives and return its payload.
    pub fn wait(self) -> T {
        self.comm.recv_raw(self.src, self.tag)
    }

    /// Source rank this receive was posted against.
    pub fn source(&self) -> usize {
        self.src
    }
}
