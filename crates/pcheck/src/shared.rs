//! Cross-rank checker state: canonical collective records, rank wait
//! states, progress epochs, stash mirrors, and the finalize audit.
//!
//! One `CheckShared` is created per checked world and shared by every rank
//! thread through an `Arc`. All mutation goes through per-rank `Mutex`
//! slots (written by the owning rank, read by whichever blocked rank runs
//! the watchdog scan), so the checker adds no lock contention to the hot
//! path beyond one canonical-map lock per *collective* — point-to-point
//! sends and stash-hit receives touch only this rank's own slots.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::ledger::{history_push, ledger_diff, CollRecord, History};

/// Marker prefix of the one diagnostic that explains a failure. `World`
/// re-raises the panic carrying it in preference to secondary aborts.
pub const PRIMARY_PREFIX: &str = "pcheck: ";
/// Marker prefix of follow-on panics on ranks that merely observed the
/// abort flag; never the root cause.
pub const SECONDARY_PREFIX: &str = "pcheck-abort: ";

/// What a rank thread is doing, as seen by the watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankState {
    /// Executing user code (or between checker hook points).
    Running,
    /// Blocked in a mailbox wait.
    Blocked(WaitInfo),
    /// Returned from the rank closure; will never send again.
    Finalized,
    /// Panicked; will never send again.
    Dead,
}

/// The receive a blocked rank is parked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitInfo {
    /// World rank whose message would release the wait.
    pub src: usize,
    pub comm: u64,
    pub tag: u64,
    /// Expected payload type.
    pub type_name: &'static str,
    /// `(collective name, comm, collective seq)` when the wait happens
    /// inside a collective's implementation.
    pub op: Option<(&'static str, u64, u64)>,
}

/// Per-rank stash mirror: `(comm, src, tag, type)` → `(count, bytes)`.
type StashMirror = HashMap<(u64, usize, u64, &'static str), (u64, u64)>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A rank that panicked while holding a slot poisons it; the watchdog
    // must still be able to read the state to explain the failure.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Shared checker state for one world of `p` ranks.
pub struct CheckShared {
    p: usize,
    /// Tags at or above this bound belong to collectives (display only).
    coll_tag_base: u64,
    watchdog_ms: u64,
    tick_ms: u64,
    /// `(comm, seq)` → first recorder and its record.
    canon: Mutex<HashMap<(u64, u64), (usize, CollRecord)>>,
    /// Comm id → member world ranks (first recorder wins).
    members: Mutex<HashMap<u64, Vec<usize>>>,
    /// Comm id → human scope name ("world", "row1", "split", …), registered
    /// by the runtime at communicator creation (first registrar wins).
    comm_names: Mutex<HashMap<u64, String>>,
    /// Per-rank bounded ledger history for diff rendering.
    histories: Vec<Mutex<History>>,
    /// Per-rank `comm → collectives recorded` counts.
    counts: Vec<Mutex<HashMap<u64, u64>>>,
    states: Vec<Mutex<RankState>>,
    /// Bumped whenever a rank receives, stashes, or unblocks; the watchdog
    /// declares deadlock only over two identical snapshots one tick apart.
    progress: Vec<AtomicU64>,
    /// Mirror of each rank's out-of-order stash:
    /// `(comm, src, tag, type)` → `(count, bytes)`.
    stash: Vec<Mutex<StashMirror>>,
    /// Ranks whose mailbox drain is complete (see
    /// [`CheckShared::audit_done`]).
    audited: AtomicUsize,
    aborted: AtomicBool,
    abort_reason: Mutex<Option<String>>,
    verdict: Mutex<Option<Result<(), String>>>,
}

impl CheckShared {
    pub fn new(p: usize, coll_tag_base: u64, watchdog_ms: u64) -> CheckShared {
        let watchdog_ms = watchdog_ms.max(20);
        CheckShared {
            p,
            coll_tag_base,
            watchdog_ms,
            tick_ms: (watchdog_ms / 4).clamp(5, 100),
            canon: Mutex::new(HashMap::new()),
            members: Mutex::new(HashMap::new()),
            comm_names: Mutex::new(HashMap::new()),
            histories: (0..p).map(|_| Mutex::new(History::new())).collect(),
            counts: (0..p).map(|_| Mutex::new(HashMap::new())).collect(),
            states: (0..p).map(|_| Mutex::new(RankState::Running)).collect(),
            progress: (0..p).map(|_| AtomicU64::new(0)).collect(),
            stash: (0..p).map(|_| Mutex::new(HashMap::new())).collect(),
            audited: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            abort_reason: Mutex::new(None),
            verdict: Mutex::new(None),
        }
    }

    /// Mailbox poll / watchdog granularity.
    pub fn tick_ms(&self) -> u64 {
        self.tick_ms
    }

    /// How long a rank must be blocked without global progress before the
    /// watchdog scans for deadlock.
    pub fn watchdog_ms(&self) -> u64 {
        self.watchdog_ms
    }

    fn tag_str(&self, tag: u64) -> String {
        if tag >= self.coll_tag_base {
            format!("coll+{}", tag - self.coll_tag_base)
        } else {
            tag.to_string()
        }
    }

    /// Register a human-readable scope name for a communicator id (the
    /// runtime calls this from `Comm::world` / `subcomm_named`). First
    /// registrar wins, so every member rank may call it redundantly.
    pub fn name_comm(&self, comm: u64, name: &str) {
        lock(&self.comm_names)
            .entry(comm)
            .or_insert_with(|| name.to_string());
    }

    /// Render a communicator for diagnostics: `comm 0x1234 (row1)` when a
    /// scope name was registered, bare `comm 0x1234` otherwise.
    fn comm_str(&self, comm: u64) -> String {
        match lock(&self.comm_names).get(&comm) {
            Some(name) => format!("comm {comm:#x} ({name})"),
            None => format!("comm {comm:#x}"),
        }
    }

    // ----- collective-conformance ledger -------------------------------

    /// Record rank `rank`'s `seq`-th top-level collective on `comm` and
    /// validate it against the canonical record. `Err` carries the full
    /// conformance report (already `PRIMARY_PREFIX`-marked).
    pub fn record_collective(
        &self,
        rank: usize,
        comm: u64,
        seq: u64,
        group: &[usize],
        rec: CollRecord,
    ) -> Result<(), String> {
        lock(&self.members)
            .entry(comm)
            .or_insert_with(|| group.to_vec());
        history_push(&mut lock(&self.histories[rank]), comm, seq, rec.summary());
        *lock(&self.counts[rank]).entry(comm).or_insert(0) += 1;
        let mut canon = lock(&self.canon);
        match canon.get(&(comm, seq)) {
            None => {
                canon.insert((comm, seq), (rank, rec));
                Ok(())
            }
            Some((first_rank, first)) if rec.conforms(first) => {
                let _ = first_rank;
                Ok(())
            }
            Some((first_rank, first)) => {
                let (first_rank, first) = (*first_rank, first.clone());
                drop(canon);
                let ha = lock(&self.histories[first_rank]).clone();
                let hb = lock(&self.histories[rank]).clone();
                Err(format!(
                    "{PRIMARY_PREFIX}collective conformance violation on comm {comm:#x} at \
                     collective seq {seq}:\n  rank {first_rank} recorded: {}\n  rank {rank} \
                     recorded: {}\n{}  every rank of a communicator must issue the same \
                     collectives in the same order (kind, root, payload type)",
                    first.summary(),
                    rec.summary(),
                    ledger_diff(comm, seq, (first_rank, &ha), (rank, &hb)),
                )) // caller aborts the world and panics with this report
            }
        }
    }

    /// Barrier-exit consistency: every member of `comm` entered (and so
    /// recorded) collective `seq` before any rank can leave the barrier, so
    /// a member whose count is still below `seq + 1` skipped a collective.
    pub fn barrier_check(
        &self,
        rank: usize,
        comm: u64,
        seq: u64,
        group: &[usize],
    ) -> Result<(), String> {
        for &m in group {
            let n = lock(&self.counts[m]).get(&comm).copied().unwrap_or(0);
            if n < seq + 1 {
                let ha = lock(&self.histories[rank]).clone();
                let hb = lock(&self.histories[m]).clone();
                return Err(format!(
                    "{PRIMARY_PREFIX}barrier ledger check failed on comm {comm:#x}: rank {m} \
                     has recorded only {n} collective(s) while rank {rank} exits the barrier \
                     at seq {seq} — rank {m} skipped a collective\n{}",
                    ledger_diff(comm, seq, (rank, &ha), (m, &hb)),
                ));
            }
        }
        Ok(())
    }

    // ----- wait-for graph ----------------------------------------------

    pub fn block_on(&self, rank: usize, w: WaitInfo) {
        *lock(&self.states[rank]) = RankState::Blocked(w);
    }

    pub fn unblock(&self, rank: usize) {
        *lock(&self.states[rank]) = RankState::Running;
        self.bump(rank);
    }

    /// Note forward progress (message received or stashed) on `rank`.
    pub fn bump(&self, rank: usize) {
        self.progress[rank].fetch_add(1, Ordering::Relaxed);
    }

    pub fn mark_dead(&self, rank: usize) {
        *lock(&self.states[rank]) = RankState::Dead;
        self.bump(rank);
    }

    /// First finalize phase: `rank` returned from its closure and will
    /// never send again.
    pub fn finalize_rank(&self, rank: usize) {
        *lock(&self.states[rank]) = RankState::Finalized;
        self.bump(rank);
    }

    /// True once no rank can send any more (all finalized or dead): every
    /// message ever sent now sits in a mailbox or a stash, so a leak audit
    /// started after this point cannot miss one.
    pub fn all_finalized(&self) -> bool {
        self.states
            .iter()
            .all(|s| matches!(*lock(s), RankState::Finalized | RankState::Dead))
    }

    /// Second finalize phase: a finalized rank has drained its mailbox
    /// into its stash, so its stash mirror now lists every message it
    /// never received — the leaks the verdict reports.
    pub fn audit_done(&self) {
        self.audited.fetch_add(1, Ordering::SeqCst);
    }

    fn snapshot(&self) -> Vec<(RankState, u64)> {
        (0..self.p)
            .map(|r| {
                (
                    lock(&self.states[r]).clone(),
                    self.progress[r].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Wait-for cycle among blocked ranks, if any: each blocked rank has
    /// exactly one outgoing edge (to the rank whose message it awaits), so
    /// cycles fall out of a successor walk.
    fn find_cycle(snap: &[(RankState, u64)]) -> Option<Vec<usize>> {
        let succ = |r: usize| -> Option<usize> {
            match &snap[r].0 {
                RankState::Blocked(w) => Some(w.src),
                _ => None,
            }
        };
        for start in 0..snap.len() {
            if succ(start).is_none() {
                continue;
            }
            let mut path = vec![start];
            let mut cur = start;
            loop {
                match succ(cur) {
                    None => break,
                    Some(next) => {
                        if let Some(pos) = path.iter().position(|&r| r == next) {
                            return Some(path[pos..].to_vec());
                        }
                        path.push(next);
                        cur = next;
                    }
                }
            }
        }
        None
    }

    /// True when no rank can ever make progress again: nobody is running
    /// and at least one rank is parked on a receive.
    fn all_blocked(snap: &[(RankState, u64)]) -> bool {
        snap.iter().all(|(s, _)| !matches!(s, RankState::Running))
            && snap.iter().any(|(s, _)| matches!(s, RankState::Blocked(_)))
    }

    /// Double-snapshot deadlock scan, run by a blocked rank once it has
    /// been parked past the watchdog threshold. Returns the report to abort
    /// with, or `None` when the world can still make progress.
    ///
    /// A blocked rank can only be released by a message from the rank it
    /// waits on (matching is by source), so a wait-for cycle among blocked
    /// ranks is a true deadlock even while unrelated ranks keep computing;
    /// the no-progress recheck one tick later closes the window where the
    /// releasing message is still in flight.
    pub fn deadlock_scan(&self) -> Option<String> {
        let s1 = self.snapshot();
        let all1 = Self::all_blocked(&s1);
        let cyc1 = Self::find_cycle(&s1);
        if !all1 && cyc1.is_none() {
            return None;
        }
        std::thread::sleep(Duration::from_millis(self.tick_ms));
        let s2 = self.snapshot();
        if all1 && Self::all_blocked(&s2) && s1 == s2 {
            return Some(self.deadlock_report(&s2, None));
        }
        if let Some(cycle) = cyc1 {
            let stable = cycle.iter().all(|&r| s1[r] == s2[r]);
            if stable && Self::find_cycle(&s2).is_some() {
                return Some(self.deadlock_report(&s2, Some(cycle)));
            }
        }
        None
    }

    fn deadlock_report(&self, snap: &[(RankState, u64)], cycle: Option<Vec<usize>>) -> String {
        let dead = snap.iter().any(|(s, _)| matches!(s, RankState::Dead));
        // A world wedged behind a panicked rank is reported as secondary so
        // the original panic stays the headline error.
        let prefix = if dead {
            SECONDARY_PREFIX
        } else {
            PRIMARY_PREFIX
        };
        let mut out = format!(
            "{prefix}deadlock detected: no progress across two watchdog scans \
             ({} ms apart)\n  rank states:\n",
            self.tick_ms
        );
        for (r, (s, _)) in snap.iter().enumerate() {
            let line = match s {
                RankState::Running => "running".to_string(),
                RankState::Finalized => "finalized".to_string(),
                RankState::Dead => "dead (panicked)".to_string(),
                RankState::Blocked(w) => {
                    let ctx = match w.op {
                        Some((name, comm, seq)) => {
                            format!("in {name} ({}, seq {seq}) ", self.comm_str(comm))
                        }
                        None => String::new(),
                    };
                    format!(
                        "blocked {ctx}waiting on recv(src={}, tag={}, type={}) on {}",
                        w.src,
                        self.tag_str(w.tag),
                        w.type_name,
                        self.comm_str(w.comm)
                    )
                }
            };
            out.push_str(&format!("    rank {r}: {line}\n"));
        }
        if let Some(c) = cycle {
            let chain: Vec<String> = c.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!(
                "  wait-for cycle: {} -> {}\n",
                chain.join(" -> "),
                c[0]
            ));
        }
        out.push_str(&self.stash_dump());
        out
    }

    fn stash_dump(&self) -> String {
        let mut lines = Vec::new();
        for dst in 0..self.p {
            let m = lock(&self.stash[dst]);
            for (&(comm, src, tag, ty), &(count, bytes)) in m.iter() {
                lines.push(format!(
                    "    rank {dst} <- rank {src}  {} tag {} type {ty}: \
                     {count} msg(s), {bytes} bytes",
                    self.comm_str(comm),
                    self.tag_str(tag)
                ));
            }
        }
        if lines.is_empty() {
            "  no undelivered messages stashed\n".to_string()
        } else {
            lines.sort();
            format!("  undelivered messages in stashes:\n{}\n", lines.join("\n"))
        }
    }

    // ----- abort flag ---------------------------------------------------

    /// Install `report` as the world's abort reason (first writer wins) and
    /// return the message the calling rank should panic with.
    pub fn abort_with(&self, report: String) -> String {
        let mut reason = lock(&self.abort_reason);
        if reason.is_none() {
            *reason = Some(report.clone());
            self.aborted.store(true, Ordering::SeqCst);
            report
        } else {
            format!("{SECONDARY_PREFIX}world aborted by another rank (see primary report)")
        }
    }

    /// Secondary panic message when another rank has aborted the world.
    pub fn abort_message(&self) -> Option<String> {
        if self.aborted.load(Ordering::SeqCst) {
            Some(format!(
                "{SECONDARY_PREFIX}world aborted by another rank (see primary report)"
            ))
        } else {
            None
        }
    }

    // ----- stash mirror and finalize audit ------------------------------

    pub fn stash_push(
        &self,
        dst: usize,
        comm: u64,
        src: usize,
        tag: u64,
        ty: &'static str,
        bytes: u64,
    ) {
        let mut m = lock(&self.stash[dst]);
        let e = m.entry((comm, src, tag, ty)).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes;
    }

    pub fn stash_pop(
        &self,
        dst: usize,
        comm: u64,
        src: usize,
        tag: u64,
        ty: &'static str,
        bytes: u64,
    ) {
        let mut m = lock(&self.stash[dst]);
        if let Some(e) = m.get_mut(&(comm, src, tag, ty)) {
            e.0 = e.0.saturating_sub(1);
            e.1 = e.1.saturating_sub(bytes);
            if e.0 == 0 {
                m.remove(&(comm, src, tag, ty));
            }
        }
    }

    /// Compute (once) and return the finalize verdict, or `None` while some
    /// rank is still running, blocked, or auditing its mailbox (dead ranks
    /// never audit). Every audited rank polls this; whichever arrives
    /// after the last audit completes computes the verdict.
    pub fn try_verdict(&self) -> Option<Result<(), String>> {
        let mut v = lock(&self.verdict);
        if let Some(r) = &*v {
            return Some(r.clone());
        }
        // Both conditions read one snapshot: `Finalized` and `Dead` are
        // terminal, so once every rank shows one of them the count of
        // ranks that owe an audit is final.
        let snap = self.snapshot();
        let dead = snap
            .iter()
            .filter(|(s, _)| matches!(s, RankState::Dead))
            .count();
        let finalized = snap
            .iter()
            .filter(|(s, _)| matches!(s, RankState::Finalized))
            .count();
        if finalized + dead < self.p || self.audited.load(Ordering::SeqCst) < finalized {
            return None;
        }
        let r = self.compute_verdict(&snap);
        *v = Some(r.clone());
        if r.is_err() {
            self.aborted.store(true, Ordering::SeqCst);
        }
        Some(r)
    }

    fn compute_verdict(&self, snap: &[(RankState, u64)]) -> Result<(), String> {
        if let Some(dead) = snap.iter().position(|(s, _)| matches!(s, RankState::Dead)) {
            // The dead rank's own panic is the primary error.
            return Err(format!(
                "{SECONDARY_PREFIX}world finalized after rank {dead} panicked"
            ));
        }
        // Collective-count conformance: all members of a communicator must
        // have recorded the same number of collectives on it.
        let members = lock(&self.members).clone();
        for (comm, group) in members {
            let counts: Vec<(usize, u64)> = group
                .iter()
                .map(|&m| (m, lock(&self.counts[m]).get(&comm).copied().unwrap_or(0)))
                .collect();
            let max = counts.iter().map(|&(_, n)| n).max().unwrap_or(0);
            if let Some(&(lo_rank, lo)) = counts.iter().find(|&&(_, n)| n != max) {
                let hi_rank = counts.iter().find(|&&(_, n)| n == max).unwrap().0;
                let ha = lock(&self.histories[hi_rank]).clone();
                let hb = lock(&self.histories[lo_rank]).clone();
                return Err(format!(
                    "{PRIMARY_PREFIX}collective count mismatch at finalize on {}: \
                     rank {hi_rank} recorded {max} collective(s), rank {lo_rank} recorded {lo}\n{}",
                    self.comm_str(comm),
                    ledger_diff(comm, lo, (hi_rank, &ha), (lo_rank, &hb)),
                ));
            }
        }
        // Stash-leak audit: every sent message must have been received.
        let mut lines = Vec::new();
        let mut total = 0;
        for (dst, mirror) in self.stash.iter().enumerate() {
            for (&(comm, src, tag, ty), &(count, bytes)) in lock(mirror).iter() {
                total += count;
                lines.push(format!(
                    "    rank {src} -> rank {dst}  {} tag {} type {ty}: {count} msg(s), {bytes} bytes",
                    self.comm_str(comm),
                    self.tag_str(tag),
                ));
            }
        }
        if total > 0 {
            lines.sort();
            return Err(format!(
                "{PRIMARY_PREFIX}{total} unreceived message(s) left in rank stashes at finalize \
                 (every send must be matched by a receive):\n{}",
                lines.join("\n")
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::CollKind;
    use std::any::TypeId;

    fn rec(kind: CollKind) -> CollRecord {
        CollRecord {
            kind,
            root: None,
            type_id: Some(TypeId::of::<u64>()),
            type_name: Some("u64"),
            detail: vec![],
        }
    }

    fn wait(src: usize, tag: u64) -> WaitInfo {
        WaitInfo {
            src,
            comm: 0,
            tag,
            type_name: "u64",
            op: None,
        }
    }

    #[test]
    fn canonical_record_accepts_conforming_ranks() {
        let s = CheckShared::new(2, 1 << 30, 100);
        s.record_collective(0, 0, 0, &[0, 1], rec(CollKind::Allreduce))
            .unwrap();
        s.record_collective(1, 0, 0, &[0, 1], rec(CollKind::Allreduce))
            .unwrap();
    }

    #[test]
    fn mismatched_record_produces_diff() {
        let s = CheckShared::new(2, 1 << 30, 100);
        s.record_collective(0, 0, 0, &[0, 1], rec(CollKind::Barrier))
            .unwrap();
        let err = s
            .record_collective(1, 0, 0, &[0, 1], rec(CollKind::Allreduce))
            .unwrap_err();
        assert!(err.starts_with(PRIMARY_PREFIX), "{err}");
        assert!(err.contains("barrier"), "{err}");
        assert!(err.contains("allreduce"), "{err}");
        assert!(err.contains("first divergence"), "{err}");
    }

    #[test]
    fn barrier_check_flags_lagging_member() {
        let s = CheckShared::new(2, 1 << 30, 100);
        s.record_collective(0, 0, 0, &[0, 1], rec(CollKind::Barrier))
            .unwrap();
        let err = s.barrier_check(0, 0, 0, &[0, 1]).unwrap_err();
        assert!(err.contains("skipped a collective"), "{err}");
        s.record_collective(1, 0, 0, &[0, 1], rec(CollKind::Barrier))
            .unwrap();
        s.barrier_check(0, 0, 0, &[0, 1]).unwrap();
    }

    #[test]
    fn all_blocked_world_is_deadlock() {
        let s = CheckShared::new(2, 1 << 30, 40);
        s.finalize_rank(0);
        s.block_on(1, wait(0, 5));
        let report = s.deadlock_scan().expect("deadlock must be detected");
        assert!(report.starts_with(PRIMARY_PREFIX), "{report}");
        assert!(report.contains("rank 1: blocked"), "{report}");
        assert!(report.contains("tag=5"), "{report}");
        assert!(report.contains("rank 0: finalized"), "{report}");
    }

    #[test]
    fn cycle_among_blocked_ranks_detected_despite_running_rank() {
        let s = CheckShared::new(3, 1 << 30, 40);
        s.block_on(0, wait(1, 7));
        s.block_on(1, wait(0, 8));
        // rank 2 stays Running: the cycle alone must be sufficient.
        let report = s.deadlock_scan().expect("cycle must be detected");
        assert!(report.contains("wait-for cycle"), "{report}");
        assert!(report.contains("rank 2: running"), "{report}");
    }

    #[test]
    fn progress_suppresses_deadlock() {
        let s = CheckShared::new(2, 1 << 30, 40);
        s.block_on(0, wait(1, 7));
        s.block_on(1, wait(0, 8));
        // Simulate a message landing between the two snapshots.
        let s2 = std::sync::Arc::new(s);
        let s3 = std::sync::Arc::clone(&s2);
        // Unit-test helper thread, not runtime machinery: xlint: allow(thread-spawn)
        let h = std::thread::Builder::new()
            .name("bumper".into())
            .spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                s3.bump(0);
            })
            .unwrap();
        let scan = s2.deadlock_scan();
        h.join().unwrap();
        assert!(scan.is_none(), "in-flight progress must veto the scan");
    }

    #[test]
    fn verdict_reports_leaks() {
        let s = CheckShared::new(1, 1 << 30, 100);
        s.stash_push(0, 0, 0, 3, "u64", 8);
        s.stash_push(0, 0, 0, 3, "u64", 8);
        s.finalize_rank(0);
        assert!(s.try_verdict().is_none(), "rank 0 has not audited yet");
        s.audit_done();
        let v = s.try_verdict().unwrap().unwrap_err();
        assert!(v.contains("2 unreceived"), "{v}");
        assert!(v.contains("tag 3"), "{v}");
        assert!(v.contains("16 bytes"), "{v}");
    }

    #[test]
    fn verdict_reports_count_mismatch() {
        let s = CheckShared::new(2, 1 << 30, 100);
        s.record_collective(0, 0, 0, &[0, 1], rec(CollKind::Allreduce))
            .unwrap();
        s.record_collective(1, 0, 0, &[0, 1], rec(CollKind::Allreduce))
            .unwrap();
        s.record_collective(0, 0, 1, &[0, 1], rec(CollKind::Allreduce))
            .unwrap();
        s.finalize_rank(0);
        assert!(!s.all_finalized());
        assert!(s.try_verdict().is_none(), "rank 1 still running");
        s.finalize_rank(1);
        assert!(s.all_finalized());
        s.audit_done();
        s.audit_done();
        let v = s.try_verdict().unwrap().unwrap_err();
        assert!(v.contains("count mismatch"), "{v}");
        assert!(v.contains("rank 0 recorded 2"), "{v}");
    }

    #[test]
    fn clean_world_verdict_is_ok() {
        let s = CheckShared::new(2, 1 << 30, 100);
        s.record_collective(0, 0, 0, &[0, 1], rec(CollKind::Barrier))
            .unwrap();
        s.record_collective(1, 0, 0, &[0, 1], rec(CollKind::Barrier))
            .unwrap();
        s.stash_push(0, 0, 1, 4, "u64", 8);
        s.stash_pop(0, 0, 1, 4, "u64", 8);
        s.finalize_rank(0);
        s.finalize_rank(1);
        s.audit_done();
        s.audit_done();
        assert_eq!(s.try_verdict(), Some(Ok(())));
    }

    #[test]
    fn comm_scope_names_render_in_reports() {
        let s = CheckShared::new(2, 1 << 30, 40);
        s.name_comm(0, "world");
        s.name_comm(0x5a5a, "row1");
        s.name_comm(0x5a5a, "col0"); // first registrar wins
        s.finalize_rank(0);
        let mut w = wait(0, 5);
        w.comm = 0x5a5a;
        s.block_on(1, w);
        let report = s.deadlock_scan().expect("deadlock must be detected");
        assert!(report.contains("comm 0x5a5a (row1)"), "{report}");
        s.stash_push(1, 0, 0, 3, "u64", 8);
        s.finalize_rank(1);
        s.audit_done();
        s.audit_done();
        let v = s.try_verdict().unwrap().unwrap_err();
        assert!(v.contains("comm 0x0 (world)"), "{v}");
    }

    #[test]
    fn abort_is_first_writer_wins() {
        let s = CheckShared::new(1, 1 << 30, 100);
        assert!(s.abort_message().is_none());
        let first = s.abort_with(format!("{PRIMARY_PREFIX}boom"));
        assert!(first.starts_with(PRIMARY_PREFIX));
        let second = s.abort_with(format!("{PRIMARY_PREFIX}other"));
        assert!(second.starts_with(SECONDARY_PREFIX));
        assert!(s.abort_message().unwrap().starts_with(SECONDARY_PREFIX));
    }
}
