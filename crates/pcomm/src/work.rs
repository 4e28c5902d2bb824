//! Deterministic per-rank work accounting.
//!
//! Ranks are threads on a (possibly single-core) host, so per-stage *wall
//! clock* is contaminated by scheduling when ranks are oversubscribed.
//! Compute kernels instead report their work here as **estimated
//! nanoseconds** (operation count × a per-op constant); the counter is
//! thread-local, so each rank accumulates exactly the work it executed
//! regardless of scheduling. Stage deltas feed [`crate::CostModel`], giving
//! scaling curves that reflect the algorithm rather than the host's core
//! count.
//!
//! Per-op constants are named [`CostClass`]es, not ad-hoc literals (the
//! `xlint` `cost-literal` rule confines raw `work::record` calls to this
//! module). Each class carries a documented default, and a calibrated
//! machine profile ([`crate::MachineProfile`]) can override any class at
//! runtime for the whole process — overrides live in a global atomic table
//! so batch worker threads see them too. Constants are stored in
//! **milli-nanoseconds** so calibrated sub-ns costs (a striped SW cell is
//! well under 1 ns on SIMD hardware) don't truncate to zero; the public
//! [`counter`] stays in whole nanoseconds for compatibility.
//!
//! The counter is deterministic for deterministic inputs: two runs of the
//! same pipeline report identical work.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static WORK_MILLI_NS: Cell<u64> = const { Cell::new(0) };
}

/// A named unit of accounted work. Every kernel charges its operations to
/// one of these classes; the per-op cost is the class's calibrated (or
/// default) constant, never a literal at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostClass {
    /// One cell of the scalar full-traceback Smith–Waterman DP.
    SwCell,
    /// One cell of the lane-parallel (striped) Smith–Waterman score pass.
    SwStripedCell,
    /// One live cell of the banded x-drop extension (extra bookkeeping
    /// over plain SW).
    XdropCell,
    /// One step of the ungapped diagonal extension.
    UngappedStep,
    /// One multiply-add of the local SpGEMM.
    SpgemmFlop,
    /// One column id walked by a masked outer product's merge-join of
    /// `A`'s column ids with `B`'s row ids (one charge covers both of its
    /// passes).
    SpgemmJoin,
    /// One triple through the sort-based DCSC build.
    TripleSort,
    /// One triple through the owner-computes redistribution shuffle.
    TripleShuffle,
    /// One input byte of FASTA parsing.
    FastaByte,
    /// One substitute-k-mer child materialized during the top-m search.
    SubkmerChild,
    /// One suffix comparison of the suffix-array baseline's binary search.
    SuffixCompare,
    /// One `n·log n` unit of suffix-array construction.
    SuffixBuild,
    /// One posting inserted into the k-mer index (baseline).
    KmerIndexInsert,
    /// One k-mer index probe (baseline).
    KmerIndexProbe,
    /// One diagonal-counter update of the double-indexing stage (baseline).
    DiagonalUpdate,
    /// One output edge formatted/collected (baseline).
    OutputEdge,
}

/// Every cost class, in declaration order (the order of the override
/// table and of machine-profile listings).
pub const COST_CLASSES: [CostClass; 16] = [
    CostClass::SwCell,
    CostClass::SwStripedCell,
    CostClass::XdropCell,
    CostClass::UngappedStep,
    CostClass::SpgemmFlop,
    CostClass::SpgemmJoin,
    CostClass::TripleSort,
    CostClass::TripleShuffle,
    CostClass::FastaByte,
    CostClass::SubkmerChild,
    CostClass::SuffixCompare,
    CostClass::SuffixBuild,
    CostClass::KmerIndexInsert,
    CostClass::KmerIndexProbe,
    CostClass::DiagonalUpdate,
    CostClass::OutputEdge,
];

/// Process-wide per-class overrides in milli-ns; 0 means "use the default".
/// Plain atomics (relaxed) — installed once before a world runs, read by
/// every rank and worker thread.
static OVERRIDE_MILLI_NS: [AtomicU64; COST_CLASSES.len()] =
    [const { AtomicU64::new(0) }; COST_CLASSES.len()];

impl CostClass {
    /// Stable machine-profile key (snake_case of the variant).
    pub fn key(self) -> &'static str {
        match self {
            CostClass::SwCell => "sw_cell",
            CostClass::SwStripedCell => "sw_striped_cell",
            CostClass::XdropCell => "xdrop_cell",
            CostClass::UngappedStep => "ungapped_step",
            CostClass::SpgemmFlop => "spgemm_flop",
            CostClass::SpgemmJoin => "spgemm_join",
            CostClass::TripleSort => "triple_sort",
            CostClass::TripleShuffle => "triple_shuffle",
            CostClass::FastaByte => "fasta_byte",
            CostClass::SubkmerChild => "subkmer_child",
            CostClass::SuffixCompare => "suffix_compare",
            CostClass::SuffixBuild => "suffix_build",
            CostClass::KmerIndexInsert => "kmer_index_insert",
            CostClass::KmerIndexProbe => "kmer_index_probe",
            CostClass::DiagonalUpdate => "diagonal_update",
            CostClass::OutputEdge => "output_edge",
        }
    }

    /// Inverse of [`CostClass::key`].
    pub fn from_key(key: &str) -> Option<CostClass> {
        COST_CLASSES.iter().copied().find(|c| c.key() == key)
    }

    /// Built-in default cost in milli-ns per op (the pre-calibration
    /// estimates this repo has always used, now in one place).
    pub const fn default_milli_ns(self) -> u64 {
        match self {
            CostClass::SwCell => 2_000,
            CostClass::SwStripedCell => 1_000,
            CostClass::XdropCell => 3_000,
            CostClass::UngappedStep => 2_000,
            CostClass::SpgemmFlop => 6_000,
            CostClass::SpgemmJoin => 2_000,
            CostClass::TripleSort => 25_000,
            CostClass::TripleShuffle => 8_000,
            CostClass::FastaByte => 1_000,
            CostClass::SubkmerChild => 80_000,
            CostClass::SuffixCompare => 2_000,
            CostClass::SuffixBuild => 30_000,
            CostClass::KmerIndexInsert => 40_000,
            CostClass::KmerIndexProbe => 40_000,
            CostClass::DiagonalUpdate => 12_000,
            CostClass::OutputEdge => 250_000,
        }
    }

    fn index(self) -> usize {
        COST_CLASSES
            .iter()
            .position(|&c| c == self)
            .expect("every class is in COST_CLASSES")
    }

    /// Effective cost in milli-ns per op: the installed override, or the
    /// default when none is installed.
    #[inline]
    pub fn milli_ns(self) -> u64 {
        match OVERRIDE_MILLI_NS[self.index()].load(Ordering::Relaxed) {
            0 => self.default_milli_ns(),
            m => m,
        }
    }

    /// Effective cost in (fractional) nanoseconds per op.
    pub fn ns_per_op(self) -> f64 {
        self.milli_ns() as f64 * 1e-3
    }
}

/// Install a process-wide override for `class` (milli-ns per op); 0
/// restores the default. Call before launching a world — ranks started
/// afterwards all see the new constant.
pub fn set_cost_milli_ns(class: CostClass, milli_ns: u64) {
    OVERRIDE_MILLI_NS[class.index()].store(milli_ns, Ordering::Relaxed);
}

/// Drop every installed override, restoring the documented defaults.
pub fn reset_costs() {
    for slot in &OVERRIDE_MILLI_NS {
        slot.store(0, Ordering::Relaxed);
    }
}

/// Record `ops` operations of `class` at its effective per-op cost.
#[inline]
pub fn record_class(ops: u64, class: CostClass) {
    WORK_MILLI_NS.with(|w| w.set(w.get() + ops * class.milli_ns()));
}

/// Record `ops` operations at `ns_per_op` estimated nanoseconds each.
/// Calibration-internal: kernels charge a [`CostClass`] via
/// [`record_class`] instead of inventing constants (enforced by the
/// `cost-literal` lint).
#[inline]
pub fn record(ops: u64, ns_per_op: u64) {
    WORK_MILLI_NS.with(|w| w.set(w.get() + ops * ns_per_op * 1_000));
}

/// Add already-estimated nanoseconds to this thread's counter.
#[inline]
pub fn add_ns(ns: u64) {
    WORK_MILLI_NS.with(|w| w.set(w.get() + ns * 1_000));
}

/// Add already-estimated milli-nanoseconds to this thread's counter. Batch
/// drivers use this to fold the work their worker threads recorded back
/// into the rank thread that owns the stage measurement without losing
/// sub-ns precision (the fold stays exact, so totals are independent of
/// how tasks were split across workers).
#[inline]
pub fn add_milli_ns(milli_ns: u64) {
    WORK_MILLI_NS.with(|w| w.set(w.get() + milli_ns));
}

/// Cumulative estimated nanoseconds of work on this thread (truncating
/// division of the internal milli-ns counter).
#[inline]
pub fn counter() -> u64 {
    WORK_MILLI_NS.with(Cell::get) / 1_000
}

/// Cumulative estimated milli-nanoseconds of work on this thread — the
/// exact internal counter; use for worker-fold deltas.
#[inline]
pub fn counter_milli_ns() -> u64 {
    WORK_MILLI_NS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_on_this_thread() {
        let base = counter();
        record(10, 3);
        record(1, 7);
        assert_eq!(counter() - base, 37);
    }

    #[test]
    fn threads_have_independent_counters() {
        let base = counter();
        std::thread::spawn(|| {
            record(1000, 1000);
        })
        .join()
        .unwrap();
        assert_eq!(counter(), base);
    }

    #[test]
    fn class_defaults_match_documented_constants() {
        assert_eq!(CostClass::SwCell.default_milli_ns(), 2_000);
        assert_eq!(CostClass::SwStripedCell.default_milli_ns(), 1_000);
        let base = counter_milli_ns();
        record_class(10, CostClass::XdropCell);
        assert_eq!(counter_milli_ns() - base, 30_000);
    }

    #[test]
    fn key_round_trips_every_class() {
        for c in COST_CLASSES {
            assert_eq!(CostClass::from_key(c.key()), Some(c));
        }
        assert_eq!(CostClass::from_key("nope"), None);
    }

    #[test]
    fn overrides_are_visible_across_threads_and_resettable() {
        // Isolated class so concurrent tests using the common classes are
        // unaffected.
        let class = CostClass::SuffixBuild;
        set_cost_milli_ns(class, 1_500);
        let seen = std::thread::spawn(move || {
            let base = counter_milli_ns();
            record_class(2, class);
            counter_milli_ns() - base
        })
        .join()
        .unwrap();
        assert_eq!(seen, 3_000);
        set_cost_milli_ns(class, 0);
        assert_eq!(class.milli_ns(), class.default_milli_ns());
    }

    #[test]
    fn milli_precision_survives_the_fold() {
        let base = counter_milli_ns();
        add_milli_ns(1_500); // 1.5 ns — would truncate as whole ns
        add_milli_ns(1_500);
        assert_eq!(counter_milli_ns() - base, 3_000);
    }
}
