//! `pcheck` — runtime verification for the `pcomm` message-passing runtime.
//!
//! MPI programs that violate the collectives contract or leave a receive
//! unmatched typically *hang*, and a hang at p ranks is the least debuggable
//! failure mode a distributed pipeline has. This crate gives the in-process
//! runtime the checks an MPI developer would reach to MUST or `mpirun
//! --timeout` for, but built into the runtime itself:
//!
//! - **Collective-conformance ledger** ([`CheckShared::record_collective`]):
//!   every rank records each top-level collective (kind, root, payload type,
//!   per-kind detail) at entry; the first rank to reach a sequence number
//!   sets the canonical record and later ranks must conform, else the world
//!   aborts with a side-by-side per-rank ledger diff ([`ledger_diff`]).
//! - **Deadlock watchdog** ([`CheckShared::deadlock_scan`]): blocked
//!   receives register in a wait-for graph; a double-snapshot scan detects
//!   all-blocked worlds and wait-for cycles and aborts with each rank's
//!   pending operation plus every undelivered message sitting in stashes.
//! - **Finalize audit** ([`CheckShared::try_verdict`]): at `World` exit,
//!   per-communicator collective counts must agree and no sent message may
//!   remain unreceived; leaks are reported as (src, dst, tag, type, bytes).
//! - **Schedule perturbation** ([`Perturb`]): a seeded mode injecting yields
//!   and drain-first mailbox polling, used by a property test to assert the
//!   pipeline's output is bit-identical across seeds and rank counts.
//!
//! The crate is `std`-only and dependency-free; `pcomm` calls into it from
//! its send/recv/collective paths when checked mode is on (default under
//! `cfg(debug_assertions)`, overridable via `PCHECK=0|1` or
//! `WorldBuilder::checked`). Disabled mode is a handful of `Option::None`
//! branches on the hot path — within noise in release benchmarks.

mod ledger;
mod perturb;
mod shared;

pub use ledger::{history_push, ledger_diff, CollKind, CollRecord, History, HISTORY_CAP};
pub use perturb::{Perturb, SplitMix64};
pub use shared::{CheckShared, RankState, WaitInfo, PRIMARY_PREFIX, SECONDARY_PREFIX};

/// Parse a boolean-ish environment variable: `0`, `false`, `off`, and the
/// empty string are false; anything else set is true; unset is `None`.
pub fn env_flag(name: &str) -> Option<bool> {
    match std::env::var(name) {
        Err(_) => None,
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            Some(!(v.is_empty() || v == "0" || v == "false" || v == "off"))
        }
    }
}

/// Parse an unsigned integer environment variable; unset or malformed is
/// `None` (malformed values are ignored rather than fatal — the checker
/// must never turn a working run into a failing one by itself).
pub fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_parses() {
        // Env mutation is process-global: keep all cases in one test and
        // restore. Safe here because these names are test-only.
        let name = "PCHECK_TEST_FLAG_XYZ";
        assert_eq!(env_flag(name), None);
        for (v, want) in [
            ("1", true),
            ("true", true),
            ("on", true),
            ("0", false),
            ("false", false),
            ("off", false),
            ("", false),
        ] {
            std::env::set_var(name, v);
            assert_eq!(env_flag(name), Some(want), "value {v:?}");
        }
        std::env::remove_var(name);
    }

    #[test]
    fn env_u64_parses() {
        let name = "PCHECK_TEST_U64_XYZ";
        assert_eq!(env_u64(name), None);
        std::env::set_var(name, "1500");
        assert_eq!(env_u64(name), Some(1500));
        std::env::set_var(name, "nope");
        assert_eq!(env_u64(name), None);
        std::env::remove_var(name);
    }
}
