//! `pcomm` — an MPI-like message-passing runtime for simulating distributed
//! memory programs on a single machine.
//!
//! Each *rank* is an OS thread; point-to-point messages travel over lock-free
//! channels and every operation is metered (bytes, message counts) so that
//! communication volume can be fed into an analytic cost model.
//!
//! The API mirrors the subset of MPI that PASTIS uses through CombBLAS and
//! directly: blocking send/recv, non-blocking recv futures with `waitall`
//! (used for the background sequence exchange of PASTIS §V-C), and the
//! collectives required by 2D Sparse SUMMA (row/column broadcasts), input
//! partitioning (exclusive scan) and triple shuffling (`alltoallv`).
//!
//! # Example
//!
//! ```
//! use pcomm::World;
//!
//! // Four ranks cooperatively compute the sum 0+1+2+3.
//! let results = World::run(4, |comm| {
//!     let me = comm.rank() as u64;
//!     comm.allreduce(me, |a, b| a + b)
//! });
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

mod check;
mod collectives;
mod comm;
pub mod cost;
mod grid;
pub mod monitor;
mod payload;
mod stats;
pub mod work;
mod world;

pub use collectives::BcastHandle;
pub use comm::{Comm, RecvFuture};
pub use cost::{
    grid_side, kind_names, CollAgg, CollShape, CostModel, MachineProfile, Scope, StageCost,
    KIND_RULES, PROFILE_SCHEMA_VERSION,
};
pub use grid::Grid;
pub use payload::Payload;
pub use stats::{install_obs_provider, CommStats};
pub use world::{World, WorldBuilder};

/// Tags below this bound are available to users; larger values are reserved
/// for collectives.
pub const MAX_USER_TAG: u64 = 1 << 30;

/// Dump every rank's flight-recorder ring (first abort path wins; see
/// [`obs::blackbox::dump_once`]) and tell the user where the postmortems
/// landed. Called from every abort path of the runtime: the deadlock
/// watchdog, conformance violations, rank panics, and the finalize leak
/// audit.
pub(crate) fn dump_blackbox(reason: &str) {
    let paths = obs::blackbox::dump_once(reason);
    if !paths.is_empty() {
        eprintln!("pcomm: black-box flight-recorder dumps written:");
        for p in &paths {
            eprintln!("  {}", p.display());
        }
        // The telemetry plane's last gather rides along: per-rank stage,
        // progress, and heartbeat ages as of just before the abort.
        if let Some(dir) = paths[0].parent() {
            if let Some(status) = monitor::dump_latest_snapshot(dir) {
                eprintln!("  {}", status.display());
            }
        }
    }
}
