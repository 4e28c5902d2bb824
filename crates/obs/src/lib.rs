//! `obs` — rank-aware observability for the PASTIS reproduction.
//!
//! The paper's entire evaluation is a dissection study (Fig. 15/16 split
//! runtime into `fasta`, `form A`, …, `wait`; Table I attributes 51–98% of
//! runtime to alignment), so the instrumentation is a first-class subsystem
//! rather than hand-threaded timer fields:
//!
//! - **Spans** ([`span!`]): RAII-guarded, nested regions recorded into a
//!   per-rank bounded buffer. Every span carries a deterministic logical
//!   sequence number, wall-clock start/duration, and the delta of a
//!   [`CounterSet`] (deterministic work nanoseconds plus communication
//!   counters) so traces are comparable across oversubscribed runs.
//! - **Metrics** ([`counter!`], [`gauge!`], [`hist!`]): monotonic counters,
//!   gauges, and log₂-bucketed histograms that merge associatively across
//!   ranks ([`MetricsSnapshot::merge`]).
//! - **Exporters**: a Chrome/Perfetto `trace_event` JSON writer
//!   ([`perfetto_json`], one process per rank, one thread per track) and a
//!   plain-text dissection table ([`dissect`]) reproducing the paper's
//!   Fig. 15/16 layout with per-stage critical-rank compute/comm/wait
//!   splits.
//! - **Flight recorder** ([`blackbox`]): one always-on event ring per rank
//!   thread. It is the only per-rank state: abort paths dump it as the
//!   postmortem, and `pcomm::monitor` samples its live fields (current
//!   stage, span-open epoch, done/total items, last-event age) for
//!   `status.json`.
//!
//! Everything is **zero-cost when no recorder is installed**: the guards
//! and metric macros check a thread-local and return without reading the
//! clock, the counter provider, or touching the heap. The crate has no
//! dependencies; the runtime (`pcomm`) registers a counter provider via
//! [`set_thread_counter_provider`] so `obs` stays below it in the crate
//! graph.
//!
//! # Example
//!
//! ```
//! let rec = obs::Recorder::install(0);
//! {
//!     let _outer = obs::span!("pipeline.stage", stage = 1);
//!     let _inner = obs::span!("kernel");
//!     obs::hist!("kernel.cells", 4096);
//! }
//! let trace = rec.finish();
//! assert_eq!(trace.events.len(), 2); // inner closes first
//! let json = obs::perfetto_json(&[trace]);
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod alloc;
pub mod blackbox;
pub mod dissect;
pub mod imbalance;
mod json;
mod metrics;
mod perfetto;
pub mod project;
mod span;

pub use alloc::{HeapSize, TrackingAlloc};
pub use blackbox::{BbEvent, BbKind, BlackboxGuard};
pub use json::JsonValue;
pub use metrics::{Histogram, MetricsSnapshot, HIST_BUCKETS};
pub use perfetto::perfetto_json;
pub use span::{
    absorb_metrics, counter_add, emit_span, enabled, epoch, gauge_max, gauge_max_owned, gauge_set,
    hist_record, rank, set_thread_counter_provider, snapshot, span_forest, span_start,
    structure_signature, CounterSet, RankTrace, Recorder, RecorderGuard, SpanEvent, SpanGuard,
    SpanNode, Stopwatch,
};

/// Open a span recording into the current thread's recorder; returns an
/// RAII guard that records the span when dropped. A no-op (no clock read,
/// no allocation) when no recorder is installed.
///
/// ```
/// let _g = obs::span!("summa.stage");
/// let _h = obs::span!("summa.stage", stage = 3usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_start($name, None)
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::span_start($name, Some((stringify!($key), ($val) as i64)))
    };
}

/// Add to a monotonic counter in the current recorder's metrics registry.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        $crate::counter_add($name, ($n) as u64)
    };
}

/// Set a gauge (last-write-wins locally; ranks merge by max).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge_set($name, ($v) as i64)
    };
}

/// Record one observation into a log₂-bucketed histogram.
#[macro_export]
macro_rules! hist {
    ($name:expr, $v:expr) => {
        $crate::hist_record($name, ($v) as u64)
    };
}
