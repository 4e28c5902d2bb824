//! Per-stage trace extraction.
//!
//! This module reduces raw [`RankTrace`]s to the per-stage aggregates the
//! dissection, the skew tables and the cost model (in `pcomm::cost`, via
//! `Timings::from_trace`) consume: total/max work, total counter traffic,
//! and a per-collective-kind breakdown (calls and counters of every
//! `pcomm.*` span family inside the stage).
//!
//! A stage span's counter delta covers everything that happened inside it
//! — including nested collective spans — so stage totals come straight
//! from the stage spans. Kind aggregation takes only the **outermost**
//! span of each kind: `allreduce`, `allgather`, and `barrier` are built
//! from an inner broadcast whose span nests inside them, and descending
//! into a matched kind span would count that traffic twice (once as
//! `allreduce`, once as `bcast`).
//!
//! Stages may overlap: the streamed pipeline runs its alignment chunks
//! *inside* the SUMMA stage span. Attribution is therefore **exclusive**
//! — when one stage span nests inside another, its duration, work, and
//! counters are subtracted from the enclosing stage and counted only for
//! the inner one, so the dissection still sums to the run total.

use std::collections::BTreeMap;

use crate::span::{span_forest, CounterSet, RankTrace, SpanNode};

/// Aggregate over every outermost span of one collective kind within a
/// stage, across all ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindAgg {
    /// Largest per-rank span count (the critical rank's call count).
    pub calls_max: u64,
    /// Span count summed over ranks. For symmetric collectives every
    /// member records one span, so `calls_total / comm_size` is the
    /// number of distinct collectives.
    pub calls_total: u64,
    /// Counter deltas summed over all the kind's spans and ranks.
    pub counters_total: CounterSet,
}

/// One rank's exclusive slice of a stage — the unit of the critical-path
/// dissection (`crate::dissect`) and the imbalance observatory
/// (`crate::imbalance`): per-rank distributions of time, work
/// (`counters.work_ns`), and wire bytes (`counters.bytes_sent`) feed the
/// limiting-rank rows and the λ / Gini / log₂-histogram skew dissection.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankSlice {
    /// World rank the slice belongs to (from the trace, not fold order).
    pub rank: usize,
    /// Stage-exclusive wall-clock seconds on this rank.
    pub secs: f64,
    /// Stage-exclusive counter deltas on this rank.
    pub counters: CounterSet,
}

/// One pipeline stage reduced to its per-stage aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct StageExtract {
    /// Stage span name (e.g. `pastis.summa`).
    pub span: String,
    /// Display label (paper component name, e.g. `(AS)AT`).
    pub label: String,
    /// Ranks that recorded at least one span of this stage.
    pub ranks: usize,
    /// Largest per-rank wall-clock seconds in the stage.
    pub secs_max: f64,
    /// Deterministic work nanoseconds summed over all ranks.
    pub work_ns_total: u64,
    /// Largest per-rank work nanoseconds (imbalance numerator).
    pub work_ns_max: u64,
    /// Counter deltas summed over all ranks' stage spans.
    pub counters_total: CounterSet,
    /// Per-kind aggregates, in the order of the `kinds` argument
    /// (kinds with no spans in the stage are omitted).
    pub kinds: Vec<(String, KindAgg)>,
    /// One slice per input trace, in trace order (all-zero for a rank
    /// that did not record the stage).
    pub per_rank: Vec<RankSlice>,
}

/// Per-rank scratch for one stage.
#[derive(Default)]
struct StageAcc {
    ranks: usize,
    kinds: BTreeMap<String, KindAgg>,
    per_rank: Vec<RankSlice>,
    /// calls per kind for the rank currently being folded.
    rank_calls: BTreeMap<String, u64>,
}

/// Reduce `traces` (one per rank) to per-stage extracts. `stages` are
/// `(span_name, label)` pairs in display order; `kinds` are the collective
/// span names to break out (e.g. `pcomm::kind_names()`). Stage spans are
/// found anywhere in each rank's span forest; within a stage subtree only
/// the outermost span of each kind is counted.
pub fn extract_stages(
    traces: &[RankTrace],
    stages: &[(&str, &str)],
    kinds: &[&str],
) -> Vec<StageExtract> {
    let stage_names: Vec<&str> = stages.iter().map(|&(s, _)| s).collect();
    let mut accs: Vec<StageAcc> = stages.iter().map(|_| StageAcc::default()).collect();
    for trace in traces {
        let forest = span_forest(&trace.events);
        for (si, &(span, _)) in stages.iter().enumerate() {
            let acc = &mut accs[si];
            let mut slice = RankSlice {
                rank: trace.rank,
                ..Default::default()
            };
            let mut found = false;
            acc.rank_calls.clear();
            for root in &forest {
                visit(root, span, &stage_names, kinds, acc, &mut slice, &mut found);
            }
            acc.per_rank.push(slice);
            if found {
                acc.ranks += 1;
                for (kind, calls) in std::mem::take(&mut acc.rank_calls) {
                    let agg = acc.kinds.entry(kind).or_default();
                    agg.calls_max = agg.calls_max.max(calls);
                }
            }
        }
    }
    stages
        .iter()
        .zip(accs)
        .map(|(&(span, label), acc)| StageExtract {
            span: span.to_string(),
            label: label.to_string(),
            ranks: acc.ranks,
            // Ranks without the stage hold all-zero slices, so the
            // aggregates are plain folds of the per-rank slices.
            secs_max: acc.per_rank.iter().map(|r| r.secs).fold(0.0, f64::max),
            work_ns_total: acc.per_rank.iter().map(|r| r.counters.work_ns).sum(),
            work_ns_max: acc
                .per_rank
                .iter()
                .map(|r| r.counters.work_ns)
                .max()
                .unwrap_or(0),
            counters_total: acc
                .per_rank
                .iter()
                .fold(CounterSet::default(), |c, r| c.merge(r.counters)),
            kinds: kinds
                .iter()
                .filter_map(|&k| acc.kinds.get(k).map(|&a| (k.to_string(), a)))
                .collect(),
            per_rank: acc.per_rank,
        })
        .collect()
}

/// Prefix of the gauges the watermark probes record
/// ([`crate::alloc::watermark`]).
pub const MEM_WATERMARK_PREFIX: &str = "mem.watermark.";

/// Reduce per-rank traces to per-structure memory watermarks: every gauge
/// named `mem.watermark.<structure>` maxed across ranks (the *critical*
/// rank's footprint; gauges already merge by max). Keys are returned
/// without the prefix, sorted.
pub fn extract_mem_watermarks(traces: &[RankTrace]) -> Vec<(String, u64)> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for trace in traces {
        for (name, &v) in &trace.metrics.gauges {
            if let Some(key) = name.strip_prefix(MEM_WATERMARK_PREFIX) {
                let bytes = v.max(0) as u64;
                let e = out.entry(key.to_string()).or_insert(0);
                *e = (*e).max(bytes);
            }
        }
    }
    out.into_iter().collect()
}

/// Find stage spans anywhere below `node` and fold them into `acc` and the
/// rank's `slice`, attributing exclusively: topmost *other*-stage spans
/// nested inside a match are subtracted from it (they are folded when
/// their own stage is visited).
fn visit(
    node: &SpanNode,
    span: &str,
    stage_names: &[&str],
    kinds: &[&str],
    acc: &mut StageAcc,
    slice: &mut RankSlice,
    found: &mut bool,
) {
    if node.event.name == span {
        *found = true;
        let mut dur_ns = node.event.dur_ns;
        let mut counters = node.event.counters;
        for child in &node.children {
            exclude_nested_stages(child, stage_names, &mut dur_ns, &mut counters);
        }
        slice.secs += dur_ns as f64 * 1e-9;
        slice.counters = slice.counters.merge(counters);
        for child in &node.children {
            collect_kinds(child, stage_names, kinds, acc);
        }
        return; // stage spans do not nest within themselves
    }
    for child in &node.children {
        visit(child, span, stage_names, kinds, acc, slice, found);
    }
}

/// Subtract the topmost nested stage spans below `node` from `dur_ns` /
/// `counters` (exclusive attribution; see the module docs).
fn exclude_nested_stages(
    node: &SpanNode,
    stage_names: &[&str],
    dur_ns: &mut u64,
    counters: &mut CounterSet,
) {
    if stage_names.contains(&node.event.name) {
        *dur_ns = dur_ns.saturating_sub(node.event.dur_ns);
        *counters = counters.saturating_sub(node.event.counters);
        return; // deeper stage spans are inside this one's delta already
    }
    for child in &node.children {
        exclude_nested_stages(child, stage_names, dur_ns, counters);
    }
}

/// Fold the outermost kind spans of a stage subtree into `acc`, not
/// descending into a matched kind span (its nested spans — an
/// allreduce's inner broadcast — belong to the outer collective) nor into
/// a nested stage span (its collectives belong to that stage).
fn collect_kinds(node: &SpanNode, stage_names: &[&str], kinds: &[&str], acc: &mut StageAcc) {
    if stage_names.contains(&node.event.name) {
        return;
    }
    if kinds.contains(&node.event.name) {
        let agg = acc.kinds.entry(node.event.name.to_string()).or_default();
        agg.calls_total += 1;
        agg.counters_total = agg.counters_total.merge(node.event.counters);
        *acc.rank_calls
            .entry(node.event.name.to_string())
            .or_default() += 1;
        return;
    }
    for child in &node.children {
        collect_kinds(child, stage_names, kinds, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;

    fn ev(name: &'static str, depth: u16, seq: u32, dur_ns: u64, c: CounterSet) -> SpanEvent {
        SpanEvent {
            name,
            track: 0,
            depth,
            seq,
            arg: None,
            start_ns: 0,
            dur_ns,
            counters: c,
        }
    }

    fn trace(rank: usize, events: Vec<SpanEvent>) -> RankTrace {
        RankTrace {
            rank,
            events,
            metrics: Default::default(),
            dropped: 0,
        }
    }

    fn sent(bytes: u64, msgs: u64) -> CounterSet {
        CounterSet {
            bytes_sent: bytes,
            msgs_sent: msgs,
            ..Default::default()
        }
    }

    #[test]
    fn stage_totals_and_kind_breakdown() {
        // rank 0: run(stage(bcast bcast))  rank 1: run(stage(bcast))
        let t0 = trace(
            0,
            vec![
                ev("run", 0, 0, 10_000, CounterSet::default()),
                ev(
                    "stage",
                    1,
                    1,
                    5_000_000_000,
                    CounterSet {
                        work_ns: 100,
                        ..sent(30, 3)
                    },
                ),
                ev("pcomm.bcast", 2, 2, 10, sent(20, 2)),
                ev("pcomm.bcast", 2, 3, 10, sent(10, 1)),
            ],
        );
        let t1 = trace(
            1,
            vec![
                ev("run", 0, 0, 10_000, CounterSet::default()),
                ev(
                    "stage",
                    1,
                    1,
                    2_000_000_000,
                    CounterSet {
                        work_ns: 300,
                        ..sent(5, 1)
                    },
                ),
                ev("pcomm.bcast", 2, 2, 10, sent(5, 1)),
            ],
        );
        let ex = extract_stages(&[t0, t1], &[("stage", "S")], &["pcomm.bcast"]);
        assert_eq!(ex.len(), 1);
        let s = &ex[0];
        assert_eq!(s.label, "S");
        assert_eq!(s.ranks, 2);
        assert!((s.secs_max - 5.0).abs() < 1e-12);
        assert_eq!(s.work_ns_total, 400);
        assert_eq!(s.work_ns_max, 300);
        assert_eq!(s.counters_total.bytes_sent, 35);
        let (kind, agg) = &s.kinds[0];
        assert_eq!(kind, "pcomm.bcast");
        assert_eq!(agg.calls_total, 3);
        assert_eq!(agg.calls_max, 2);
        assert_eq!(agg.counters_total.bytes_sent, 35);
        // Per-rank slices carry the skew inputs in trace order.
        assert_eq!(s.per_rank.len(), 2);
        assert_eq!(s.per_rank[0].rank, 0);
        assert_eq!(s.per_rank[0].counters.work_ns, 100);
        assert_eq!(s.per_rank[0].counters.bytes_sent, 30);
        assert!((s.per_rank[0].secs - 5.0).abs() < 1e-12);
        assert_eq!(s.per_rank[1].rank, 1);
        assert_eq!(s.per_rank[1].counters.work_ns, 300);
        assert_eq!(s.per_rank[1].counters.bytes_sent, 5);
    }

    #[test]
    fn outermost_kind_only_no_double_counting() {
        // An allreduce with a nested bcast: only the allreduce counts, and
        // a free-standing bcast after it still counts as a bcast.
        let t = trace(
            0,
            vec![
                ev("stage", 0, 0, 100, CounterSet::default()),
                ev("pcomm.allreduce", 1, 1, 10, sent(40, 4)),
                ev("pcomm.bcast", 2, 2, 5, sent(20, 2)),
                ev("pcomm.bcast", 1, 3, 5, sent(7, 1)),
            ],
        );
        let ex = extract_stages(&[t], &[("stage", "S")], &["pcomm.bcast", "pcomm.allreduce"]);
        let kinds: BTreeMap<_, _> = ex[0].kinds.iter().cloned().collect();
        assert_eq!(kinds["pcomm.allreduce"].calls_total, 1);
        assert_eq!(kinds["pcomm.allreduce"].counters_total.bytes_sent, 40);
        assert_eq!(kinds["pcomm.bcast"].calls_total, 1, "nested bcast leaked");
        assert_eq!(kinds["pcomm.bcast"].counters_total.bytes_sent, 7);
    }

    #[test]
    fn nested_stage_spans_attribute_exclusively() {
        // summa(align align) with a bcast belonging to summa and work split
        // between the two stages: align's duration/work/counters must be
        // subtracted from summa and counted once under align.
        let t = trace(
            0,
            vec![
                ev(
                    "summa",
                    0,
                    0,
                    10_000_000_000,
                    CounterSet {
                        work_ns: 100,
                        ..sent(50, 5)
                    },
                ),
                ev("pcomm.bcast", 1, 1, 10, sent(50, 5)),
                ev(
                    "align",
                    1,
                    2,
                    3_000_000_000,
                    CounterSet {
                        work_ns: 60,
                        ..Default::default()
                    },
                ),
                ev(
                    "align",
                    1,
                    3,
                    1_000_000_000,
                    CounterSet {
                        work_ns: 10,
                        ..Default::default()
                    },
                ),
            ],
        );
        let ex = extract_stages(
            std::slice::from_ref(&t),
            &[("summa", "S"), ("align", "A")],
            &["pcomm.bcast"],
        );
        let (summa, align) = (&ex[0], &ex[1]);
        assert!((summa.secs_max - 6.0).abs() < 1e-12, "align not excluded");
        assert_eq!(summa.work_ns_total, 30);
        assert_eq!(summa.counters_total.bytes_sent, 50);
        assert_eq!(summa.kinds[0].1.calls_total, 1);
        assert!((align.secs_max - 4.0).abs() < 1e-12);
        assert_eq!(align.work_ns_total, 70);
        assert_eq!(align.counters_total.bytes_sent, 0);
    }

    #[test]
    fn missing_stage_yields_empty_extract() {
        let t = trace(0, vec![ev("other", 0, 0, 10, CounterSet::default())]);
        let ex = extract_stages(&[t], &[("stage", "S")], &[]);
        assert_eq!(ex[0].ranks, 0);
        assert_eq!(ex[0].per_rank, [RankSlice::default()]);
        assert_eq!(ex[0].work_ns_total, 0);
        assert!(ex[0].kinds.is_empty());
    }

    #[test]
    fn repeated_stage_spans_sum_per_rank() {
        let t = trace(
            0,
            vec![
                ev(
                    "stage",
                    0,
                    0,
                    1_000_000_000,
                    CounterSet {
                        work_ns: 10,
                        ..Default::default()
                    },
                ),
                ev(
                    "stage",
                    0,
                    1,
                    2_000_000_000,
                    CounterSet {
                        work_ns: 20,
                        ..Default::default()
                    },
                ),
            ],
        );
        let ex = extract_stages(&[t], &[("stage", "S")], &[]);
        assert_eq!(ex[0].ranks, 1);
        assert!((ex[0].secs_max - 3.0).abs() < 1e-12);
        assert_eq!(ex[0].work_ns_max, 30);
    }
}
