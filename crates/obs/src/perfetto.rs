//! Chrome / Perfetto `trace_event` export.
//!
//! Emits the legacy JSON trace format (the "JSON Trace Event Format"
//! understood by `ui.perfetto.dev` and `chrome://tracing`): one *process*
//! per rank, one *thread* per display track (track 0 is the rank's main
//! thread, tracks ≥ 1 are its batch workers). Spans become `"X"`
//! (complete) events with microsecond `ts`/`dur`; process and thread names
//! are attached with `"M"` metadata events.

use std::collections::BTreeSet;

use crate::json::JsonValue;
use crate::span::RankTrace;

fn num(n: f64) -> JsonValue {
    JsonValue::Num(n)
}

fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_string())
}

/// Serialize rank traces to a Perfetto-compatible JSON document.
///
/// Event `args` carry the logical sequence number, the optional span
/// attribute, and every non-zero counter delta, so the deterministic
/// ordering survives into the trace viewer.
pub fn perfetto_json(traces: &[RankTrace]) -> String {
    let mut events: Vec<JsonValue> = Vec::new();
    for t in traces {
        let pid = t.rank as f64;
        events.push(JsonValue::obj([
            ("ph", s("M")),
            ("pid", num(pid)),
            ("tid", num(0.0)),
            ("name", s("process_name")),
            (
                "args",
                JsonValue::obj([("name", s(&format!("rank {}", t.rank)))]),
            ),
        ]));
        let tracks: BTreeSet<u16> = t.events.iter().map(|e| e.track).chain([0]).collect();
        for &track in &tracks {
            let tname = if track == 0 {
                "main".to_string()
            } else {
                format!("worker-{track}")
            };
            events.push(JsonValue::obj([
                ("ph", s("M")),
                ("pid", num(pid)),
                ("tid", num(track as f64)),
                ("name", s("thread_name")),
                ("args", JsonValue::obj([("name", s(&tname))])),
            ]));
        }
        for e in &t.events {
            let c = e.counters;
            let counters = [
                ("work_ns", c.work_ns),
                ("bytes_sent", c.bytes_sent),
                ("bytes_recv", c.bytes_recv),
                ("msgs_sent", c.msgs_sent),
                ("msgs_recv", c.msgs_recv),
                ("wait_ns", c.wait_ns),
            ]
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .map(|(k, v)| (k, v as f64));
            let args = std::iter::once(("seq", e.seq as f64))
                .chain(e.arg.map(|(k, v)| (k, v as f64)))
                .chain(counters)
                .map(|(k, v)| (k, num(v)));
            let cat = e.name.split('.').next().unwrap_or("span");
            events.push(JsonValue::obj([
                ("ph", s("X")),
                ("pid", num(pid)),
                ("tid", num(e.track as f64)),
                ("name", s(e.name)),
                ("cat", s(cat)),
                ("ts", num(e.start_ns as f64 / 1000.0)),
                ("dur", num(e.dur_ns as f64 / 1000.0)),
                ("args", JsonValue::obj(args)),
            ]));
        }
        if t.dropped > 0 {
            events.push(JsonValue::obj([
                ("ph", s("i")),
                ("pid", num(pid)),
                ("tid", num(0.0)),
                ("name", s("obs.dropped_events")),
                ("ts", num(0.0)),
                ("s", s("p")),
                ("args", JsonValue::obj([("count", num(t.dropped as f64))])),
            ]));
        }
    }
    let doc = JsonValue::obj([
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", s("ns")),
    ]);
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{CounterSet, SpanEvent};

    fn sample() -> RankTrace {
        RankTrace {
            rank: 2,
            events: vec![
                SpanEvent {
                    name: "pastis.align",
                    track: 0,
                    depth: 1,
                    seq: 4,
                    arg: None,
                    start_ns: 1_500,
                    dur_ns: 2_000_000,
                    counters: CounterSet {
                        work_ns: 99,
                        ..Default::default()
                    },
                },
                SpanEvent {
                    name: "align.worker",
                    track: 1,
                    depth: 2,
                    seq: 5,
                    arg: Some(("tasks", 12)),
                    start_ns: 2_000,
                    dur_ns: 1_000_000,
                    counters: CounterSet::default(),
                },
            ],
            metrics: Default::default(),
            dropped: 1,
        }
    }

    #[test]
    fn export_parses_and_has_expected_shape() {
        let json = perfetto_json(&[sample()]);
        let doc = JsonValue::parse(&json).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name + 2 spans + 1 dropped marker.
        assert_eq!(evs.len(), 6);
        let span = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("pastis.align"))
            .unwrap();
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("pid").unwrap().as_u64(), Some(2));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2000.0));
        assert_eq!(
            span.get("args").unwrap().get("work_ns").unwrap().as_u64(),
            Some(99)
        );
        let worker = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("align.worker"))
            .unwrap();
        assert_eq!(worker.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(
            worker.get("args").unwrap().get("tasks").unwrap().as_u64(),
            Some(12)
        );
    }
}
