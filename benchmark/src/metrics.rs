//! The metric tables — every name the harness prints, with unit,
//! direction and (end to end) regression bound — and the few statistics
//! and output helpers that go with them. `BENCHMARK.json` declares the
//! same tables; a unit test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End to end: share of the baseline median the metric may worsen by
    /// before it is a regression. Per layer: none.
    pub bound: Option<f64>,
    /// Count-valued: must repeat exactly between runs of the same code on
    /// the same seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the `pastis` binary sees. Same names on every workload;
/// each is the median over the timed repetitions of one run.
///
/// The time metrics carry the loosest bound the driver allows: this host's
/// speed moves in regimes ~30% apart that can last as long as a run, and
/// the run-to-run spread of their medians was measured at 2-19% depending
/// on the hour (see README), on top of ~3% of seed-to-seed work variance.
/// `peak_rss_mb` repeats to 0.2% on one seed; its bound is three times the
/// widest spread seen across seeds (2.8%, on `subs_ck`).
pub const END_TO_END: [MetricDef; 5] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("seqs_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each (the layers are the crates), from the traced replay.
/// A metric whose layer a workload never calls reads 0 there.
pub const PER_LAYER: [MetricDef; 65] = [
    timed("seqstore.parse_s", "s", Lower),
    timed("seqstore.parse_mb_per_s", "MB/s", Higher),
    timed("seqstore.store_s", "s", Lower),
    timed("seqstore.exchange_s", "s", Lower),
    count("seqstore.exchange_bytes", "B", Lower),
    timed("pastis.build_a_s", "s", Lower),
    count("pastis.a_nnz", "count", Lower),
    count("pastis.b_nnz", "count", Lower),
    count("pastis.candidates", "count", Lower),
    count("pastis.alignments", "count", Lower),
    count("pastis.edges", "count", Higher),
    timed("pastis.pipeline_s", "s", Lower),
    timed("pastis.glue_s", "s", Lower),
    timed("pastis.glue_share", "ratio", Lower),
    timed("pastis.proc_overhead_s", "s", Lower),
    count("pastis.out_bytes", "B", Lower),
    timed("pastis.plan_s", "s", Lower),
    count("pastis.ooc_batches", "count", Lower),
    count("pastis.ckpt_files", "count", Lower),
    count("pastis.ckpt_bytes", "B", Lower),
    timed("pastis.build_s_s", "s", Lower),
    count("subkmer.searches", "count", Lower),
    timed("subkmer.search_s", "s", Lower),
    timed("subkmer.searches_per_s", "1/s", Higher),
    count("subkmer.s_nnz", "count", Lower),
    timed("sparse.from_triples_s", "s", Lower),
    timed("sparse.from_triples_ns_per_nnz", "ns/nnz", Lower),
    timed("sparse.transpose_s", "s", Lower),
    timed("sparse.transpose_ns_per_nnz", "ns/nnz", Lower),
    timed("sparse.spgemm_b_s", "s", Lower),
    count("sparse.spgemm_flops", "count", Lower),
    timed("sparse.spgemm_mflops_per_s", "Mflop/s", Higher),
    count("sparse.spgemm_out_nnz", "count", Lower),
    count("sparse.compression", "ratio", Lower),
    timed("sparse.spgemm_as_s", "s", Lower),
    timed("sparse.symmetrize_s", "s", Lower),
    timed("sparse.rank_lambda", "ratio", Lower),
    count("align.pairs", "count", Lower),
    timed("align.batch_s", "s", Lower),
    timed("align.pairs_per_s", "1/s", Higher),
    count("align.cells", "count", Lower),
    timed("align.mcells_per_s", "Mcell/s", Higher),
    timed("align.ns_per_cell", "ns/cell", Lower),
    count("align.edge_yield", "ratio", Higher),
    count("align.seeds_extended", "count", Lower),
    count("align.bitpack_culled", "count", Higher),
    count("align.score_culled", "count", Higher),
    count("align.passed", "count", Lower),
    // Depends on the steal schedule, so it is not held to repeat.
    timed("align.steals", "count", Lower),
    timed("align.rank_lambda", "ratio", Lower),
    count("pcomm.bytes_total", "B", Lower),
    count("pcomm.msgs_total", "count", Lower),
    count("pcomm.bytes_form_a", "B", Lower),
    count("pcomm.bytes_transpose", "B", Lower),
    count("pcomm.bytes_spgemm", "B", Lower),
    timed("pcomm.wait_s_max", "s", Lower),
    timed("pcomm.wait_share", "ratio", Lower),
    timed("pcomm.modeled_s", "s", Higher),
    timed("pcomm.model_ratio_align", "ratio", Lower),
    timed("pcomm.model_ratio_spgemm_b", "ratio", Lower),
    timed("pcomm.model_ratio_form_a", "ratio", Lower),
    timed("pcomm.model_ratio_tr_a", "ratio", Lower),
    timed("pcomm.model_ratio_form_s", "ratio", Lower),
    timed("pcomm.model_ratio_a_s", "ratio", Lower),
    timed("obs.stage_agreement", "ratio", Higher),
];

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `part / whole`, 0 when the whole is 0 (a layer that did not run).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// How much worse `now` is than `base`, as a share of `base` (negative
/// when it got better).
pub fn worsening(def: &MetricDef, base: f64, now: f64) -> f64 {
    match def.better {
        Better::Lower => ratio(now - base, base.abs()),
        Better::Higher => ratio(base - now, base.abs()),
    }
}

/// Panics unless `values` holds exactly the names of `defs` — the harness
/// never prints a metric it has not declared, nor drops one it has.
pub fn assert_declared(defs: &[MetricDef], values: &Values) {
    let declared: Vec<&str> = {
        let mut d: Vec<&str> = defs.iter().map(|d| d.name).collect();
        d.sort_unstable();
        d
    };
    let got: Vec<&str> = values.keys().copied().collect();
    assert_eq!(
        got, declared,
        "printed metrics differ from the declared table"
    );
}

/// One `workload metric value unit` line per metric.
pub fn print_lines(
    workload: &str,
    defs: &[MetricDef],
    values: &Values,
    notes: &BTreeMap<&str, String>,
) {
    for d in defs {
        let note = notes.get(d.name).map_or(String::new(), |n| format!(" {n}"));
        println!("{workload} {} {} {}{note}", d.name, values[d.name], d.unit);
    }
}

/// The result object the driver reads from the last line of stdout.
pub fn result_json(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, d) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, values[d.name], d.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use obs::JsonValue;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name, 64), "{}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{} unit {}",
                d.name,
                d.unit
            );
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn median_and_worsening() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let wall = &END_TO_END[0];
        let rate = &END_TO_END[3];
        assert!((worsening(wall, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(wall, 2.0, 1.0) < 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_is_the_contracts_object() {
        let values: Values = END_TO_END.iter().map(|d| (d.name, 1.25)).collect();
        assert_declared(&END_TO_END, &values);
        let doc = JsonValue::parse(&result_json(&END_TO_END, &values, 9, 0)).unwrap();
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(9));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let m = doc.get("metrics").unwrap();
        let wall = m.get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    /// `BENCHMARK.json` and the tables above (and the workload table)
    /// declare the same things: names, units, directions, bounds, whys.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10);
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let JsonValue::Obj(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.keys().map(|k| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_u64()),
            Some(crate::DEFAULT_SECONDS)
        );
        let str_of =
            |v: &JsonValue, k: &str| v.get(k).and_then(|x| x.as_str()).unwrap().to_string();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let rows = doc.get(key).and_then(|v| v.as_arr()).unwrap();
            assert_eq!(rows.len(), defs.len(), "{key}");
            for (row, d) in rows.iter().zip(defs) {
                assert_eq!(str_of(row, "name"), d.name);
                assert_eq!(str_of(row, "unit"), d.unit, "{}", d.name);
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(str_of(row, "better"), better, "{}", d.name);
                assert_eq!(
                    row.get("bound").and_then(|b| b.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
        let rows = doc.get("workloads").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len());
        for (row, w) in rows.iter().zip(&WORKLOADS) {
            assert!(name_ok(w.name, 64));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(str_of(row, "name"), w.name);
            assert_eq!(str_of(row, "why"), w.why);
        }
    }
}
