//! `obs::imbalance` — per-stage per-rank skew dissection.
//!
//! PASTIS's scaling behaviour is dominated by how evenly alignment and
//! SpGEMM work spreads across ranks; the paper's per-stage dissections
//! (Fig. 11/15/16) report only critical-rank times, hiding rank-to-rank
//! skew. This module folds the per-rank stage slices collected by
//! [`crate::project::extract_stages`] into fig11-style skew tables:
//!
//! - **λ (max/mean)** per distribution — time, deterministic work, and
//!   wire bytes. λ=1 is perfectly balanced; λ=p means one rank did
//!   everything.
//! - **Critical-rank attribution** — which rank carries the max work.
//! - **Gini coefficient** and a **log₂ histogram** of per-rank work, the
//!   shape of the imbalance rather than just its extremes.
//!
//! The work-based λ (`lambda_work`) is computed from the deterministic
//! work-nanosecond ledgers, so it is bit-identical across perturbation
//! seeds and host speeds. Time- and byte-based λ are display diagnostics.

use crate::metrics::Histogram;
use crate::project::StageExtract;
use crate::span::RankTrace;

/// One stage's skew dissection.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSkew {
    /// Stage span name (e.g. `pastis.spgemm_b`).
    pub span: String,
    /// Display label (paper component name).
    pub label: String,
    /// Ranks that recorded the stage.
    pub ranks: usize,
    /// max/mean of per-rank deterministic work ns (deterministic).
    pub lambda_work: f64,
    /// max/mean of per-rank wall-clock seconds.
    pub lambda_secs: f64,
    /// max/mean of per-rank bytes sent.
    pub lambda_bytes: f64,
    /// Rank holding the work maximum (first such rank on ties).
    pub critical_rank: usize,
    /// Gini coefficient of per-rank work (0 = balanced).
    pub gini: f64,
    /// Mean per-rank work ns.
    pub work_ns_mean: f64,
    /// Critical rank's work ns.
    pub work_ns_max: u64,
    /// Sparse log₂ histogram of per-rank work ns: `(bucket, ranks)` with
    /// bucket `b` covering [`Histogram::bucket_range`]`(b)`.
    pub work_hist: Vec<(usize, u64)>,
}

/// max/mean of a sample, 1.0 when the sample is empty or sums to zero
/// (a balanced default).
pub fn lambda(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    if sum <= 0.0 {
        return 1.0;
    }
    let max = xs.iter().cloned().fold(f64::MIN, f64::max);
    max * xs.len() as f64 / sum
}

/// Gini coefficient of a non-negative sample: mean absolute difference
/// over twice the mean. 0 for empty, singleton, or all-zero samples.
pub fn gini(xs: &[f64]) -> f64 {
    let n = xs.len();
    let sum: f64 = xs.iter().sum();
    if n < 2 || sum <= 0.0 {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Σ (2i − n − 1) · x_(i) / (n · Σx) over 1-based ranks of the sorted
    // sample — the standard O(n log n) form of the mean-difference Gini.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * x)
        .sum();
    weighted / (n as f64 * sum)
}

/// Sparse log₂ histogram of a sample: `(bucket, count)` pairs in bucket
/// order, empty buckets omitted. Buckets follow [`Histogram::bucket_of`].
fn log2_hist(xs: &[u64]) -> Vec<(usize, u64)> {
    let mut h = Histogram::default();
    for &x in xs {
        h.record(x);
    }
    h.buckets
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(b, &c)| (b, c))
        .collect()
}

/// Dissect every extracted stage that recorded at least one rank.
pub fn skew_from_extracts(extracts: &[StageExtract]) -> Vec<StageSkew> {
    extracts
        .iter()
        .filter(|ex| ex.ranks > 0)
        .map(|ex| {
            let work: Vec<u64> = ex.per_rank.iter().map(|r| r.counters.work_ns).collect();
            let work_f: Vec<f64> = work.iter().map(|&w| w as f64).collect();
            let secs: Vec<f64> = ex.per_rank.iter().map(|r| r.secs).collect();
            let bytes: Vec<f64> = ex
                .per_rank
                .iter()
                .map(|r| r.counters.bytes_sent as f64)
                .collect();
            let critical = ex
                .per_rank
                .iter()
                .max_by_key(|r| r.counters.work_ns)
                .map(|r| r.rank)
                .unwrap_or(0);
            StageSkew {
                span: ex.span.clone(),
                label: ex.label.clone(),
                ranks: ex.ranks,
                lambda_work: lambda(&work_f),
                lambda_secs: lambda(&secs),
                lambda_bytes: lambda(&bytes),
                critical_rank: critical,
                gini: gini(&work_f),
                work_ns_mean: if work.is_empty() {
                    0.0
                } else {
                    work_f.iter().sum::<f64>() / work.len() as f64
                },
                work_ns_max: work.iter().copied().max().unwrap_or(0),
                work_hist: log2_hist(&work),
            }
        })
        .collect()
}

/// Stage labels ordered most-skewed-first by the deterministic work λ
/// (ties by label). The cross-p agreement test compares these rankings
/// between recordings at different world sizes.
pub fn skew_ranking(skews: &[StageSkew]) -> Vec<String> {
    let mut order: Vec<&StageSkew> = skews.iter().filter(|s| s.work_ns_mean > 0.0).collect();
    order.sort_by(|a, b| {
        b.lambda_work
            .partial_cmp(&a.lambda_work)
            .unwrap()
            .then_with(|| a.label.cmp(&b.label))
    });
    order.iter().map(|s| s.label.clone()).collect()
}

/// One per-rank metric distribution (DP cells, nnz, task counts)
/// dissected for skew.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSkew {
    /// Metric name (counter, histogram sum, or gauge).
    pub key: String,
    /// Ranks contributing a value.
    pub ranks: usize,
    /// max/mean of the per-rank values.
    pub lambda: f64,
    /// Gini coefficient of the per-rank values.
    pub gini: f64,
    /// Critical rank (max value; first on ties).
    pub critical_rank: usize,
    /// Critical rank's value.
    pub max: f64,
    /// Mean per-rank value.
    pub mean: f64,
}

/// Dissect per-rank metric distributions across traces: for each key, the
/// per-rank value is the rank's counter, histogram *sum*, or gauge under
/// that name (first found, in that order). Keys no rank recorded, or that
/// sum to zero, are omitted.
pub fn metric_skew(traces: &[RankTrace], keys: &[&str]) -> Vec<MetricSkew> {
    keys.iter()
        .filter_map(|&key| {
            let per_rank: Vec<(usize, f64)> = traces
                .iter()
                .filter_map(|t| {
                    let m = &t.metrics;
                    let v = m
                        .counters
                        .get(key)
                        .map(|&c| c as f64)
                        .or_else(|| m.hists.get(key).map(|h| h.sum as f64))
                        .or_else(|| m.gauges.get(key).map(|&g| g.max(0) as f64))?;
                    Some((t.rank, v))
                })
                .collect();
            let values: Vec<f64> = per_rank.iter().map(|&(_, v)| v).collect();
            let sum: f64 = values.iter().sum();
            if per_rank.is_empty() || sum <= 0.0 {
                return None;
            }
            let (critical_rank, max) = per_rank.iter().fold(
                (0usize, f64::MIN),
                |(cr, cm), &(r, v)| {
                    if v > cm {
                        (r, v)
                    } else {
                        (cr, cm)
                    }
                },
            );
            Some(MetricSkew {
                key: key.to_string(),
                ranks: per_rank.len(),
                lambda: lambda(&values),
                gini: gini(&values),
                critical_rank,
                max,
                mean: sum / values.len() as f64,
            })
        })
        .collect()
}

/// Render the per-rank metric skew table (companion of
/// [`render_skew_table`] for counter/histogram distributions).
pub fn render_metric_skew(rows: &[MetricSkew]) -> String {
    let mut out = String::new();
    out.push_str("== per-rank metric skew (λ = max/mean) ==\n");
    out.push_str(&format!(
        "{:<22} {:>5} {:>8} {:>6} {:>6} {:>14} {:>14}\n",
        "metric", "ranks", "λ", "gini", "crit", "max", "mean"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>5} {:>8.3} {:>6.3} {:>6} {:>14.0} {:>14.1}\n",
            r.key,
            r.ranks,
            r.lambda,
            r.gini,
            format!("r{}", r.critical_rank),
            r.max,
            r.mean
        ));
    }
    out
}

/// Render the fig11-style skew table: one row per stage, λ per
/// distribution, critical rank, Gini, and the compact log₂ histogram of
/// per-rank work (`2^b:count`).
pub fn render_skew_table(skews: &[StageSkew]) -> String {
    let mut out = String::new();
    out.push_str("== per-stage rank skew (λ = max/mean) ==\n");
    out.push_str(&format!(
        "{:<10} {:>5} {:>8} {:>8} {:>8} {:>6} {:>6}  {}\n",
        "component",
        "ranks",
        "λ(work)",
        "λ(time)",
        "λ(bytes)",
        "gini",
        "crit",
        "log₂-hist(work ns)"
    ));
    for s in skews {
        let hist: Vec<String> = s
            .work_hist
            .iter()
            .map(|&(b, c)| format!("2^{b}:{c}"))
            .collect();
        out.push_str(&format!(
            "{:<10} {:>5} {:>8.3} {:>8.3} {:>8.3} {:>6.3} {:>6}  {}\n",
            s.label,
            s.ranks,
            s.lambda_work,
            s.lambda_secs,
            s.lambda_bytes,
            s.gini,
            format!("r{}", s.critical_rank),
            hist.join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::RankSlice;
    use crate::span::CounterSet;

    fn extract(label: &str, slices: Vec<RankSlice>) -> StageExtract {
        StageExtract {
            span: format!("test.{label}"),
            label: label.to_string(),
            ranks: slices.len(),
            secs_max: slices.iter().map(|s| s.secs).fold(0.0, f64::max),
            work_ns_total: slices.iter().map(|s| s.counters.work_ns).sum(),
            work_ns_max: slices.iter().map(|s| s.counters.work_ns).max().unwrap_or(0),
            counters_total: Default::default(),
            kinds: Vec::new(),
            per_rank: slices,
        }
    }

    fn slice(rank: usize, work_ns: u64) -> RankSlice {
        RankSlice {
            rank,
            secs: work_ns as f64 * 1e-9,
            counters: CounterSet {
                work_ns,
                bytes_sent: work_ns / 2,
                ..Default::default()
            },
        }
    }

    #[test]
    fn lambda_bounds() {
        assert_eq!(lambda(&[]), 1.0);
        assert_eq!(lambda(&[0.0, 0.0]), 1.0);
        assert!((lambda(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One of four ranks does all the work: λ = p.
        assert!((lambda(&[8.0, 0.0, 0.0, 0.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gini_known_values() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[7.0]), 0.0);
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12);
        // Perfect concentration on one of n ranks: G = (n-1)/n.
        assert!((gini(&[0.0, 0.0, 0.0, 12.0]) - 0.75).abs() < 1e-12);
        // Order must not matter.
        assert!((gini(&[1.0, 3.0]) - gini(&[3.0, 1.0])).abs() < 1e-12);
        assert!((gini(&[1.0, 3.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn skew_dissection_and_ranking() {
        let balanced = extract("even", vec![slice(0, 100), slice(1, 100)]);
        let skewed = extract("hot", vec![slice(0, 10), slice(1, 300), slice(2, 20)]);
        let skews = skew_from_extracts(&[balanced, skewed]);
        assert_eq!(skews.len(), 2);
        assert!((skews[0].lambda_work - 1.0).abs() < 1e-12);
        assert_eq!(skews[1].critical_rank, 1);
        assert!(skews[1].lambda_work > 2.0);
        assert!(skews[1].gini > skews[0].gini);
        assert_eq!(skews[1].work_ns_max, 300);
        assert_eq!(skew_ranking(&skews), vec!["hot", "even"]);
        let table = render_skew_table(&skews);
        assert!(table.contains("hot"));
        assert!(table.contains("r1"));
    }

    #[test]
    fn empty_stages_are_skipped() {
        let empty = extract("none", Vec::new());
        assert!(skew_from_extracts(&[empty]).is_empty());
    }

    #[test]
    fn metric_skew_reads_counters_hists_and_gauges() {
        let mut t0 = RankTrace {
            rank: 0,
            events: Vec::new(),
            metrics: Default::default(),
            dropped: 0,
        };
        let mut t1 = t0.clone();
        t1.rank = 1;
        t0.metrics.counters.insert("align.batch.tasks".into(), 30);
        t1.metrics.counters.insert("align.batch.tasks".into(), 10);
        let mut h = Histogram::default();
        h.record(100);
        h.record(200);
        t0.metrics.hists.insert("align.dp_cells".into(), h);
        t1.metrics
            .hists
            .insert("align.dp_cells".into(), Histogram::default());
        t0.metrics.gauges.insert("pastis.nnz_b".into(), 50);
        t1.metrics.gauges.insert("pastis.nnz_b".into(), 50);
        let rows = metric_skew(
            &[t0, t1],
            &[
                "align.batch.tasks",
                "align.dp_cells",
                "pastis.nnz_b",
                "absent",
            ],
        );
        assert_eq!(rows.len(), 3, "absent/zero keys are dropped");
        assert_eq!(rows[0].key, "align.batch.tasks");
        assert!((rows[0].lambda - 1.5).abs() < 1e-12);
        assert_eq!(rows[0].critical_rank, 0);
        assert_eq!(rows[1].key, "align.dp_cells");
        assert!((rows[1].max - 300.0).abs() < 1e-12, "hist folds by sum");
        assert!((rows[2].lambda - 1.0).abs() < 1e-12, "balanced gauge");
        let table = render_metric_skew(&rows);
        assert!(table.contains("align.dp_cells"));
    }
}
