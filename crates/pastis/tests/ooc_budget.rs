//! Out-of-core acceptance: the allocator-measured per-batch peak stays
//! under the budgeted bound (DESIGN.md §15). Meaningful in release with
//! tracking on — the verify.sh out-of-core lane runs it as `ALLOC_TRACK=1
//! cargo test --release` — but self-arms tracking so a plain debug
//! invocation still exercises it.
//!
//! Batching can only shrink the *reducible* structures (the SpGEMM
//! triples and accumulator — the watermark probes measure each), while the resident floor (sequence store, the
//! A/Aᵀ/S matrices, retained edges) is live no matter how narrow the
//! batch. The sizer is budgeted to halve the reducible footprint and the
//! allocation ledger must then observe every batch window's peak at or
//! below `monolithic peak − reducible/2` — window baselines include all
//! live bytes, so this is the real per-rank footprint, not a per-batch
//! delta. The *stage* window around the batches is held to a weaker rule:
//! it also sees the batch planner's transient, which the budget does not
//! govern, so it must only stay below the monolithic peak.

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{run_pipeline, PastisParams};
use pcomm::WorldBuilder;
use seqstore::write_fasta;

/// Watermarked structures whose footprint scales with the batch width.
const REDUCIBLE: [&str; 2] = ["mem.watermark.sparse.accum", "mem.watermark.sparse.triples"];

fn params(budget: Option<u64>) -> PastisParams {
    PastisParams {
        k: 5,
        threads: 1,
        mem_budget_bytes: budget,
        ..Default::default()
    }
}

fn merged_gauges(fasta: &[u8], budget: Option<u64>) -> std::collections::BTreeMap<String, i64> {
    let runs = WorldBuilder::new()
        .checked(false)
        .run(1, |comm| run_pipeline(&comm, fasta, &params(budget)));
    let metrics = obs::MetricsSnapshot::merged(
        &runs
            .iter()
            .map(|r| r.trace.metrics.clone())
            .collect::<Vec<_>>(),
    );
    metrics.gauges
}

#[test]
fn batched_peaks_stay_under_projected_budget() {
    obs::alloc::set_tracking(true);
    let fasta = write_fasta(&metaclust_like(
        600,
        &MetaclustConfig {
            seed: 21,
            len_range: (100, 300),
            related_fraction: 0.3,
            mutation_rate: 0.12,
        },
    ));
    // Monolithic run: the overlap stage's allocator-window peak and the
    // reducible structures' watermark probes.
    let mono = merged_gauges(&fasta, None);
    let mono_peak = *mono
        .get("mem.stage.pastis.spgemm_b")
        .expect("monolithic run records the overlap stage window") as u64;
    assert!(mono_peak > 0, "tracking must be armed");
    let reducible: u64 = REDUCIBLE
        .iter()
        .map(|k| {
            *mono
                .get(*k)
                .unwrap_or_else(|| panic!("monolithic run must probe {k}")) as u64
        })
        .sum();
    assert!(reducible > 0 && reducible < mono_peak);

    // Budget the sizer to halve the reducible footprint; the measured
    // bound the batched run must then respect is everything else plus
    // that halved share.
    let sizer_budget = reducible.div_ceil(2);
    let bound = mono_peak - reducible / 2;
    let batched = merged_gauges(&fasta, Some(sizer_budget));
    let batch_peaks: Vec<(&str, i64)> = batched
        .iter()
        .filter(|(k, _)| k.starts_with("mem.batch."))
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    assert!(
        batch_peaks.len() >= 2,
        "halving the reducible footprint must cut ≥2 batches (got {batch_peaks:?})"
    );
    for (name, peak) in &batch_peaks {
        assert!(
            (*peak as u64) <= bound,
            "{name}: measured peak {peak} exceeds bound {bound} \
             (monolithic peak {mono_peak}, reducible {reducible})"
        );
    }
    // The stage window encloses every batch window — it saw whatever they
    // saw — and batching must actually have reduced the measured footprint.
    let batched_stage = *batched
        .get("mem.stage.pastis.spgemm_b")
        .expect("batched run records the overlap stage window");
    let max_batch = batch_peaks.iter().map(|&(_, peak)| peak).max().unwrap();
    assert!(
        batched_stage >= max_batch,
        "stage window {batched_stage} missed a batch window's peak {max_batch}"
    );
    assert!(
        (batched_stage as u64) < mono_peak,
        "batching did not reduce the measured peak ({batched_stage} vs {mono_peak})"
    );
    // The SUMMA triple buffer is what the budget halves, so its watermark
    // must halve too — which it can only do if no other buffer (A's
    // construction input, say) reports under the same name.
    let triples = |g: &std::collections::BTreeMap<String, i64>| g["mem.watermark.sparse.triples"];
    assert!(
        triples(&batched) <= triples(&mono) / 2,
        "batched SpGEMM triples {} not ≤ half the monolithic {}",
        triples(&batched),
        triples(&mono)
    );
}
