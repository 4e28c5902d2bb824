//! Batched ≡ monolithic bit-identity (DESIGN.md §15): the out-of-core
//! driver tiles B's columns into budget-sized batches and runs the SUMMA
//! multiply once per batch against a column-restricted Aᵀ. Batches tile the
//! column space and per-entry fold order is unchanged, so the merged edge
//! set must match the monolithic run bit for bit — at every batch shape
//! (single-column, uneven, full-width), every grid size, and under
//! adversarial schedule perturbation.

use std::sync::OnceLock;

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{run_pipeline, PastisParams};
use pcomm::WorldBuilder;
use proptest::prelude::*;
use seqstore::write_fasta;

const PS: [usize; 3] = [1, 4, 16];

/// Budgets forcing the three batch shapes: 0 → one column per batch,
/// a mid-size budget → several uneven batches, `None` → monolithic
/// reference (u64::MAX would be a single full-width batch; both are
/// covered below).
const UNEVEN_BUDGET: u64 = 64 * 1024;

fn dataset() -> &'static [u8] {
    static D: OnceLock<Vec<u8>> = OnceLock::new();
    D.get_or_init(|| {
        write_fasta(&metaclust_like(
            32,
            &MetaclustConfig {
                seed: 11,
                len_range: (60, 100),
                related_fraction: 0.5,
                mutation_rate: 0.08,
            },
        ))
    })
}

fn params(budget: Option<u64>) -> PastisParams {
    PastisParams {
        k: 4,
        threads: 1,
        mem_budget_bytes: budget,
        ..Default::default()
    }
}

/// Global edge set with bit-exact weights.
type EdgeSet = Vec<(u64, u64, u64)>;

fn run_edges(builder: WorldBuilder, p: usize, budget: Option<u64>) -> EdgeSet {
    let params = params(budget);
    let runs = builder
        .watchdog_ms(5000)
        .run(p, |comm| run_pipeline(&comm, dataset(), &params));
    let mut edges: EdgeSet = runs
        .iter()
        .flat_map(|r| r.edges.iter().map(|&(a, b, w)| (a, b, w.to_bits())))
        .collect();
    edges.sort_unstable();
    edges
}

/// Monolithic reference at p = 1 under checked mode.
fn monolithic_reference() -> &'static EdgeSet {
    static B: OnceLock<EdgeSet> = OnceLock::new();
    B.get_or_init(|| run_edges(WorldBuilder::new().checked(true), 1, None))
}

#[test]
fn batched_edges_match_monolithic_at_every_p_and_batch_shape() {
    let reference = monolithic_reference();
    assert!(!reference.is_empty(), "monolithic run produced no edges");
    // Budget 0: the sizer floors at one column per batch. A huge budget:
    // the plan is a single full-width batch (the driver engages but must
    // match the fast path exactly).
    for &budget in &[0, UNEVEN_BUDGET, u64::MAX] {
        for &p in &PS {
            let batched = run_edges(WorldBuilder::new().checked(true), p, Some(budget));
            assert_eq!(
                &batched, reference,
                "p={p} budget={budget}: batched edge set diverged from monolithic"
            );
        }
    }
}

#[test]
fn counters_survive_batching() {
    let p = 4;
    let mono = WorldBuilder::new()
        .checked(true)
        .watchdog_ms(5000)
        .run(p, |comm| run_pipeline(&comm, dataset(), &params(None)));
    let batched = WorldBuilder::new()
        .checked(true)
        .watchdog_ms(5000)
        .run(p, |comm| {
            run_pipeline(&comm, dataset(), &params(Some(UNEVEN_BUDGET)))
        });
    let c0 = mono[0].counters;
    let c1 = batched[0].counters;
    assert_eq!(c0.nnz_b, c1.nnz_b, "drained B nonzeros must agree");
    assert_eq!(c0.alignments_global, c1.alignments_global);
    assert_eq!(c0.edges_global, c1.edges_global);
    assert_eq!(c0.prefilter_passed_global, c1.prefilter_passed_global);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn batched_pipeline_matches_monolithic_under_perturbation(seed in 1u64..u64::MAX / 2) {
        for &p in &PS {
            let batched = run_edges(WorldBuilder::new().perturb(seed), p, Some(UNEVEN_BUDGET));
            prop_assert_eq!(
                &batched,
                monolithic_reference(),
                "seed {} p {}: perturbed batched edges diverged",
                seed,
                p
            );
        }
    }
}
