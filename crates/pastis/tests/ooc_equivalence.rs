//! Batched ≡ monolithic bit-identity (DESIGN.md §15): the out-of-core
//! driver tiles B's columns into budget-sized batches and runs the SUMMA
//! multiply once per batch against a column-restricted Aᵀ. Batches tile the
//! column space and per-entry fold order is unchanged, so the merged edge
//! set must match the monolithic run bit for bit — at every batch shape
//! (single-column, uneven, full-width), every grid size, and under
//! adversarial schedule perturbation. The substitute path's `B`, whose
//! batches are two masked halves merged, must match its own monolithic run
//! the same way. The sizer's per-column weights are checked against flops
//! counted straight from the FASTA.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::OnceLock;

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{batch, build_a_triples, run_pipeline, PastisParams};
use pcomm::{Grid, World, WorldBuilder};
use proptest::prelude::*;
use seqstore::{encode_seq, kmers_of, parse_fasta, write_fasta, DistSeqStore, SIGMA};
use sparse::DistMat;

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

/// Substitute k-mers per k-mer of the substitute-path runs.
const SUBS: usize = 5;

/// The substitute path: with no coverage cut, the pairs only substitutes
/// find become edges, weighed by an x-drop from their seeds.
fn subs_params(budget: Option<u64>) -> PastisParams {
    PastisParams {
        substitutes: SUBS,
        min_coverage: 0.0,
        ..params(budget)
    }
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
    run_params(builder, p, &params(budget))
}

fn run_params(builder: WorldBuilder, p: usize, params: &PastisParams) -> EdgeSet {
    let runs = builder
        .watchdog_ms(5000)
        .run(p, |comm| run_pipeline(&comm, dataset(), params));
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
    let subs_reference = run_params(WorldBuilder::new().checked(true), 1, &subs_params(None));
    let exact = PastisParams {
        substitutes: 0,
        ..subs_params(None)
    };
    assert_ne!(
        subs_reference,
        run_params(WorldBuilder::new(), 1, &exact),
        "substitute k-mers changed no edge"
    );
    for (of_budget, reference) in [
        (
            params as fn(Option<u64>) -> PastisParams,
            monolithic_reference(),
        ),
        (subs_params, &subs_reference),
    ] {
        let subs = of_budget(None).substitutes;
        assert!(
            !reference.is_empty(),
            "subs={subs}: monolithic run produced no edges"
        );
        // Budget 0: the sizer floors at one column per batch. A huge budget:
        // the plan is a single full-width batch (the driver engages but must
        // match the fast path exactly). No budget: the fast path on a grid.
        for budget in [Some(0), Some(UNEVEN_BUDGET), Some(u64::MAX), None] {
            for &p in &PS {
                let params = of_budget(budget);
                let batched = run_params(WorldBuilder::new().checked(true), p, &params);
                assert_eq!(
                    &batched, reference,
                    "subs={subs} p={p} budget={budget:?}: batched edge set diverged from monolithic"
                );
            }
        }
    }
}

#[test]
fn counters_survive_batching() {
    let p = 4;
    for of_budget in [params, subs_params] {
        let run = |budget| {
            let params = of_budget(budget);
            let runs = WorldBuilder::new()
                .checked(true)
                .watchdog_ms(5000)
                .run(p, |comm| run_pipeline(&comm, dataset(), &params));
            runs[0].counters
        };
        let (c0, c1) = (run(None), run(Some(UNEVEN_BUDGET)));
        let ctx = format!("substitutes={}", of_budget(None).substitutes);
        assert_eq!(c0.nnz_b, c1.nnz_b, "{ctx}: drained B nonzeros must agree");
        assert_eq!(c0.alignments_global, c1.alignments_global, "{ctx}");
        assert_eq!(c0.edges_global, c1.edges_global, "{ctx}");
        assert_eq!(
            c0.prefilter_passed_global, c1.prefilter_passed_global,
            "{ctx}"
        );
    }
}

/// Column `j` of `B = A·Aᵀ` costs one flop per k-mer of sequence `j` and
/// sequence holding it. At budget 0 every column is its own batch, and for
/// `q ∈ {1, 2}`, which divide [`batch::OOC_BYTES_PER_FLOP`], each batch's
/// estimate is exactly `flops · 128 / q`.
#[test]
fn planner_weights_are_the_brute_force_flops() {
    let k = params(None).k;
    let kmers: Vec<BTreeSet<u64>> = parse_fasta(dataset())
        .iter()
        .map(|r| {
            kmers_of(&encode_seq(&r.residues), k)
                .map(|(id, _)| id)
                .collect()
        })
        .collect();
    let mut holders: BTreeMap<u64, u64> = BTreeMap::new();
    for id in kmers.iter().flatten() {
        *holders.entry(*id).or_insert(0) += 1;
    }
    let flops: Vec<u64> = kmers
        .iter()
        .map(|s| s.iter().map(|id| holders[id]).sum())
        .collect();
    for (p, q) in [(1, 1), (4, 2)] {
        let plans = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let store = DistSeqStore::from_fasta(&comm, dataset());
            let triples = build_a_triples(store.owned(), k, false);
            let space = (SIGMA as u64).pow(k as u32);
            let a = DistMat::from_triples(Rc::clone(&grid), store.len(), space, triples, |a, b| {
                *a = (*a).min(b)
            });
            batch::plan(&grid, &a.transpose(), 0)
        });
        let plan = &plans[0];
        assert!(
            plans.iter().all(|other| other == plan),
            "p={p}: ranks disagree"
        );
        assert_eq!(
            plan.ranges.len(),
            flops.len(),
            "p={p}: one column per batch"
        );
        let got: Vec<u64> = plan
            .est_bytes
            .iter()
            .map(|&e| e * q / batch::OOC_BYTES_PER_FLOP)
            .collect();
        assert_eq!(got, flops, "p={p}");
    }
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

/// The exact path forms `A` without its one-sequence k-mer columns, yet
/// plans its batches on the whole `A`'s weights, as the replay's
/// `batch::plan` of `from_triples(build_a_triples(..))` does: the same
/// number of batches at p ∈ {1, 4}, on budgets that cut many.
#[test]
fn exact_pipeline_plans_on_the_whole_a() {
    let k = params(None).k;
    for p in [1, 4] {
        for budget in [UNEVEN_BUDGET, UNEVEN_BUDGET / 4] {
            let counts = World::run(p, |comm| {
                let run = run_pipeline(&comm, dataset(), &params(Some(budget)));
                let ran = (run.trace.events.iter())
                    .filter(|e| e.name == "pastis.batch")
                    .count();
                let grid = Rc::new(Grid::new(&comm));
                let store = DistSeqStore::from_fasta(&comm, dataset());
                let triples = build_a_triples(store.owned(), k, false);
                let space = (SIGMA as u64).pow(k as u32);
                let a =
                    DistMat::from_triples(Rc::clone(&grid), store.len(), space, triples, |a, b| {
                        *a = (*a).min(b)
                    });
                (ran, batch::plan(&grid, &a.transpose(), budget).ranges.len())
            });
            for (rank, &(ran, planned)) in counts.iter().enumerate() {
                assert_eq!(ran, planned, "p={p} budget={budget} rank {rank}");
            }
            assert!(
                counts[0].1 > 4,
                "p={p} budget={budget}: {} batches",
                counts[0].1
            );
        }
    }
}
