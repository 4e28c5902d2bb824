//! Smith–Waterman edges without tracing every pair (DESIGN.md §12).
//!
//! The pipeline traces a pair only when it can still become an edge:
//! under ANI it skips pairs whose end cell already rules out
//! `min_coverage`, under NS it traces nothing. Both must be exact. Here the
//! PSG of `run_pipeline` at p ∈ {1, 4} is compared, weight bits included,
//! with a brute force that runs the scalar reference `smith_waterman` on
//! every candidate clearing the CK threshold and applies the filter to
//! its stats.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use align::{smith_waterman, SimilarityMeasure};
use datagen::{metaclust_like, MetaclustConfig};
use pastis::{run_pipeline, AlignMode, PastisParams};
use pcomm::World;
use seqstore::{encode_seq, kmers_of, parse_fasta, write_fasta};

const K: usize = 4;
const CK: u32 = 0;

fn dataset() -> &'static [u8] {
    static D: OnceLock<Vec<u8>> = OnceLock::new();
    D.get_or_init(|| {
        write_fasta(&metaclust_like(
            48,
            &MetaclustConfig {
                seed: 26,
                len_range: (40, 120),
                related_fraction: 0.6,
                mutation_rate: 0.15,
            },
        ))
    })
}

fn params(measure: SimilarityMeasure, min_coverage: f64) -> PastisParams {
    PastisParams {
        k: K,
        mode: AlignMode::SmithWaterman,
        common_kmer_threshold: CK,
        measure,
        min_coverage,
        threads: 2,
        ..Default::default()
    }
}

/// `(gid_low, gid_high, weight bits)`, sorted.
type EdgeSet = Vec<(u64, u64, u64)>;

/// The pipeline's PSG at `p` ranks, and how many pairs its coverage gate
/// kept from the traceback.
fn pipeline(p: usize, params: &PastisParams) -> (EdgeSet, u64) {
    let runs = World::run(p, |comm| run_pipeline(&comm, dataset(), params));
    let culled = runs
        .iter()
        .map(|r| {
            let c = &r.trace.metrics.counters;
            c.get("prefilter.coverage_culled").copied().unwrap_or(0)
        })
        .sum();
    let mut edges: EdgeSet = runs
        .iter()
        .flat_map(|r| r.edges.iter().map(|&(a, b, w)| (a, b, w.to_bits())))
        .collect();
    edges.sort_unstable();
    (edges, culled)
}

/// Every pair sharing more than `CK` distinct k-mers, aligned with the
/// scalar reference (lower global id as `r`, as the pipeline orders
/// operands) and filtered on its stats.
fn brute_force(params: &PastisParams) -> EdgeSet {
    let seqs: Vec<Vec<u8>> = parse_fasta(dataset())
        .iter()
        .map(|r| encode_seq(&r.residues))
        .collect();
    let kmers: Vec<BTreeSet<u64>> = seqs
        .iter()
        .map(|s| kmers_of(s, K).map(|(id, _)| id).collect())
        .collect();
    let mut edges = EdgeSet::new();
    for i in 0..seqs.len() {
        for j in i + 1..seqs.len() {
            if kmers[i].intersection(&kmers[j]).count() <= CK as usize {
                continue;
            }
            let st = smith_waterman(&seqs[i], &seqs[j], &params.align);
            if st.score < params.min_score {
                continue;
            }
            let weight = match params.measure {
                SimilarityMeasure::Ani => st
                    .passes_filter(params.min_ani, params.min_coverage)
                    .then(|| st.ani()),
                SimilarityMeasure::NormalizedScore => (st.score > 0).then(|| st.normalized_score()),
            };
            if let Some(w) = weight {
                edges.push((i as u64, j as u64, w.to_bits()));
            }
        }
    }
    edges
}

#[test]
fn coverage_gate_keeps_the_psg_exact() {
    for min_coverage in [0.0, 0.7, 1.0] {
        let params = params(SimilarityMeasure::Ani, min_coverage);
        let want = brute_force(&params);
        for p in [1, 4] {
            let (got, culled) = pipeline(p, &params);
            assert_eq!(got, want, "min_coverage {min_coverage}, p = {p}");
            // The gate must have fired wherever it can (42 and 110 pairs
            // here): at 0 coverage nothing is below the threshold.
            if min_coverage > 0.0 {
                assert!(
                    culled > 0,
                    "min_coverage {min_coverage}, p = {p}: nothing culled"
                );
            } else {
                assert_eq!(culled, 0);
            }
        }
        assert!(!want.is_empty(), "min_coverage {min_coverage}: no edge");
    }
}

#[test]
fn normalized_score_needs_no_traceback() {
    let params = params(SimilarityMeasure::NormalizedScore, 0.7);
    let want = brute_force(&params);
    assert!(!want.is_empty());
    for p in [1, 4] {
        let (got, culled) = pipeline(p, &params);
        assert_eq!(got, want, "p = {p}");
        assert_eq!(culled, 0, "NS has no coverage filter");
    }
}
