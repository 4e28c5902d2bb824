//! A MMseqs2-like many-against-many searcher (paper §III): k-mer index over
//! targets, *similar k-mer* query expansion controlled by a sensitivity
//! parameter, the double-diagonal prefilter ("a target sequence is chosen
//! … only if they share two similar k-mers along the same diagonal"),
//! ungapped diagonal scoring, and gapped alignment of survivors.
//!
//! The distributed variant partitions queries over ranks but reproduces the
//! behaviour the paper identified as MMseqs2's scaling bottleneck: "MMseqs2
//! probably gathers alignment results from other nodes in order to write
//! the output using a single process" (§VI-A).

use std::collections::HashMap;

use align::{smith_waterman, ungapped_xdrop, AlignParams, SimilarityMeasure};
use pcomm::Comm;
use seqstore::{kmers_of, FastaRecord};
use subkmer::{ExpenseTable, SubKmerSearcher};

/// MMseqs2-like configuration.
#[derive(Debug, Clone)]
pub struct MmseqsParams {
    /// K-mer length of the index.
    pub k: usize,
    /// Sensitivity `s` (paper tests 1 = low, 5.7 = default, 7.5 = high).
    /// Maps to the number of similar k-mers generated per query k-mer.
    pub sensitivity: f64,
    /// Ungapped diagonal score needed before a gapped alignment is paid for.
    pub min_ungapped_score: i32,
    /// Edge weighting.
    pub measure: SimilarityMeasure,
    /// ANI filter (ANI measure only).
    pub min_ani: f64,
    /// Coverage filter (ANI measure only).
    pub min_coverage: f64,
    /// Alignment kernel parameters.
    pub align: AlignParams,
}

impl Default for MmseqsParams {
    fn default() -> Self {
        MmseqsParams {
            k: 4,
            sensitivity: 5.7,
            min_ungapped_score: 15,
            measure: SimilarityMeasure::Ani,
            min_ani: 0.30,
            min_coverage: 0.70,
            align: AlignParams::default(),
        }
    }
}

impl MmseqsParams {
    /// Similar k-mers generated per query k-mer: the knob the sensitivity
    /// parameter drives (higher `s` → larger similar-k-mer lists).
    pub fn similar_kmers(&self) -> usize {
        (self.sensitivity * 4.0).round() as usize
    }
}

/// Timing breakdown of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct MmseqsRun {
    /// Seconds in prefilter + alignment on this rank.
    pub search_secs: f64,
    /// Seconds rank 0 spent gathering and post-processing all results
    /// single-threaded (zero on other ranks) — the §VI-A bottleneck.
    pub postprocess_secs: f64,
    /// Alignments performed by this rank.
    pub alignments: u64,
    /// Edges this rank found (before the gather).
    pub edges: Vec<(u64, u64, f64)>,
}

/// All-vs-all search on one node: returns similarity edges
/// `(gid_low, gid_high, weight)`, each pair once.
pub fn mmseqs_like(records: &[FastaRecord], params: &MmseqsParams) -> Vec<(u64, u64, f64)> {
    let encoded: Vec<Vec<u8>> = records
        .iter()
        .map(|r| seqstore::encode_seq(&r.residues))
        .collect();
    let refs: Vec<&[u8]> = encoded.iter().map(|v| v.as_slice()).collect();
    let index = KmerIndex::build(&refs, params.k);
    let table = ExpenseTable::new(params.align.matrix);
    let mut edges = Vec::new();
    for q in 0..refs.len() {
        search_one(q as u64, &refs, &index, &table, params, &mut edges);
    }
    edges
}

/// Distributed all-vs-all: queries are partitioned over ranks; results are
/// gathered to rank 0, which post-processes them alone (the paper-observed
/// output bottleneck). Collective.
pub fn mmseqs_like_distributed(
    comm: &Comm,
    records: &[FastaRecord],
    params: &MmseqsParams,
) -> MmseqsRun {
    let t = obs::Stopwatch::start();
    let encoded: Vec<Vec<u8>> = records
        .iter()
        .map(|r| seqstore::encode_seq(&r.residues))
        .collect();
    let refs: Vec<&[u8]> = encoded.iter().map(|v| v.as_slice()).collect();
    let index = KmerIndex::build(&refs, params.k);
    let table = ExpenseTable::new(params.align.matrix);
    let (me, p) = (comm.rank(), comm.size());
    let mut edges = Vec::new();
    let mut alignments = 0u64;
    for q in (me..refs.len()).step_by(p) {
        alignments += search_one(q as u64, &refs, &index, &table, params, &mut edges);
    }
    let search_secs = t.elapsed_secs();

    // Single-writer output stage: everything funnels to rank 0.
    let gathered = comm.gather(0, edges.clone());
    let mut postprocess_secs = 0.0;
    if let Some(parts) = gathered {
        let t = obs::Stopwatch::start();
        let mut all: Vec<(u64, u64, f64)> = parts.into_iter().flatten().collect();
        // Sort + format, sequentially, as a writer process would. Work is
        // proportional to the TOTAL result volume regardless of p — the
        // scaling wall the paper observed.
        pcomm::work::record_class(all.len() as u64, pcomm::work::CostClass::OutputEdge);
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut sink = 0usize;
        for &(a, b, w) in &all {
            sink += format!("{a}\t{b}\t{w:.4}\n").len();
        }
        std::hint::black_box(sink);
        postprocess_secs = t.elapsed_secs();
    }
    MmseqsRun {
        search_secs,
        postprocess_secs,
        alignments,
        edges,
    }
}

/// Prefilter + align one query against the index; returns #alignments.
fn search_one(
    q: u64,
    seqs: &[&[u8]],
    index: &KmerIndex,
    table: &ExpenseTable,
    params: &MmseqsParams,
    edges: &mut Vec<(u64, u64, f64)>,
) -> u64 {
    let query = seqs[q as usize];
    let m = params.similar_kmers();
    // (target, diagonal) → (hit count, first seed qpos/tpos).
    let mut diag_hits: HashMap<(u32, i64), (u32, u32, u32)> = HashMap::new();
    let mut kmer_buf: Vec<(u64, u32)> = Vec::new();
    let mut searcher = SubKmerSearcher::new();
    for (kid, qpos) in kmers_of(query, params.k) {
        kmer_buf.clear();
        kmer_buf.push((kid, qpos));
        if m > 0 {
            // The query window spells `kid`'s bases.
            let seed = &query[qpos as usize..][..params.k];
            kmer_buf.extend(searcher.search(seed, table, m).map(|sub| (sub.id, qpos)));
        }
        for &(lookup, qp) in kmer_buf.iter() {
            pcomm::work::record_class(1, pcomm::work::CostClass::KmerIndexProbe);
            if let Some(hits) = index.get(lookup) {
                pcomm::work::record_class(
                    hits.len() as u64,
                    pcomm::work::CostClass::DiagonalUpdate,
                );
                for &(t, tpos) in hits {
                    // All-vs-all symmetry: each unordered pair handled from
                    // its lower gid only.
                    if (t as u64) <= q {
                        continue;
                    }
                    let d = qp as i64 - tpos as i64;
                    let e = diag_hits.entry((t, d)).or_insert((0, qp, tpos));
                    e.0 += 1;
                }
            }
        }
    }
    // Double-diagonal rule: a pair qualifies if any diagonal holds ≥ 2
    // similar-k-mer matches; pick the best diagonal by ungapped score.
    let mut best_per_target: HashMap<u32, (i32, u32, u32)> = HashMap::new();
    for (&(t, _d), &(count, qp, tp)) in &diag_hits {
        if count < 2 {
            continue;
        }
        let st = ungapped_xdrop(query, seqs[t as usize], qp, tp, params.k, &params.align);
        let e = best_per_target.entry(t).or_insert((i32::MIN, 0, 0));
        // Deterministic despite hash-map iteration order: total order on
        // (score, qpos, tpos).
        if (st.score, qp, tp) > *e {
            *e = (st.score, qp, tp);
        }
    }
    let mut aligned = 0u64;
    let mut targets: Vec<(&u32, &(i32, u32, u32))> = best_per_target.iter().collect();
    targets.sort_by_key(|&(&t, _)| t);
    for (&t, &(ungapped, _qp, _tp)) in targets {
        if ungapped < params.min_ungapped_score {
            continue;
        }
        aligned += 1;
        let st = smith_waterman(query, seqs[t as usize], &params.align);
        let keep = match params.measure {
            SimilarityMeasure::Ani => st
                .passes_filter(params.min_ani, params.min_coverage)
                .then(|| st.ani()),
            SimilarityMeasure::NormalizedScore => (st.score > 0).then(|| st.normalized_score()),
        };
        if let Some(w) = keep {
            edges.push((q, t as u64, w));
        }
    }
    aligned
}

/// Inverted k-mer index over the target set.
struct KmerIndex {
    map: HashMap<u64, Vec<(u32, u32)>>,
}

impl KmerIndex {
    fn build(seqs: &[&[u8]], k: usize) -> KmerIndex {
        let mut map: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
        for (i, s) in seqs.iter().enumerate() {
            for (kid, pos) in kmers_of(s, k) {
                map.entry(kid).or_default().push((i as u32, pos));
            }
        }
        // Work accounting: one hash insert per k-mer occurrence.
        pcomm::work::record_class(
            map.values().map(|v| v.len() as u64).sum(),
            pcomm::work::CostClass::KmerIndexInsert,
        );
        KmerIndex { map }
    }

    fn get(&self, kid: u64) -> Option<&Vec<(u32, u32)>> {
        self.map.get(&kid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{scope_like, ScopeConfig};

    fn family_data() -> datagen::LabeledDataset {
        scope_like(&ScopeConfig {
            seed: 31,
            families: 4,
            members_range: (3, 3),
            len_range: (80, 120),
            divergence: (0.02, 0.08),
            ..Default::default()
        })
    }

    #[test]
    fn finds_family_pairs() {
        let data = family_data();
        let edges = mmseqs_like(&data.records, &MmseqsParams::default());
        assert!(!edges.is_empty());
        let intra = edges
            .iter()
            .filter(|&&(a, b, _)| data.labels[a as usize] == data.labels[b as usize])
            .count();
        assert!(
            intra * 3 >= edges.len() * 2,
            "intra {intra} of {}",
            edges.len()
        );
    }

    #[test]
    fn pairs_reported_once_and_ordered() {
        let data = family_data();
        let edges = mmseqs_like(&data.records, &MmseqsParams::default());
        let mut keys: Vec<(u64, u64)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
        assert!(edges.iter().all(|&(a, b, _)| a < b));
    }

    #[test]
    fn higher_sensitivity_finds_superset_of_pairs() {
        let data = family_data();
        let low = mmseqs_like(
            &data.records,
            &MmseqsParams {
                sensitivity: 1.0,
                ..Default::default()
            },
        );
        let high = mmseqs_like(
            &data.records,
            &MmseqsParams {
                sensitivity: 7.5,
                ..Default::default()
            },
        );
        assert!(
            high.len() >= low.len(),
            "high {} < low {}",
            high.len(),
            low.len()
        );
    }

    #[test]
    fn distributed_matches_single_node() {
        use pcomm::World;
        let data = family_data();
        let params = MmseqsParams::default();
        let want = {
            let mut e = mmseqs_like(&data.records, &params);
            e.sort_by(|a, b| a.partial_cmp(b).unwrap());
            e
        };
        for p in [1usize, 3, 4] {
            let runs = World::run(p, |comm| {
                mmseqs_like_distributed(&comm, &data.records, &params)
            });
            let mut got: Vec<(u64, u64, f64)> = runs.iter().flat_map(|r| r.edges.clone()).collect();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, want, "p={p}");
            assert!(runs[0].postprocess_secs >= 0.0);
            assert!(runs[1..].iter().all(|r| r.postprocess_secs == 0.0));
        }
    }

    #[test]
    fn empty_input() {
        assert!(mmseqs_like(&[], &MmseqsParams::default()).is_empty());
    }
}
