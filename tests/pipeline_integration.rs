//! End-to-end pipeline tests spanning pcomm, sparse, seqstore, align,
//! subkmer and pastis: the PASTIS §V guarantees (process-count
//! obliviousness, ownership partition), the §IV-B recall claim for
//! substitute k-mers, and the CK-threshold behaviour of §VI.

use datagen::{metaclust_like, scope_like, MetaclustConfig, ScopeConfig};
use pastis::{run_pipeline, AlignMode, PastisParams};
use pcomm::World;
use seqstore::write_fasta;

fn small_dataset(n: usize, seed: u64) -> Vec<u8> {
    write_fasta(&metaclust_like(
        n,
        &MetaclustConfig {
            seed,
            len_range: (60, 120),
            related_fraction: 0.5,
            mutation_rate: 0.08,
        },
    ))
}

fn collect_edges(fasta: &[u8], p: usize, params: &PastisParams) -> Vec<(u64, u64, f64)> {
    let runs = World::run(p, |comm| run_pipeline(&comm, fasta, params));
    let mut edges: Vec<(u64, u64, f64)> = runs.into_iter().flat_map(|r| r.edges).collect();
    edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
    edges
}

#[test]
fn edges_independent_of_process_count() {
    let fasta = small_dataset(30, 1);
    let params = PastisParams {
        k: 4,
        substitutes: 0,
        ..Default::default()
    };
    let reference = collect_edges(&fasta, 1, &params);
    assert!(!reference.is_empty(), "dataset produced no edges");
    for p in [4usize, 9] {
        let got = collect_edges(&fasta, p, &params);
        assert_eq!(got, reference, "p={p}");
    }
}

/// Four records of `metaclust_like(3500, seed 1400845388)` as the
/// benchmark generates it (`mc10`, `mc1623`, `mc2381`, `mc20`). On a 2x2
/// grid the homologous middle pair lands in a block whose owner sees it
/// with row and column swapped relative to p=1; the x-drop extension
/// prunes row by row, so until the kernel fixed its operand order the edge
/// weighed 0.4343 at p=1 and 0.4247 at p=4.
const OPERAND_ORDER_FASTA: &[u8] = b">mc10
RSLLHFSFAYKKAYNGTENLPLADHNKEVMLMPDESTVKISNFSQTGFRVNLDPTMIAILPEEVKNDVAADLRDARTSTI
ILIKRALVEASGDYEITIIGTPEEANLGRSDLPLDILAYIIETFNHQSTEFNILPLKNPQSEVTPVRNSFLTANS
>mc1623
TDRESLVHVIFSLQVEKTDPDNCQSLRYLSMQNKDGSLVVTMQTRQIPLTINLWGDNRIIIKSTQKSCNEFKSKTNLCMD
RCAKQCNMEVTIGGYIVTKYAYGPHSDKSKMMSDRGHFTESHFLEELGSGFERVRPRSSCDDPAEQMQVHLLGSAKWVSI
YQSKFTRKEELFPADDYPKNKASQFLQADPWNFSIDIKMHLSSSACLFQGSEYNTEYSPAKLWAQGARILIVSQDVPGTK
SPNLLYVLVIDNGDALGAIFVVYEVTRLRSPPMITETCSYIPGYDWDADVEGSL
>mc2381
TDCHELLHVEFSLHVEDAPNQYCQSLPWTTRNGREQQWVVFHQGSNGIITINLSGDPRIIVKSRIRSPIVFKQRAMLCMD
RTAKQCNMRVPQGIYILLRYAYAGTSHDMKVLRENGDDVDNFSLEYLSNGFFEQNGEIRTCKDSAEDDAVGVWINLGSCR
RDQSIWSRKQRLSPADDYPPMNESQFIQKDPPYLSIAKRPHHAHWAALFQASEYKTDYKYAKLINQGGPQAVQCQDVPGT
ESPNISLFLIITYLKEPGAFSLVCRITRVRSPEYVQETWSYIPQFDFSADLHSSA
>mc20
AQIAPPVLNVGGSMAIKYHDIKRTTKQQALHNLYFNVAIFLPAQGTREPNSPESVLILTPGYGGLEAHETWEGSLLRMWL
TIKTGQSWIQNGYLSMKRWKINFLKKESHIKDDRVRGQDEWLYGATVEEAIKSLPQWWLGQKWLRLRLIGREWLQKFTIR
PNLTFEYRMVAATHLLLDDRFRFNST
";

/// Four records of `metaclust_like(3500, seed 26)` as the benchmark
/// generates it (`mc10`, `mc330`, `mc1884`, `mc20`). On a 2x2 grid block
/// (1,0) owns the middle pair and holds it as `(mc1884, mc330)`; the
/// Smith–Waterman traceback breaks ties by operand order, so until the
/// pipeline passed its operands in global-id order the edge weighed
/// 0.5067 at p=1 and 0.5263 at p=4.
const SW_OPERAND_ORDER_FASTA: &[u8] = b">mc10
SAALLANFQDHILAIDNLDSSPLMSLSTVWDYDLGKGAVSIDQTVKITPVDFDVFSMDPFCIDWAIPKDLTGNMQLLLMQ
GGRKDAESSDWERTALKGSKDDNCECLLGQDGNTVTAPLQLKNGQFVDEMVLKIEAYLSLLTLISYQTDPNYCAEIARSF
AEHTGAGTGLGQTYDLTHLVNDDGLLYIEDNEQPRIAEDSNEGSACALYQTPDRLGQPTAVPRGWGQSDEGEGSALSTCL
TAEEPFDIRVGRKVRFCWLRGK
>mc330
QSGDSDHWRQTMVVSFDVWPSSRQEPEISDYAVQALDENKMTNFRCDLWQHCGPCRNEPAHNERFTKSEHCGAYGAALLS
TKINREKGAKKMGEVRNYSNNLVCTKEHPFSEVWVSKFRSNKGLYMIHKPNKAKLFGTTLYQFLFALK
>mc1884
QSGDPDHPRQKVVVSFDVWPPGEQFPEISSYAVQAYDENPNTNSDNDLTQRPHVEAHESAHNERYRKSELCNAQGGVRAW
RLLSRKNNMIAKKMGSPQNYENSVTAWKPHGFSQKVVSLFESNKGLDLVRKTTKAKIVNRVLAQVFFAYK
>mc20
FIKHALIVFTNLMKKAWSEAVRGQVDSFRASPPGVNELVPADSFAKVCQGIRLEAHYDKGQIIKESTLYLAIDRFKKDVY
LGDVVKAAAETISYSVYILLLADANPCPLEYHPELNDGLNLDVDCLVSKRKANI
";

#[test]
fn edges_independent_of_operand_order() {
    // The benchmark's settings: k = 6, ANI >= 0.3, coverage >= 0.7.
    for (fasta, mode) in [
        (OPERAND_ORDER_FASTA, AlignMode::XDrop),
        (SW_OPERAND_ORDER_FASTA, AlignMode::SmithWaterman),
    ] {
        let params = PastisParams {
            mode,
            ..Default::default()
        };
        let reference = collect_edges(fasta, 1, &params);
        assert_eq!(
            reference.len(),
            1,
            "{mode:?}: the homologous pair is the one edge"
        );
        assert_eq!(collect_edges(fasta, 4, &params), reference, "{mode:?}");
    }
}

#[test]
fn edges_independent_of_process_count_with_substitutes() {
    let fasta = small_dataset(20, 2);
    let params = PastisParams {
        k: 4,
        substitutes: 5,
        ..Default::default()
    };
    let reference = collect_edges(&fasta, 1, &params);
    assert!(!reference.is_empty());
    for p in [4usize, 9] {
        let got = collect_edges(&fasta, p, &params);
        assert_eq!(got, reference, "p={p}");
    }
}

#[test]
fn each_pair_reported_exactly_once() {
    let fasta = small_dataset(25, 3);
    let params = PastisParams {
        k: 4,
        mode: AlignMode::None,
        ..Default::default()
    };
    for p in [1usize, 4] {
        let edges = collect_edges(&fasta, p, &params);
        let mut keys: Vec<(u64, u64)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate pair reported at p={p}");
        for &(a, b) in &keys {
            assert!(a < b, "unordered edge ({a},{b})");
        }
    }
}

#[test]
fn substitutes_expand_the_candidate_set() {
    // §IV-B/§VI-A: substitute k-mers strictly widen the overlap landscape —
    // more candidate pairs, superset of the exact pairs.
    let fasta = small_dataset(25, 4);
    let exact = PastisParams {
        k: 4,
        substitutes: 0,
        mode: AlignMode::None,
        ..Default::default()
    };
    let subs = PastisParams {
        k: 4,
        substitutes: 10,
        mode: AlignMode::None,
        ..Default::default()
    };
    let e_exact = collect_edges(&fasta, 1, &exact);
    let e_subs = collect_edges(&fasta, 1, &subs);
    assert!(e_subs.len() >= e_exact.len());
    let sub_keys: std::collections::HashSet<(u64, u64)> =
        e_subs.iter().map(|&(a, b, _)| (a, b)).collect();
    for &(a, b, _) in &e_exact {
        assert!(
            sub_keys.contains(&(a, b)),
            "exact pair ({a},{b}) lost with substitutes"
        );
    }
}

#[test]
fn substitute_counts_dominate_exact_counts() {
    // With the identity kept in S, every exact shared k-mer is also a
    // shared substitute k-mer: per-pair counts can only grow.
    let fasta = small_dataset(15, 5);
    let exact = PastisParams {
        k: 4,
        substitutes: 0,
        mode: AlignMode::None,
        ..Default::default()
    };
    let subs = PastisParams {
        k: 4,
        substitutes: 8,
        mode: AlignMode::None,
        ..Default::default()
    };
    let e_exact = collect_edges(&fasta, 1, &exact);
    let e_subs: std::collections::HashMap<(u64, u64), f64> = collect_edges(&fasta, 1, &subs)
        .into_iter()
        .map(|(a, b, w)| ((a, b), w))
        .collect();
    for (a, b, w) in e_exact {
        let ws = e_subs.get(&(a, b)).copied().unwrap_or(0.0);
        assert!(
            ws >= w,
            "pair ({a},{b}): substitute count {ws} < exact count {w}"
        );
    }
}

#[test]
fn ck_threshold_prunes_alignments() {
    let fasta = small_dataset(30, 6);
    let base = PastisParams {
        k: 4,
        substitutes: 5,
        ..Default::default()
    };
    let ck = PastisParams {
        common_kmer_threshold: 3,
        ..base.clone()
    };
    let runs_base = World::run(1, |comm| run_pipeline(&comm, &fasta, &base));
    let runs_ck = World::run(1, |comm| run_pipeline(&comm, &fasta, &ck));
    let a0 = runs_base[0].counters.alignments_global;
    let a1 = runs_ck[0].counters.alignments_global;
    assert!(a1 < a0, "CK did not prune: {a1} vs {a0}");
    assert!(a1 > 0, "CK pruned everything");
    // The surviving edges are a subset of the unpruned ones.
    let keys = |runs: &[pastis::PastisRun]| {
        runs.iter()
            .flat_map(|r| r.edges.iter().map(|&(a, b, _)| (a, b)))
            .collect::<std::collections::HashSet<_>>()
    };
    assert!(keys(&runs_ck).is_subset(&keys(&runs_base)));
}

#[test]
fn sw_and_xd_find_the_same_strong_pairs() {
    // §VI-B: XD is much faster "without any significant change in
    // accuracy". On clearly homologous pairs both must agree.
    let data = scope_like(&ScopeConfig {
        seed: 7,
        families: 4,
        members_range: (3, 4),
        len_range: (70, 120),
        divergence: (0.02, 0.08),
        ..Default::default()
    });
    let fasta = write_fasta(&data.records);
    let sw = PastisParams {
        k: 4,
        mode: AlignMode::SmithWaterman,
        ..Default::default()
    };
    let xd = PastisParams {
        k: 4,
        mode: AlignMode::XDrop,
        ..Default::default()
    };
    let e_sw = collect_edges(&fasta, 1, &sw);
    let e_xd = collect_edges(&fasta, 1, &xd);
    let k_sw: std::collections::HashSet<(u64, u64)> =
        e_sw.iter().map(|&(a, b, _)| (a, b)).collect();
    let k_xd: std::collections::HashSet<(u64, u64)> =
        e_xd.iter().map(|&(a, b, _)| (a, b)).collect();
    let overlap = k_sw.intersection(&k_xd).count();
    assert!(!k_sw.is_empty());
    assert!(
        overlap as f64 >= 0.8 * k_sw.len() as f64,
        "XD missed too many SW pairs: {overlap}/{}",
        k_sw.len()
    );
}

#[test]
fn family_members_are_connected() {
    // Close family members must end up adjacent in the PSG.
    let data = scope_like(&ScopeConfig {
        seed: 8,
        families: 5,
        members_range: (3, 3),
        len_range: (80, 120),
        divergence: (0.02, 0.06),
        ..Default::default()
    });
    let fasta = write_fasta(&data.records);
    let params = PastisParams {
        k: 4,
        ..Default::default()
    };
    let edges = collect_edges(&fasta, 4, &params);
    // Count intra- vs inter-family edges.
    let (mut intra, mut inter) = (0usize, 0usize);
    for &(a, b, _) in &edges {
        if data.labels[a as usize] == data.labels[b as usize] {
            intra += 1;
        } else {
            inter += 1;
        }
    }
    assert!(intra > 0, "no intra-family edges at all");
    assert!(intra > 5 * inter.max(1) / 2, "intra={intra} inter={inter}");
}

#[test]
fn ns_measure_keeps_positive_scores_without_filter() {
    let fasta = small_dataset(20, 9);
    let ani = PastisParams {
        k: 4,
        ..Default::default()
    };
    let ns = PastisParams {
        measure: align::SimilarityMeasure::NormalizedScore,
        ..ani.clone()
    };
    let e_ani = collect_edges(&fasta, 1, &ani);
    let e_ns = collect_edges(&fasta, 1, &ns);
    // NS applies no identity/coverage cut-off, so it keeps at least as many.
    assert!(e_ns.len() >= e_ani.len());
    for &(_, _, w) in &e_ns {
        assert!(w > 0.0);
    }
}

#[test]
fn counters_are_populated() {
    let fasta = small_dataset(20, 10);
    let params = PastisParams {
        k: 4,
        substitutes: 5,
        ..Default::default()
    };
    let runs = World::run(4, |comm| run_pipeline(&comm, &fasta, &params));
    let c = runs[0].counters;
    assert_eq!(c.n_seqs, 20);
    assert!(c.nnz_a > 0);
    assert!(c.nnz_s > 0);
    assert!(c.nnz_b > 0);
    assert!(c.alignments_global > 0);
    // Collective counters agree across ranks.
    for r in &runs {
        assert_eq!(r.counters.nnz_b, c.nnz_b);
        assert_eq!(r.counters.alignments_global, c.alignments_global);
    }
    // Timings recorded.
    assert!(runs[0].timings.total > 0.0);
    assert!(runs[0].timings.spgemm_b.secs > 0.0);
}

#[test]
fn empty_and_tiny_inputs() {
    let params = PastisParams {
        k: 4,
        ..Default::default()
    };
    let runs = World::run(1, |comm| run_pipeline(&comm, b"", &params));
    assert!(runs[0].edges.is_empty());
    let one = write_fasta(&metaclust_like(
        1,
        &MetaclustConfig {
            len_range: (50, 60),
            ..Default::default()
        },
    ));
    let runs = World::run(4, |comm| run_pipeline(&comm, &one, &params));
    assert!(
        runs.iter().all(|r| r.edges.is_empty()),
        "single sequence cannot pair"
    );
}

#[test]
fn kmer_frequency_filter_drops_repeat_driven_pairs() {
    // Give every sequence the same low-complexity repeat; without the
    // filter the repeat makes everything a candidate pair.
    let mut records = metaclust_like(
        16,
        &MetaclustConfig {
            seed: 12,
            len_range: (60, 90),
            related_fraction: 0.0,
            ..Default::default()
        },
    );
    for r in &mut records {
        r.residues.extend_from_slice(b"WWWWWWWWWW");
    }
    let fasta = write_fasta(&records);
    let base = PastisParams {
        k: 4,
        mode: AlignMode::None,
        ..Default::default()
    };
    let filtered = PastisParams {
        max_kmer_frequency: Some(8),
        ..base.clone()
    };
    for p in [1usize, 4] {
        let all = collect_edges(&fasta, p, &base);
        let kept = collect_edges(&fasta, p, &filtered);
        // The repeat pairs everything: all = n(n-1)/2 candidates.
        assert_eq!(all.len(), 16 * 15 / 2, "p={p}");
        assert!(
            kept.len() < all.len() / 4,
            "filter ineffective: {} of {}",
            kept.len(),
            all.len()
        );
    }
}

/// The `AlignMode::None` PSG of the k-mer frequency pre-filter, computed
/// straight from the FASTA: pair `(i, j)` weighs the number of k-mers both
/// hold that at most `limit` sequences hold, and is an edge when that
/// number clears the CK threshold `ck`.
fn brute_force_pruned_edges(fasta: &[u8], k: usize, limit: u32, ck: u32) -> Vec<(u64, u64, f64)> {
    use std::collections::{BTreeMap, BTreeSet};
    let kmers: Vec<BTreeSet<u64>> = seqstore::parse_fasta(fasta)
        .iter()
        .map(|r| {
            let seq = seqstore::encode_seq(&r.residues);
            seqstore::kmers_of(&seq, k).map(|(id, _)| id).collect()
        })
        .collect();
    let mut holders: BTreeMap<u64, u32> = BTreeMap::new();
    for id in kmers.iter().flatten() {
        *holders.entry(*id).or_insert(0) += 1;
    }
    let mut edges = Vec::new();
    for (i, a) in kmers.iter().enumerate() {
        for (j, b) in kmers.iter().enumerate().skip(i + 1) {
            let shared = a.intersection(b).filter(|id| holders[*id] <= limit).count() as u32;
            if shared > ck {
                edges.push((i as u64, j as u64, shared as f64));
            }
        }
    }
    edges
}

#[test]
fn kmer_frequency_filter_is_grid_oblivious() {
    let fasta = small_dataset(25, 13);
    let (k, limit) = (4, 5);
    // Without the filter the reference differs, so the filter has work.
    assert_ne!(
        brute_force_pruned_edges(&fasta, k, limit, 0),
        brute_force_pruned_edges(&fasta, k, u32::MAX, 0)
    );
    for ck in [0, 2] {
        let params = PastisParams {
            k,
            max_kmer_frequency: Some(limit),
            common_kmer_threshold: ck,
            mode: AlignMode::None,
            ..Default::default()
        };
        let brute = brute_force_pruned_edges(&fasta, k, limit, ck);
        assert!(!brute.is_empty(), "ck={ck}: no edges to compare");
        for p in [1usize, 4, 9] {
            assert_eq!(collect_edges(&fasta, p, &params), brute, "ck={ck} p={p}");
        }
    }
}

#[test]
fn reduced_alphabet_seeding_is_more_sensitive() {
    // Diverged families: Murphy-10 seeding must surface at least as many
    // candidate pairs as exact 24-letter seeding (DIAMOND's trick, §III).
    let data = scope_like(&ScopeConfig {
        seed: 21,
        families: 5,
        members_range: (3, 4),
        len_range: (70, 120),
        divergence: (0.15, 0.40),
        ..Default::default()
    });
    let fasta = write_fasta(&data.records);
    let exact = PastisParams {
        k: 5,
        mode: AlignMode::None,
        ..Default::default()
    };
    let reduced = PastisParams {
        reduced_alphabet: true,
        ..exact.clone()
    };
    let e_exact = collect_edges(&fasta, 1, &exact);
    let e_reduced = collect_edges(&fasta, 1, &reduced);
    assert!(
        e_reduced.len() > e_exact.len(),
        "reduced {} <= exact {}",
        e_reduced.len(),
        e_exact.len()
    );
    // And it stays grid-oblivious.
    assert_eq!(collect_edges(&fasta, 4, &reduced), e_reduced);
}

#[test]
fn identical_duplicate_sequences_pair_perfectly() {
    let rec = seqstore::FastaRecord {
        name: "dup".into(),
        residues: b"MKVLAWHERTYCCDDEEFFGGHHIIKKLLMMNNPPQQRRSSTTVVWWYY".to_vec(),
    };
    let fasta = write_fasta(&[
        rec.clone(),
        seqstore::FastaRecord {
            name: "dup2".into(),
            ..rec
        },
    ]);
    let params = PastisParams {
        k: 4,
        ..Default::default()
    };
    let edges = collect_edges(&fasta, 1, &params);
    assert_eq!(edges.len(), 1);
    let (a, b, w) = edges[0];
    assert_eq!((a, b), (0, 1));
    assert!(
        (w - 1.0).abs() < 1e-12,
        "identical pair must have ANI 1.0, got {w}"
    );
}
