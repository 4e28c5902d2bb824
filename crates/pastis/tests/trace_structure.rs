//! Deterministic span structure: the shape of the recorded trace — which
//! spans nest under which, in what order — must not depend on the process
//! count or the rank. [`obs::structure_signature`] collapses runs of
//! identical sibling subtrees, so the q SUMMA stages of a √p × √p grid
//! compare equal across grids (q spans of identical shape on every p).
//!
//! MCL is exercised separately (`mcl.iter` spans): its iteration count
//! depends on floating-point convergence whose reduction order varies with
//! p, so it is deliberately not part of the cross-p fixture.

use datagen::{metaclust_like, MetaclustConfig};
use pastis::{run_pipeline, AlignMode, PastisParams};
use pcomm::World;
use seqstore::write_fasta;

fn dataset() -> Vec<u8> {
    write_fasta(&metaclust_like(
        32,
        &MetaclustConfig {
            seed: 11,
            len_range: (60, 100),
            related_fraction: 0.5,
            mutation_rate: 0.08,
        },
    ))
}

fn signatures(fasta: &[u8], p: usize, params: &PastisParams) -> Vec<String> {
    let runs = World::run(p, |comm| run_pipeline(&comm, fasta, params));
    runs.iter()
        .map(|r| obs::structure_signature(&r.trace.events))
        .collect()
}

#[test]
fn span_structure_is_identical_across_process_counts() {
    let fasta = dataset();
    let params = PastisParams {
        k: 4,
        threads: 1,
        ..Default::default()
    };
    let reference = signatures(&fasta, 1, &params)[0].clone();
    assert!(
        reference.starts_with("pastis.run("),
        "unexpected root: {reference}"
    );
    assert!(
        reference.contains("summa.stage("),
        "no SUMMA stages: {reference}"
    );
    for p in [4usize, 16] {
        for (rank, sig) in signatures(&fasta, p, &params).iter().enumerate() {
            assert_eq!(*sig, reference, "p={p} rank={rank}");
        }
    }
}

#[test]
fn substitute_path_adds_its_stages_deterministically() {
    let fasta = dataset();
    let params = PastisParams {
        k: 4,
        substitutes: 4,
        threads: 1,
        ..Default::default()
    };
    let reference = signatures(&fasta, 1, &params)[0].clone();
    for needle in ["pastis.form_s", "pastis.a_s", "pastis.symmetricize"] {
        assert!(reference.contains(needle), "missing {needle}: {reference}");
    }
    for (rank, sig) in signatures(&fasta, 4, &params).iter().enumerate() {
        assert_eq!(*sig, reference, "rank={rank}");
    }
}

#[test]
fn streamed_summa_posts_the_next_panels_before_computing() {
    // The overlap the double-buffered SUMMA exists for: stage t+1's two
    // panel broadcasts (A along the grid row, Aᵀ along the grid column) are
    // posted — their `summa.prefetch` span closed — before stage t's local
    // multiply starts. Siblings of one span on one thread, so entry order
    // is close-before-open; the recorder's clock must agree.
    let fasta = dataset();
    let params = PastisParams {
        k: 4,
        mode: AlignMode::XDrop,
        threads: 1,
        ..Default::default()
    };
    let (p, q) = (4usize, 2i64);
    let runs = World::run(p, |comm| run_pipeline(&comm, fasta.as_slice(), &params));
    fn stages<'a>(nodes: &'a [obs::SpanNode], out: &mut Vec<&'a obs::SpanNode>) {
        for n in nodes {
            if n.event.name == "summa.stage" {
                out.push(n);
            }
            stages(&n.children, out);
        }
    }
    let mut checked = 0;
    for r in &runs {
        let forest = obs::span_forest(&r.trace.events);
        let mut found = Vec::new();
        stages(&forest, &mut found);
        for stage in found {
            let t = stage.event.arg.map_or(-1, |(_, v)| v);
            if t >= q - 1 {
                continue; // the last stage has nothing left to post
            }
            let child = |name: &str| {
                stage
                    .children
                    .iter()
                    .find(|c| c.event.name == name)
                    .unwrap_or_else(|| panic!("rank {} stage {t}: no {name}", r.trace.rank))
            };
            let prefetch = child("summa.prefetch");
            let posts = prefetch
                .children
                .iter()
                .filter(|c| c.event.name == "pcomm.ibcast.post")
                .count();
            assert_eq!(posts, 2, "rank {} stage {t}", r.trace.rank);
            let closed = prefetch.event.start_ns + prefetch.event.dur_ns;
            let mul = &child("summa.local_mul").event;
            assert!(
                prefetch.event.seq < mul.seq && closed <= mul.start_ns,
                "rank {} stage {t}: summa.prefetch still open when summa.local_mul began",
                r.trace.rank
            );
            checked += 1;
        }
    }
    assert_eq!(checked, p, "one overlapped stage per rank on a 2x2 grid");
}

#[test]
fn every_paper_stage_has_a_span() {
    let fasta = dataset();
    let params = PastisParams {
        k: 4,
        substitutes: 4,
        threads: 1,
        ..Default::default()
    };
    let runs = World::run(4, |comm| run_pipeline(&comm, fasta.as_slice(), &params));
    for r in &runs {
        for (span, label) in pastis::Timings::STAGE_SPANS {
            assert!(
                r.trace.events.iter().any(|e| e.name == span),
                "rank {} missing {span} ({label})",
                r.trace.rank
            );
        }
    }
}

#[test]
fn timings_match_trace_stage_sums() {
    let fasta = dataset();
    let params = PastisParams {
        k: 4,
        threads: 1,
        ..Default::default()
    };
    let runs = World::run(4, |comm| run_pipeline(&comm, fasta.as_slice(), &params));
    for r in &runs {
        let rebuilt = pastis::Timings::from_trace(&r.trace, 4);
        assert_eq!(r.timings.align.work_ns, rebuilt.align.work_ns);
        assert_eq!(
            r.timings.spgemm_b.comm.bytes_sent,
            rebuilt.spgemm_b.comm.bytes_sent
        );
        assert!((r.timings.total - rebuilt.total).abs() < 1e-12);
        // The exact overlap aligns each batch inside `pastis.spgemm_b`,
        // under `align.overlap` spans that the align stage reads (nested
        // stage spans count once), so the default must report nonzero
        // align time.
        assert!(r.timings.align.work_ns > 0, "align attribution lost");
        // The stage spans cover the run: under exclusive attribution
        // (nested stage spans counted once) their wall-clock sum cannot
        // exceed the root span's duration.
        let extracts = obs::project::extract_stages(
            std::slice::from_ref(&r.trace),
            &pastis::Timings::STAGE_SPANS,
            &[],
        );
        let sum: f64 = extracts.iter().map(|e| e.secs_max).sum();
        assert!(sum <= r.timings.total + 1e-9, "{sum} > {}", r.timings.total);
    }
}
