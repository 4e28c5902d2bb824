//! Live-plane determinism: the *structure* of the heartbeat snapshots —
//! per-rank stage, progress epoch, done/total items — is a function of
//! the program, not the schedule. Epochs count span opens in logical
//! program order and done/total mirror the alignment counters exactly,
//! so the final snapshot must be bit-identical across perturbation seeds
//! at every world size, under full pcheck conformance checking (the
//! heartbeat channel itself must stay invisible to the ledger and the
//! finalize leak audit). Wall-clock fields (`t_ms`, `hb_age_ms`) and the
//! snapshot's `live_bytes_total` are explicitly nondeterministic and
//! excluded.

use std::sync::OnceLock;

use datagen::{metaclust_like, MetaclustConfig};
use obs::JsonValue;
use pastis::{run_pipeline, PastisParams};
use pcomm::monitor::{self, MonitorConfig};
use pcomm::WorldBuilder;
use seqstore::write_fasta;

const PS: [usize; 3] = [1, 4, 16];
const SEEDS: [u64; 4] = [1, 2, 3, 4];

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

/// The deterministic slice of one final-snapshot rank row.
type RankShape = (u64, String, u64, u64, u64, bool, bool);

fn shape(doc: &JsonValue) -> Vec<RankShape> {
    let finals = doc.get("final").expect("final snapshot");
    let rows = match finals.get("ranks") {
        Some(JsonValue::Arr(rows)) => rows,
        _ => panic!("final snapshot has no ranks"),
    };
    rows.iter()
        .map(|row| {
            let num = |k: &str| row.get(k).and_then(JsonValue::as_u64).expect(k);
            let flag = |k: &str| match row.get(k) {
                Some(JsonValue::Bool(b)) => *b,
                other => panic!("{k}: {other:?}"),
            };
            let stage = row
                .get("stage")
                .and_then(JsonValue::as_str)
                .expect("stage")
                .to_string();
            (
                num("rank"),
                stage,
                num("epoch"),
                num("done"),
                num("total"),
                flag("active"),
                flag("straggler"),
            )
        })
        .collect()
}

#[test]
fn final_snapshot_structure_is_schedule_independent() {
    let params = PastisParams {
        k: 4,
        threads: 1,
        ..Default::default()
    };
    for p in PS {
        let mut reference: Option<Vec<RankShape>> = None;
        for seed in SEEDS {
            let path = std::env::temp_dir().join(format!(
                "pastis-monitor-live-{}-{p}-{seed}.json",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            // Checked world: the pcheck conformance ledger and the
            // finalize leak audit run with the heartbeat plane active.
            let runs = WorldBuilder::new()
                .checked(true)
                .perturb(seed)
                .watchdog_ms(30_000)
                .monitor(MonitorConfig {
                    path: Some(path.clone()),
                    interval_ms: 5,
                    ..Default::default()
                })
                .run(p, |comm| run_pipeline(&comm, dataset(), &params));

            let doc =
                JsonValue::parse(&std::fs::read_to_string(&path).expect("status.json written"))
                    .expect("status.json parses");
            monitor::validate_status(&doc, true).expect("complete document validates");
            let got = shape(&doc);
            assert_eq!(got.len(), p, "final snapshot covers every rank");
            // Progress accounting is exact: the ranks' done items sum to
            // the run's global alignment counter.
            let done_sum: u64 = got.iter().map(|r| r.3).sum();
            assert_eq!(done_sum, runs[0].counters.alignments_global);
            for r in &got {
                assert!(!r.5, "final snapshot rank {} still active", r.0);
                assert!(!r.6, "finished rank {} flagged straggler", r.0);
            }
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "final snapshot structure diverged at p={p} seed={seed}"
                ),
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
