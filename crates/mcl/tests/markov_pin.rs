//! Pins the shared-memory MCL's labels on a seeded graph large enough for
//! every pruning rule to act: three 100-member families, so expanded
//! columns hold more than the default `max_per_column` of 64 entries and
//! the top-k selection runs, plus cross-family noise for the threshold and
//! inflation to cut.

use mcl::{markov_cluster, MclParams};
use rand::prelude::*;

/// FNV-1a over the labels.
fn fnv(labels: &[usize]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &l| {
        (h ^ l as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn markov_cluster_labels_are_pinned() {
    let (families, size) = (3usize, 100usize);
    let n = families * size;
    let mut rng = StdRng::seed_from_u64(27);
    let mut edges = Vec::new();
    for f in 0..families {
        let base = f * size;
        for i in 0..size {
            for j in i + 1..size {
                if rng.random::<f64>() < 0.12 {
                    edges.push((base + i, base + j, rng.random_range(0.2..1.0)));
                }
            }
        }
    }
    for _ in 0..600 {
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        edges.push((i, j, rng.random_range(0.05..0.6)));
    }
    let params = MclParams {
        inflation: 1.6,
        ..Default::default()
    };
    assert!(params.max_per_column < size);
    let labels = markov_cluster(n, &edges, &params);
    let clusters = labels.iter().max().map_or(0, |&l| l + 1);
    assert_eq!(
        (clusters, fnv(&labels)),
        (4, 18399083124999411643),
        "{labels:?}"
    );
    // The top-k selection decides this partition: without it the same
    // graph clusters differently.
    let unpruned = markov_cluster(
        n,
        &edges,
        &MclParams {
            max_per_column: 0,
            ..params
        },
    );
    assert_ne!(unpruned, labels, "top-k pruning never acted");
}
