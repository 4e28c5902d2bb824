//! Distributed Markov clustering: agreement with the shared-memory
//! implementation's partitions, grid-size obliviousness, and edge cases.

use std::rc::Rc;

use mcl::{markov_cluster, markov_cluster_dist, MclParams};
use pcomm::{Grid, World};

/// Two labelings describe the same partition?
fn same_partition(a: &[usize], b: &[usize]) -> bool {
    assert_eq!(a.len(), b.len());
    let mut fwd = std::collections::HashMap::new();
    let mut bwd = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

fn params() -> MclParams {
    // Threshold-only pruning so shared and distributed agree exactly.
    MclParams {
        max_per_column: 0,
        ..Default::default()
    }
}

fn two_cliques() -> (usize, Vec<(u64, u64, f64)>) {
    let edges = vec![
        (0, 1, 1.0),
        (1, 2, 1.0),
        (0, 2, 1.0),
        (3, 4, 1.0),
        (4, 5, 1.0),
        (3, 5, 1.0),
        (2, 3, 0.05),
    ];
    (6, edges)
}

#[test]
fn matches_shared_memory_partition() {
    let (n, edges) = two_cliques();
    let shared_edges: Vec<(usize, usize, f64)> = edges
        .iter()
        .map(|&(a, b, w)| (a as usize, b as usize, w))
        .collect();
    let want = markov_cluster(n, &shared_edges, &params());
    for p in [1usize, 4, 9] {
        let got = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            // Scatter edges round-robin across ranks.
            let mine: Vec<(u64, u64, f64)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % p == comm.rank())
                .map(|(_, &e)| e)
                .collect();
            markov_cluster_dist(grid, n as u64, mine, &params())
        })
        .remove(0);
        assert!(same_partition(&got, &want), "p={p}: {got:?} vs {want:?}");
    }
}

#[test]
fn identical_labels_on_every_rank_and_grid() {
    let (n, edges) = two_cliques();
    let reference = World::run(1, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        markov_cluster_dist(grid, n as u64, edges.clone(), &params())
    })
    .remove(0);
    for p in [4usize, 9] {
        let runs = World::run(p, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            let mine: Vec<(u64, u64, f64)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % p == comm.rank())
                .map(|(_, &e)| e)
                .collect();
            markov_cluster_dist(grid, n as u64, mine, &params())
        });
        for labels in &runs {
            assert!(same_partition(labels, &reference), "p={p}");
            assert_eq!(labels, &runs[0], "ranks disagree at p={p}");
        }
    }
}

#[test]
fn cuts_the_weak_bridge() {
    let (n, edges) = two_cliques();
    let labels = World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let mine = if comm.rank() == 0 {
            edges.clone()
        } else {
            Vec::new()
        };
        markov_cluster_dist(grid, n as u64, mine, &params())
    })
    .remove(0);
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[1], labels[2]);
    assert_eq!(labels[3], labels[4]);
    assert_ne!(labels[0], labels[3], "weak bridge not cut: {labels:?}");
}

#[test]
fn empty_and_singleton_graphs() {
    let labels = World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        markov_cluster_dist(grid, 0, Vec::new(), &params())
    })
    .remove(0);
    assert!(labels.is_empty());

    let labels = World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        markov_cluster_dist(grid, 5, Vec::new(), &params())
    })
    .remove(0);
    assert_eq!(labels, vec![0, 1, 2, 3, 4]);
}

#[test]
fn larger_random_graph_consistent_across_grids() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(23);
    let n = 40u64;
    // A few dense clusters plus noise edges.
    let mut edges = Vec::new();
    for c in 0..4u64 {
        let base = c * 10;
        for i in 0..10u64 {
            for j in i + 1..10 {
                if rng.random::<f64>() < 0.6 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
        }
    }
    for _ in 0..6 {
        edges.push((rng.random_range(0..n), rng.random_range(0..n), 0.02));
    }
    let reference = World::run(1, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        markov_cluster_dist(grid, n, edges.clone(), &params())
    })
    .remove(0);
    let got = World::run(9, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let mine: Vec<(u64, u64, f64)> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 9 == comm.rank())
            .map(|(_, &e)| e)
            .collect();
        markov_cluster_dist(grid, n, mine, &params())
    })
    .remove(0);
    assert!(same_partition(&got, &reference));
}

/// Top-k pruning is shared-memory only; the distributed driver refuses a
/// nonzero `max_per_column` by name instead of ignoring it.
#[test]
fn nonzero_max_per_column_is_refused() {
    let (n, edges) = two_cliques();
    let err = std::panic::catch_unwind(|| {
        World::run(1, |comm| {
            let grid = Rc::new(Grid::new(&comm));
            markov_cluster_dist(grid, n as u64, edges.clone(), &MclParams::default())
        })
    })
    .expect_err("markov_cluster_dist must refuse max_per_column > 0");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("max_per_column"), "{msg}");
}
