//! Distributed Markov clustering over 2D-distributed sparse matrices —
//! the HipMCL (Azad et al. 2018) analogue the paper feeds its similarity
//! graphs to, built on the same Sparse-SUMMA SpGEMM as PASTIS itself.
//!
//! Expansion is a distributed matrix square; inflation and threshold
//! pruning are local; column normalization and the chaos convergence test
//! reduce along grid-column subcommunicators (every rank of a grid column
//! holds a block of the same global columns). Unlike the shared-memory
//! [`crate::markov_cluster`], pruning here is threshold-only: a per-column
//! top-k selection would need an extra distributed selection pass, which
//! HipMCL implements but this reproduction leaves out (the threshold
//! controls fill adequately at reproduction scale).

use std::rc::Rc;

use pcomm::Grid;
use sparse::{ArithmeticSemiring, DistMat, SpGemmStrategy};

use crate::cc::connected_components;
use crate::markov::MclParams;

/// Distributed MCL. Collective over `grid`.
///
/// `edges_local` is this rank's share of the weighted undirected edges
/// (global vertex ids, each unordered edge supplied by exactly one rank —
/// e.g. straight from PASTIS-style per-rank PSG output). Returns the
/// dense cluster labels of all `n` vertices, identical on every rank and
/// identical for every grid size.
///
/// # Panics
///
/// When `params.max_per_column` is nonzero: the top-k selection it asks
/// for is not implemented here (see the module docs).
pub fn markov_cluster_dist(
    grid: Rc<Grid>,
    n: u64,
    edges_local: Vec<(u64, u64, f64)>,
    params: &MclParams,
) -> Vec<usize> {
    assert_eq!(
        params.max_per_column, 0,
        "MclParams::max_per_column must be 0 for markov_cluster_dist, which prunes by threshold only"
    );
    if n == 0 {
        return Vec::new();
    }
    // Symmetrize and add self-loops (rank 0 contributes the diagonal; the
    // construction shuffle routes everything to its owner block).
    let mut triples: Vec<(u64, u64, f64)> = Vec::with_capacity(edges_local.len() * 2 + 1);
    for (i, j, w) in edges_local {
        assert!(w >= 0.0, "negative edge weight");
        if i == j {
            continue;
        }
        triples.push((i, j, w));
        triples.push((j, i, w));
    }
    if grid.world().rank() == 0 {
        triples.extend((0..n).map(|v| (v, v, 1.0)));
    }
    let mut m = DistMat::from_triples(Rc::clone(&grid), n, n, triples, |a, b| *a += b);
    normalize_columns(&grid, &mut m);

    for iter in 0..params.max_iter {
        let _span = obs::span!("mcl.iter", iter = iter);
        // Expansion.
        let mut next = {
            let _s = obs::span!("mcl.expand");
            m.spgemm(&m, &ArithmeticSemiring, SpGemmStrategy::Hybrid)
        };
        // Inflation (local).
        {
            let _s = obs::span!("mcl.inflate");
            next = next.map(|_, _, v| v.powf(params.inflation));
        }
        // Threshold pruning (local).
        {
            let _s = obs::span!("mcl.prune");
            next.retain(|_, _, &v| v >= params.prune_threshold);
        }
        {
            let _s = obs::span!("mcl.normalize");
            normalize_columns(&grid, &mut next);
        }
        let chaos = {
            let _s = obs::span!("mcl.chaos");
            chaos(&grid, &next)
        };
        m = next;
        if chaos < params.chaos_eps {
            break;
        }
    }

    // Clusters = connected components of the limit support; small enough
    // to resolve centrally, then identical everywhere by construction.
    let mine: Vec<(u64, u64)> = m
        .iter_local()
        .filter(|&(r, c, &v)| v > 0.0 && r != c)
        .map(|(r, c, _)| (r, c))
        .collect();
    let gathered = grid.world().gather(0, mine);
    let labels = gathered.map(|parts| {
        let edges = parts
            .into_iter()
            .flatten()
            .map(|(a, b)| (a as usize, b as usize));
        connected_components(n as usize, edges)
    });
    grid.world().bcast(0, labels)
}

/// Make every global column sum to one. Column sums are reduced along the
/// grid-column subcommunicator (whose ranks all hold blocks of the same
/// global column range).
fn normalize_columns(grid: &Grid, m: &mut DistMat<f64>) {
    let (c0, c1) = m.col_range();
    let mut sums = vec![0.0f64; (c1 - c0) as usize];
    for (_, c, &v) in m.iter_local() {
        sums[(c - c0) as usize] += v;
    }
    let sums = grid.col_comm().allreduce(sums, |a, b| {
        a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
    });
    let placeholder = DistMat::empty(Rc::clone(m.grid()), 0, 0);
    let src = std::mem::replace(m, placeholder);
    *m = src.map(|_, c, v| {
        let s = sums[(c - c0) as usize];
        if s > 0.0 {
            v / s
        } else {
            v
        }
    });
}

/// Global chaos: max over columns of (column max − column sum of squares),
/// zero exactly when every column is an indicator vector.
fn chaos(grid: &Grid, m: &DistMat<f64>) -> f64 {
    let (c0, c1) = m.col_range();
    let width = (c1 - c0) as usize;
    let mut maxv = vec![0.0f64; width];
    let mut sumsq = vec![0.0f64; width];
    for (_, c, &v) in m.iter_local() {
        let i = (c - c0) as usize;
        maxv[i] = maxv[i].max(v);
        sumsq[i] += v * v;
    }
    let maxv = grid.col_comm().allreduce(maxv, |a, b| {
        a.iter().zip(b.iter()).map(|(x, y)| x.max(*y)).collect()
    });
    let sumsq = grid.col_comm().allreduce(sumsq, |a, b| {
        a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
    });
    let local: f64 = maxv
        .iter()
        .zip(&sumsq)
        .map(|(mx, ss)| mx - ss)
        .fold(0.0, f64::max);
    grid.world().allreduce(local, f64::max)
}
