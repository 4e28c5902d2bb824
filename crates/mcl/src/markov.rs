//! Markov Clustering (van Dongen 2000) — the algorithm behind HipMCL,
//! which the paper uses to turn similarity graphs into protein families.
//!
//! Alternates *expansion* (squaring the column-stochastic matrix — flow
//! spreads along paths) and *inflation* (entry-wise power + column
//! renormalization — strong flow is rewarded), pruning tiny entries for
//! sparsity, until the matrix converges; clusters are the connected
//! components of the limit matrix.
//!
//! The iterates are [`Dcsc`] blocks expanded by the same local SpGEMM the
//! pipeline runs. It folds each entry's products in ascending inner index
//! starting from the first, so the limit matrix is reproducible bit for bit.

use sparse::{local_spgemm, ArithmeticSemiring, Dcsc, SpGemmStrategy};

use crate::cc::connected_components;

/// MCL hyper-parameters. Defaults match common MCL/HipMCL usage.
#[derive(Debug, Clone, Copy)]
pub struct MclParams {
    /// Inflation exponent (r > 1; higher → finer clusters). MCL's default 2.
    pub inflation: f64,
    /// Entries below this are pruned after each iteration (HipMCL's
    /// "cutoff"; keeps the iterates sparse).
    pub prune_threshold: f64,
    /// Keep at most this many entries per column after pruning (0 = all).
    /// Shared-memory MCL only: [`crate::markov_cluster_dist`] requires 0.
    pub max_per_column: usize,
    /// Iteration cap.
    pub max_iter: usize,
    /// Convergence threshold on the chaos measure.
    pub chaos_eps: f64,
}

impl Default for MclParams {
    fn default() -> Self {
        MclParams {
            inflation: 2.0,
            prune_threshold: 1e-4,
            max_per_column: 64,
            max_iter: 100,
            chaos_eps: 1e-6,
        }
    }
}

/// Cluster `n` vertices from weighted undirected edges `(i, j, w)` with
/// `w > 0`. Returns dense cluster labels. Self-loops are added (standard
/// MCL practice) so singletons and attractors behave.
pub fn markov_cluster(n: usize, edges: &[(usize, usize, f64)], params: &MclParams) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    // Build the symmetric adjacency with unit self-loops.
    let mut triples: Vec<(u32, u64, f64)> = Vec::with_capacity(edges.len() * 2 + n);
    for &(i, j, w) in edges {
        assert!(w >= 0.0, "negative edge weight");
        if i == j {
            continue;
        }
        assert!(
            i < n && j < n,
            "edge ({i},{j}) out of bounds for {n} vertices"
        );
        triples.push((i as u32, j as u64, w));
        triples.push((j as u32, i as u64, w));
    }
    triples.extend((0..n).map(|v| (v as u32, v as u64, 1.0)));
    let mut m = normalize_columns(Dcsc::from_triples(n, n as u64, triples, |a, b| *a += b));

    for iter in 0..params.max_iter {
        let _span = obs::span!("mcl.iter", iter = iter);
        // Expansion.
        let mut next = {
            let _s = obs::span!("mcl.expand");
            let square = local_spgemm(&m, &m, &ArithmeticSemiring, SpGemmStrategy::Hybrid);
            Dcsc::from_triples(n, n as u64, square, |_, _| {
                unreachable!("local_spgemm emits each entry once")
            })
        };
        // Inflation.
        {
            let _s = obs::span!("mcl.inflate");
            next = next.map(|_, _, v| v.powf(params.inflation));
        }
        // Prune tiny entries (keep top `max_per_column` when configured).
        {
            let _s = obs::span!("mcl.prune");
            next.retain(|_, _, &v| v >= params.prune_threshold);
            if params.max_per_column > 0 {
                prune_topk(&mut next, params.max_per_column);
            }
        }
        next = {
            let _s = obs::span!("mcl.normalize");
            normalize_columns(next)
        };
        let chaos = {
            let _s = obs::span!("mcl.chaos");
            chaos(&next)
        };
        m = next;
        if chaos < params.chaos_eps {
            break;
        }
    }

    // Clusters = connected components over the limit matrix support.
    let edges_out = m
        .iter()
        .filter(|&(r, c, &v)| v > 0.0 && r as u64 != c)
        .map(|(r, c, _)| (r as usize, c as usize));
    connected_components(n, edges_out)
}

/// `stat` of every non-empty column's values, indexed by column id (0 for
/// the empty columns).
fn per_column(m: &Dcsc<f64>, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let mut out = vec![0.0; m.ncols() as usize];
    for (i, &c) in m.cols().iter().enumerate() {
        out[c as usize] = stat(m.col_by_index(i).1);
    }
    out
}

fn normalize_columns(m: Dcsc<f64>) -> Dcsc<f64> {
    let sums = per_column(&m, |vals| vals.iter().sum());
    m.map(|_, c, v| {
        let sum = sums[c as usize];
        if sum > 0.0 {
            v / sum
        } else {
            v
        }
    })
}

/// Keep the `k` largest entries of each column.
fn prune_topk(m: &mut Dcsc<f64>, k: usize) {
    let thresholds = per_column(m, |vals| {
        if vals.len() <= k {
            return 0.0;
        }
        let mut sorted: Vec<f64> = vals.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        sorted[k - 1]
    });
    m.retain(|_, c, &v| v >= thresholds[c as usize]);
}

/// Chaos: max over columns of (max entry − sum of squared entries). Zero
/// exactly when every column is an indicator vector (doubly idempotent).
fn chaos(m: &Dcsc<f64>) -> f64 {
    (0..m.nzc())
        .map(|i| {
            let vals = m.col_by_index(i).1;
            let mx = vals.iter().cloned().fold(f64::MIN, f64::max);
            let ss: f64 = vals.iter().map(|v| v * v).sum();
            mx - ss
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_same_cluster(labels: &[usize], group: &[usize]) {
        for w in group.windows(2) {
            assert_eq!(labels[w[0]], labels[w[1]], "{w:?} split in {labels:?}");
        }
    }

    #[test]
    fn empty_graph() {
        assert!(markov_cluster(0, &[], &MclParams::default()).is_empty());
        let l = markov_cluster(3, &[], &MclParams::default());
        assert_eq!(l, vec![0, 1, 2]);
    }

    #[test]
    fn two_cliques_with_weak_bridge() {
        // 0-1-2 clique, 3-4-5 clique, weak 2-3 bridge: MCL cuts the bridge.
        let strong = 1.0;
        let weak = 0.05;
        let edges = vec![
            (0, 1, strong),
            (1, 2, strong),
            (0, 2, strong),
            (3, 4, strong),
            (4, 5, strong),
            (3, 5, strong),
            (2, 3, weak),
        ];
        let l = markov_cluster(6, &edges, &MclParams::default());
        assert_same_cluster(&l, &[0, 1, 2]);
        assert_same_cluster(&l, &[3, 4, 5]);
        assert_ne!(l[0], l[3], "bridge not cut: {l:?}");
    }

    #[test]
    fn single_clique_stays_together() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((i, j, 1.0));
            }
        }
        let l = markov_cluster(5, &edges, &MclParams::default());
        assert_same_cluster(&l, &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn disconnected_components_never_merge() {
        let edges = vec![(0, 1, 1.0), (2, 3, 1.0)];
        let l = markov_cluster(4, &edges, &MclParams::default());
        assert_eq!(l[0], l[1]);
        assert_eq!(l[2], l[3]);
        assert_ne!(l[0], l[2]);
    }

    #[test]
    fn higher_inflation_gives_finer_or_equal_clustering() {
        // A 4-cycle: low inflation may keep it whole, high splits it.
        let edges = vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (0, 2, 0.3),
            (1, 3, 0.3),
        ];
        let coarse = markov_cluster(
            4,
            &edges,
            &MclParams {
                inflation: 1.3,
                ..Default::default()
            },
        );
        let fine = markov_cluster(
            4,
            &edges,
            &MclParams {
                inflation: 6.0,
                ..Default::default()
            },
        );
        let count = |l: &[usize]| l.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(
            count(&fine) >= count(&coarse),
            "fine={fine:?} coarse={coarse:?}"
        );
    }

    #[test]
    fn deterministic() {
        let edges = vec![(0, 1, 0.9), (1, 2, 0.8), (3, 4, 0.7), (2, 3, 0.1)];
        let a = markov_cluster(5, &edges, &MclParams::default());
        let b = markov_cluster(5, &edges, &MclParams::default());
        assert_eq!(a, b);
    }
}
