//! Element-wise union, exotic semirings through SUMMA, and small-matrix
//! edge cases.

use std::rc::Rc;

use pcomm::{Grid, World};
use sparse::{DistMat, MaxPlusSemiring, OrAndSemiring, SpGemmStrategy};

#[test]
fn elementwise_add_unions_and_folds() {
    let got = World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let mine_a = if comm.rank() == 0 {
            vec![(0u64, 0u64, 1.0), (1, 1, 2.0)]
        } else {
            vec![]
        };
        let mine_b = if comm.rank() == 0 {
            vec![(1u64, 1u64, 10.0), (2, 2, 3.0)]
        } else {
            vec![]
        };
        let a = DistMat::from_triples(Rc::clone(&grid), 4, 4, mine_a, |x, y| *x += y);
        let b = DistMat::from_triples(Rc::clone(&grid), 4, 4, mine_b, |x, y| *x += y);
        let c = a.elementwise_add(&b, |x, y| *x += y);
        c.gather_triples(0)
    })
    .remove(0)
    .unwrap();
    let mut g = got;
    g.sort_by(|x, y| x.partial_cmp(y).unwrap());
    assert_eq!(g, vec![(0, 0, 1.0), (1, 1, 12.0), (2, 2, 3.0)]);
}

#[test]
fn boolean_semiring_reachability() {
    // Adjacency of a path 0→1→2; A·A over (∨,∧) gives the 2-hop relation.
    let edges = vec![(0u64, 1u64, true), (1, 2, true)];
    let got = World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let mine = if comm.rank() == 0 {
            edges.clone()
        } else {
            vec![]
        };
        let a = DistMat::from_triples(Rc::clone(&grid), 3, 3, mine, |x, y| *x |= y);
        let two_hop = a.spgemm(&a, &OrAndSemiring, SpGemmStrategy::Hybrid);
        two_hop.gather_triples(0)
    })
    .remove(0)
    .unwrap();
    assert_eq!(got, vec![(0, 2, true)]);
}

#[test]
fn maxplus_semiring_longest_two_hop() {
    // Weighted path: 0→1 (5), 1→2 (7), 0→1 alt not possible in one matrix;
    // (max,+) square gives the best 2-hop weight 12.
    let edges = vec![(0u64, 1u64, 5i64), (1, 2, 7)];
    let got = World::run(1, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let a = DistMat::from_triples(Rc::clone(&grid), 3, 3, edges.clone(), |x, y| {
            *x = (*x).max(y)
        });
        let sq = a.spgemm(&a, &MaxPlusSemiring, SpGemmStrategy::Heap);
        sq.gather_triples(0)
    })
    .remove(0)
    .unwrap();
    assert_eq!(got, vec![(0, 2, 12)]);
}

#[test]
fn one_by_one_matrices() {
    let got = World::run(1, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let a = DistMat::from_triples(Rc::clone(&grid), 1, 1, vec![(0u64, 0u64, 3.0)], |x, y| {
            *x += y
        });
        let sq = a.spgemm(&a, &sparse::ArithmeticSemiring, SpGemmStrategy::Hash);
        (sq.nnz(), sq.gather_triples(0))
    })
    .remove(0);
    assert_eq!(got.0, 1);
    assert_eq!(got.1.unwrap(), vec![(0, 0, 9.0)]);
}

#[test]
fn empty_distributed_matrix_operations() {
    World::run(4, |comm| {
        let grid = Rc::new(Grid::new(&comm));
        let a = DistMat::<f64>::empty(Rc::clone(&grid), 10, 10);
        assert_eq!(a.nnz(), 0);
        let t = a.transpose();
        assert_eq!(t.nnz(), 0);
        let sq = a.spgemm(&a, &sparse::ArithmeticSemiring, SpGemmStrategy::Hybrid);
        assert_eq!(sq.nnz(), 0);
        let sym = a.elementwise_add(&t, |x, y| *x += y);
        assert_eq!(sym.nnz(), 0);
    });
}
