//! Element-wise union and small-matrix edge cases.

use std::rc::Rc;

use pcomm::{Grid, World};
use sparse::{DistMat, SpGemmStrategy};

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
