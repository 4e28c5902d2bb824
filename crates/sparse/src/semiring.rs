//! User-defined semirings for SpGEMM, the mechanism CombBLAS exposes and
//! PASTIS overloads to carry seed positions through its matrix products
//! (paper §II-A, Fig. 4).

/// A semiring for `C = A ⊗ B`: `multiply` maps a pair of operands to an
/// output contribution (or filters it out), `add` folds contributions that
/// land on the same output coordinate.
///
/// `add` must be associative; the fold order is deterministic (ascending
/// inner index), so even non-commutative folds reproduce across runs and
/// process counts.
pub trait Semiring {
    /// Element type of the left matrix.
    type A: Clone;
    /// Element type of the right matrix.
    type B: Clone;
    /// Element type of the output matrix.
    type C: Clone;

    /// A structural mask on the output: a masked product computes only the
    /// entries the mask keeps, and never touches the others. Off (`None`)
    /// unless a semiring declares one. A masked semiring's `multiply` must
    /// keep every pair (return `Some`).
    const MASK: Option<OutputMask> = None;

    /// Combine one `A(i,t)` with one `B(t,j)`. Returning `None` drops the
    /// contribution entirely (useful for filtered products).
    fn multiply(&self, a: &Self::A, b: &Self::B) -> Option<Self::C>;

    /// Fold `contrib` into `acc` (both address output coordinate `(i,j)`).
    fn add(&self, acc: &mut Self::C, contrib: Self::C);
}

/// A structural output mask ([`Semiring::MASK`]), stated in the local
/// indices of the output block `(myrow, mycol)` of a 2D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMask {
    /// The pair-ownership rule of paper §V-D with the global diagonal
    /// excluded, for a symmetric product `A·Aᵀ`: of the entries `(i, j)`
    /// and `(j, i)`, `i ≠ j`, exactly one is kept, by exactly one rank, on
    /// every square grid, and no diagonal entry is kept.
    OwnedOffDiagonal,
}

impl OutputMask {
    /// The end of the kept rows of output column `lj` in block
    /// `(myrow, mycol)`: the block keeps its local entry `(li, lj)` iff
    /// `li < row_end`. Non-decreasing in `lj`.
    #[inline]
    pub fn row_end(self, lj: u64, myrow: usize, mycol: usize) -> u64 {
        match self {
            // `li < lj`, or `li == lj` in a block above the grid diagonal.
            OutputMask::OwnedOffDiagonal => lj + u64::from(myrow < mycol),
        }
    }

    /// Whether output block `(myrow, mycol)` keeps its local entry
    /// `(li, lj)`.
    #[inline]
    pub fn keeps(self, li: u64, lj: u64, myrow: usize, mycol: usize) -> bool {
        li < self.row_end(lj, myrow, mycol)
    }
}

/// The ordinary `(+, ×)` semiring over `f64`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArithmeticSemiring;

impl Semiring for ArithmeticSemiring {
    type A = f64;
    type B = f64;
    type C = f64;

    #[inline]
    fn multiply(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a * b)
    }

    #[inline]
    fn add(&self, acc: &mut f64, contrib: f64) {
        *acc += contrib;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let s = ArithmeticSemiring;
        let mut acc = s.multiply(&2.0, &3.0).unwrap();
        s.add(&mut acc, s.multiply(&4.0, &0.5).unwrap());
        assert_eq!(acc, 8.0);
    }
}
