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

    /// Combine one `A(i,t)` with one `B(t,j)`. Returning `None` drops the
    /// contribution entirely (useful for filtered products).
    fn multiply(&self, a: &Self::A, b: &Self::B) -> Option<Self::C>;

    /// Fold `contrib` into `acc` (both address output coordinate `(i,j)`).
    fn add(&self, acc: &mut Self::C, contrib: Self::C);
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
