//! The custom semirings PASTIS plugs into SpGEMM (paper Fig. 4, §IV-C).

use sparse::{OutputMask, Semiring};

use crate::seedpair::{SeedPair, SubPos};

/// Semiring for exact k-mer matching, `B = A·Aᵀ` (paper Fig. 4): multiply
/// pairs the k-mer's positions on the two sequences; add collects up to two
/// seeds and counts the shared k-mers. `B` is symmetric and each rank
/// aligns only the pairs it owns (paper §V-D), so the product declares that
/// ownership, self-overlaps excluded, as its output mask: it forms each
/// off-diagonal pair once, on its owner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSemiring;

impl Semiring for ExactSemiring {
    type A = u32; // position of k-mer in the row sequence
    type B = u32; // position of k-mer in the column sequence (via Aᵀ)
    type C = SeedPair;

    const MASK: Option<OutputMask> = Some(OutputMask::OwnedOffDiagonal);

    #[inline]
    fn multiply(&self, a: &u32, b: &u32) -> Option<SeedPair> {
        Some(SeedPair::single(*a, *b))
    }

    #[inline]
    fn add(&self, acc: &mut SeedPair, contrib: SeedPair) {
        acc.merge(contrib);
    }
}

/// Semiring for `A·S` (paper §IV-C): multiply attaches the substitution
/// distance to the k-mer position; add keeps the *closest* original k-mer
/// when several of a sequence's k-mers map to the same substitute.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsSemiring;

impl Semiring for AsSemiring {
    type A = u32; // k-mer position in the sequence
    type B = u32; // substitution distance from S
    type C = SubPos;

    #[inline]
    fn multiply(&self, a: &u32, b: &u32) -> Option<SubPos> {
        Some(SubPos { pos: *a, dist: *b })
    }

    #[inline]
    fn add(&self, acc: &mut SubPos, contrib: SubPos) {
        // Tie-break on position for determinism.
        if (contrib.dist, contrib.pos) < (acc.dist, acc.pos) {
            *acc = contrib;
        }
    }
}

/// Semiring for `(A·S)·Aᵀ`: like [`ExactSemiring`] but the left operand
/// carries the substitute-k-mer provenance.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubSemiring;

impl Semiring for SubSemiring {
    type A = SubPos;
    type B = u32;
    type C = SeedPair;

    #[inline]
    fn multiply(&self, a: &SubPos, b: &u32) -> Option<SeedPair> {
        Some(SeedPair::single(a.pos, *b))
    }

    #[inline]
    fn add(&self, acc: &mut SeedPair, contrib: SeedPair) {
        acc.merge(contrib);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_shared_kmers() {
        let s = ExactSemiring;
        let mut acc = s.multiply(&3, &8).unwrap();
        s.add(&mut acc, s.multiply(&10, &20).unwrap());
        s.add(&mut acc, s.multiply(&30, &40).unwrap());
        assert_eq!(acc.count, 3);
        assert_eq!(acc.seeds(), &[(3, 8), (10, 20)]);
    }

    #[test]
    fn as_keeps_closest_kmer() {
        let s = AsSemiring;
        let mut acc = s.multiply(&100, &5).unwrap();
        s.add(&mut acc, SubPos { pos: 50, dist: 2 });
        assert_eq!(acc, SubPos { pos: 50, dist: 2 });
        s.add(&mut acc, SubPos { pos: 10, dist: 9 });
        assert_eq!(acc, SubPos { pos: 50, dist: 2 });
        // Equal distance: smaller position wins (deterministic).
        s.add(&mut acc, SubPos { pos: 7, dist: 2 });
        assert_eq!(acc, SubPos { pos: 7, dist: 2 });
    }

    #[test]
    fn sub_semiring_uses_closest_position() {
        let s = SubSemiring;
        let got = s.multiply(&SubPos { pos: 42, dist: 3 }, &17).unwrap();
        assert_eq!(got.seeds(), &[(42, 17)]);
    }
}
