//! Amino acid substitution matrices in the 24-letter NCBI ordering
//! `ARNDCQEGHILKMFPSTWYVBZX*` (matching `seqstore::ALPHABET`).

use seqstore::SIGMA;

/// A symmetric substitution matrix over the 24-letter alphabet.
#[derive(Debug, Clone)]
pub struct ScoringMatrix {
    /// Human-readable name ("BLOSUM62").
    pub name: &'static str,
    /// `scores[a][b]` is the score of aligning bases `a` and `b`.
    pub scores: [[i8; SIGMA]; SIGMA],
}

impl ScoringMatrix {
    /// Score of aligning base indices `a` and `b`.
    #[inline]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize][b as usize] as i32
    }

    /// The exact-match score of base `a` (diagonal entry).
    #[inline]
    pub fn diag(&self, a: u8) -> i32 {
        self.scores[a as usize][a as usize] as i32
    }

    /// Substitution "expense" of replacing `from` by `to`:
    /// `diag(from) − score(from, to)` — the score loss an exact match incurs
    /// (paper §IV-B, matrix `E = SORT(DIAG(C) − C)`).
    #[inline]
    pub fn expense(&self, from: u8, to: u8) -> i32 {
        self.diag(from) - self.score(from, to)
    }
}

/// The BLOSUM62 matrix (Henikoff & Henikoff 1992), NCBI rendering, used for
/// every alignment in the paper's evaluation.
pub static BLOSUM62: ScoringMatrix = ScoringMatrix {
    name: "BLOSUM62",
    #[rustfmt::skip]
    scores: [
        //A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
        [ 4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0, -2, -1,  0, -4], // A
        [-1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3, -1,  0, -1, -4], // R
        [-2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3,  3,  0, -1, -4], // N
        [-2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3,  4,  1, -1, -4], // D
        [ 0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4], // C
        [-1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2,  0,  3, -1, -4], // Q
        [-1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // E
        [ 0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3, -1, -2, -1, -4], // G
        [-2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3,  0,  0, -1, -4], // H
        [-1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3, -3, -3, -1, -4], // I
        [-1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1, -4, -3, -1, -4], // L
        [-1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2,  0,  1, -1, -4], // K
        [-1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1, -3, -1, -1, -4], // M
        [-2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1, -3, -3, -1, -4], // F
        [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2, -2, -1, -2, -4], // P
        [ 1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2,  0,  0,  0, -4], // S
        [ 0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0, -1, -1,  0, -4], // T
        [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3, -4, -3, -2, -4], // W
        [-2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1, -3, -2, -1, -4], // Y
        [ 0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4, -3, -2, -1, -4], // V
        [-2, -1,  3,  4, -3,  0,  1, -1,  0, -3, -4,  0, -3, -3, -2,  0, -1, -4, -3, -3,  4,  1, -1, -4], // B
        [-1,  0,  0,  1, -3,  3,  4, -2,  0, -3, -3,  1, -1, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // Z
        [ 0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2,  0,  0, -2, -1, -1, -1, -1, -1, -4], // X
        [-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4,  1], // *
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use seqstore::{aa_index, encode_seq};

    #[test]
    fn is_symmetric() {
        for a in 0..SIGMA {
            for b in 0..SIGMA {
                assert_eq!(BLOSUM62.scores[a][b], BLOSUM62.scores[b][a], "({a},{b})");
            }
        }
    }

    #[test]
    fn paper_fig6_examples() {
        let (a, s, c) = (
            aa_index(b'A').unwrap(),
            aa_index(b'S').unwrap(),
            aa_index(b'C').unwrap(),
        );
        // §IV-B: AAC exact match scores 4+4+9 = 17.
        let self_score: i32 = encode_seq(b"AAC").iter().map(|&b| BLOSUM62.diag(b)).sum();
        assert_eq!(self_score, 17);
        // A→S is the cheapest substitution of A: SAC scores 1+4+9 = 14.
        assert_eq!(BLOSUM62.score(a, s), 1);
        // C→M lowers the 9 to −1.
        let m = aa_index(b'M').unwrap();
        assert_eq!(BLOSUM62.score(c, m), -1);
    }

    #[test]
    fn expense_is_diag_minus_score() {
        let (a, s) = (aa_index(b'A').unwrap(), aa_index(b'S').unwrap());
        assert_eq!(BLOSUM62.expense(a, s), 4 - 1);
        assert_eq!(BLOSUM62.expense(a, a), 0);
        // Expense is asymmetric in general (diag differs per base).
        let w = aa_index(b'W').unwrap();
        assert_eq!(BLOSUM62.expense(w, a), 11 - (-3));
        assert_eq!(BLOSUM62.expense(a, w), 4 - (-3));
    }

    #[test]
    fn diagonal_dominates_column() {
        // Every standard residue's best partner is itself. The ambiguity
        // codes violate this (B–D ties B–B; X–A beats X–X), which is why
        // substitute-k-mer expenses are only meaningful for real residues.
        for a in 0..20u8 {
            for b in 0..SIGMA as u8 {
                if a != b {
                    assert!(BLOSUM62.score(a, b) < BLOSUM62.diag(a), "a={a} b={b}");
                }
            }
        }
    }
}
