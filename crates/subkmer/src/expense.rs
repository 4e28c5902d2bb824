//! The sorted expense table `E = SORT(DIAG(C) − C)` of paper §IV-B: for
//! every base, the substitutions available to it ordered by increasing
//! score loss.

use align::ScoringMatrix;
use seqstore::SIGMA;

/// Per-base sorted substitution expenses.
///
/// `row(b)[s]` is the `s`-th cheapest substitution of base `b`, as
/// `(expense, replacement_base)` with `expense = diag(b) − score(b, repl)`
/// clamped at 0 (the ambiguity codes B/Z/X can otherwise yield negative
/// expenses, which would break the monotone best-first exploration).
#[derive(Debug, Clone)]
pub struct ExpenseTable {
    rows: Vec<Vec<(u16, u8)>>,
    /// Per base, its row's distinct expenses ascending, each with how
    /// many substitutions cost it.
    hists: Vec<Vec<(u16, u8)>>,
}

impl ExpenseTable {
    /// Precompute the table for a scoring matrix. Done once per matrix
    /// (paper: "this pre-computation only needs to be done once per scoring
    /// matrix … the cost is minuscule").
    pub fn new(matrix: &ScoringMatrix) -> Self {
        let rows = (0..SIGMA as u8)
            .map(|b| {
                let mut row: Vec<(u16, u8)> = (0..SIGMA as u8)
                    .filter(|&t| t != b)
                    .map(|t| (matrix.expense(b, t).max(0) as u16, t))
                    .collect();
                // Tie-break on the base index for determinism.
                row.sort_unstable();
                row
            })
            .collect::<Vec<_>>();
        let hists = (rows.iter())
            .map(|row| {
                let mut hist: Vec<(u16, u8)> = Vec::new();
                for &(e, _) in row {
                    match hist.last_mut() {
                        Some((last, n)) if *last == e => *n += 1,
                        _ => hist.push((e, 1)),
                    }
                }
                hist
            })
            .collect();
        ExpenseTable { rows, hists }
    }

    /// Sorted substitutions of base `b` (23 entries).
    #[inline]
    pub fn row(&self, b: u8) -> &[(u16, u8)] {
        &self.rows[b as usize]
    }

    /// [`row`](Self::row)`(b)`'s expenses as a histogram: ascending
    /// distinct `(expense, how many substitutions cost it)`.
    #[inline]
    pub(crate) fn hist(&self, b: u8) -> &[(u16, u8)] {
        &self.hists[b as usize]
    }

    /// The cheapest substitution expense of base `b`.
    #[inline]
    pub fn cheapest(&self, b: u8) -> u16 {
        self.rows[b as usize][0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::BLOSUM62;
    use seqstore::aa_index;

    #[test]
    fn rows_are_sorted_and_complete() {
        let e = ExpenseTable::new(&BLOSUM62);
        for b in 0..24u8 {
            let row = e.row(b);
            assert_eq!(row.len(), 23);
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {b} unsorted");
            assert!(
                !row.iter().any(|&(_, t)| t == b),
                "self-substitution in row {b}"
            );
        }
    }

    #[test]
    fn hists_count_the_rows() {
        let e = ExpenseTable::new(&BLOSUM62);
        for b in 0..24u8 {
            let hist = e.hist(b);
            assert!(
                hist.windows(2).all(|w| w[0].0 < w[1].0),
                "hist {b} unsorted"
            );
            let spelled: Vec<u16> = (hist.iter())
                .flat_map(|&(x, n)| std::iter::repeat_n(x, n as usize))
                .collect();
            let row: Vec<u16> = e.row(b).iter().map(|&(x, _)| x).collect();
            assert_eq!(spelled, row, "hist {b}");
        }
    }

    #[test]
    fn paper_example_a_to_s() {
        // §IV-B: the cheapest substitution of A is S, at expense 4 − 1 = 3.
        let e = ExpenseTable::new(&BLOSUM62);
        let a = aa_index(b'A').unwrap();
        let s = aa_index(b'S').unwrap();
        assert_eq!(e.row(a)[0], (3, s));
        assert_eq!(e.cheapest(a), 3);
    }

    #[test]
    fn c_substitutions_are_expensive() {
        // §IV-B argues C is expensive to substitute. The paper's prose picks
        // M (expense 10), overlooking C–A which scores 0: the true cheapest
        // C substitution costs 9 — still far above A's cheapest (3).
        let e = ExpenseTable::new(&BLOSUM62);
        let c = aa_index(b'C').unwrap();
        let a = aa_index(b'A').unwrap();
        assert_eq!(e.row(c)[0], (9, a));
        let m = aa_index(b'M').unwrap();
        assert!(e.row(c).contains(&(10, m)));
    }

    #[test]
    fn negative_expenses_are_clamped() {
        // X→A has raw expense −1 under BLOSUM62.
        let e = ExpenseTable::new(&BLOSUM62);
        let x = aa_index(b'X').unwrap();
        assert_eq!(e.cheapest(x), 0);
    }
}
