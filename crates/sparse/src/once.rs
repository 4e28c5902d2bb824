//! The hashed "seen once / seen twice" table that finds, before a matrix
//! is formed, the columns holding a single entry (DESIGN.md §11).
//!
//! Each column id hashes to one cell of two bitmaps, `seen` and `twice`.
//! Marking an entry sets its cell's `seen` bit, or its `twice` bit when
//! `seen` is already set. A cell that reads *once* (`seen` without
//! `twice`) was marked by exactly one entry, so the column of that entry
//! holds no other. Columns that share a cell only ever push it towards
//! `twice`: a collision can keep a one-entry column, never drop a column
//! with two entries.

use pcomm::{Grid, Payload};

/// Cells per marked entry. At 8 a one-entry column shares its cell with
/// another column's entry about one time in ten; a denser table keeps
/// fewer such columns but costs more than they do while `A` forms.
const CELLS_PER_ENTRY: usize = 8;

/// A two-bit cell per hashed column id (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OnceTable {
    seen: Vec<u64>,
    twice: Vec<u64>,
}

impl OnceTable {
    /// A table for about `entries` marks: [`CELLS_PER_ENTRY`] cells each,
    /// rounded up to whole words only, so the cells per entry do not
    /// swing with the input size. Any size is correct; a smaller one
    /// keeps more one-entry columns. Probed as
    /// `mem.watermark.sparse.once`.
    fn new(entries: usize) -> Self {
        let words = (CELLS_PER_ENTRY * entries).div_ceil(64).max(1);
        obs::alloc::watermark("mem.watermark.sparse.once", 16 * words as u64);
        OnceTable {
            seen: vec![0; words],
            twice: vec![0; words],
        }
    }

    /// The cell of column `c`: the high bits of a multiplicative hash,
    /// scaled onto the cell count (no power-of-two rounding needed).
    #[inline]
    fn cell(&self, c: u64) -> (usize, u64) {
        let h = c.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cells = (self.seen.len() * 64) as u128;
        let i = ((h as u128 * cells) >> 64) as usize;
        (i / 64, 1 << (i % 64))
    }

    /// Mark one entry of column `c`.
    #[inline]
    fn mark(&mut self, c: u64) {
        let (w, bit) = self.cell(c);
        self.twice[w] |= self.seen[w] & bit;
        self.seen[w] |= bit;
    }

    /// Whether column `c` may hold more than one entry: false only when
    /// its cell was marked exactly once.
    #[inline]
    pub(crate) fn keeps(&self, c: u64) -> bool {
        let (w, bit) = self.cell(c);
        self.seen[w] & !self.twice[w] & bit == 0
    }

    /// The table of every rank's marks down `grid`'s column, whose blocks
    /// hold the other rows of the same columns: each rank marks `cols`,
    /// `n` column ids, in a table sized on the grid column's marks, and
    /// the tables are [`merged`](Self::merged). Collective over the grid
    /// column, at p = 1 too, so the trace has one shape on every grid.
    pub(crate) fn of_grid_col(grid: &Grid, n: usize, cols: impl Iterator<Item = u64>) -> Self {
        let comm = grid.col_comm();
        let mut table = OnceTable::new(comm.allreduce(n, |a, b| a + b));
        cols.for_each(|c| table.mark(c));
        comm.allreduce(table, Self::merged)
    }

    /// The table of two equally sized tables' marks together: seen on
    /// either side, and twice on either side or seen on both.
    fn merged(mut a: Self, b: Self) -> Self {
        assert_eq!(a.seen.len(), b.seen.len(), "merged tables differ in size");
        let words = a.seen.iter_mut().zip(&mut a.twice);
        for ((s1, t1), (s2, t2)) in words.zip(b.seen.into_iter().zip(b.twice)) {
            *t1 |= t2 | (*s1 & s2);
            *s1 |= s2;
        }
        a
    }
}

impl Payload for OnceTable {
    fn payload_bytes(&self) -> usize {
        self.seen.payload_bytes() + self.twice.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` column ids drawn from `0..span` by a xorshift stream.
    fn columns(n: usize, span: u64, mut state: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % span
            })
            .collect()
    }

    fn table_of(cols: &[u64], entries: usize) -> OnceTable {
        let mut t = OnceTable::new(entries);
        cols.iter().for_each(|&c| t.mark(c));
        t
    }

    /// On a one-word table (64 cells for 2 000 marks) most one-entry
    /// columns collide, and each collision keeps its column: the table
    /// drops only columns that hold one entry, and keeps every other one.
    #[test]
    fn collisions_only_ever_keep_a_column() {
        for (span, entries) in [(3_000u64, 1), (3_000, 2_000), (40, 1)] {
            let cols = columns(2_000, span, 0x2545_f491_4f6c_dd1d ^ span);
            let table = table_of(&cols, entries);
            let mut count = std::collections::BTreeMap::new();
            cols.iter().for_each(|&c| *count.entry(c).or_insert(0) += 1);
            let (mut dropped, mut kept_once) = (0, 0);
            for (&c, &n) in &count {
                match (table.keeps(c), n) {
                    (false, 1) => dropped += 1,
                    (false, _) => panic!("column {c} of {n} entries dropped"),
                    (true, 1) => kept_once += 1,
                    (true, _) => {}
                }
            }
            let once = count.values().filter(|&&n| n == 1).count();
            assert_eq!(dropped + kept_once, once);
            if entries == 1 && span > 40 {
                assert!(kept_once > 0, "a 64-cell table kept no one-entry column");
            }
            if entries == 2_000 {
                assert!(
                    dropped > once / 2,
                    "a full-size table dropped {dropped} of {once}"
                );
            }
        }
    }

    /// Tables marked apart and merged read as one table marked with every
    /// entry, split any way.
    #[test]
    fn merged_tables_read_as_one() {
        let cols = columns(1_500, 2_000, 0x9e37_79b9_7f4a_7c15);
        let whole = table_of(&cols, cols.len());
        for parts in [1, 2, 3, 5] {
            let merged = cols
                .chunks(cols.len().div_ceil(parts))
                .map(|part| table_of(part, cols.len()))
                .reduce(OnceTable::merged)
                .expect("at least one part");
            assert_eq!(merged, whole, "{parts} parts");
        }
    }

    #[test]
    fn cells_per_entry_do_not_swing_with_the_size() {
        for entries in [1_000usize, 1 << 20, (1 << 20) + 1, 3_000_000] {
            let cells = OnceTable::new(entries).seen.len() * 64;
            assert!(cells >= CELLS_PER_ENTRY * entries && cells < CELLS_PER_ENTRY * entries + 64);
        }
    }
}
