//! The one sort behind every [`crate::Dcsc`] construction: a stable LSD
//! radix sort of `(row, col, value)` items into `(col, row)` order.
//!
//! A key is two words, the column (most significant) and the row, so it
//! may be wider than 64 bits — a `24^13`-column block with `u32` rows
//! sorts by its row digits and then its column digits. Each word is cut
//! into balanced digits of at most [`MAX_DIGIT_BITS`] bits. One pass over
//! the keys counts the column digits' histograms and notes whether the
//! rows, or the whole keys, already ascend; only rows that do not
//! ascend cost a second counting pass for the row digits. A digit on
//! which every key agrees costs no scatter pass; rows that already ascend
//! (a k-mer matrix read sequence by sequence, a transpose read in column
//! order) skip the row digits; keys already in `(col, row)` order skip
//! every pass. Histograms are sized by the digit width, never by a block
//! dimension, so sorting a 24^k-wide block stays O(nnz).
//!
//! The last pass writes the arrays the DCSC builder keeps — rows and
//! values — instead of another item buffer. When at most one column
//! digit varies, that digit's non-empty buckets are the columns;
//! otherwise the sorted column ids are written too and compressed.
//!
//! Items carry their column in the narrowest word that holds the block's
//! column space: `u32` up to `2^32` columns, so a `(row, col, u32)` item
//! is 12 B and the written ids 4 B each, and `u64` beyond.

/// Widest digit a pass buckets by: a row word of ≤ 65 536 sequences per
/// block, the usual word a transpose sorts by, takes a single pass.
const MAX_DIGIT_BITS: u32 = 16;

/// `width` bits of the row or column word, starting at bit `shift`.
#[derive(Clone, Copy)]
struct Digit {
    col: bool,
    shift: u32,
    width: u32,
}

/// The column word a sort's items carry (see the module docs).
trait ColWord: Copy + Default + PartialEq + Into<u64> {}

impl<C: Copy + Default + PartialEq + Into<u64>> ColWord for C {}

impl Digit {
    #[inline]
    fn of(self, r: u32, c: u64) -> usize {
        let word = if self.col { c } else { r as u64 };
        ((word >> self.shift) & ((1 << self.width) - 1)) as usize
    }
}

/// The digits of a word of `bits` significant bits, least significant
/// first, in balanced widths of at most [`MAX_DIGIT_BITS`].
fn digits(bits: u32, col: bool) -> Vec<Digit> {
    let n = bits.div_ceil(MAX_DIGIT_BITS);
    let width = if n == 0 { 0 } else { bits.div_ceil(n) };
    (0..n)
        .map(|i| Digit {
            col,
            shift: i * width,
            width: width.min(bits - i * width),
        })
        .collect()
}

/// Significant bits of the largest index below `dim`.
fn index_bits(dim: u64) -> u32 {
    u64::BITS - dim.saturating_sub(1).leading_zeros()
}

/// Exclusive prefix sums of a histogram: bucket `b` owns the slots
/// `start[b]..start[b + 1]`.
fn starts(hist: &[usize]) -> Vec<usize> {
    let mut start = Vec::with_capacity(hist.len() + 1);
    start.push(0);
    let mut acc = 0;
    for &k in hist {
        acc += k;
        start.push(acc);
    }
    start
}

/// One scatter pass: its digit and where each of its buckets starts.
struct Pass {
    digit: Digit,
    start: Vec<usize>,
}

/// How the sorted column ids are read back.
enum Cols {
    /// At most one column digit varies over the keys: the columns are the
    /// non-empty buckets of that digit (`shift`, bucket starts), with the
    /// bits every key shares in `base`; with no varying digit, all keys
    /// are in the one column `base`.
    Buckets {
        base: u64,
        varying: Option<(u32, Vec<usize>)>,
    },
    /// Several column digits vary: the sorted ids are written out.
    Ids,
}

/// The passes that put a known sequence of keys into `(col, row)` order.
pub(crate) struct RadixPlan {
    n: usize,
    /// Whether the block's column ids fit a `u32` item word.
    narrow: bool,
    /// Passes to run, least significant digit first.
    passes: Vec<Pass>,
    cols: Cols,
}

/// One pass over `keys`: their number and each digit's histogram.
fn histograms(
    digits: &[Digit],
    keys: impl Iterator<Item = (u32, u64)>,
) -> (usize, Vec<Vec<usize>>) {
    let mut hist: Vec<Vec<usize>> = digits.iter().map(|d| vec![0; 1 << d.width]).collect();
    let mut n = 0;
    keys.for_each(|(r, c)| {
        for (h, &d) in hist.iter_mut().zip(digits) {
            h[d.of(r, c)] += 1;
        }
        n += 1;
    });
    (n, hist)
}

/// The digit a histogram of `n` keys puts every key in, if there is one.
fn agreed(hist: &[usize], n: usize) -> Option<usize> {
    hist.iter().position(|&k| k == n)
}

impl RadixPlan {
    /// Count the histograms of `keys()`, the `(row, col)` of the items the
    /// plan will later [`apply`](Self::apply) to, in the same order. The
    /// row digits are counted, in a second pass over the keys, only when
    /// the rows do not already ascend.
    pub(crate) fn new<I>(nrows: usize, ncols: u64, keys: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u32, u64)>,
    {
        assert!(
            nrows <= u32::MAX as usize + 1,
            "row space too large for u32 local indices"
        );
        let (mut rows_sorted, mut keys_sorted) = (true, true);
        let mut prev: Option<(u32, u64)> = None;
        let ordered = keys().inspect(|&(r, c)| {
            debug_assert!((r as usize) < nrows, "row {r} out of bounds {nrows}");
            if let Some((pr, pc)) = prev {
                rows_sorted &= pr <= r;
                keys_sorted &= (pc, pr) <= (c, r);
            }
            prev = Some((r, c));
        });
        let mut plan = Self::count_cols(ncols, ordered);
        if keys_sorted {
            plan.passes.clear();
        } else if !rows_sorted {
            let row_digits = digits(index_bits(nrows as u64), false);
            let (n, row_hist) = histograms(&row_digits, keys());
            let row_passes = row_digits
                .into_iter()
                .zip(row_hist)
                .filter(|(_, h)| agreed(h, n).is_none())
                .map(|(digit, h)| Pass {
                    digit,
                    start: starts(&h),
                });
            plan.passes.splice(0..0, row_passes);
        }
        plan
    }

    /// The plan for items whose rows already ascend (a transpose read in
    /// column order): only the column digits of `cols` are counted.
    pub(crate) fn by_cols(ncols: u64, cols: impl Iterator<Item = u64>) -> Self {
        Self::count_cols(ncols, cols.map(|c| (0, c)))
    }

    /// Count the column digits of `keys` and plan a pass for each digit the
    /// keys do not all agree on.
    fn count_cols(ncols: u64, keys: impl Iterator<Item = (u32, u64)>) -> Self {
        let col_digits = digits(index_bits(ncols), true);
        let (n, col_hist) = histograms(
            &col_digits,
            keys.inspect(|&(_, c)| debug_assert!(c < ncols, "col {c} out of bounds {ncols}")),
        );
        let mut base = 0u64;
        let mut passes = Vec::new();
        for (digit, h) in col_digits.into_iter().zip(col_hist) {
            match agreed(&h, n) {
                Some(b) => base |= (b as u64) << digit.shift,
                None => passes.push(Pass {
                    digit,
                    start: starts(&h),
                }),
            }
        }
        let cols = match passes.as_slice() {
            [] => Cols::Buckets {
                base,
                varying: None,
            },
            [p] => Cols::Buckets {
                base,
                varying: Some((p.digit.shift, p.start.clone())),
            },
            _ => Cols::Ids,
        };
        RadixPlan {
            n,
            narrow: ncols <= 1 << 32,
            passes,
            cols,
        }
    }

    /// Number of items the plan was counted over.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Sort `items` — the items whose keys the plan counted, in the same
    /// order — stably into `(col, row)` order. Returns the rows, the
    /// distinct column ids `jc` with their bounds `cp` (DCSC layout), and
    /// the values. Equal keys keep their input order. Panics unless there
    /// are fewer than `2^32` items, the most `u32` bounds can index.
    pub(crate) fn apply<V>(
        self,
        items: impl Iterator<Item = (u32, u64, V)>,
    ) -> (Vec<u32>, Vec<u64>, Vec<u32>, Vec<V>) {
        assert!(
            self.n <= u32::MAX as usize,
            "a block holds fewer than 2^32 nonzeros"
        );
        if self.narrow {
            // Every column is below `ncols ≤ 2^32`.
            self.apply_as(items.map(|(r, c, v)| (r, c as u32, v)))
        } else {
            self.apply_as(items)
        }
    }

    /// [`apply`](Self::apply) with items carrying their column as `C`.
    fn apply_as<C: ColWord, V>(
        self,
        items: impl Iterator<Item = (u32, C, V)>,
    ) -> (Vec<u32>, Vec<u64>, Vec<u32>, Vec<V>) {
        let n = self.n;
        let ids = matches!(self.cols, Cols::Ids);
        let mut passes = self.passes;
        let last = passes.pop();
        let mut rest = passes.into_iter();
        let (rows, ids, vals) = match rest.next() {
            None => scatter_split(items, n, last.as_ref(), ids),
            Some(first) => {
                let mut buf = scatter_items(items, n, &first);
                for pass in rest {
                    buf = scatter_items(buf.into_iter(), n, &pass);
                }
                scatter_split(buf.into_iter(), n, last.as_ref(), ids)
            }
        };
        let (jc, cp) = match self.cols {
            Cols::Buckets { .. } if n == 0 => (Vec::new(), vec![0]),
            Cols::Buckets {
                base,
                varying: None,
            } => (vec![base], vec![0, n as u32]),
            Cols::Buckets {
                base,
                varying: Some((shift, start)),
            } => {
                let nzc = start.windows(2).filter(|w| w[0] < w[1]).count();
                let mut jc = Vec::with_capacity(nzc);
                let mut cp = Vec::with_capacity(nzc + 1);
                for (b, w) in start.windows(2).enumerate() {
                    if w[0] < w[1] {
                        jc.push(base | (b as u64) << shift);
                        cp.push(w[0] as u32);
                    }
                }
                cp.push(n as u32);
                (jc, cp)
            }
            Cols::Ids => {
                let ids = ids.expect("column ids were written");
                let new_col = |i: usize| i == 0 || ids[i] != ids[i - 1];
                let nzc = (0..n).filter(|&i| new_col(i)).count();
                let mut jc = Vec::with_capacity(nzc);
                let mut cp = Vec::with_capacity(nzc + 1);
                for i in (0..n).filter(|&i| new_col(i)) {
                    jc.push(ids[i].into());
                    cp.push(i as u32);
                }
                cp.push(n as u32);
                (jc, cp)
            }
        };
        (rows, jc, cp, vals)
    }
}

/// Hand each of the `n` items of `src` to `put` with its slot: the next
/// free one of its bucket under `pass`, or its input position without a
/// pass. Returns only if every slot of `0..n` was handed out exactly once
/// (it panics otherwise), which is what lets the callers treat `0..n` as
/// initialised. `src` is driven by `for_each`, not `next`, so a nested
/// source (a `flat_map` over sequences) runs as one loop per inner
/// iterator.
fn scatter<C: ColWord, V>(
    src: impl Iterator<Item = (u32, C, V)>,
    n: usize,
    pass: Option<&Pass>,
    mut put: impl FnMut(usize, (u32, C, V)),
) {
    match pass {
        None => {
            let mut k = 0;
            src.for_each(|item| {
                put(k, item);
                k += 1;
            });
            assert_eq!(k, n, "radix plan counted {n} items, got {k}");
        }
        Some(pass) => {
            let mut next = pass.start.clone();
            src.for_each(|item| {
                let b = pass.digit.of(item.0, item.1.into());
                let at = next[b];
                next[b] = at + 1;
                put(at, item);
            });
            // Each bucket must have ended exactly where the next one starts:
            // then its slots were handed out once each, and none overflowed.
            assert!(
                next[..next.len() - 1] == pass.start[1..],
                "radix histogram disagrees with the items"
            );
        }
    }
}

/// One pass that moves whole items into a new buffer.
fn scatter_items<C: ColWord, V>(
    src: impl Iterator<Item = (u32, C, V)>,
    n: usize,
    pass: &Pass,
) -> Vec<(u32, C, V)> {
    let mut out = Vec::with_capacity(n);
    let slots = &mut out.spare_capacity_mut()[..n];
    scatter(src, n, Some(pass), |at, item| {
        slots[at].write(item);
    });
    // SAFETY: `scatter` returned, so every slot of `0..n` (within capacity)
    // was written exactly once above.
    unsafe { out.set_len(n) };
    out
}

/// The last pass (or the identity, with no pass): items split into rows,
/// values and, when `with_ids`, column ids.
fn scatter_split<C: ColWord, V>(
    src: impl Iterator<Item = (u32, C, V)>,
    n: usize,
    pass: Option<&Pass>,
    with_ids: bool,
) -> (Vec<u32>, Option<Vec<C>>, Vec<V>) {
    let mut rows = vec![0u32; n];
    let mut ids = vec![C::default(); if with_ids { n } else { 0 }];
    let mut vals = Vec::with_capacity(n);
    let slots = &mut vals.spare_capacity_mut()[..n];
    scatter(src, n, pass, |at, (r, c, v)| {
        rows[at] = r;
        if with_ids {
            ids[at] = c;
        }
        slots[at].write(v);
    });
    // SAFETY: `scatter` returned, so every slot of `0..n` (within capacity)
    // was written exactly once above.
    unsafe { vals.set_len(n) };
    (rows, with_ids.then_some(ids), vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort through a plan and expand back to `(row, col, value)` triples.
    fn sorted(nrows: usize, ncols: u64, items: Vec<(u32, u64, u32)>) -> Vec<(u32, u64, u32)> {
        let plan = RadixPlan::new(nrows, ncols, || items.iter().map(|&(r, c, _)| (r, c)));
        let (rows, jc, cp, vals) = plan.apply(items.into_iter());
        let mut out = Vec::new();
        for (k, &c) in jc.iter().enumerate() {
            for i in cp[k] as usize..cp[k + 1] as usize {
                out.push((rows[i], c, vals[i]));
            }
        }
        out
    }

    fn plan_of(nrows: usize, ncols: u64, keys: &[(u32, u64)]) -> RadixPlan {
        RadixPlan::new(nrows, ncols, || keys.iter().copied())
    }

    #[test]
    fn digits_are_balanced_and_cover_the_word() {
        let widths = |bits| {
            digits(bits, true)
                .iter()
                .map(|d| (d.shift, d.width))
                .collect::<Vec<_>>()
        };
        assert!(widths(0).is_empty());
        assert_eq!(widths(14), vec![(0, 14)]);
        assert_eq!(widths(28), vec![(0, 14), (14, 14)]);
        assert_eq!(widths(17), vec![(0, 9), (9, 8)]);
        assert_eq!(widths(64).iter().map(|&(_, w)| w).sum::<u32>(), 64);
        assert_eq!(index_bits(1), 0);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(1 << 20), 20);
    }

    #[test]
    fn sorts_stably_by_col_then_row() {
        let items = vec![
            (3, 9, 0),
            (1, 9, 1),
            (3, 2, 2),
            (1, 9, 3),
            (0, 70_000, 4),
            (2, 1 << 40, 5),
        ];
        let got = sorted(4, 1 << 41, items.clone());
        let mut want = items;
        want.sort_by_key(|&(r, c, _)| (c, r));
        assert_eq!(got, want);
    }

    /// At `2^32` columns the items carry `u32` columns, one more and
    /// `u64`; the two sort alike, through written ids (columns varying in
    /// several digits), through one varying digit's buckets, and with
    /// every key agreeing.
    #[test]
    fn narrow_items_sort_as_wide_ones() {
        let top = u32::MAX as u64;
        let spread = vec![
            (5, top, 0),
            (1, 0, 1),
            (5, 1 << 31, 2),
            (0, top, 3),
            (5, 1 << 31, 4),
            (2, 70_000, 5),
            (1, 3, 6),
        ];
        let one_digit: Vec<_> = (0..6).map(|i| (6 - i, top - i as u64 % 3, i)).collect();
        let agreeing = vec![(3, top, 0), (1, top, 1)];
        for items in [spread, one_digit, agreeing] {
            let keys: Vec<_> = items.iter().map(|&(r, c, _)| (r, c)).collect();
            assert!(plan_of(8, 1 << 32, &keys).narrow);
            assert!(!plan_of(8, (1 << 32) + 1, &keys).narrow);
            let narrow = sorted(8, 1 << 32, items.clone());
            assert_eq!(narrow, sorted(8, (1 << 32) + 1, items.clone()));
            let mut want = items;
            want.sort_by_key(|&(r, c, _)| (c, r));
            assert_eq!(narrow, want);
        }
    }

    #[test]
    fn ordered_or_agreeing_keys_cost_no_pass() {
        let plan = plan_of(3, 6, &[(0, 1), (2, 1), (1, 5)]);
        assert!(plan.passes.is_empty());
        // Rows ascend: only the column digits are sorted, and the high
        // column digits every key shares are skipped; the one varying
        // digit's buckets are the columns.
        let plan = plan_of(3, 1 << 40, &[(0, 5), (1, 3), (2, 4)]);
        assert_eq!(plan.passes.len(), 1);
        assert!(plan.passes[0].digit.col && plan.passes[0].digit.shift == 0);
        assert!(matches!(
            plan.cols,
            Cols::Buckets {
                varying: Some(_),
                ..
            }
        ));
        // Two varying column digits: the ids are written out.
        let plan = plan_of(3, 1 << 40, &[(0, 1 << 30), (1, 3), (2, 4)]);
        assert!(matches!(plan.cols, Cols::Ids));
    }
}
