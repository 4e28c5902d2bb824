//! Gapped x-drop seed-and-extend alignment (Altschul et al. 1997; the XD
//! mode of PASTIS, paper §IV-E).
//!
//! The alignment is anchored on a shared k-mer: the seed is scored exactly,
//! then extended with affine-gap DP in both directions. Rows maintain a
//! *live window* of cells whose score stays within `xdrop` of the best seen;
//! cells outside are abandoned, which is what makes XD substantially
//! cheaper than full Smith–Waterman on unrelated pairs.

mod lanes;

use crate::dispatch;
use crate::lanes::{Gap, E_EXTEND, F_EXTEND, H_DIAG, H_FROM_E, H_FROM_F, H_SRC_MASK, NEG_INF};
use crate::scratch::{with_scratch, AlignScratch, XdropScratch};
use crate::stats::AlignStats;
use crate::AlignParams;

/// Result of a one-directional gapped extension from the origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Extension {
    score: i32,
    /// Consumed prefix lengths of the two sequences.
    a_end: usize,
    b_end: usize,
    matches: u32,
    align_len: u32,
}

impl Gap {
    /// One step of the E or F recurrence: open a gap from `h` or extend
    /// the running gap `g`; `bit` is returned when extending wins strictly.
    #[inline(always)]
    fn step(self, h: i32, g: i32, bit: u8) -> (i32, u8) {
        let opened = h.saturating_sub(self.open);
        let extended = g.saturating_sub(self.ext);
        if extended > opened {
            (extended, bit)
        } else {
            (opened, 0)
        }
    }
}

/// `(H, E)` of a left neighbour or `(H, F)` of an upper neighbour that
/// lies outside the live window.
const CLOSED: (i32, i32) = (NEG_INF, NEG_INF);

/// One computed DP cell: H with its traceback byte, and the E and F it
/// hands to its right and lower neighbours.
struct Cell {
    h: i32,
    e: i32,
    f: i32,
    dir: u8,
}

/// Compute a cell from its left neighbour's `(H, E)`, its upper
/// neighbour's `(H, F)` and its already-scored diagonal. Ties resolve
/// diag > E > F (each later source must win strictly).
#[inline(always)]
fn cell(gap: Gap, left: (i32, i32), up: (i32, i32), diag: i32) -> Cell {
    let (e, e_bit) = gap.step(left.0, left.1, E_EXTEND);
    let (f, f_bit) = gap.step(up.0, up.1, F_EXTEND);
    let mut h = NEG_INF;
    let mut src = 0u8;
    if diag > h {
        h = diag;
        src = H_DIAG;
    }
    if e > h {
        h = e;
        src = H_FROM_E;
    }
    if f > h {
        h = f;
        src = H_FROM_F;
    }
    Cell {
        h,
        e,
        f,
        dir: e_bit | f_bit | src,
    }
}

/// The diagonal move out of predecessor `d`; a dead predecessor stays dead.
#[inline(always)]
fn diag_from(d: i32, score: i8) -> i32 {
    if d <= NEG_INF / 2 {
        NEG_INF
    } else {
        d + score as i32
    }
}

/// Best score seen so far, where, and the liveness floor it implies: a
/// cell is live when `h >= best − xdrop` and it is reachable at all.
struct Front {
    best: i32,
    pos: (usize, usize),
    xdrop: i32,
    floor: i32,
}

impl Front {
    fn new(xdrop: i32) -> Self {
        let mut front = Front {
            best: 0,
            pos: (0, 0),
            xdrop,
            floor: 0,
        };
        front.set(0, (0, 0));
        front
    }

    #[inline(always)]
    fn set(&mut self, best: i32, pos: (usize, usize)) {
        self.best = best;
        self.pos = pos;
        self.floor = (best - self.xdrop).max(NEG_INF / 2 + 1);
    }

    #[inline(always)]
    fn is_live(&self, h: i32) -> bool {
        h >= self.floor
    }

    /// A live cell scored `h` at `pos`: the front moves on strict
    /// improvement, mid-row, so later cells of the same row already see
    /// the raised floor.
    #[inline(always)]
    fn saw_live(&mut self, h: i32, pos: (usize, usize)) {
        if h > self.best {
            self.set(h, pos);
        }
    }
}

/// Extend an alignment from `(0, 0)` over prefixes of `a` and `b`,
/// abandoning cells scoring below `best − xdrop`. All DP rows and
/// traceback bytes live in the scratch arena.
///
/// Row buffers are indexed by absolute column and sized `n + 1` once per
/// extension; a row's live window is `[lo, hi)`. Row `i` starts *at* the
/// previous window's `lo` (nothing left of it can be reached: E needs a
/// live left neighbour, diag and F a live cell above) and is computed in
/// three phases:
///
/// 1. *pre-open scan* — until the first live cell, dead cells store
///    nothing and every cell sees a closed left neighbour;
/// 2. *open interior* — columns `lo + 1 .. prev_hi`, where the cell above
///    and the diagonal both lie inside the previous window, so no bounds
///    are tested and the row cannot end; a dead cell is stored as
///    `h = f = NEG_INF`, direction 0, while E keeps running through it.
///    This is where the cells are, and it runs in lanes ([`lanes`]):
///    between two rises of `best` the floor is constant, so each such
///    segment is computed a chunk of columns at a time;
/// 3. *tail* — from column `prev_hi` on only E (and once, the diagonal)
///    feeds a cell; here alone a dead cell whose E is also below the
///    floor ends the row. The ending cell is counted but not stored.
///
/// Liveness follows `best` within the row: a cell that raises `best`
/// raises the floor for every cell right of it.
fn extend_gapped(a: &[u8], b: &[u8], params: &AlignParams, xd: &mut XdropScratch) -> Extension {
    extend_gapped_at(lanes::kernel(dispatch::level()), a, b, params, xd)
}

/// [`extend_gapped`] with the open interior's lanes pinned to `interior`.
/// The differential test runs every kernel the host has.
fn extend_gapped_at(
    interior: lanes::Kernel,
    a: &[u8],
    b: &[u8],
    params: &AlignParams,
    xd: &mut XdropScratch,
) -> Extension {
    let gap = Gap::of(params);
    let (m, n) = (a.len(), b.len());
    let mut front = Front::new(params.xdrop);
    let mut cells: u64 = 0; // work accounting: DP cells actually computed

    // Per-row traceback bytes are concatenated into dir_flat;
    // dir_rows[i] = (lo, start, len) locates row i's live window.
    let XdropScratch {
        row_h,
        row_f,
        spare_h,
        spare_f,
        dir_flat,
        dir_rows,
    } = xd;
    dir_flat.clear();
    dir_rows.clear();
    // The arena only grows, so a warm one is not touched here.
    for buf in [&mut *row_h, &mut *row_f, &mut *spare_h, &mut *spare_f] {
        if buf.len() < n + 1 {
            buf.resize(n + 1, NEG_INF);
        }
    }

    // Row 0: leading gap in `a`.
    dir_flat.resize(n + 1, 0);
    row_h[0] = 0;
    row_f[0] = NEG_INF;
    let (mut lo, mut hi) = (0usize, 1usize);
    for j in 1..=n {
        let h = -gap.open - (j as i32 - 1) * gap.ext;
        if h < front.best - front.xdrop {
            break;
        }
        row_h[j] = h;
        row_f[j] = NEG_INF;
        dir_flat[j] = H_FROM_E | if j > 1 { E_EXTEND } else { 0 };
        front.saw_live(h, (0, j));
        hi = j + 1;
    }
    dir_flat.truncate(hi);
    dir_rows.push((0, 0, hi));

    for i in 1..=m {
        let (plo, phi) = (lo, hi);
        let (ph, pf) = (&row_h[plo..phi], &row_f[plo..phi]);
        let (ch, cf) = (&mut spare_h[..=n], &mut spare_f[..=n]);
        let scores = &params.matrix.scores[a[i - 1] as usize];
        let dir_start = dir_flat.len();
        dir_flat.resize(dir_start + n + 1 - plo, 0);

        // Phase 1: pre-open scan over [plo, min(phi, n)].
        let mut j = plo;
        let first = loop {
            if j > phi.min(n) {
                break None;
            }
            cells += 1;
            let up = if j < phi {
                (ph[j - plo], pf[j - plo])
            } else {
                CLOSED
            };
            let diag = if j > plo {
                diag_from(ph[j - 1 - plo], scores[b[j - 1] as usize])
            } else {
                NEG_INF
            };
            let c = cell(gap, CLOSED, up, diag);
            if front.is_live(c.h) {
                break Some(c);
            }
            j += 1;
        };
        let Some(first) = first else {
            // Row fully dead — extension terminated, and the row leaves no
            // traceback bytes.
            dir_flat.truncate(dir_start);
            break;
        };
        lo = j;
        let dirs = &mut dir_flat[dir_start..]; // indexed by column − lo
        ch[lo] = first.h;
        cf[lo] = first.f;
        dirs[0] = first.dir;
        front.saw_live(first.h, (i, lo));
        let (mut h_left, mut e) = (first.h, first.e);

        // Phase 2: open interior, columns lo + 1 .. phi, in lanes over
        // equal-length slices of the previous row.
        if lo + 1 < phi {
            let w = phi - (lo + 1);
            let row = lanes::Interior {
                i,
                col0: lo + 1,
                above_h: &ph[lo - plo..][..=w],
                above_f: &pf[lo + 1 - plo..][..w],
                b: &b[lo..][..w],
                scores,
                out_h: &mut ch[lo + 1..][..w],
                out_f: &mut cf[lo + 1..][..w],
                out_d: &mut dirs[1..][..w],
            };
            (h_left, e) = interior(gap, &mut front, row, (h_left, e));
            cells += w as u64;
        }

        // Phase 3: tail from column phi (or just past a window that
        // opened there).
        let tail = phi.max(lo + 1);
        hi = tail;
        for j in tail..=n {
            cells += 1;
            let diag = if j == phi {
                diag_from(ph[phi - 1 - plo], scores[b[j - 1] as usize])
            } else {
                NEG_INF
            };
            let c = cell(gap, (h_left, e), CLOSED, diag);
            e = c.e;
            if front.is_live(c.h) {
                ch[j] = c.h;
                cf[j] = c.f;
                dirs[j - lo] = c.dir;
                h_left = c.h;
                front.saw_live(c.h, (i, j));
            } else {
                // Nothing above can revive the row any more; once E is
                // below the floor too, nothing to the right can be live.
                if e < front.best - front.xdrop {
                    break;
                }
                ch[j] = NEG_INF;
                cf[j] = NEG_INF;
                dirs[j - lo] = 0;
                h_left = NEG_INF;
            }
            hi = j + 1;
        }
        // Trim trailing dead cells (the cell at `lo` is live).
        while ch[hi - 1] == NEG_INF {
            hi -= 1;
        }
        dir_flat.truncate(dir_start + hi - lo);
        dir_rows.push((lo, dir_start, hi - lo));
        std::mem::swap(row_h, spare_h);
        std::mem::swap(row_f, spare_f);
    }

    // The x-drop band is what makes XD cheap: charge only computed cells
    // (the banded bookkeeping costs a little over plain SW).
    pcomm::work::record_class(cells + n as u64 + 1, pcomm::work::CostClass::XdropCell);
    obs::hist!("align.xdrop_cells", cells);

    // Traceback from the best cell.
    let (best, best_pos) = (front.best, front.pos);
    let (mut i, mut j) = best_pos;
    let mut matches = 0u32;
    let mut align_len = 0u32;
    enum State {
        H,
        E,
        F,
    }
    let mut state = State::H;
    while i > 0 || j > 0 {
        let (lo, dir_start, len) = dir_rows[i];
        debug_assert!(j >= lo && j - lo < len, "traceback left the live band");
        let dir = dir_flat[dir_start + (j - lo)];
        match state {
            State::H => match dir & H_SRC_MASK {
                H_DIAG => {
                    align_len += 1;
                    if a[i - 1] == b[j - 1] {
                        matches += 1;
                    }
                    i -= 1;
                    j -= 1;
                }
                H_FROM_E => state = State::E,
                H_FROM_F => state = State::F,
                _ => unreachable!("dead cell on the optimal path"),
            },
            State::E => {
                align_len += 1;
                if dir & E_EXTEND == 0 {
                    state = State::H;
                }
                j -= 1;
            }
            State::F => {
                align_len += 1;
                if dir & F_EXTEND == 0 {
                    state = State::H;
                }
                i -= 1;
            }
        }
    }

    Extension {
        score: best,
        a_end: best_pos.0,
        b_end: best_pos.1,
        matches,
        align_len,
    }
}

/// Seed-and-extend alignment of `r` and `c` anchored on a shared k-mer at
/// `r_pos`/`c_pos` (paper §IV-E): the seed region is scored exactly and the
/// alignment is extended with gapped x-drop in both directions.
pub fn xdrop_align(
    r: &[u8],
    c: &[u8],
    r_pos: u32,
    c_pos: u32,
    k: usize,
    params: &AlignParams,
) -> AlignStats {
    with_scratch(|s| xdrop_align_with(r, c, r_pos, c_pos, k, params, s))
}

/// [`xdrop_align`] with an explicit scratch arena (no per-call heap
/// allocation once the arena is warm).
pub fn xdrop_align_with(
    r: &[u8],
    c: &[u8],
    r_pos: u32,
    c_pos: u32,
    k: usize,
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> AlignStats {
    // The extension prunes row by row, so it is not its own transpose.
    // Which rank sees a pair as (r, c) depends on the grid; putting the
    // operands in one canonical order — shorter first, ties by residues —
    // makes the result a function of the unordered pair.
    if (r.len(), r) > (c.len(), c) {
        let st = xdrop_align_with(c, r, c_pos, r_pos, k, params, scratch);
        return AlignStats {
            r_span: st.c_span,
            c_span: st.r_span,
            r_len: st.c_len,
            c_len: st.r_len,
            ..st
        };
    }
    let (r_pos, c_pos) = (r_pos as usize, c_pos as usize);
    assert!(
        r_pos + k <= r.len() && c_pos + k <= c.len(),
        "seed outside sequence"
    );
    // Seed score: the anchor k-mers may differ under substitute k-mer
    // matching, so score the actual residues pairwise.
    let mut seed_score = 0i32;
    let mut seed_matches = 0u32;
    for t in 0..k {
        seed_score += params.matrix.score(r[r_pos + t], c[c_pos + t]);
        if r[r_pos + t] == c[c_pos + t] {
            seed_matches += 1;
        }
    }
    // Right extension over the suffixes past the seed.
    let right = extend_gapped(&r[r_pos + k..], &c[c_pos + k..], params, &mut scratch.xd);
    // Left extension over the reversed prefixes before the seed.
    scratch.rev_a.clear();
    scratch.rev_a.extend(r[..r_pos].iter().rev());
    scratch.rev_b.clear();
    scratch.rev_b.extend(c[..c_pos].iter().rev());
    let left = extend_gapped(&scratch.rev_a, &scratch.rev_b, params, &mut scratch.xd);

    AlignStats {
        score: seed_score + left.score + right.score,
        matches: seed_matches + left.matches + right.matches,
        align_len: k as u32 + left.align_len + right.align_len,
        r_span: (
            (r_pos - left.a_end) as u32,
            (r_pos + k + right.a_end) as u32,
        ),
        c_span: (
            (c_pos - left.b_end) as u32,
            (c_pos + k + right.b_end) as u32,
        ),
        r_len: r.len() as u32,
        c_len: c.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::SimdLevel;
    use crate::sw::smith_waterman;
    use seqstore::encode_seq;

    fn params() -> AlignParams {
        AlignParams::default()
    }

    /// One row of the banded DP: scores for `[lo, lo+len)`. The backing
    /// buffers are borrowed from the scratch arena and returned when the
    /// extension finishes.
    struct Row {
        lo: usize,
        h: Vec<i32>,
        f: Vec<i32>,
    }

    impl Row {
        #[inline]
        fn h_at(&self, j: usize) -> i32 {
            if j >= self.lo && j < self.lo + self.h.len() {
                self.h[j - self.lo]
            } else {
                NEG_INF
            }
        }

        #[inline]
        fn f_at(&self, j: usize) -> i32 {
            if j >= self.lo && j < self.lo + self.f.len() {
                self.f[j - self.lo]
            } else {
                NEG_INF
            }
        }
    }

    /// The kernel as it stood before the three-phase rewrite, kept verbatim
    /// as the oracle [`three_phase_kernel_equals_reference`] compares against.
    fn extend_gapped_ref(
        a: &[u8],
        b: &[u8],
        params: &AlignParams,
        xd: &mut XdropScratch,
    ) -> Extension {
        let open = params.gap_open + params.gap_extend;
        let ext = params.gap_extend;
        let x = params.xdrop;
        let (m, n) = (a.len(), b.len());

        let mut best = 0i32;
        let mut best_pos = (0usize, 0usize);
        let mut cells: u64 = 0; // work accounting: DP cells actually computed

        // Per-row traceback bytes are concatenated into dir_flat;
        // dir_rows[i] = (lo, start, len) locates row i's live window.
        xd.dir_flat.clear();
        xd.dir_rows.clear();

        // Take the four row buffers out of the arena; every exit path below
        // returns them, so the arena keeps its capacity across calls.
        let mut row_h = std::mem::take(&mut xd.row_h);
        let mut row_f = std::mem::take(&mut xd.row_f);
        let mut spare_h = std::mem::take(&mut xd.spare_h);
        let mut spare_f = std::mem::take(&mut xd.spare_f);

        // Row 0: leading gap in `a`.
        row_h.clear();
        row_f.clear();
        row_h.push(0);
        row_f.push(NEG_INF);
        xd.dir_flat.push(0u8);
        for j in 1..=n {
            let h = -open - (j as i32 - 1) * ext;
            if h < best - x {
                break;
            }
            row_h.push(h);
            row_f.push(NEG_INF);
            xd.dir_flat
                .push(H_FROM_E | if j > 1 { E_EXTEND } else { 0 });
            if h > best {
                best = h;
                best_pos = (0, j);
            }
        }
        xd.dir_rows.push((0, 0, xd.dir_flat.len()));
        let mut row = Row {
            lo: 0,
            h: row_h,
            f: row_f,
        };

        for i in 1..=m {
            let prev = row;
            // The row starts *at* the previous window's `lo` (diag and F reach
            // no further left) and extends right indefinitely through E runs.
            let start = prev.lo;
            let mut lo = usize::MAX;
            let mut h_new = spare_h;
            h_new.clear();
            h_new.reserve(prev.h.len() + 2);
            let mut f_new = spare_f;
            f_new.clear();
            f_new.reserve(prev.h.len() + 2);
            let dir_start = xd.dir_flat.len();
            let mut e = NEG_INF;
            let prev_hi = prev.lo + prev.h.len(); // exclusive
            let mut j = start;
            while j <= n {
                cells += 1;
                // E from the left neighbour of this row.
                let (h_left, e_left) = if j == 0 || lo == usize::MAX || j - 1 < lo {
                    (NEG_INF, NEG_INF)
                } else {
                    (h_new[j - 1 - lo], e)
                };
                let mut dir = 0u8;
                let e_open = h_left.saturating_sub(open);
                let e_ext = e_left.saturating_sub(ext);
                e = if e_ext > e_open {
                    dir |= E_EXTEND;
                    e_ext
                } else {
                    e_open
                };
                // F from the previous row, same column.
                let f_open = prev.h_at(j).saturating_sub(open);
                let f_ext = prev.f_at(j).saturating_sub(ext);
                let f = if f_ext > f_open {
                    dir |= F_EXTEND;
                    f_ext
                } else {
                    f_open
                };
                // Diagonal.
                let diag = if j >= 1 {
                    let d = prev.h_at(j - 1);
                    if d <= NEG_INF / 2 {
                        NEG_INF
                    } else {
                        d + params.matrix.score(a[i - 1], b[j - 1])
                    }
                } else {
                    NEG_INF
                };
                let mut h = NEG_INF;
                let mut src = 0u8;
                if diag > h {
                    h = diag;
                    src = H_DIAG;
                }
                if e > h {
                    h = e;
                    src = H_FROM_E;
                }
                if f > h {
                    h = f;
                    src = H_FROM_F;
                }
                let live = h >= best - x && h > NEG_INF / 2;
                if live {
                    if lo == usize::MAX {
                        lo = j;
                    }
                    h_new.push(h);
                    f_new.push(f);
                    xd.dir_flat.push(dir | src);
                    if h > best {
                        best = h;
                        best_pos = (i, j);
                    }
                } else if lo != usize::MAX {
                    // Window already open: a dead cell ends it once we are past
                    // the reach of the previous row (no F/diag can revive us and
                    // E is dead too).
                    if j >= prev_hi && e < best - x {
                        break;
                    }
                    h_new.push(NEG_INF);
                    f_new.push(NEG_INF);
                    xd.dir_flat.push(0);
                } else if j >= prev_hi {
                    // Never opened and nothing can open it any more.
                    break;
                }
                j += 1;
            }
            if lo == usize::MAX {
                // Row fully dead — extension terminated. No traceback bytes
                // were pushed for this row.
                spare_h = h_new;
                spare_f = f_new;
                row = prev;
                break;
            }
            // Trim trailing dead cells.
            while h_new.last() == Some(&NEG_INF) {
                h_new.pop();
                f_new.pop();
                xd.dir_flat.pop();
            }
            // Retire the previous row's buffers for reuse.
            spare_h = prev.h;
            spare_f = prev.f;
            row = Row {
                lo,
                h: h_new,
                f: f_new,
            };
            xd.dir_rows
                .push((lo, dir_start, xd.dir_flat.len() - dir_start));
            if row.h.is_empty() {
                break;
            }
        }

        // The x-drop band is what makes XD cheap: charge only computed cells
        // (the banded bookkeeping costs a little over plain SW).
        pcomm::work::record_class(cells + n as u64 + 1, pcomm::work::CostClass::XdropCell);
        obs::hist!("align.xdrop_cells", cells);

        // Traceback from best_pos.
        let (mut i, mut j) = best_pos;
        let mut matches = 0u32;
        let mut align_len = 0u32;
        enum State {
            H,
            E,
            F,
        }
        let mut state = State::H;
        while i > 0 || j > 0 {
            let (lo, dir_start, len) = xd.dir_rows[i];
            debug_assert!(j >= lo && j - lo < len, "traceback left the live band");
            let dir = xd.dir_flat[dir_start + (j - lo)];
            match state {
                State::H => match dir & H_SRC_MASK {
                    H_DIAG => {
                        align_len += 1;
                        if a[i - 1] == b[j - 1] {
                            matches += 1;
                        }
                        i -= 1;
                        j -= 1;
                    }
                    H_FROM_E => state = State::E,
                    H_FROM_F => state = State::F,
                    _ => unreachable!("dead cell on the optimal path"),
                },
                State::E => {
                    align_len += 1;
                    if dir & E_EXTEND == 0 {
                        state = State::H;
                    }
                    j -= 1;
                }
                State::F => {
                    align_len += 1;
                    if dir & F_EXTEND == 0 {
                        state = State::H;
                    }
                    i -= 1;
                }
            }
        }

        // Return the row buffers to the arena.
        xd.row_h = row.h;
        xd.row_f = row.f;
        xd.spare_h = spare_h;
        xd.spare_f = spare_f;
        Extension {
            score: best,
            a_end: best_pos.0,
            b_end: best_pos.1,
            matches,
            align_len,
        }
    }

    /// A mutated copy of `a`: per-residue substitution, deletion and
    /// insertion at `rate` each.
    fn mutate(rng: &mut rand::rngs::StdRng, a: &[u8], sigma: u8, rate: f64) -> Vec<u8> {
        use rand::prelude::*;
        let mut out = Vec::with_capacity(a.len() + 8);
        for &x in a {
            let roll: f64 = rng.random();
            if roll < rate {
                continue; // deletion
            }
            if roll < 2.0 * rate {
                out.push(rng.random_range(0..sigma)); // insertion
            }
            out.push(if roll < 3.0 * rate {
                rng.random_range(0..sigma)
            } else {
                x
            });
        }
        out
    }

    /// `f`'s result and what it charged this thread's work ledger.
    fn charged<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = pcomm::work::counter_milli_ns();
        let out = f();
        (out, pcomm::work::counter_milli_ns() - before)
    }

    /// `f`'s result and the lane paths it ran on this thread.
    fn with_paths<R>(f: impl FnOnce() -> R) -> (R, lanes::Paths) {
        lanes::PATHS.with(|p| p.take());
        let out = f();
        (out, lanes::PATHS.with(|p| p.take()))
    }

    #[test]
    fn three_phase_kernel_equals_reference() {
        use pcomm::work::CostClass;
        use rand::prelude::*;
        // Every kernel the host can run: each SIMD level (so the SLP lanes
        // are tested on AVX2 hosts too) and the plain-Rust lanes.
        let mut kernels = vec![
            ("Slp", lanes::kernel(SimdLevel::Slp)),
            ("portable", lanes::PORTABLE),
        ];
        if dispatch::avx2_available() {
            kernels.push(("Avx2", lanes::kernel(SimdLevel::Avx2)));
        }
        let mut rng = StdRng::seed_from_u64(0x7d70);
        // One arena per kernel for the whole run: the rewrite never clears
        // its row buffers, so stale contents from earlier shapes must not
        // leak into later extensions.
        let mut xd_ref = XdropScratch::default();
        let mut xd_lanes: Vec<XdropScratch> = kernels.iter().map(|_| Default::default()).collect();
        let mut paths = vec![lanes::Paths::default(); kernels.len()];
        let mut extensions = 0usize;
        let mut opened_past_prev_hi = 0usize;
        let mut check = |a: &[u8], b: &[u8], p: &AlignParams, ctx: &dyn Fn() -> String| {
            let (want, want_work) = charged(|| extend_gapped_ref(a, b, p, &mut xd_ref));
            assert_eq!(want_work % CostClass::XdropCell.milli_ns(), 0);
            for ((&(lv, kernel), xd), seen) in kernels.iter().zip(&mut xd_lanes).zip(&mut paths) {
                let ((got, got_work), ran) =
                    with_paths(|| charged(|| extend_gapped_at(kernel, a, b, p, xd)));
                assert_eq!(got, want, "{lv} {}", ctx());
                // cells + n + 1 operations of one class each side.
                assert_eq!(got_work, want_work, "computed cells, {lv} {}", ctx());
                assert_eq!(xd.dir_rows, xd_ref.dir_rows, "{lv} {}", ctx());
                assert_eq!(xd.dir_flat, xd_ref.dir_flat, "{lv} {}", ctx());
                seen.multi_chunk += ran.multi_chunk;
                seen.partial += ran.partial;
                seen.restarts += ran.restarts;
            }
            extensions += 1;
            opened_past_prev_hi += xd_ref
                .dir_rows
                .windows(2)
                .filter(|w| w[1].0 == w[0].0 + w[0].2)
                .count();
        };
        for xdrop in [0, 1, 5, 12, 20, 49, 100] {
            for (gap_open, gap_extend) in [(11, 1), (2, 2), (0, 1)] {
                let p = AlignParams {
                    gap_open,
                    gap_extend,
                    xdrop,
                    ..AlignParams::default()
                };
                for case in 0..960 {
                    let sigma = if case % 2 == 0 { 24u8 } else { 4 };
                    let len = match case % 16 {
                        0 => 0,
                        1 => 1,
                        _ => rng.random_range(2..90),
                    };
                    let a: Vec<u8> = (0..len).map(|_| rng.random_range(0..sigma)).collect();
                    let b: Vec<u8> = match case % 4 {
                        // Unrelated, independent length (incl. 0 and 1).
                        0 => {
                            let n = [0, 1, 40, 89][rng.random_range(0..4)];
                            (0..n).map(|_| rng.random_range(0..sigma)).collect()
                        }
                        1 => mutate(&mut rng, &a, sigma, 0.03),
                        2 => mutate(&mut rng, &a, sigma, 0.10),
                        _ => a.clone(),
                    };
                    check(&a, &b, &p, &|| {
                        format!("xdrop {xdrop} gaps ({gap_open},{gap_extend}) case {case}")
                    });
                }
                // Long windows: ~400-residue homologs with indels under a
                // wide x-drop give rows of many chunks, partial chunks and
                // rises mid-row.
                if xdrop == 100 {
                    for case in 0..12 {
                        let len = rng.random_range(380..420);
                        let a: Vec<u8> = (0..len).map(|_| rng.random_range(0..24u8)).collect();
                        let b = mutate(&mut rng, &a, 24, [0.02, 0.05, 0.08][case % 3]);
                        check(&a, &b, &p, &|| {
                            format!("long homolog, gaps ({gap_open},{gap_extend}) case {case}")
                        });
                    }
                }
            }
        }
        // Large gap costs under an x-drop wide enough to keep gapped cells
        // live: lane values far from zero, where plain i32 arithmetic must
        // still equal the scalar `saturating_sub`.
        for (gap_open, gap_extend) in [(0, 1 << 24), (1 << 27, 1 << 20)] {
            let p = AlignParams {
                gap_open,
                gap_extend,
                xdrop: crate::lanes::MAX_GAP_COST,
                ..AlignParams::default()
            };
            for case in 0..40 {
                let len = rng.random_range(2..90);
                let a: Vec<u8> = (0..len).map(|_| rng.random_range(0..24u8)).collect();
                let b = mutate(&mut rng, &a, 24, 0.05);
                check(&a, &b, &p, &|| {
                    format!("large gaps ({gap_open},{gap_extend}) case {case}")
                });
            }
        }
        assert!(extensions >= 20_000);
        // The rarest path — a window that opens exactly at the previous
        // row's end — must have been exercised, and so must every lane
        // path at every level.
        assert!(opened_past_prev_hi > 0);
        for ((lv, _), seen) in kernels.iter().zip(&paths) {
            assert!(
                seen.multi_chunk > 0 && seen.partial > 0 && seen.restarts > 0,
                "{lv} {seen:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gap_open, gap_extend >= 0")]
    fn negative_gap_cost_is_refused() {
        let s = encode_seq(b"MKVLAWHERTY");
        let p = AlignParams {
            gap_open: -1,
            ..params()
        };
        xdrop_align(&s, &s, 2, 2, 3, &p);
    }

    #[test]
    fn identical_sequences_extend_fully() {
        let s = encode_seq(b"MKVLAWHERTYCCDDEE");
        let st = xdrop_align(&s, &s, 5, 5, 3, &params());
        assert_eq!(st.matches as usize, s.len());
        assert_eq!(st.align_len as usize, s.len());
        assert_eq!(st.r_span, (0, s.len() as u32));
        assert_eq!(st.c_span, (0, s.len() as u32));
        let sw = smith_waterman(&s, &s, &params());
        assert_eq!(st.score, sw.score);
    }

    #[test]
    fn seed_at_sequence_edges() {
        let s = encode_seq(b"MKVLAW");
        let st0 = xdrop_align(&s, &s, 0, 0, 3, &params());
        assert_eq!(st0.matches, 6);
        let st_end = xdrop_align(&s, &s, 3, 3, 3, &params());
        assert_eq!(st_end.matches, 6);
    }

    #[test]
    fn mismatch_tail_is_dropped() {
        // Shared prefix, then unrelated tails: extension must stop early.
        let a = encode_seq(b"MKVLAWHERTYWWWWWWWW");
        let b = encode_seq(b"MKVLAWHERTYAAAAAAAA");
        let st = xdrop_align(&a, &b, 0, 0, 6, &params());
        assert_eq!(st.matches, 11);
        assert!(st.r_span.1 <= 12);
    }

    #[test]
    fn extension_crosses_single_gap() {
        let a = encode_seq(b"MKVLAWHERTYDDDD");
        let b = encode_seq(b"MKVLAWCCCHERTYDDDD");
        // Seed on the common prefix.
        let st = xdrop_align(&a, &b, 0, 0, 6, &params());
        assert_eq!(st.matches, 15);
        assert_eq!(st.align_len, 18);
        let swr = smith_waterman(&a, &b, &params());
        assert_eq!(st.score, swr.score);
    }

    #[test]
    fn matches_smith_waterman_on_homologs() {
        // When the pair is genuinely similar end to end, XD from a correct
        // seed finds the same alignment as SW.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let len = rng.random_range(30..80);
            let a: Vec<u8> = (0..len).map(|_| rng.random_range(0..20u8)).collect();
            // 10% point mutations.
            let b: Vec<u8> = a
                .iter()
                .map(|&x| {
                    if rng.random::<f64>() < 0.1 {
                        rng.random_range(0..20u8)
                    } else {
                        x
                    }
                })
                .collect();
            // Find a shared 6-mer to seed from.
            let seed = (0..len - 6).find(|&i| a[i..i + 6] == b[i..i + 6]);
            let Some(seed) = seed else { continue };
            let st = xdrop_align(&a, &b, seed as u32, seed as u32, 6, &params());
            let swr = smith_waterman(&a, &b, &params());
            assert!(st.score <= swr.score, "xdrop cannot beat SW");
            assert!(
                st.score >= swr.score - 10,
                "xd={} sw={}",
                st.score,
                swr.score
            );
        }
    }

    #[test]
    fn spans_contain_seed() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let m = rng.random_range(10..50);
            let n = rng.random_range(10..50);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..24u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..24u8)).collect();
            let rp = rng.random_range(0..m - 6) as u32;
            let cp = rng.random_range(0..n - 6) as u32;
            let st = xdrop_align(&a, &b, rp, cp, 6, &params());
            assert!(st.r_span.0 <= rp && st.r_span.1 >= rp + 6);
            assert!(st.c_span.0 <= cp && st.c_span.1 >= cp + 6);
            assert!(st.matches <= st.align_len);
        }
    }

    #[test]
    fn xdrop_zero_stops_at_first_drop() {
        let mut p = params();
        p.xdrop = 0;
        let a = encode_seq(b"WWWWAW");
        let b = encode_seq(b"WWWWWW");
        let st = xdrop_align(&a, &b, 0, 0, 4, &p);
        // Extension right hits A/W (−3 < best − 0) and stops immediately,
        // so the final W match is never reached.
        assert_eq!(st.matches, 4);
        // A generous x-drop crosses the mismatch and recovers the last W.
        let st49 = xdrop_align(&a, &b, 0, 0, 4, &AlignParams::default());
        assert_eq!(st49.matches, 5);
    }

    /// `(r_pos, c_pos)` of every 6-mer the two sequences share.
    fn shared_6mers(a: &[u8], b: &[u8]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, wa) in a.windows(6).enumerate() {
            for (j, wb) in b.windows(6).enumerate() {
                if wa == wb {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn assert_transposes(r: &[u8], c: &[u8], rp: u32, cp: u32) {
        let rc = xdrop_align(r, c, rp, cp, 6, &params());
        let cr = xdrop_align(c, r, cp, rp, 6, &params());
        let flipped = AlignStats {
            r_span: cr.c_span,
            c_span: cr.r_span,
            r_len: cr.c_len,
            c_len: cr.r_len,
            ..cr
        };
        assert_eq!(
            rc,
            flipped,
            "seed ({rp}, {cp}), lengths {} x {}",
            r.len(),
            c.len()
        );
    }

    /// Which rank aligns a pair — and so which sequence it sees as the row
    /// — depends on the grid, so swapping the operands must only swap the
    /// two sides of the result. The first pair is `mc1623`/`mc2381` of
    /// `datagen::metaclust_like(3500, seed 1400845388, len (100,300),
    /// related 0.3, mutation 0.12)`: ANI 0.4343 one way round and 0.4247
    /// the other before the kernel put its operands in canonical order.
    #[test]
    fn operand_order_only_swaps_the_sides() {
        use rand::prelude::*;
        let mc1623 = encode_seq(
            b"TDRESLVHVIFSLQVEKTDPDNCQSLRYLSMQNKDGSLVVTMQTRQIPLTINLWGDNRIIIKSTQKSCNEFKSKTNLCMD\
              RCAKQCNMEVTIGGYIVTKYAYGPHSDKSKMMSDRGHFTESHFLEELGSGFERVRPRSSCDDPAEQMQVHLLGSAKWVSI\
              YQSKFTRKEELFPADDYPKNKASQFLQADPWNFSIDIKMHLSSSACLFQGSEYNTEYSPAKLWAQGARILIVSQDVPGTK\
              SPNLLYVLVIDNGDALGAIFVVYEVTRLRSPPMITETCSYIPGYDWDADVEGSL",
        );
        let mc2381 = encode_seq(
            b"TDCHELLHVEFSLHVEDAPNQYCQSLPWTTRNGREQQWVVFHQGSNGIITINLSGDPRIIVKSRIRSPIVFKQRAMLCMD\
              RTAKQCNMRVPQGIYILLRYAYAGTSHDMKVLRENGDDVDNFSLEYLSNGFFEQNGEIRTCKDSAEDDAVGVWINLGSCR\
              RDQSIWSRKQRLSPADDYPPMNESQFIQKDPPYLSIAKRPHHAHWAALFQASEYKTDYKYAKLINQGGPQAVQCQDVPGT\
              ESPNISLFLIITYLKEPGAFSLVCRITRVRSPEYVQETWSYIPQFDFSADLHSSA",
        );
        let seeds = shared_6mers(&mc1623, &mc2381);
        assert!(!seeds.is_empty());
        for (rp, cp) in seeds {
            assert_transposes(&mc1623, &mc2381, rp, cp);
        }

        let mut rng = StdRng::seed_from_u64(0x0a1e);
        for case in 0..600 {
            let m = rng.random_range(30..200);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..20u8)).collect();
            let b: Vec<u8> = if case % 3 == 0 {
                let n = rng.random_range(30..200);
                (0..n).map(|_| rng.random_range(0..20u8)).collect()
            } else {
                mutate(&mut rng, &a, 20, 0.04)
            };
            // Homologs from their shared 6-mers, as the pipeline seeds
            // them; unrelated pairs from an arbitrary position.
            let mut seeds = shared_6mers(&a, &b);
            seeds.truncate(4);
            if seeds.is_empty() {
                seeds.push((
                    rng.random_range(0..a.len() - 5) as u32,
                    rng.random_range(0..b.len() - 5) as u32,
                ));
            }
            for (rp, cp) in seeds {
                assert_transposes(&a, &b, rp, cp);
            }
        }
    }

    #[test]
    fn explicit_scratch_reuse_matches_fresh() {
        // The same arena driven through many differently-shaped extensions
        // must give the same answers as fresh state each time.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(40);
        let mut scratch = crate::AlignScratch::new();
        for _ in 0..25 {
            let m = rng.random_range(8..60);
            let n = rng.random_range(8..60);
            let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..24u8)).collect();
            let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..24u8)).collect();
            let rp = rng.random_range(0..m - 6) as u32;
            let cp = rng.random_range(0..n - 6) as u32;
            let reused = xdrop_align_with(&a, &b, rp, cp, 6, &params(), &mut scratch);
            let fresh = xdrop_align_with(
                &a,
                &b,
                rp,
                cp,
                6,
                &params(),
                &mut crate::AlignScratch::new(),
            );
            assert_eq!(reused, fresh);
        }
    }
}
