//! The fully distributed sequence dictionary (paper §V-A, §V-C).
//!
//! After the byte-balanced FASTA read, each rank owns a contiguous run of
//! globally numbered sequences (numbering via an exclusive prefix scan of
//! per-rank counts). The 2D-distributed overlap matrix `B` then requires
//! rank `(r, c)` to align pairs whose row sequence lies in row block `r` and
//! whose column sequence lies in column block `c` — sequences it generally
//! does not own. Rather than waiting for `B` to know exactly which are
//! needed, PASTIS requests the *full ranges* up front and overlaps the
//! transfers with seed discovery and SpGEMM; a `waitall` after `B` is
//! computed fences the exchange.
//!
//! A rank receives its row block ∪ column block less what it owns, one copy
//! of each sequence: at most `2n/√p` sequences, `n/√p` on a diagonal rank
//! (whose two blocks are one range), and none at p = 1.

use obs::HeapSize;
use pcomm::{Comm, Grid, Payload, RecvFuture};

use crate::fasta::{partition_fasta, FastaRecord};

/// A sequence with its global id and encoded residues (base indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqRecord {
    /// Global sequence id (row/column index in `A` and `B`).
    pub gid: u64,
    /// FASTA identifier.
    pub name: String,
    /// Residues as base indices (0..24).
    pub data: Vec<u8>,
}

impl Payload for SeqRecord {
    fn payload_bytes(&self) -> usize {
        8 + self.name.len() + self.data.len()
    }
}

impl HeapSize for SeqRecord {
    fn heap_bytes(&self) -> usize {
        self.name.capacity() + self.data.capacity()
    }
}

/// Reserved tag space for the sequence exchange.
const SEQ_XCHG_TAG: u64 = (1 << 29) + 11;

/// The distributed dictionary: locally parsed sequences plus, after the
/// exchange completes, the sequences of this rank's row and column blocks
/// that it does not own, each held once.
pub struct DistSeqStore {
    /// Total sequence count across all ranks.
    n_global: u64,
    /// Global id of my first parsed sequence.
    owned_start: u64,
    /// My parsed sequences, contiguous gids from `owned_start`.
    owned: Vec<SeqRecord>,
    /// Per-rank owned intervals `[start, end)`, indexed by world rank.
    intervals: Vec<(u64, u64)>,
    /// Received runs of contiguous gids, disjoint from each other and from
    /// `owned`, sorted by first gid (filled by the exchange).
    fetched: Vec<Vec<SeqRecord>>,
}

/// In-flight sequence exchange; resolve with [`DistSeqStore::finish_exchange`].
pub struct SeqExchange {
    pending: Vec<RecvFuture<Vec<SeqRecord>>>,
}

impl DistSeqStore {
    /// Collective: parse my byte-balanced chunk of `fasta_bytes`, then number
    /// sequences globally with an exclusive scan and allgather the ownership
    /// intervals. Residues are encoded to base indices.
    pub fn from_fasta(comm: &Comm, fasta_bytes: &[u8]) -> DistSeqStore {
        let records = partition_fasta(fasta_bytes, comm.rank(), comm.size());
        Self::from_records(comm, records)
    }

    /// Collective: build from already-parsed per-rank records (rank order =
    /// global order).
    pub fn from_records(comm: &Comm, records: Vec<FastaRecord>) -> DistSeqStore {
        let mine = records.len() as u64;
        let owned_start = comm.exscan(mine, |a, b| a + b).unwrap_or(0);
        let owned: Vec<SeqRecord> = records
            .into_iter()
            .enumerate()
            .map(|(i, r)| SeqRecord {
                gid: owned_start + i as u64,
                name: r.name,
                data: crate::alphabet::encode_seq(&r.residues),
            })
            .collect();
        let ends = comm.allgather(owned_start + mine);
        let mut intervals = Vec::with_capacity(comm.size());
        let mut prev = 0u64;
        for &e in &ends {
            intervals.push((prev, e));
            prev = e;
        }
        let n_global = prev;
        let store = DistSeqStore {
            n_global,
            owned_start,
            owned,
            intervals,
            fetched: Vec::new(),
        };
        obs::alloc::probe("mem.watermark.seqstore.store", &store);
        store
    }

    /// Total number of sequences.
    #[inline]
    pub fn len(&self) -> u64 {
        self.n_global
    }

    /// True if the global set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_global == 0
    }

    /// My parsed sequences (contiguous global ids).
    #[inline]
    pub fn owned(&self) -> &[SeqRecord] {
        &self.owned
    }

    /// Global id range `[start, end)` of my parsed sequences.
    #[inline]
    pub fn owned_range(&self) -> (u64, u64) {
        (self.owned_start, self.owned_start + self.owned.len() as u64)
    }

    /// Which rank owns global sequence `gid`.
    pub fn owner_of(&self, gid: u64) -> usize {
        debug_assert!(gid < self.n_global);
        // Intervals are contiguous and ascending; the last interval whose
        // start is ≤ gid is the (unique, non-empty) one containing it.
        self.intervals.partition_point(|&(s, _)| s <= gid) - 1
    }

    /// The ranks other than `me` that own part of the gid range `[lo, hi)`.
    fn other_owners_of(&self, me: usize, lo: u64, hi: u64) -> impl Iterator<Item = usize> + '_ {
        let intervals = self.intervals.iter().enumerate();
        intervals
            .filter(move |&(r, &(s, e))| r != me && s.max(lo) < e.min(hi))
            .map(|(r, _)| r)
    }

    /// Collective: start the background exchange that delivers the sequences
    /// of my grid row block and column block (paper Figs. 9–10). Sends are
    /// issued immediately; receives are posted and resolved by
    /// [`DistSeqStore::finish_exchange`] — call it only after the overlap matrix is
    /// computed to reproduce the paper's communication/computation overlap.
    ///
    /// `row_range`/`col_range` are the global id ranges of my block of `B`.
    /// No rank sends to itself, and a rank whose row block is its column
    /// block gets that range once; sender and receiver derive both rules
    /// alike, so no handshake is needed.
    pub fn start_exchange(
        &self,
        grid: &Grid,
        row_range: (u64, u64),
        col_range: (u64, u64),
    ) -> SeqExchange {
        let comm = grid.world();
        let (me, q) = (comm.rank(), grid.q());
        // Rank (r, c) needs the rows of block r and the columns of block c;
        // send it my part of each, skipping empty overlaps (the receiver
        // skips them too).
        let (my_lo, my_hi) = self.owned_range();
        for dst in (0..comm.size()).filter(|&d| d != me) {
            let need_rows = block_range(self.n_global, q, dst / q);
            let need_cols = block_range(self.n_global, q, dst % q);
            for (which, (lo, hi)) in needs(need_rows, need_cols) {
                let (a, b) = (lo.max(my_lo), hi.min(my_hi));
                if a < b {
                    let batch = self.owned[(a - my_lo) as usize..(b - my_lo) as usize].to_vec();
                    comm.isend(dst, SEQ_XCHG_TAG + which, batch);
                }
            }
        }
        // Post receives for my own needs.
        let mut pending = Vec::new();
        for (which, (lo, hi)) in needs(row_range, col_range) {
            for src in self.other_owners_of(me, lo, hi) {
                pending.push(comm.irecv::<Vec<SeqRecord>>(src, SEQ_XCHG_TAG + which));
            }
        }
        SeqExchange { pending }
    }

    /// Resolve the exchange (the `MPI_Waitall` fence) and keep the received
    /// runs. Returns the number of sequences received.
    pub fn finish_exchange(&mut self, ex: SeqExchange) -> usize {
        self.fetched = ex.pending.into_iter().map(|fut| fut.wait()).collect();
        self.fetched.sort_unstable_by_key(|run| run[0].gid);
        obs::alloc::probe("mem.watermark.seqstore.store", self);
        self.fetched.iter().map(Vec::len).sum()
    }

    /// A sequence of my row block (fetched or owned).
    pub fn row_seq(&self, gid: u64) -> Option<&SeqRecord> {
        self.lookup(gid)
    }

    /// A sequence of my column block (fetched or owned).
    pub fn col_seq(&self, gid: u64) -> Option<&SeqRecord> {
        self.lookup(gid)
    }

    fn lookup(&self, gid: u64) -> Option<&SeqRecord> {
        let i = self.fetched.partition_point(|run| run[0].gid <= gid);
        let fetched = i.checked_sub(1).and_then(|i| in_run(&self.fetched[i], gid));
        fetched.or_else(|| in_run(&self.owned, gid))
    }
}

/// Sequence `gid` of `run`, a run of contiguous gids.
fn in_run(run: &[SeqRecord], gid: u64) -> Option<&SeqRecord> {
    run.get(gid.checked_sub(run.first()?.gid)? as usize)
}

/// The tagged ranges a rank with these row and column blocks receives: a
/// range shared by both roles (a diagonal block) is received once.
fn needs(rows: (u64, u64), cols: (u64, u64)) -> impl Iterator<Item = (u64, (u64, u64))> {
    [(0, rows), (1, cols)]
        .into_iter()
        .take(if rows == cols { 1 } else { 2 })
}

impl HeapSize for DistSeqStore {
    fn heap_bytes(&self) -> usize {
        // The store is the watermarked structure `seqstore.store`: owned
        // sequences (~n/p of the input) plus the fetched runs (at most
        // ~2n/√p), which dominate at scale.
        let records =
            |v: &Vec<SeqRecord>| v.heap_bytes() + v.iter().map(HeapSize::heap_bytes).sum::<usize>();
        records(&self.owned)
            + self.intervals.heap_bytes()
            + self.fetched.heap_bytes()
            + self.fetched.iter().map(records).sum::<usize>()
    }
}

/// Same even block split used by the distributed matrices.
#[inline]
fn block_range(n: u64, q: usize, i: usize) -> (u64, u64) {
    let (q, i) = (q as u64, i as u64);
    (i * n / q, (i + 1) * n / q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_matches_sparse_layout() {
        // Keep in lock-step with sparse::dist::block_range.
        assert_eq!(block_range(10, 3, 0), (0, 3));
        assert_eq!(block_range(10, 3, 1), (3, 6));
        assert_eq!(block_range(10, 3, 2), (6, 10));
    }

    #[test]
    fn seq_record_payload_size() {
        let s = SeqRecord {
            gid: 1,
            name: "ab".into(),
            data: vec![0, 1, 2],
        };
        assert_eq!(s.payload_bytes(), 8 + 2 + 3);
    }
}
