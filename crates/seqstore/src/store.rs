//! The fully distributed sequence dictionary (paper §V-A, §V-C).
//!
//! After the byte-balanced FASTA read, each rank owns a contiguous run of
//! globally numbered sequences (numbering via an exclusive prefix scan of
//! per-rank counts). The 2D-distributed overlap matrix `B` then requires
//! rank `(r, c)` to align pairs whose row sequence lies in row block `r` and
//! whose column sequence lies in column block `c` — sequences it generally
//! does not own. Rather than waiting for `B` to know exactly which are
//! needed, PASTIS requests the *full ranges* up front (at most `2n/√p`
//! sequences per rank) and overlaps the transfers with seed discovery and
//! SpGEMM; a `waitall` after `B` is computed fences the exchange.

use std::collections::BTreeMap;

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
/// exchange completes, the row-block and column-block sequence ranges this
/// rank needs for alignment.
pub struct DistSeqStore {
    /// Total sequence count across all ranks.
    n_global: u64,
    /// Global id of my first parsed sequence.
    owned_start: u64,
    /// My parsed sequences, contiguous gids from `owned_start`.
    owned: Vec<SeqRecord>,
    /// Per-rank owned intervals `[start, end)`, indexed by world rank.
    intervals: Vec<(u64, u64)>,
    /// Sequences covering my row block (filled by the exchange).
    row_seqs: BTreeMap<u64, SeqRecord>,
    /// Sequences covering my column block (filled by the exchange).
    col_seqs: BTreeMap<u64, SeqRecord>,
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
            row_seqs: BTreeMap::new(),
            col_seqs: BTreeMap::new(),
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

    /// Split the gid range `[lo, hi)` by owning rank.
    fn owners_of_range(&self, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        for (rank, &(s, e)) in self.intervals.iter().enumerate() {
            let a = s.max(lo);
            let b = e.min(hi);
            if a < b {
                out.push((rank, a, b));
            }
        }
        out
    }

    /// Collective: start the background exchange that delivers the sequences
    /// of my grid row block and column block (paper Figs. 9–10). Sends are
    /// issued immediately; receives are posted and resolved by
    /// [`DistSeqStore::finish_exchange`] — call it only after the overlap matrix is
    /// computed to reproduce the paper's communication/computation overlap.
    ///
    /// `row_range`/`col_range` are the global id ranges of my block of `B`.
    pub fn start_exchange(
        &self,
        grid: &Grid,
        row_range: (u64, u64),
        col_range: (u64, u64),
    ) -> SeqExchange {
        let comm = grid.world();
        let q = grid.q();
        // Who needs my sequences? Every rank whose row or column range
        // overlaps my owned interval. Compute destinations by symmetry: rank
        // (r, c) needs rows of block r and cols of block c over n.
        let (my_lo, my_hi) = self.owned_range();
        for dst in 0..comm.size() {
            let (dr, dc) = (dst / q, dst % q);
            let need_rows = block_range(self.n_global, q, dr);
            let need_cols = block_range(self.n_global, q, dc);
            for (which, (lo, hi)) in [(0u64, need_rows), (1u64, need_cols)] {
                let a = lo.max(my_lo);
                let b = hi.min(my_hi);
                // Send even when empty so the receiver can post matching
                // receives without a handshake... empty overlaps are skipped
                // on both sides instead (both sides derive them identically).
                if a < b {
                    let batch: Vec<SeqRecord> =
                        self.owned[(a - my_lo) as usize..(b - my_lo) as usize].to_vec();
                    comm.isend(dst, SEQ_XCHG_TAG + which, batch);
                }
            }
        }
        // Post receives for my own needs.
        let mut pending = Vec::new();
        for (which, (lo, hi)) in [(0u64, row_range), (1u64, col_range)] {
            for (src, a, b) in self.owners_of_range(lo, hi) {
                debug_assert!(a < b);
                let fut = comm.irecv::<Vec<SeqRecord>>(src, SEQ_XCHG_TAG + which);
                pending.push(fut);
            }
        }
        SeqExchange { pending }
    }

    /// Resolve the exchange (the `MPI_Waitall` fence) and install the
    /// received row/column sequences. Returns the number received.
    pub fn finish_exchange(&mut self, ex: SeqExchange) -> usize {
        let mut n = 0;
        for fut in ex.pending {
            let batch = fut.wait();
            n += batch.len();
            for s in batch {
                // Row and column requests may overlap (diagonal blocks);
                // keep both maps complete.
                self.insert_fetched(s);
            }
        }
        obs::alloc::probe("mem.watermark.seqstore.store", self);
        n
    }

    fn insert_fetched(&mut self, s: SeqRecord) {
        // A record can serve both roles; store by gid in both maps lazily:
        // the maps are views, membership is decided at lookup time, so just
        // keep one copy in each map when in range of the respective block.
        self.row_seqs.insert(s.gid, s.clone());
        self.col_seqs.insert(s.gid, s);
    }

    /// A sequence fetched for my row block (or owned locally).
    pub fn row_seq(&self, gid: u64) -> Option<&SeqRecord> {
        self.row_seqs.get(&gid).or_else(|| self.owned_lookup(gid))
    }

    /// A sequence fetched for my column block (or owned locally).
    pub fn col_seq(&self, gid: u64) -> Option<&SeqRecord> {
        self.col_seqs.get(&gid).or_else(|| self.owned_lookup(gid))
    }

    fn owned_lookup(&self, gid: u64) -> Option<&SeqRecord> {
        let (lo, hi) = self.owned_range();
        (gid >= lo && gid < hi).then(|| &self.owned[(gid - lo) as usize])
    }
}

impl HeapSize for DistSeqStore {
    fn heap_bytes(&self) -> usize {
        // The store is the watermarked structure `seqstore.store`: owned
        // sequences (~n/p of the input) plus the fetched row/column block
        // views (~2n/√p), which dominate at scale.
        let fetched = |m: &BTreeMap<u64, SeqRecord>| {
            m.values()
                .map(|s| {
                    8 + std::mem::size_of::<SeqRecord>()
                        + obs::alloc::BTREE_ENTRY_OVERHEAD
                        + s.heap_bytes()
                })
                .sum::<usize>()
        };
        self.owned.capacity() * std::mem::size_of::<SeqRecord>()
            + self.owned.iter().map(HeapSize::heap_bytes).sum::<usize>()
            + self.intervals.heap_bytes()
            + fetched(&self.row_seqs)
            + fetched(&self.col_seqs)
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
