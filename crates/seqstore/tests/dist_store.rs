//! Distributed sequence dictionary tests: global numbering, ownership, and
//! the background row/column exchange across grid sizes.

use obs::HeapSize;
use pcomm::{Grid, World};
use seqstore::{decode_seq, parse_fasta, write_fasta, DistSeqStore, FastaRecord};

fn make_fasta(n: usize) -> Vec<u8> {
    // Variable-length records so the byte split is uneven in record count.
    let recs: Vec<FastaRecord> = (0..n)
        .map(|i| {
            let len = 20 + (i * 37) % 180;
            let residues: Vec<u8> = (0..len).map(|j| seqstore::ALPHABET[(i + j) % 20]).collect();
            FastaRecord {
                name: format!("seq{i}"),
                residues,
            }
        })
        .collect();
    write_fasta(&recs)
}

#[test]
fn global_numbering_matches_file_order() {
    let bytes = make_fasta(23);
    let want = parse_fasta(&bytes);
    for p in [1usize, 4, 9] {
        let results = World::run(p, |comm| {
            let store = DistSeqStore::from_fasta(&comm, &bytes);
            assert_eq!(store.len(), 23);
            store
                .owned()
                .iter()
                .map(|s| (s.gid, s.name.clone(), s.data.clone()))
                .collect::<Vec<_>>()
        });
        let mut merged: Vec<_> = results.into_iter().flatten().collect();
        merged.sort_by_key(|&(gid, _, _)| gid);
        assert_eq!(merged.len(), 23, "p={p}");
        for (i, (gid, name, data)) in merged.into_iter().enumerate() {
            assert_eq!(gid, i as u64);
            assert_eq!(name, want[i].name);
            assert_eq!(decode_seq(&data), want[i].residues);
        }
    }
}

#[test]
fn ownership_is_consistent() {
    let bytes = make_fasta(17);
    World::run(4, |comm| {
        let store = DistSeqStore::from_fasta(&comm, &bytes);
        let (lo, hi) = store.owned_range();
        // Every rank agrees on who owns what, and owns what it claims.
        for gid in 0..store.len() {
            let owner = store.owner_of(gid);
            if gid >= lo && gid < hi {
                assert_eq!(owner, comm.rank());
            } else {
                assert_ne!(owner, comm.rank());
            }
        }
    });
}

#[test]
fn exchange_delivers_row_and_col_blocks() {
    let bytes = make_fasta(30);
    let want = parse_fasta(&bytes);
    for p in [1usize, 4, 9] {
        World::run(p, |comm| {
            let grid = Grid::new(&comm);
            let mut store = DistSeqStore::from_fasta(&comm, &bytes);
            let q = grid.q() as u64;
            let n = store.len();
            let row_range = (
                grid.myrow() as u64 * n / q,
                (grid.myrow() as u64 + 1) * n / q,
            );
            let col_range = (
                grid.mycol() as u64 * n / q,
                (grid.mycol() as u64 + 1) * n / q,
            );
            let ex = store.start_exchange(&grid, row_range, col_range);
            // ... matrix work would overlap here ...
            store.finish_exchange(ex);
            for gid in row_range.0..row_range.1 {
                let s = store
                    .row_seq(gid)
                    .unwrap_or_else(|| panic!("rank {} missing row seq {gid}", comm.rank()));
                assert_eq!(decode_seq(&s.data), want[gid as usize].residues);
            }
            for gid in col_range.0..col_range.1 {
                let s = store.col_seq(gid).expect("missing col seq");
                assert_eq!(s.name, want[gid as usize].name);
            }
        });
    }
}

#[test]
fn exchange_with_more_ranks_than_sequences() {
    let bytes = make_fasta(3);
    World::run(9, |comm| {
        let grid = Grid::new(&comm);
        let mut store = DistSeqStore::from_fasta(&comm, &bytes);
        let n = store.len();
        let q = grid.q() as u64;
        let row_range = (
            grid.myrow() as u64 * n / q,
            (grid.myrow() as u64 + 1) * n / q,
        );
        let col_range = (
            grid.mycol() as u64 * n / q,
            (grid.mycol() as u64 + 1) * n / q,
        );
        let ex = store.start_exchange(&grid, row_range, col_range);
        store.finish_exchange(ex);
        for gid in row_range.0..row_range.1 {
            assert!(store.row_seq(gid).is_some());
        }
    });
}

#[test]
fn per_rank_fetch_bounded_by_two_n_over_q() {
    // §V-C: "with a parallelism of p, each process has to store 2n/√p
    // sequences, at the most" — the memory argument for prefetching whole
    // block ranges.
    let bytes = make_fasta(64);
    for p in [1usize, 4, 16] {
        World::run(p, |comm| {
            let grid = Grid::new(&comm);
            let mut store = DistSeqStore::from_fasta(&comm, &bytes);
            let n = store.len();
            let q = grid.q() as u64;
            let row_range = (
                grid.myrow() as u64 * n / q,
                (grid.myrow() as u64 + 1) * n / q,
            );
            let col_range = (
                grid.mycol() as u64 * n / q,
                (grid.mycol() as u64 + 1) * n / q,
            );
            let ex = store.start_exchange(&grid, row_range, col_range);
            let received = store.finish_exchange(ex);
            let bound = (2 * n).div_ceil(q) as usize + 2;
            assert!(
                received <= bound,
                "rank {} received {received} > {bound}",
                comm.rank()
            );
        });
    }
}

#[test]
fn exchange_receives_each_missing_sequence_once() {
    // A rank receives (row block ∪ column block) \ owned, one copy each:
    // nothing at p = 1, a diagonal rank's one range once, and nothing it
    // already owns. At p = 1 the exchange leaves the store as it was.
    let bytes = make_fasta(64);
    for p in [1usize, 4, 9, 16] {
        World::run(p, |comm| {
            let grid = Grid::new(&comm);
            let mut store = DistSeqStore::from_fasta(&comm, &bytes);
            let (n, q) = (store.len(), grid.q() as u64);
            let block = |i: usize| i as u64 * n / q..(i as u64 + 1) * n / q;
            let (rows, cols) = (block(grid.myrow()), block(grid.mycol()));
            let (lo, hi) = store.owned_range();
            let needed = |g: &u64| rows.contains(g) || cols.contains(g);
            let want = (0..n)
                .filter(|g| needed(g) && !(lo..hi).contains(g))
                .count();
            let before = store.heap_bytes();
            let ex = store.start_exchange(&grid, (rows.start, rows.end), (cols.start, cols.end));
            let received = store.finish_exchange(ex);
            assert_eq!(received, want, "p={p} rank {}", comm.rank());
            for g in 0..n {
                let held = needed(&g) || (lo..hi).contains(&g);
                assert_eq!(store.row_seq(g).is_some(), held, "p={p} gid {g}");
                assert_eq!(store.col_seq(g).is_some(), held, "p={p} gid {g}");
            }
            if p == 1 {
                assert_eq!(received, 0);
                assert_eq!(store.heap_bytes(), before);
            }
        });
    }
}

#[test]
fn empty_input_is_fine() {
    World::run(4, |comm| {
        let store = DistSeqStore::from_fasta(&comm, b"");
        assert!(store.is_empty());
        assert_eq!(store.owned().len(), 0);
    });
}
