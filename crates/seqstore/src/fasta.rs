//! FASTA parsing and the byte-balanced parallel partitioning of paper §V-A.
//!
//! Every rank is assigned an equal share of the file's *bytes* (not an equal
//! number of sequences — that is what balances parse time, Fig. 8). A rank
//! parses exactly the records whose header `>` byte falls inside its chunk,
//! reading past the chunk end as needed to finish the last record; records
//! whose header lies before the chunk start are skipped even if their body
//! spills into it. Every byte of the file is thus parsed exactly once.

/// A parsed FASTA record: identifier line (without `>`) and residue bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header text up to the first whitespace.
    pub name: String,
    /// Raw residue letters with whitespace stripped (ASCII, not encoded).
    pub residues: Vec<u8>,
}

/// Parse a whole FASTA buffer.
pub fn parse_fasta(bytes: &[u8]) -> Vec<FastaRecord> {
    parse_from(bytes, first_header(bytes, 0), bytes.len())
}

/// The names of a whole FASTA buffer's records, in file order, read from
/// the header lines alone: no residue is parsed or copied.
pub fn fasta_names(bytes: &[u8]) -> impl Iterator<Item = String> + '_ {
    // A `>` only opens a record at the start of a line.
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| line.strip_prefix(b">"))
        .map(header_name)
}

/// A record's name: its header text (after the `>`) up to the first
/// whitespace.
fn header_name(header: &[u8]) -> String {
    let end = header
        .iter()
        .position(|b| b.is_ascii_whitespace())
        .unwrap_or(header.len());
    String::from_utf8_lossy(&header[..end]).into_owned()
}

/// Serialize records to FASTA with 80-column wrapping.
pub fn write_fasta(records: &[FastaRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.push(b'>');
        out.extend_from_slice(r.name.as_bytes());
        out.push(b'\n');
        for chunk in r.residues.chunks(80) {
            out.extend_from_slice(chunk);
            out.push(b'\n');
        }
    }
    out
}

/// Offset of the first `>` at or after `from`, or `bytes.len()`.
fn first_header(bytes: &[u8], from: usize) -> usize {
    // A `>` only opens a record at the start of a line.
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] == b'>' && (i == 0 || bytes[i - 1] == b'\n') {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

/// Parse records whose header byte lies in `[start, limit)`, reading past
/// `limit` to complete the final record.
fn parse_from(bytes: &[u8], start: usize, limit: usize) -> Vec<FastaRecord> {
    // Work accounting: one unit per byte scanned by this rank.
    pcomm::work::record_class(
        limit.saturating_sub(start) as u64,
        pcomm::work::CostClass::FastaByte,
    );
    let mut out = Vec::new();
    let mut i = start;
    while i < limit && i < bytes.len() {
        debug_assert_eq!(bytes[i], b'>');
        let line_end = bytes[i..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |o| i + o);
        let name = header_name(&bytes[i + 1..line_end]);
        let mut residues = Vec::new();
        let mut j = (line_end + 1).min(bytes.len());
        let body_end = first_header(bytes, j);
        while j < body_end {
            let b = bytes[j];
            if !b.is_ascii_whitespace() {
                residues.push(b);
            }
            j += 1;
        }
        out.push(FastaRecord { name, residues });
        i = body_end;
    }
    out
}

/// The records of rank `rank` of `p` under byte-balanced partitioning.
///
/// Deterministic: the union over all ranks is exactly `parse_fasta(bytes)`
/// in file order, with no duplicates (property-tested).
pub fn partition_fasta(bytes: &[u8], rank: usize, p: usize) -> Vec<FastaRecord> {
    assert!(rank < p);
    let chunk_start = rank * bytes.len() / p;
    let chunk_end = (rank + 1) * bytes.len() / p;
    let start = first_header(bytes, chunk_start);
    if start >= chunk_end {
        return Vec::new();
    }
    parse_from(bytes, start, chunk_end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        write_fasta(&[
            FastaRecord {
                name: "s0".into(),
                residues: b"ARNDCQEGH".to_vec(),
            },
            FastaRecord {
                name: "s1".into(),
                residues: b"MKLV".to_vec(),
            },
            FastaRecord {
                name: "s2".into(),
                residues: vec![b'W'; 200],
            },
            FastaRecord {
                name: "s3".into(),
                residues: b"AAAA".to_vec(),
            },
        ])
    }

    #[test]
    fn roundtrip() {
        let recs = parse_fasta(&sample());
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].name, "s0");
        assert_eq!(recs[0].residues, b"ARNDCQEGH");
        assert_eq!(recs[2].residues.len(), 200);
    }

    #[test]
    fn wrapping_is_stripped() {
        let recs = parse_fasta(&sample());
        assert!(recs[2].residues.iter().all(|&b| b == b'W'));
    }

    #[test]
    fn header_with_description() {
        let recs = parse_fasta(b">id1 some description here\nACDEF\n");
        assert_eq!(recs[0].name, "id1");
        assert_eq!(recs[0].residues, b"ACDEF");
    }

    #[test]
    fn missing_trailing_newline() {
        let recs = parse_fasta(b">a\nAC\n>b\nDE");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].residues, b"DE");
    }

    #[test]
    fn gt_inside_header_text_is_not_a_record() {
        let recs = parse_fasta(b">a x>y\nAC\n");
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn partition_covers_exactly_once() {
        let bytes = sample();
        let all = parse_fasta(&bytes);
        for p in [1usize, 2, 3, 4, 7, 16] {
            let mut merged = Vec::new();
            for r in 0..p {
                merged.extend(partition_fasta(&bytes, r, p));
            }
            assert_eq!(merged, all, "p={p}");
        }
    }

    #[test]
    fn partition_of_empty_input() {
        for r in 0..3 {
            assert!(partition_fasta(b"", r, 3).is_empty());
        }
    }

    #[test]
    fn more_ranks_than_records() {
        let bytes = write_fasta(&[FastaRecord {
            name: "only".into(),
            residues: b"ACD".to_vec(),
        }]);
        let mut merged = Vec::new();
        for r in 0..8 {
            merged.extend(partition_fasta(&bytes, r, 8));
        }
        assert_eq!(merged.len(), 1);
    }
}
