//! K-mer encoding into the `24^k` id space (paper §V-B).
//!
//! Each base contributes `b·24^i` where `i` is its zero-based position in
//! the k-mer counted from the right, so k-mer ids are the base-24 reading of
//! the k-mer. Only k-mers actually present in sequences are ever
//! materialized; the full space only fixes the column dimension of `A`.

use crate::alphabet::SIGMA;

/// Id of a k-mer given as base indices (each `< 24`), most significant
/// position first — `kmer_id(&[1, 4, 5]) == 1·24² + 4·24 + 5 == 677`.
#[inline]
pub fn kmer_id(bases: &[u8]) -> u64 {
    debug_assert!(bases.len() <= 13, "24^k must fit in u64");
    bases.iter().fold(0u64, |acc, &b| {
        debug_assert!((b as usize) < SIGMA);
        acc * SIGMA as u64 + b as u64
    })
}

/// Inverse of [`kmer_id`]: unpack an id into `k` base indices.
pub fn kmer_unpack(id: u64, k: usize) -> Vec<u8> {
    let mut out = vec![0u8; k];
    kmer_unpack_into(id, &mut out);
    out
}

/// [`kmer_unpack`] into a caller's buffer: `out.len()` is `k`.
#[inline]
pub fn kmer_unpack_into(id: u64, out: &mut [u8]) {
    let mut rest = id;
    for b in out.iter_mut().rev() {
        *b = (rest % SIGMA as u64) as u8;
        rest /= SIGMA as u64;
    }
    debug_assert_eq!(rest, 0, "id {id} does not fit in a {}-mer", out.len());
}

/// ASCII rendering of a k-mer id (for debugging and reports).
pub fn kmer_string(id: u64, k: usize) -> String {
    String::from_utf8(crate::alphabet::decode_seq(&kmer_unpack(id, k))).unwrap()
}

/// Iterator over `(kmer_id, start_position)` of every k-mer of a sequence
/// of base indices. A sequence of length `L` yields `L − k + 1` k-mers
/// (none if `L < k`). The id is maintained with a rolling multiply-mod.
pub struct KmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    pos: usize,
    id: u64,
    modulus: u64,
}

impl<'a> KmerIter<'a> {
    fn new(seq: &'a [u8], k: usize) -> Self {
        assert!((1..=13).contains(&k), "k must be in 1..=13");
        let mut id = 0u64;
        if seq.len() >= k {
            // The first window is completed in next().
            id = (seq[..k - 1].iter()).fold(0, |acc, &b| acc * SIGMA as u64 + b as u64);
        }
        KmerIter {
            seq,
            k,
            pos: 0,
            id,
            modulus: (SIGMA as u64).pow(k as u32 - 1),
        }
    }
}

impl<'a> Iterator for KmerIter<'a> {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        if self.pos + self.k > self.seq.len() {
            return None;
        }
        // Complete the rolling window with the newly entering base.
        let entering = self.seq[self.pos + self.k - 1] as u64;
        self.id = self.id * SIGMA as u64 + entering;
        let result = (self.id, self.pos as u32);
        // Retire the leaving base: what remains is the (k−1)-base prefix of
        // the next window, completed by the next call's entering base.
        let leaving = self.seq[self.pos] as u64;
        self.id -= leaving * self.modulus;
        self.pos += 1;
        Some(result)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.seq.len() + 1).saturating_sub(self.k + self.pos);
        (n, Some(n))
    }
}

/// All `(kmer_id, position)` pairs of `seq` (base indices) for k-mer size `k`.
pub fn kmers_of(seq: &[u8], k: usize) -> KmerIter<'_> {
    KmerIter::new(seq, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_seq;

    #[test]
    fn paper_example_rcq() {
        // §V-B: RCQ → 1·24² + 4·24 + 5 = 677.
        assert_eq!(kmer_id(&encode_seq(b"RCQ")), 677);
    }

    #[test]
    fn unpack_roundtrip() {
        for id in [0u64, 677, 24u64.pow(3) - 1, 123_456] {
            assert_eq!(kmer_id(&kmer_unpack(id, 4)), id);
        }
        assert_eq!(kmer_string(677, 3), "RCQ");
    }

    #[test]
    fn iterator_matches_direct_encoding() {
        let seq = encode_seq(b"AVGDMIAVG");
        for k in 1..=6 {
            let got: Vec<(u64, u32)> = kmers_of(&seq, k).collect();
            let want: Vec<(u64, u32)> = (0..=seq.len() - k)
                .map(|i| (kmer_id(&seq[i..i + k]), i as u32))
                .collect();
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn short_sequence_yields_nothing() {
        let seq = encode_seq(b"AV");
        assert_eq!(kmers_of(&seq, 3).count(), 0);
    }

    #[test]
    fn exact_length_yields_one() {
        let seq = encode_seq(b"AVG");
        let got: Vec<_> = kmers_of(&seq, 3).collect();
        assert_eq!(got, vec![(kmer_id(&seq), 0)]);
    }

    #[test]
    fn size_hint_is_exact() {
        let seq = encode_seq(b"AVGDMIAVG");
        let mut it = kmers_of(&seq, 3);
        assert_eq!(it.size_hint(), (7, Some(7)));
        it.next();
        assert_eq!(it.size_hint(), (6, Some(6)));
    }
}
