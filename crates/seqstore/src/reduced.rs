//! Reduced amino acid alphabets for higher-sensitivity seeding.
//!
//! DIAMOND (paper §III) owes part of its sensitivity to seeding in a
//! *reduced* alphabet: grouping exchangeable residues makes diverged
//! homologs share seeds they would not share letter-for-letter. The
//! classic Murphy 10-group reduction is provided here; reduced sequences
//! reuse the ordinary k-mer machinery (group indexes are a subset of the
//! 24-letter base space, so ids stay well-formed, just sparser).

use crate::kmer::KmerIter;

/// Murphy et al. (2000) 10-group reduction:
/// `{LVIM} {C} {A} {G} {ST} {P} {FYW} {EDNQ} {KR} {H}`.
/// The ambiguity codes map with their groups (B, Z → the EDNQ group);
/// X and `*` keep their own groups (10, 11) so unknowns never seed-match
/// real residues.
#[rustfmt::skip]
const MURPHY10: [u8; 24] = [
    // A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V  B  Z  X  *
       2, 8, 7, 7, 1, 7, 7, 3, 9, 0, 0, 8, 0, 6, 5, 4, 4, 6, 6, 0, 7, 7, 10, 11,
];

/// [`MURPHY10`] as a [`KmerIter`] base map.
static MURPHY10_MAP: [u8; 256] = {
    let mut map = [0u8; 256];
    let mut b = 0;
    while b < MURPHY10.len() {
        map[b] = MURPHY10[b];
        b += 1;
    }
    map
};

/// Number of distinct groups (including the X and `*` singletons).
pub const MURPHY10_GROUPS: usize = 12;

/// Map one base index (0..24) to its Murphy-10 group index.
#[inline]
pub fn murphy10(base: u8) -> u8 {
    MURPHY10[base as usize]
}

/// Reduce a whole encoded sequence to group indexes.
pub fn reduce_murphy10(seq: &[u8]) -> Vec<u8> {
    seq.iter().map(|&b| murphy10(b)).collect()
}

/// The k-mers of `seq` reduced to Murphy-10 groups: [`kmers_of`](crate::kmers_of) of
/// [`reduce_murphy10`]`(seq)`, without the reduced copy.
pub fn kmers_of_reduced(seq: &[u8], k: usize) -> KmerIter<'_> {
    KmerIter::mapped(seq, k, &MURPHY10_MAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::aa_index;
    use crate::kmer::kmers_of;

    fn g(c: u8) -> u8 {
        murphy10(aa_index(c).unwrap())
    }

    #[test]
    fn groups_match_murphy_definition() {
        // {LVIM}
        assert_eq!(g(b'L'), g(b'V'));
        assert_eq!(g(b'V'), g(b'I'));
        assert_eq!(g(b'I'), g(b'M'));
        // {ST}
        assert_eq!(g(b'S'), g(b'T'));
        // {FYW}
        assert_eq!(g(b'F'), g(b'Y'));
        assert_eq!(g(b'Y'), g(b'W'));
        // {EDNQ}
        assert_eq!(g(b'E'), g(b'D'));
        assert_eq!(g(b'D'), g(b'N'));
        assert_eq!(g(b'N'), g(b'Q'));
        // {KR}
        assert_eq!(g(b'K'), g(b'R'));
        // Singletons differ from everything else.
        for other in b"ARNDQEGILKMFSTWYV" {
            assert_ne!(g(b'C'), g(*other), "{}", *other as char);
        }
        assert_ne!(g(b'G'), g(b'A'));
        assert_ne!(g(b'P'), g(b'A'));
        assert_ne!(g(b'H'), g(b'K'));
    }

    #[test]
    fn twelve_groups_exactly() {
        let mut seen: Vec<u8> = MURPHY10.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), MURPHY10_GROUPS);
        assert_eq!(*seen.last().unwrap() as usize, MURPHY10_GROUPS - 1);
    }

    #[test]
    fn ambiguity_codes() {
        assert_eq!(g(b'B'), g(b'D'));
        assert_eq!(g(b'Z'), g(b'E'));
        assert_ne!(g(b'X'), g(b'A'));
        assert_ne!(g(b'*'), g(b'X'));
    }

    #[test]
    fn reduced_kmers_are_the_kmers_of_the_reduced_sequence() {
        let seq = crate::alphabet::encode_seq(b"MKVLAWHERTYBZX*CGP");
        let red = reduce_murphy10(&seq);
        for k in 1..=6 {
            let got: Vec<(u64, u32)> = kmers_of_reduced(&seq, k).collect();
            assert_eq!(got, kmers_of(&red, k).collect::<Vec<_>>(), "k={k}");
        }
        assert_eq!(kmers_of_reduced(&seq[..2], 3).count(), 0);
    }

    #[test]
    fn reduction_preserves_length() {
        let seq = crate::alphabet::encode_seq(b"MKVLAWHERTY");
        let red = reduce_murphy10(&seq);
        assert_eq!(red.len(), seq.len());
        assert!(red.iter().all(|&x| (x as usize) < MURPHY10_GROUPS));
    }

    #[test]
    fn diverged_homologs_share_reduced_kmers() {
        // I→V, S→T, E→D substitutions disappear under reduction.
        let a = crate::alphabet::encode_seq(b"MIVSEKKH");
        let b = crate::alphabet::encode_seq(b"MVITDKRH");
        assert_ne!(a, b);
        assert_eq!(reduce_murphy10(&a), reduce_murphy10(&b));
    }
}
