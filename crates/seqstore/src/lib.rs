//! `seqstore` — protein sequences as data: the 24-letter amino acid
//! alphabet, k-mer encoding into the `24^k` id space (paper §V-B), FASTA
//! parsing with byte-balanced parallel partitioning (paper §V-A, Fig. 8),
//! and the fully distributed sequence dictionary with background remote
//! sequence exchange (paper §V-C, Figs. 9–10).

mod alphabet;
mod fasta;
mod kmer;
mod reduced;
mod store;

pub use alphabet::{aa_index, aa_letter, decode_seq, encode_seq, ALPHABET, SIGMA};
pub use fasta::{fasta_names, parse_fasta, partition_fasta, write_fasta, FastaRecord};
pub use kmer::{kmer_id, kmer_string, kmer_unpack, kmer_unpack_into, kmers_of, KmerIter};
pub use reduced::{kmers_of_reduced, murphy10, reduce_murphy10, MURPHY10_GROUPS};
pub use store::{DistSeqStore, SeqExchange, SeqRecord};
