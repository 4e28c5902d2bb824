//! COO triples shared by the matrix builders.

/// A coordinate-format nonzero with global indices.
pub type Triple<V> = (u64, u64, V);
