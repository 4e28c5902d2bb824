//! Correctness checker for a protein-similarity-graph TSV as the `pastis`
//! binary writes it, and the formatter that renders the replay's edge set
//! the same way so the two can be compared byte for byte.

use std::fmt::Write as _;

use pastis::AlignMode;

/// What a PSG that passed the checker contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsgSummary {
    pub edges: u64,
    /// FNV-1a (64-bit) of the file's bytes.
    pub fnv: u64,
}

/// Index of a `datagen::metaclust_like` record name (`mc<i>`), if it is
/// one of the `n_seqs` names in the dataset.
fn seq_index(name: &str, n_seqs: u64) -> Option<u64> {
    let digits = name.strip_prefix("mc")?;
    if digits.is_empty() || (digits.len() > 1 && digits.starts_with('0')) {
        return None;
    }
    digits.parse::<u64>().ok().filter(|&i| i < n_seqs)
}

/// Check every line is `name<TAB>name<TAB>weight` with known names, `i<j`,
/// pairs strictly ascending (the binary writes sorted, so ascending order
/// is also "no duplicate pair"), and the weight in range for the mode:
/// an ANI in `[min_ani, 1]` when pairs are aligned, a shared-k-mer count
/// ≥ 1 when they are not.
pub fn check_psg(
    bytes: &[u8],
    n_seqs: u64,
    mode: AlignMode,
    min_ani: f64,
) -> Result<PsgSummary, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("PSG is not UTF-8: {e}"))?;
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("PSG does not end in a newline (truncated write?)".into());
    }
    let mut prev: Option<(u64, u64)> = None;
    let mut edges = 0u64;
    for (ln, line) in text.lines().enumerate() {
        let at = |msg: String| format!("PSG line {}: {msg}: {line:?}", ln + 1);
        let mut cols = line.split('\t');
        let (Some(a), Some(b), Some(w), None) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            return Err(at("expected 3 tab-separated columns".into()));
        };
        let i = seq_index(a, n_seqs).ok_or_else(|| at(format!("unknown name {a:?}")))?;
        let j = seq_index(b, n_seqs).ok_or_else(|| at(format!("unknown name {b:?}")))?;
        if i >= j {
            return Err(at("pair is not i<j".into()));
        }
        if prev.is_some_and(|p| p >= (i, j)) {
            return Err(at("pair out of order or duplicated".into()));
        }
        prev = Some((i, j));
        let weight: f64 = w.parse().map_err(|_| at("weight is not a number".into()))?;
        let in_range = match mode {
            AlignMode::None => weight >= 1.0 && weight.fract() == 0.0,
            // Weights are printed to 4 decimals, so a weight at the cut-off
            // may round half a unit in the last place below it.
            _ => weight >= min_ani - 5e-5 && weight <= 1.0,
        };
        if !in_range {
            return Err(at("weight out of range for the mode".into()));
        }
        edges += 1;
    }
    Ok(PsgSummary {
        edges,
        fnv: pastis::ckpt::fnv1a(bytes),
    })
}

/// Render `(i, j, weight)` edges exactly as the binary does: sorted, names
/// `mc<i>`, weight to 4 decimals.
pub fn format_psg(mut edges: Vec<(u64, u64, f64)>) -> Vec<u8> {
    edges.sort_by(|a, b| a.partial_cmp(b).expect("weights are never NaN"));
    let mut out = String::with_capacity(edges.len() * 24);
    for (i, j, w) in edges {
        writeln!(out, "mc{i}\tmc{j}\t{w:.4}").expect("writing to a String cannot fail");
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(s: &str, mode: AlignMode) -> Result<PsgSummary, String> {
        check_psg(s.as_bytes(), 10, mode, 0.30)
    }

    #[test]
    fn accepts_what_the_formatter_writes() {
        let bytes = format_psg(vec![(2, 5, 0.91), (0, 1, 0.3), (0, 9, 1.0)]);
        assert_eq!(
            bytes,
            b"mc0\tmc1\t0.3000\nmc0\tmc9\t1.0000\nmc2\tmc5\t0.9100\n"
        );
        let got = check_psg(&bytes, 10, AlignMode::XDrop, 0.30).unwrap();
        assert_eq!(got.edges, 3);
        assert_eq!(got.fnv, pastis::ckpt::fnv1a(&bytes));
        assert_eq!(check("", AlignMode::XDrop).unwrap().edges, 0);
    }

    #[test]
    fn rejects_malformed_graphs() {
        for (bad, why) in [
            ("mc0\tmc1\n", "two columns"),
            ("mc0\tmc1\t0.5\tx\n", "four columns"),
            ("mc0\tmc10\t0.5\n", "name past the dataset"),
            ("mc0\tfoo\t0.5\n", "foreign name"),
            ("mc0\tmc01\t0.5\n", "non-canonical name"),
            ("mc3\tmc3\t0.5\n", "self pair"),
            ("mc4\tmc3\t0.5\n", "i>j"),
            ("mc0\tmc1\t0.5\nmc0\tmc1\t0.5\n", "duplicate"),
            ("mc0\tmc2\t0.5\nmc0\tmc1\t0.5\n", "unsorted"),
            ("mc0\tmc1\t0.2000\n", "ANI under the cut-off"),
            ("mc0\tmc1\t1.5\n", "ANI over 1"),
            ("mc0\tmc1\tnan\n", "NaN"),
            ("mc0\tmc1\t0.5", "no trailing newline"),
        ] {
            assert!(check(bad, AlignMode::XDrop).is_err(), "{why}");
        }
        // Alignment-free weights are shared-k-mer counts.
        assert!(check("mc0\tmc1\t3.0000\n", AlignMode::None).is_ok());
        assert!(check("mc0\tmc1\t0.5000\n", AlignMode::None).is_err());
    }
}
