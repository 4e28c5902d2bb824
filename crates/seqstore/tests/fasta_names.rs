//! `fasta_names` reads the same names as `parse_fasta`, from the header
//! lines alone.

use datagen::{metaclust_like, scope_like, MetaclustConfig, ScopeConfig};
use seqstore::{fasta_names, parse_fasta, write_fasta};

fn parsed_names(bytes: &[u8]) -> Vec<String> {
    parse_fasta(bytes).into_iter().map(|r| r.name).collect()
}

#[test]
fn names_equal_parsed_names_on_generated_inputs() {
    for seed in [7, 26, 1400845388] {
        let cfg = MetaclustConfig {
            seed,
            len_range: (100, 300),
            ..Default::default()
        };
        let mc = write_fasta(&metaclust_like(300, &cfg));
        let scope = write_fasta(
            &scope_like(&ScopeConfig {
                seed,
                ..Default::default()
            })
            .records,
        );
        for bytes in [mc, scope] {
            let names: Vec<String> = fasta_names(&bytes).collect();
            assert!(!names.is_empty());
            assert_eq!(names, parsed_names(&bytes), "seed {seed}");
        }
    }
}

#[test]
fn names_equal_parsed_names_on_irregular_layouts() {
    let cases: [&[u8]; 9] = [
        b"",
        b"ACDE\n",
        b">",
        b"\n\n>a\n\nAC\n\n>b desc\n\nDE\n\n",
        b">a x\r\nAC\r\nDE\r\n>b\r\nKL\r\n",
        b">a x>y\nAC>D\n>b\nK>\n",
        b"junk\n>a\nAC\n>b\nDE",
        b">a\tdesc\n>\n>c\nM\n",
        b"\xff>no\n>\xffname rest\nAC\n",
    ];
    for bytes in cases {
        let names: Vec<String> = fasta_names(bytes).collect();
        assert_eq!(
            names,
            parsed_names(bytes),
            "{:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}
