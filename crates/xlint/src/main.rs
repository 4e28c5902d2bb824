//! `xlint` — repository-specific lint gates that `clippy` cannot express.
//!
//! Eight rules, chosen because each guards an invariant another layer of
//! this workspace depends on:
//!
//! - **safety-comment** — every `unsafe` token must have a `// SAFETY:`
//!   comment within the four preceding lines (or on the same line). The
//!   alignment arenas' soundness argument lives in those comments; an
//!   uncommented `unsafe` is an unreviewed proof obligation.
//! - **thread-spawn** — `std::thread` spawn machinery (`thread::spawn`,
//!   `thread::scope`, `thread::Builder`, `spawn_scoped`) is confined to
//!   `crates/pcomm/` (ranks ARE threads there) and the lane-parallel batch
//!   driver `crates/align/src/batch.rs`. Stray threads elsewhere would
//!   bypass the runtime's determinism and the checker's wait-for graph.
//! - **instant-now** — raw `Instant::now()` is confined to `crates/obs/`,
//!   `crates/pcomm/`, and the criterion shim; everything else measures time
//!   through `obs::Stopwatch` so clocks stay virtualizable.
//! - **cost-literal** — the raw work-ledger entry point `work::record`
//!   (which takes an inline ns/op literal) is confined to
//!   `crates/pcomm/src/work.rs`. Kernels record through
//!   `work::record_class`, so every cost constant lives in the `CostClass`
//!   table and stays overridable by a calibrated machine profile; an
//!   inline literal elsewhere would silently escape calibration.
//! - **feature-detect** — `is_x86_feature_detected!` is confined to
//!   `crates/align/src/dispatch.rs`. Runtime CPU dispatch must go through
//!   one cached, `ALIGN_FORCE`-overridable decision point; a stray probe
//!   elsewhere would fork the dispatch policy and escape the forced-lane
//!   test matrix.
//! - **alloc-confinement** — `#[global_allocator]` and raw `std::alloc`
//!   machinery are confined to `crates/obs/src/alloc.rs`. The memory
//!   observatory's accounting is only sound if every allocation flows
//!   through its one counting allocator; a second allocator (or direct
//!   `std::alloc` calls) would leak bytes past the ledger and the window
//!   peaks.
//! - **monitor-spawn** — the heartbeat/snapshot thread entry point
//!   `spawn_monitor` is confined to `crates/pcomm/`. The monitor thread
//!   must live inside the world's scope (stopped before panic triage,
//!   ledger-clean under the checker); spawning it anywhere else would
//!   detach it from that lifecycle.
//! - **ckpt-confinement** — the atomic-commit primitive `fs::rename` is
//!   confined to `crates/pastis/src/ckpt.rs`. The checkpoint protocol's
//!   durability argument (tmp-then-rename, checksum before manifest) only
//!   holds if every persistent-state write goes through the one audited
//!   commit path; a stray rename elsewhere would create files a resumed
//!   run trusts without a checksum.
//!
//! `tests/` and `benches/` directories are exempt from the confinement
//! rules (not from safety-comment). A finding can be waived in place with a
//! comment containing `xlint: allow(<rule>)` on the offending line or the
//! line above — waivers are grep-able review anchors, not escape hatches.
//!
//! Parsing is a hand-rolled line lexer (the build environment has no `syn`):
//! comments and string/char-literal *contents* are stripped before token
//! matching, so `"unsafe"` in a string or `Instant::now` in a doc comment
//! never trips a rule. Exit status 1 when any finding survives.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const RULES: [&str; 8] = [
    "safety-comment",
    "thread-spawn",
    "instant-now",
    "cost-literal",
    "feature-detect",
    "alloc-confinement",
    "monitor-spawn",
    "ckpt-confinement",
];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 4;

const SPAWN_TOKENS: [&str; 4] = [
    "thread::spawn",
    "thread::scope",
    "thread::Builder",
    "spawn_scoped",
];
const SPAWN_ALLOWED: [&str; 2] = ["crates/pcomm/", "crates/align/src/batch.rs"];

const INSTANT_TOKEN: &str = "Instant::now";
const INSTANT_ALLOWED: [&str; 3] = ["crates/obs/", "crates/pcomm/", "shims/criterion/"];

const COST_TOKEN: &str = "work::record";
const COST_ALLOWED: [&str; 1] = ["crates/pcomm/src/work.rs"];

const FEATURE_TOKEN: &str = "is_x86_feature_detected";
const FEATURE_ALLOWED: [&str; 1] = ["crates/align/src/dispatch.rs"];

const ALLOC_TOKENS: [&str; 2] = ["global_allocator", "std::alloc"];
const ALLOC_ALLOWED: [&str; 1] = ["crates/obs/src/alloc.rs"];

const MONITOR_TOKEN: &str = "spawn_monitor";
const MONITOR_ALLOWED: [&str; 1] = ["crates/pcomm/"];

const CKPT_TOKEN: &str = "fs::rename";
const CKPT_ALLOWED: [&str; 1] = ["crates/pastis/src/ckpt.rs"];

#[derive(Debug, PartialEq, Eq)]
struct Finding {
    path: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

/// Lexer state carried across lines.
enum St {
    Normal,
    /// Nested block comment depth.
    Block(u32),
    /// Inside a `"…"` string.
    Str,
    /// Inside a raw string closed by `"` + this many `#`.
    RawStr(usize),
}

/// Strip comments and string/char contents, preserving token boundaries.
/// Returns one code line per input line (raw lines stay available to rules
/// that inspect comments, e.g. the SAFETY lookup).
fn strip(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut st = St::Normal;
    for line in src.lines() {
        let b: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(b.len());
        let mut i = 0;
        'line: while i < b.len() {
            match st {
                St::Block(ref mut depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        *depth -= 1;
                        if *depth == 0 {
                            st = St::Normal;
                            code.push(' ');
                        }
                        i += 2;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        *depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '"' {
                        st = St::Normal;
                        code.push('"');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if b[i] == '"' && b[i + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
                    {
                        st = St::Normal;
                        code.push('"');
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                St::Normal => match b[i] {
                    '/' if b.get(i + 1) == Some(&'/') => break 'line,
                    '/' if b.get(i + 1) == Some(&'*') => {
                        st = St::Block(1);
                        i += 2;
                    }
                    '"' => {
                        st = St::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' | 'b' if !prev_is_ident(&code) && raw_str_hashes(&b[i..]).is_some() => {
                        let (skip, hashes) = raw_str_hashes(&b[i..]).unwrap();
                        st = St::RawStr(hashes);
                        code.push('"');
                        i += skip;
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal closes with a
                        // quote after one (possibly escaped) character.
                        if b.get(i + 1) == Some(&'\\') {
                            let close = b[i + 2..].iter().position(|&c| c == '\'');
                            i += close.map(|c| c + 3).unwrap_or(2);
                            code.push('\'');
                        } else if b.get(i + 2) == Some(&'\'') {
                            i += 3;
                            code.push('\'');
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        code.push(c);
                        i += 1;
                    }
                },
            }
        }
        out.push(code);
    }
    out
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// `r"`, `r#"`, `br"`, `b"` … → (chars to skip, closing hash count).
fn raw_str_hashes(b: &[char]) -> Option<(usize, usize)> {
    let mut i = 1;
    if b[0] == 'b' && b.get(1) == Some(&'r') {
        i = 2;
    } else if b[0] == 'b' {
        // b"…" is an ordinary (byte) string; handled as Str for simplicity.
        return match b.get(1) {
            Some('"') => Some((2, 0)),
            _ => None,
        };
    }
    let hashes = b[i..].iter().take_while(|&&c| c == '#').count();
    (b.get(i + hashes) == Some(&'"')).then_some((i + hashes + 1, hashes))
}

/// Does `code` contain `token` as a standalone path/ident token?
fn has_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + token.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + token.len();
    }
    false
}

fn waived(raw: &[&str], line_idx: usize, rule: &str) -> bool {
    let needle = format!("xlint: allow({rule})");
    raw[line_idx.saturating_sub(1)..=line_idx]
        .iter()
        .any(|l| l.contains(&needle))
}

fn in_test_tree(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.starts_with("tests/")
}

fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let raw: Vec<&str> = src.lines().collect();
    let code = strip(src);
    let mut findings = Vec::new();
    let finding = |line: usize, rule: &'static str, msg: String| Finding {
        path: rel.to_string(),
        line: line + 1,
        rule,
        msg,
    };

    for (i, cl) in code.iter().enumerate() {
        // safety-comment: applies everywhere, including test code — an
        // unsound test can corrupt the process running every other test.
        if has_token(cl, "unsafe") && !waived(&raw, i, "safety-comment") {
            let lo = i.saturating_sub(SAFETY_WINDOW);
            let documented = raw[lo..=i].iter().any(|l| l.contains("SAFETY:"));
            if !documented {
                findings.push(finding(
                    i,
                    "safety-comment",
                    "`unsafe` without a `// SAFETY:` comment within the 4 preceding lines"
                        .to_string(),
                ));
            }
        }

        if !in_test_tree(rel) {
            if !SPAWN_ALLOWED.iter().any(|p| rel.starts_with(p))
                && SPAWN_TOKENS.iter().any(|t| has_token(cl, t))
                && !waived(&raw, i, "thread-spawn")
            {
                findings.push(finding(
                    i,
                    "thread-spawn",
                    format!(
                        "thread spawn machinery outside {} — ranks and lanes own all threads",
                        SPAWN_ALLOWED.join(", ")
                    ),
                ));
            }

            if !INSTANT_ALLOWED.iter().any(|p| rel.starts_with(p))
                && has_token(cl, INSTANT_TOKEN)
                && !waived(&raw, i, "instant-now")
            {
                findings.push(finding(
                    i,
                    "instant-now",
                    format!(
                        "raw Instant::now outside {} — use obs::Stopwatch",
                        INSTANT_ALLOWED.join(", ")
                    ),
                ));
            }

            if !COST_ALLOWED.iter().any(|p| rel.starts_with(p))
                && has_token(cl, COST_TOKEN)
                && !waived(&raw, i, "cost-literal")
            {
                findings.push(finding(
                    i,
                    "cost-literal",
                    format!(
                        "raw work::record (inline cost literal) outside {} — \
                         use work::record_class so the constant stays \
                         profile-calibratable",
                        COST_ALLOWED.join(", ")
                    ),
                ));
            }

            if !FEATURE_ALLOWED.iter().any(|p| rel.starts_with(p))
                && has_token(cl, FEATURE_TOKEN)
                && !waived(&raw, i, "feature-detect")
            {
                findings.push(finding(
                    i,
                    "feature-detect",
                    format!(
                        "is_x86_feature_detected! outside {} — dispatch \
                         through align::simd_level so ALIGN_FORCE and the \
                         forced-lane tests stay authoritative",
                        FEATURE_ALLOWED.join(", ")
                    ),
                ));
            }

            if !ALLOC_ALLOWED.iter().any(|p| rel.starts_with(p))
                && ALLOC_TOKENS.iter().any(|t| has_token(cl, t))
                && !waived(&raw, i, "alloc-confinement")
            {
                findings.push(finding(
                    i,
                    "alloc-confinement",
                    format!(
                        "allocator machinery outside {} — the counting \
                         allocator must see every allocation or the memory \
                         observatory's ledger lies",
                        ALLOC_ALLOWED.join(", ")
                    ),
                ));
            }

            if !MONITOR_ALLOWED.iter().any(|p| rel.starts_with(p))
                && has_token(cl, MONITOR_TOKEN)
                && !waived(&raw, i, "monitor-spawn")
            {
                findings.push(finding(
                    i,
                    "monitor-spawn",
                    format!(
                        "spawn_monitor outside {} — the heartbeat thread \
                         must live inside the world's scope so shutdown \
                         and panic triage stay ordered",
                        MONITOR_ALLOWED.join(", ")
                    ),
                ));
            }

            if !CKPT_ALLOWED.iter().any(|p| rel.starts_with(p))
                && has_token(cl, CKPT_TOKEN)
                && !waived(&raw, i, "ckpt-confinement")
            {
                findings.push(finding(
                    i,
                    "ckpt-confinement",
                    format!(
                        "fs::rename outside {} — persistent-state commits \
                         must go through the checkpoint module's audited \
                         tmp-then-rename path",
                        CKPT_ALLOWED.join(", ")
                    ),
                ));
            }
        }
    }
    findings
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, files);
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut files = Vec::new();
    for top in ["crates", "shims", "tests", "examples"] {
        walk(&root.join(top), &mut files);
    }
    if files.is_empty() {
        eprintln!("xlint: no .rs files under {}", root.display());
        return ExitCode::FAILURE;
    }
    let mut findings = Vec::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_source(&rel, &src));
    }
    for f in &findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.msg);
    }
    if findings.is_empty() {
        println!(
            "xlint: {} file(s) clean across {} rule(s): {}",
            files.len(),
            RULES.len(),
            RULES.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xlint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_string_contents() {
        let src = "let a = \"unsafe\"; // unsafe here\nlet b = 'x';\n/* unsafe\nstill */ let c = r#\"unsafe\"#;\n";
        let code = strip(src);
        assert!(!code[0].contains("unsafe"), "{:?}", code[0]);
        assert!(code[0].contains("let a"), "{:?}", code[0]);
        assert!(!code[2].contains("unsafe"), "{:?}", code[2]);
        assert!(code[3].contains("let c"), "{:?}", code[3]);
        assert!(!code[3].contains("unsafe"), "{:?}", code[3]);
    }

    #[test]
    fn strip_handles_lifetimes_and_char_literals() {
        let code = strip("fn f<'a>(x: &'a str) -> char { '\\'' }\n");
        assert!(code[0].contains("fn f<'a>"), "{:?}", code[0]);
    }

    #[test]
    fn token_matching_requires_boundaries() {
        assert!(has_token("unsafe impl Foo {}", "unsafe"));
        assert!(!has_token("not_unsafe_at_all()", "unsafe"));
        assert!(has_token("std::thread::spawn(f)", "thread::spawn"));
    }

    #[test]
    fn undocumented_unsafe_is_flagged() {
        let f = scan_source("crates/x/src/lib.rs", "fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn documented_unsafe_passes() {
        let src = "fn f() {\n    // SAFETY: g has no preconditions.\n    unsafe { g() }\n}\n";
        assert!(scan_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "fn f() { let s = \"unsafe\"; } // unsafe\n";
        assert!(scan_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn spawn_confinement_and_waiver() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let f = scan_source("crates/mcl/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "thread-spawn");
        // Allowed locations.
        assert!(scan_source("crates/pcomm/src/world.rs", src).is_empty());
        assert!(scan_source("crates/align/src/batch.rs", src).is_empty());
        // Test trees are exempt.
        assert!(scan_source("crates/mcl/tests/t.rs", src).is_empty());
        // In-place waiver.
        let waived =
            "// justified: xlint: allow(thread-spawn)\nfn f() { std::thread::spawn(|| {}); }\n";
        assert!(scan_source("crates/mcl/src/lib.rs", waived).is_empty());
    }

    #[test]
    fn cost_literal_confinement() {
        let src = "fn f() { pcomm::work::record(100, 42); }\n";
        let f = scan_source("crates/align/src/engine.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "cost-literal");
        // The work module itself owns the raw entry point.
        assert!(scan_source("crates/pcomm/src/work.rs", src).is_empty());
        // Test trees are exempt.
        assert!(scan_source("crates/pcomm/tests/subcomm_extra.rs", src).is_empty());
        // `record_class` is the approved API — the token must not match it.
        let ok = "fn f() { pcomm::work::record_class(100, CostClass::SwCell); }\n";
        assert!(scan_source("crates/align/src/engine.rs", ok).is_empty());
        // In-place waiver.
        let waived = "fn f() { pcomm::work::record(1, 1); } // xlint: allow(cost-literal)\n";
        assert!(scan_source("crates/align/src/engine.rs", waived).is_empty());
    }

    #[test]
    fn feature_detect_confinement() {
        let src = "fn f() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n";
        let f = scan_source("crates/align/src/striped.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "feature-detect");
        // The dispatch module owns runtime CPU probing.
        assert!(scan_source("crates/align/src/dispatch.rs", src).is_empty());
        // Test trees are exempt.
        assert!(scan_source("crates/align/tests/t.rs", src).is_empty());
        // Doc comments never trip the rule.
        let doc = "/// is_x86_feature_detected! lives in dispatch\nfn f() {}\n";
        assert!(scan_source("crates/align/src/striped.rs", doc).is_empty());
        // In-place waiver.
        let waived = "fn f() { std::arch::is_x86_feature_detected!(\"avx2\"); } \
                      // xlint: allow(feature-detect)\n";
        assert!(scan_source("crates/align/src/striped.rs", waived).is_empty());
    }

    #[test]
    fn alloc_confinement() {
        let attr = "#[global_allocator]\nstatic A: MyAlloc = MyAlloc;\n";
        let f = scan_source("crates/sparse/src/lib.rs", attr);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "alloc-confinement");
        let raw = "fn f() { let p = unsafe { std::alloc::alloc(layout) }; }\n";
        let f = scan_source("crates/align/src/scratch.rs", raw);
        // Flags both the missing SAFETY comment and the stray allocator call.
        assert!(f.iter().any(|x| x.rule == "alloc-confinement"));
        // The counting allocator's module owns this machinery.
        assert!(scan_source("crates/obs/src/alloc.rs", attr).is_empty());
        // Test trees are exempt.
        assert!(scan_source("crates/sparse/tests/t.rs", attr).is_empty());
        // Doc comments never trip the rule.
        let doc = "/// the only #[global_allocator] lives in obs\nfn f() {}\n";
        assert!(scan_source("crates/sparse/src/lib.rs", doc).is_empty());
        // In-place waiver.
        let waived = "#[global_allocator] // xlint: allow(alloc-confinement)\n\
                      static A: MyAlloc = MyAlloc;\n";
        assert!(scan_source("crates/sparse/src/lib.rs", waived).is_empty());
    }

    #[test]
    fn instant_confinement() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = scan_source("crates/align/src/batch.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "instant-now");
        assert!(scan_source("crates/obs/src/span.rs", src).is_empty());
        assert!(scan_source("shims/criterion/src/lib.rs", src).is_empty());
        // Doc comments never trip the rule.
        let doc = "/// call Instant::now() here\nfn f() {}\n";
        assert!(scan_source("crates/align/src/x.rs", doc).is_empty());
    }

    #[test]
    fn monitor_spawn_confinement() {
        let src = "fn f(s: &S) { crate::monitor::spawn_monitor(s, 4, cfg); }\n";
        let f = scan_source("crates/pastis/src/pipeline.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "monitor-spawn");
        assert!(scan_source("crates/pcomm/src/world.rs", src).is_empty());
        // Tests are exempt, like the other confinement rules.
        assert!(scan_source("crates/pastis/tests/monitor_live.rs", src).is_empty());
    }

    #[test]
    fn ckpt_confinement() {
        let src = "fn f() { std::fs::rename(&tmp, &path).unwrap(); }\n";
        let f = scan_source("crates/pcomm/src/monitor.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ckpt-confinement");
        // The checkpoint module owns the commit primitive.
        assert!(scan_source("crates/pastis/src/ckpt.rs", src).is_empty());
        // Test trees are exempt.
        assert!(scan_source("crates/pastis/tests/ooc_resume.rs", src).is_empty());
        // Doc comments never trip the rule.
        let doc = "/// commits via fs::rename in ckpt.rs\nfn f() {}\n";
        assert!(scan_source("crates/pcomm/src/monitor.rs", doc).is_empty());
        // In-place waiver.
        let waived = "fn f() { std::fs::rename(&a, &b); } // xlint: allow(ckpt-confinement)\n";
        assert!(scan_source("crates/pcomm/src/monitor.rs", waived).is_empty());
    }
}
