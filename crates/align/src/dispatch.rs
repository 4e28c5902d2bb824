//! Runtime SIMD dispatch for the striped kernels, the Smith–Waterman
//! traceback fill and the x-drop open interior.
//!
//! Three levels, chosen once per process here, by feature detection
//! alone:
//!
//! | level    | x-drop interior, traceback fill | striped score pass (i16 / i32) |
//! |----------|---------------------------------|--------------------------------|
//! | `Avx512` | sixteen i32 lanes (AVX-512)     | AVX2: `[i16; 16]` / `[i32; 8]` |
//! | `Avx2`   | eight i32 lanes (AVX2)          | AVX2: `[i16; 16]` / `[i32; 8]` |
//! | `Slp`    | four i32 lanes (SSE2 on x86-64) | SLP: `[i16; 8]` / `[i32; 4]`   |
//!
//! The striped pass keeps its AVX2 width at the AVX-512 level: a
//! 32-lane autovectorised copy of it ran slower (the score pass 0.40 s →
//! 0.45–0.55 s in a scratch measurement). Every level produces
//! bit-identical results (the DP values and the argmax scan are
//! lane-layout independent); they differ only in throughput. Tests reach
//! the levels the host would not pick through `striped_pass_at`,
//! `sw::fill_kernel` and `xdrop::lanes::kernel`.
//!
//! This module is the only place in the workspace allowed to call
//! `is_x86_feature_detected!` (enforced by xlint): detection scattered
//! across call sites is how dispatch decisions drift apart.

use std::sync::OnceLock;

/// Which kernel instantiation the lane kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// SLP-autovectorized 128-bit lanes (the portable fallback).
    Slp,
    /// AVX2 256-bit lanes.
    Avx2,
    /// AVX-512 512-bit lanes for the i32 lane kernels; the striped score
    /// pass runs its AVX2 lanes.
    Avx512,
}

impl SimdLevel {
    /// The level's name as diagnostics print it: `slp`, `avx2`, `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Slp => "slp",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Whether this host runs AVX2 instructions.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
pub fn avx2_available() -> bool {
    false
}

/// Whether this host runs the AVX-512 level: its lanes use `avx512f`,
/// plus `avx512bw` and `avx512vl` for the masked byte load of a partial
/// chunk, and the striped pass at that level runs the AVX2 kernels, whose
/// calls the `avx2` term makes sound on its own. No instruction needs
/// `avx512dq`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_available() -> bool {
    avx2_available()
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx512_available() -> bool {
    false
}

/// The SIMD level every lane-kernel call in this process uses, decided
/// once by feature detection.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if avx512_available() {
            SimdLevel::Avx512
        } else if avx2_available() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Slp
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_matches_detection() {
        let lv = level();
        assert_eq!(lv, level(), "dispatch decision must be cached");
        let want = match (avx512_available(), avx2_available()) {
            (true, _) => SimdLevel::Avx512,
            (false, true) => SimdLevel::Avx2,
            (false, false) => SimdLevel::Slp,
        };
        assert_eq!(lv, want);
    }
}
