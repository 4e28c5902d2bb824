//! Runtime SIMD dispatch for the striped kernels.
//!
//! The striped engine carries two lane configurations of the same kernel:
//! AVX2-width lanes (`[i16; 16]` / `[i32; 8]`, compiled with
//! `target_feature(avx2)`) and the portable SLP lanes (`[i16; 8]` /
//! `[i32; 4]`, plain autovectorized code — the fallback). Both produce
//! bit-identical results (the DP values and the argmax scan are
//! lane-layout independent); they differ only in throughput, so the choice
//! is made once per process here, by feature detection alone. Tests reach
//! the lane the host would not pick through `striped_pass_at`.
//!
//! This module is the only place in the workspace allowed to call
//! `is_x86_feature_detected!` (enforced by xlint): detection scattered
//! across call sites is how dispatch decisions drift apart.

use std::sync::OnceLock;

/// Which kernel instantiation the striped engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// SLP-autovectorized 128-bit lanes (the portable fallback).
    Slp,
    /// AVX2 256-bit lanes.
    Avx2,
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) fn avx2_available() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
pub(crate) fn avx2_available() -> bool {
    false
}

/// The SIMD level every striped kernel call in this process uses, decided
/// once by feature detection.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if avx2_available() {
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
        assert_eq!(lv == SimdLevel::Avx2, avx2_available());
    }
}
