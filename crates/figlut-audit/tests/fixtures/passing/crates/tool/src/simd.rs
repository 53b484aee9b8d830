//! Fixture module: runtime CPU detection and a feature entry point.

/// Sum with AVX2 where the host has it.
pub fn sum(v: &[u32]) -> u32 {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host has AVX2, checked on the line above.
        return unsafe { sum_avx2(v) };
    }
    v.iter().sum()
}

#[target_feature(enable = "avx2")]
fn sum_avx2(v: &[u32]) -> u32 {
    v.iter().sum()
}
