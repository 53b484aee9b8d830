//! Computational-complexity accounting (paper Table I).
//!
//! The paper characterizes each engine by the count of inner-loop
//! arithmetic/lookup operations for a GEMM of `m × n` weights against `k`
//! activations of batch: GPU and FIGNA do `O(mnk)` multi-bit operations,
//! iFPU does `O(mnkq)` one-bit operations, and FIGLUT does `O(mnkq/µ)`
//! table reads.

/// Engine feature row of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeatureRow {
    /// Platform name.
    pub name: &'static str,
    /// Direct FP-INT operation (no dequantization)?
    pub fp_int: bool,
    /// Supports mixed weight precision on one hardware build?
    pub mixed_precision: bool,
    /// Supports BCQ (non-uniform) weights?
    pub bcq: bool,
    /// Complexity formula as printed in the paper.
    pub complexity: &'static str,
}

/// The four rows of Table I.
pub const TABLE1: [FeatureRow; 4] = [
    FeatureRow {
        name: "GPU",
        fp_int: false,
        mixed_precision: false,
        bcq: false,
        complexity: "O(mnk)",
    },
    FeatureRow {
        name: "iFPU",
        fp_int: true,
        mixed_precision: true,
        bcq: true,
        complexity: "O(mnkq)",
    },
    FeatureRow {
        name: "FIGNA",
        fp_int: true,
        mixed_precision: false,
        bcq: false,
        complexity: "O(mnk)",
    },
    FeatureRow {
        name: "FIGLUT (proposed)",
        fp_int: true,
        mixed_precision: true,
        bcq: true,
        complexity: "O(mnkq/µ)",
    },
];

/// Error returned by [`inner_ops`] for a platform Table I does not list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPlatform(pub String);

impl core::fmt::Display for UnknownPlatform {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown platform '{}' (Table I lists GPU, iFPU, FIGNA, FIGLUT)",
            self.0
        )
    }
}

impl std::error::Error for UnknownPlatform {}

/// Inner-loop operation count for each platform on an `(m, n, k)` GEMM with
/// `q`-bit weights and LUT group size `mu`.
///
/// # Errors
///
/// Returns [`UnknownPlatform`] for a name outside Table I.
pub fn inner_ops(
    name: &str,
    m: u64,
    n: u64,
    k: u64,
    q: u64,
    mu: u64,
) -> Result<f64, UnknownPlatform> {
    let base = (m * n * k) as f64;
    Ok(match name {
        "GPU" | "FIGNA" => base,
        "iFPU" => base * q as f64,
        "FIGLUT" | "FIGLUT (proposed)" => base * q as f64 / mu as f64,
        other => return Err(UnknownPlatform(other.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figlut_reduces_bit_serial_ops_by_mu() {
        let ifpu = inner_ops("iFPU", 1024, 1024, 32, 4, 4).unwrap();
        let figlut = inner_ops("FIGLUT", 1024, 1024, 32, 4, 4).unwrap();
        assert_eq!(ifpu / figlut, 4.0);
    }

    #[test]
    fn figlut_q4_mu4_matches_fixed_engines() {
        // At q = µ = 4, FIGLUT's read count equals FIGNA's MAC count — the
        // equal-throughput normalization of §IV-B.
        let figna = inner_ops("FIGNA", 512, 512, 8, 4, 4).unwrap();
        let figlut = inner_ops("FIGLUT", 512, 512, 8, 4, 4).unwrap();
        assert_eq!(figna, figlut);
    }

    #[test]
    fn unknown_platform_is_a_named_error() {
        let err = inner_ops("TPU", 1, 1, 1, 4, 4).unwrap_err();
        assert_eq!(err, UnknownPlatform("TPU".into()));
        assert!(err.to_string().contains("unknown platform 'TPU'"));
    }

    #[test]
    fn table1_feature_flags() {
        let gpu = &TABLE1[0];
        assert!(!gpu.fp_int && !gpu.bcq);
        let figlut = &TABLE1[3];
        assert!(figlut.fp_int && figlut.mixed_precision && figlut.bcq);
        let figna = &TABLE1[2];
        assert!(figna.fp_int && !figna.mixed_precision && !figna.bcq);
    }
}
