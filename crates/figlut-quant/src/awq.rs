//! An AWQ-style activation-aware scaling quantizer (Lin et al., MLSys'24 —
//! the paper's reference \[25\]).
//!
//! AWQ observes that a small fraction of weight *channels* matter far more
//! than others because their activations are large. Instead of keeping
//! salient channels in FP (mixed formats complicate kernels), it scales
//! salient input channels up before RTN quantization and folds the inverse
//! scale into the preceding operation: `y = (W·diag(s)) · (diag(s)⁻¹·x)`.
//! The grid then spends its resolution where activations are hot.
//!
//! We implement the standard grid search over the scale exponent
//! `s_c = E[|x_c|]^α, α ∈ [0, 1]`, picking the α that minimizes output MSE
//! on the calibration set. The result is a plain [`UniformWeight`] over the
//! scaled weights plus the per-channel activation scales the runtime must
//! fold in; [`AwqWeight::dequantize_effective`] returns the effective
//! (unscaled-input-space) weights for engines that don't fold.

use crate::error::output_mse;
use crate::uniform::{rtn, RtnParams, UniformWeight};
use figlut_num::Mat;

/// Configuration for [`awq_quantize`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AwqParams {
    /// Weight precision in bits.
    pub bits: u32,
    /// Columns per scale group (`0` = per row).
    pub group_size: usize,
    /// Grid points for the α search (AWQ uses 20).
    pub grid: usize,
}

impl AwqParams {
    /// Per-row quantization at `bits` with the reference 20-point grid.
    pub fn per_row(bits: u32) -> Self {
        Self {
            bits,
            group_size: 0,
            grid: 20,
        }
    }
}

/// AWQ output: quantized scaled weights + per-input-channel scales.
#[derive(Clone, Debug)]
pub struct AwqWeight {
    /// RTN-quantized `W·diag(s)`.
    pub quantized: UniformWeight,
    /// Per-input-channel scales `s_c ≥ 1` the runtime folds into the
    /// producer of `x` (so the kernel sees `x_c / s_c`).
    pub channel_scale: Vec<f64>,
    /// The α chosen by the grid search.
    pub alpha: f64,
}

impl AwqWeight {
    /// Effective weights in the *original* activation space:
    /// `Ŵ_eff[r][c] = Ŵ_scaled[r][c] / s_c`.
    pub fn dequantize_effective(&self) -> Mat<f64> {
        let d = self.quantized.dequantize();
        Mat::from_fn(d.rows(), d.cols(), |r, c| d[(r, c)] / self.channel_scale[c])
    }
}

/// Quantize `w (m × n)` with activation-aware scaling against calibration
/// activations `x (n × samples)`.
///
/// # Panics
///
/// Panics if `x` has a row count different from `w`'s column count, or
/// if `params.grid` is 0.
pub fn awq_quantize(w: &Mat<f64>, x: &Mat<f64>, params: AwqParams) -> AwqWeight {
    let (_m, n) = w.shape();
    assert_eq!(x.rows(), n, "calibration activations must be n × samples");
    // Mean absolute activation per channel, normalized so the geometric
    // mean of scales stays near 1 (AWQ's normalization).
    let mean_abs: Vec<f64> = (0..n)
        .map(|c| {
            let row = x.row(c);
            row.iter().map(|v| v.abs()).sum::<f64>() / row.len() as f64 + 1e-12
        })
        .collect();
    let log_mean = mean_abs.iter().map(|v| v.ln()).sum::<f64>() / n as f64;
    let norm: Vec<f64> = mean_abs.iter().map(|v| (v.ln() - log_mean).exp()).collect();

    let rtn_params = RtnParams {
        bits: params.bits,
        group_size: params.group_size,
        symmetric: false,
    };
    let mut best: Option<(f64, f64, UniformWeight, Vec<f64>)> = None;
    for gi in 0..params.grid {
        let alpha = gi as f64 / (params.grid - 1).max(1) as f64;
        let scale: Vec<f64> = norm.iter().map(|v| v.powf(alpha).max(1e-6)).collect();
        let scaled = Mat::from_fn(w.rows(), n, |r, c| w[(r, c)] * scale[c]);
        let q = rtn(&scaled, rtn_params);
        // Effective reconstruction in original space.
        let dq = q.dequantize();
        let eff = Mat::from_fn(w.rows(), n, |r, c| dq[(r, c)] / scale[c]);
        let err = output_mse(w, &eff, x);
        if best.as_ref().is_none_or(|(e, ..)| err < *e) {
            best = Some((err, alpha, q, scale));
        }
    }
    // audit: allow(panic) — documented `# Panics` precondition: grid ≥ 1, so the loop above set `best`
    let (_, alpha, quantized, channel_scale) = best.expect("grid is non-empty");
    AwqWeight {
        quantized,
        channel_scale,
        alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::output_mse;

    fn weights(m: usize, n: usize) -> Mat<f64> {
        Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.217).sin() * 0.4)
    }

    /// Calibration with a few dominant (salient) channels.
    fn calib(n: usize, samples: usize) -> Mat<f64> {
        Mat::from_fn(n, samples, |i, s| {
            let heat = if i % 8 == 0 { 12.0 } else { 0.5 };
            heat * (((i * 13 + s * 7) as f64) * 0.29).sin()
        })
    }

    #[test]
    fn awq_beats_plain_rtn_on_output_error() {
        let w = weights(8, 32);
        let x = calib(32, 64);
        for bits in [2u32, 3] {
            let plain = rtn(&w, RtnParams::per_row(bits));
            let awq = awq_quantize(&w, &x, AwqParams::per_row(bits));
            let e_plain = output_mse(&w, &plain.dequantize(), &x);
            let e_awq = output_mse(&w, &awq.dequantize_effective(), &x);
            assert!(
                e_awq <= e_plain * 1.0001,
                "bits={bits}: AWQ {e_awq} !<= RTN {e_plain}"
            );
        }
    }

    #[test]
    fn alpha_zero_recovers_rtn() {
        // With a 1-point grid the search can only pick α = 0 → scales 1.
        let w = weights(4, 16);
        let x = calib(16, 32);
        let awq = awq_quantize(
            &w,
            &x,
            AwqParams {
                bits: 3,
                group_size: 0,
                grid: 1,
            },
        );
        assert_eq!(awq.alpha, 0.0);
        let plain = rtn(&w, RtnParams::per_row(3));
        assert!(awq.quantized.dequantize().max_abs_diff(&plain.dequantize()) < 1e-12);
    }

    #[test]
    fn salient_channels_get_larger_scales() {
        let w = weights(4, 32);
        let x = calib(32, 64);
        let awq = awq_quantize(&w, &x, AwqParams::per_row(2));
        if awq.alpha > 0.0 {
            let hot: f64 = (0..32).step_by(8).map(|c| awq.channel_scale[c]).sum();
            let cold: f64 = (1..32)
                .filter(|c| c % 8 != 0)
                .map(|c| awq.channel_scale[c])
                .sum();
            assert!(hot / 4.0 > cold / 28.0, "hot channels should scale up");
        }
    }

    #[test]
    fn scales_are_positive_finite() {
        let w = weights(3, 16);
        let x = calib(16, 24);
        let awq = awq_quantize(&w, &x, AwqParams::per_row(4));
        assert!(awq.channel_scale.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!((0.0..=1.0).contains(&awq.alpha));
    }
}
