//! A GPTQ/OPTQ-style second-order post-training quantizer.
//!
//! OPTQ (Frantar et al., ICLR'23) quantizes a layer's weights column by
//! column, each time *compensating* the not-yet-quantized columns for the
//! error just introduced, using curvature information from a calibration
//! Hessian `H = X·Xᵀ`. The paper uses it as the quantizer behind the FIGNA
//! comparison points in Fig. 17 (uniform 2/3/4-bit OPT models).
//!
//! This is the classic OBQ update in its explicit form: after quantizing
//! column `j`, the remaining weights move by `−e·H⁻¹[j, j:]/H⁻¹[j, j]` and
//! `H⁻¹` is reduced by the Schur complement of entry `(j, j)`. The implicit
//! Cholesky formulation used by GPU implementations is algebraically
//! identical; we favor the transparent O(n³) version since our layer widths
//! are modest.

use crate::linalg::{gram, spd_inverse};
use crate::uniform::{empty_with_grid, rtn, RtnParams, UniformWeight};
use figlut_num::Mat;

/// Configuration for [`gptq_quantize`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GptqParams {
    /// Weight precision in bits (1..=8).
    pub bits: u32,
    /// Columns per scale group (`0` = per row).
    pub group_size: usize,
    /// Relative dampening added to the Hessian diagonal (GPTQ uses 0.01).
    pub damping: f64,
}

impl GptqParams {
    /// Per-row quantization at `bits` with the reference 1% dampening.
    pub fn per_row(bits: u32) -> Self {
        Self {
            bits,
            group_size: 0,
            damping: 0.01,
        }
    }
}

/// Quantize `w (m × n)` against calibration activations `x (n × samples)`.
///
/// The grid (scales/bases) is fixed up front from the original weights via
/// RTN statistics; GPTQ chooses the codes. Columns are processed in natural
/// order (activation-order permutation is an orthogonal trick the paper's
/// baselines do not enable).
///
/// # Panics
///
/// Panics if `x` has a row count different from `w`'s column count, on
/// invalid `bits`/`group_size`, or if the damped Hessian is not positive
/// definite. `X·Xᵀ` is positive semi-definite, so that needs non-finite
/// activations or `damping ≤ 0`.
pub fn gptq_quantize(w: &Mat<f64>, x: &Mat<f64>, params: GptqParams) -> UniformWeight {
    let (rows, cols) = w.shape();
    assert_eq!(
        x.rows(),
        cols,
        "calibration activations must be n × samples (n = {cols})"
    );
    // Grid from the unmodified weights.
    let seed = rtn(
        w,
        RtnParams {
            bits: params.bits,
            group_size: params.group_size,
            symmetric: false,
        },
    );
    let gs = seed.group_size();
    let groups = cols / gs;
    let scale = Mat::from_fn(rows, groups, |r, g| seed.scale(r, g * gs));
    let base = Mat::from_fn(rows, groups, |r, g| seed.base(r, g * gs));
    let mut q = empty_with_grid(rows, cols, params.bits, gs, scale, base);

    // Damped Hessian and its inverse.
    let mut h = gram(x);
    let mean_diag = (0..cols).map(|i| h[(i, i)]).sum::<f64>() / cols as f64;
    let damp = params.damping * mean_diag.max(1e-12);
    for i in 0..cols {
        h[(i, i)] += damp;
    }
    // audit: allow(panic) — documented `# Panics` precondition: a Hessian of finite activations, damped by > 0, is SPD
    let mut hinv = spd_inverse(&h).expect("damped Hessian must be SPD");

    let mut work = w.clone();
    for j in 0..cols {
        let d = hinv[(j, j)];
        let compensate = d > 1e-12;
        for r in 0..rows {
            let wv = work[(r, j)];
            let code = q.nearest_code(r, j, wv);
            q.set_code(r, j, code);
            if compensate {
                let e = (wv - q.value(r, j)) / d;
                for j2 in j + 1..cols {
                    work[(r, j2)] -= e * hinv[(j, j2)];
                }
            }
        }
        if compensate {
            // Schur reduction: remove variable j from the inverse Hessian.
            for a in j + 1..cols {
                let f = hinv[(a, j)] / d;
                if f == 0.0 {
                    continue;
                }
                for b in j + 1..cols {
                    hinv[(a, b)] -= f * hinv[(j, b)];
                }
            }
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{output_mse, weight_mse};

    fn weights(rows: usize, cols: usize) -> Mat<f64> {
        Mat::from_fn(rows, cols, |r, c| {
            let t = (r * cols + c) as f64;
            (t * 0.37).sin() + 0.25 * (t * 0.091).cos()
        })
    }

    /// Correlated calibration activations (n × samples).
    fn calib(n: usize, samples: usize) -> Mat<f64> {
        Mat::from_fn(n, samples, |i, s| {
            let base = ((s as f64) * 0.61).sin();
            // Strong common component → off-diagonal Hessian mass, which is
            // exactly the regime where GPTQ beats RTN.
            2.0 * base + 0.4 * ((i * 7 + 3 * s) as f64 * 0.23).cos()
        })
    }

    #[test]
    fn identity_hessian_reduces_to_rtn() {
        // With uncorrelated unit-variance "activations" (X = I), there is
        // nothing to compensate: GPTQ must pick exactly the RTN codes.
        let w = weights(3, 8);
        let x = Mat::from_fn(8, 8, |i, j| if i == j { 1.0 } else { 0.0 });
        let g = gptq_quantize(
            &w,
            &x,
            GptqParams {
                bits: 3,
                group_size: 0,
                damping: 1e-9,
            },
        );
        let r = rtn(&w, RtnParams::per_row(3));
        assert!(g.dequantize().max_abs_diff(&r.dequantize()) < 1e-9);
    }

    #[test]
    fn gptq_beats_rtn_on_correlated_calibration() {
        let w = weights(6, 24);
        let x = calib(24, 96);
        for bits in [2u32, 3, 4] {
            let g = gptq_quantize(&w, &x, GptqParams::per_row(bits));
            let r = rtn(&w, RtnParams::per_row(bits));
            let eg = output_mse(&w, &g.dequantize(), &x);
            let er = output_mse(&w, &r.dequantize(), &x);
            assert!(
                eg <= er * 1.0001,
                "bits={bits}: GPTQ {eg} !<= RTN {er} on calibration objective"
            );
        }
    }

    #[test]
    fn gptq_weight_error_stays_bounded() {
        // GPTQ trades weight-space error for output-space error; it must
        // still stay on the quantization grid, so the weight error is within
        // the grid span.
        let w = weights(4, 16);
        let x = calib(16, 64);
        let g = gptq_quantize(&w, &x, GptqParams::per_row(4));
        let e = weight_mse(&w, &g.dequantize());
        // Grid span per row ≈ max−min ≤ ~2.5; a code can move at most the
        // full span, so MSE is bounded far below span².
        assert!(e < 1.0, "weight MSE {e} exploded");
    }

    #[test]
    fn more_bits_never_hurt_output_error() {
        let w = weights(4, 16);
        let x = calib(16, 48);
        let mut last = f64::INFINITY;
        for bits in [2u32, 3, 4, 5] {
            let g = gptq_quantize(&w, &x, GptqParams::per_row(bits));
            let e = output_mse(&w, &g.dequantize(), &x);
            assert!(e <= last * 1.05, "bits={bits}: {e} vs {last}");
            last = e.min(last);
        }
    }

    #[test]
    #[should_panic(expected = "n × samples")]
    fn rejects_mismatched_calibration() {
        let w = weights(2, 8);
        let x = Mat::zeros(7, 4);
        let _ = gptq_quantize(&w, &x, GptqParams::per_row(4));
    }
}
