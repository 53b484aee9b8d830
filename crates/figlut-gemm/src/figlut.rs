//! FIGLUT: the LUT-based FP-INT GEMM engine (this paper).
//!
//! Per activation group of µ inputs, a half-size LUT (hFFLUT) holds every
//! signed combination; each output row's RAC then *reads* its µ-bit weight
//! pattern instead of multiplying — `O(mnkq/µ)` table reads replace
//! `O(mnkq)` arithmetic operations (Table I).
//!
//! Two datapaths, as evaluated in the paper:
//!
//! * [`gemm_f`] — **FIGLUT-F**: LUT entries are floating point (built by
//!   the generator's FP adder tree), RACs accumulate in FP32.
//! * [`gemm_i`] — **FIGLUT-I**: activations are pre-aligned first; LUT
//!   entries and RAC accumulators are integers, scaled back once per plane.
//!   Bit-identical to iFPU (integer addition is associative — the LUT only
//!   regroups it), which this crate's tests assert.
//!
//! The offset term `z·Σx` needed for uniform-via-BCQ execution reuses the
//! same machinery: reading the all-ones key of every window yields `Σx`
//! for free — no extra adder tree.

use crate::common::{add32, check_shapes, mul32, round_activations, EngineConfig};
use crate::ifpu::fold_partial;
use figlut_lut::key::Key;
use figlut_lut::table::{HalfLut, LutRead};
use figlut_num::align::AlignedVector;
use figlut_num::Mat;
use figlut_quant::BcqWeight;

/// Column windows of one scale group: `(start column, width ≤ µ)`.
fn windows(c0: usize, gs: usize, mu: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..gs.div_ceil(mu)).map(move |wi| {
        let start = c0 + wi * mu;
        let width = mu.min(c0 + gs - start);
        (start, width)
    })
}

/// FIGLUT-F GEMM: FP LUTs + FP32 read-accumulate.
///
/// # Panics
///
/// Panics on shape mismatch or `µ ∉ 1..=8`.
#[allow(clippy::needless_range_loop)] // g indexes groups, luts and column offsets together
pub fn gemm_f(x: &Mat<f64>, w: &BcqWeight, cfg: &EngineConfig) -> Mat<f64> {
    assert!((1..=8).contains(&cfg.mu), "µ = {} unsupported", cfg.mu);
    let (batch, m, _n) = check_shapes(x, w.shape());
    let xa = round_activations(x, cfg.act);
    let q = w.bits() as usize;
    let gs = w.group_size();
    let groups = w.groups();
    let mu = cfg.mu as usize;
    let mut y = Mat::zeros(batch, m);
    for b in 0..batch {
        let xrow = xa.row(b);
        // LUT generation phase: one hFFLUT per window, built with
        // FP32-rounded adds in the generator tree's order.
        let luts: Vec<Vec<HalfLut<f64>>> = (0..groups)
            .map(|g| {
                windows(g * gs, gs, mu)
                    .map(|(start, width)| HalfLut::build(&xrow[start..start + width], add32))
                    .collect()
            })
            .collect();
        // Query phase: every output row re-reads the shared LUTs.
        for r in 0..m {
            let mut acc = 0.0;
            for g in 0..groups {
                let c0 = g * gs;
                for i in 0..q {
                    let plane = w.plane(i);
                    let mut psum = 0.0;
                    for ((start, width), lut) in windows(c0, gs, mu).zip(&luts[g]) {
                        let key = Key::new(plane.key(r, start, width), width as u32);
                        psum = add32(psum, lut.read(key));
                    }
                    acc = add32(acc, mul32(w.alpha(i, r, c0), psum));
                }
                if w.has_offset() {
                    let mut psum = 0.0;
                    for ((_, width), lut) in windows(c0, gs, mu).zip(&luts[g]) {
                        let ones = Key::new(((1u32 << width) - 1) as u16, width as u32);
                        psum = add32(psum, lut.read(ones));
                    }
                    acc = add32(acc, mul32(w.offset(r, c0), psum));
                }
            }
            y[(b, r)] = acc;
        }
    }
    y
}

/// FIGLUT-I GEMM: pre-aligned integer LUTs + integer read-accumulate.
///
/// # Panics
///
/// Panics on shape mismatch or `µ ∉ 1..=8`, or if a LUT entry overflows
/// `i64`. An entry sums at most µ mantissas below `2^(p + guard_bits)`,
/// so that needs `p + guard_bits = 61` (the most alignment accepts) and
/// `µ ≥ 5`.
#[allow(clippy::needless_range_loop)] // g indexes groups, luts and column offsets together
pub fn gemm_i(x: &Mat<f64>, w: &BcqWeight, cfg: &EngineConfig) -> Mat<f64> {
    assert!((1..=8).contains(&cfg.mu), "µ = {} unsupported", cfg.mu);
    let (batch, m, _n) = check_shapes(x, w.shape());
    let xa = round_activations(x, cfg.act);
    let q = w.bits() as usize;
    let gs = w.group_size();
    let groups = w.groups();
    let mu = cfg.mu as usize;
    let mut y = Mat::zeros(batch, m);
    for b in 0..batch {
        let aligned = AlignedVector::align(xa.row(b), cfg.act, cfg.guard_bits, cfg.align);
        let lambda = aligned.scale();
        let mant = aligned.mantissas();
        // Integer hFFLUTs (exact adds).
        let luts: Vec<Vec<HalfLut<i64>>> = (0..groups)
            .map(|g| {
                windows(g * gs, gs, mu)
                    .map(|(start, width)| {
                        HalfLut::build(&mant[start..start + width], |a, c| {
                            // audit: allow(panic) — `# Panics` bound: ≤ µ mantissas below 2^(p+g) fit i64 unless p + g = 61 and µ ≥ 5
                            a.checked_add(c).expect("LUT entry overflow")
                        })
                    })
                    .collect()
            })
            .collect();
        for r in 0..m {
            let mut acc = 0.0;
            for g in 0..groups {
                let c0 = g * gs;
                for i in 0..q {
                    let plane = w.plane(i);
                    let mut p: i128 = 0;
                    for ((start, width), lut) in windows(c0, gs, mu).zip(&luts[g]) {
                        let key = Key::new(plane.key(r, start, width), width as u32);
                        p += lut.read(key) as i128;
                    }
                    acc = fold_partial(acc, w.alpha(i, r, c0), p, lambda);
                }
                if w.has_offset() {
                    let mut p: i128 = 0;
                    for ((_, width), lut) in windows(c0, gs, mu).zip(&luts[g]) {
                        let ones = Key::new(((1u32 << width) - 1) as u16, width as u32);
                        p += lut.read(ones) as i128;
                    }
                    acc = fold_partial(acc, w.offset(r, c0), p, lambda);
                }
            }
            y[(b, r)] = acc;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Weights;
    use crate::{ifpu, reference};
    use figlut_quant::bcq::BcqParams;
    use figlut_quant::uniform::{rtn, RtnParams};

    fn setup(m: usize, n: usize, bits: u32) -> (Mat<f64>, BcqWeight) {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.201).sin() * 0.5);
        let b = BcqWeight::quantize(&w, BcqParams::per_row(bits));
        let x = Mat::from_fn(3, n, |bb, c| ((bb * n + c) as f64 * 0.063).cos());
        (x, b)
    }

    #[test]
    fn figlut_f_close_to_reference() {
        let (x, b) = setup(6, 64, 3);
        let cfg = EngineConfig::paper_default();
        let y = gemm_f(&x, &b, &cfg);
        let oracle = reference::gemm(&x, &Weights::Bcq(&b), &cfg);
        for bb in 0..3 {
            for r in 0..6 {
                let denom = oracle[(bb, r)].abs().max(1.0);
                assert!(
                    ((y[(bb, r)] - oracle[(bb, r)]) / denom).abs() < 1e-4,
                    "({bb},{r}): {} vs {}",
                    y[(bb, r)],
                    oracle[(bb, r)]
                );
            }
        }
    }

    #[test]
    fn figlut_i_bit_identical_to_ifpu() {
        // The LUT only reassociates integer addition, so FIGLUT-I and iFPU
        // must agree to the last bit.
        for (m, n, bits) in [(4, 32, 2), (6, 48, 3), (3, 64, 4)] {
            let (x, b) = setup(m, n, bits);
            let cfg = EngineConfig::paper_default();
            let yl = gemm_i(&x, &b, &cfg);
            let yi = ifpu::gemm(&x, &b, &cfg);
            assert_eq!(
                yl.as_slice(),
                yi.as_slice(),
                "m={m} n={n} q={bits}: FIGLUT-I diverged from iFPU"
            );
        }
    }

    #[test]
    fn figlut_i_bit_identical_to_ifpu_all_mu() {
        let (x, b) = setup(4, 40, 3);
        for mu in 1..=8u32 {
            let cfg = EngineConfig {
                mu,
                ..EngineConfig::paper_default()
            };
            let yl = gemm_i(&x, &b, &cfg);
            let yi = ifpu::gemm(&x, &b, &cfg);
            assert_eq!(yl.as_slice(), yi.as_slice(), "µ={mu}");
        }
    }

    #[test]
    fn uniform_model_runs_losslessly_via_bcq() {
        // RTN-quantized (uniform) model executed on the BCQ engine through
        // the exact Eq. 3 conversion: agrees with the FP reference on the
        // same dequantized weights.
        let w = Mat::from_fn(5, 32, |r, c| ((r * 32 + c) as f64 * 0.157).sin());
        let u = rtn(&w, RtnParams::per_row(4));
        let b = BcqWeight::from_uniform(&u);
        let x = Mat::from_fn(2, 32, |bb, c| ((bb + c) as f64 * 0.091).cos());
        let cfg = EngineConfig::paper_default();
        let y = gemm_f(&x, &b, &cfg);
        let oracle = reference::gemm(&x, &Weights::Uniform(&u), &cfg);
        for bb in 0..2 {
            for r in 0..5 {
                let denom = oracle[(bb, r)].abs().max(1.0);
                assert!(((y[(bb, r)] - oracle[(bb, r)]) / denom).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn ragged_group_width_handled() {
        // n = 30 with µ = 4: last window of each group is narrower.
        let w = Mat::from_fn(3, 30, |r, c| ((r * 30 + c) as f64 * 0.113).sin());
        let b = BcqWeight::quantize(&w, BcqParams::per_row(3));
        let x = Mat::from_fn(1, 30, |_, c| (c as f64 * 0.21).cos());
        let cfg = EngineConfig::paper_default();
        let yf = gemm_f(&x, &b, &cfg);
        let yi = gemm_i(&x, &b, &cfg);
        let oracle = reference::gemm(&x, &Weights::Bcq(&b), &cfg);
        assert!(yf.max_abs_diff(&oracle) < 1e-2);
        assert!(yi.max_abs_diff(&oracle) < 1e-2);
    }

    #[test]
    fn figlut_f_matches_fpe_closely() {
        // Same FP32 accumulation, different association order: results are
        // equal to within a few accumulation ulps.
        let w = Mat::from_fn(4, 64, |r, c| ((r * 64 + c) as f64 * 0.171).sin());
        let u = rtn(&w, RtnParams::per_row(4));
        let b = BcqWeight::from_uniform(&u);
        let x = Mat::from_fn(2, 64, |bb, c| ((bb + 7 * c) as f64 * 0.033).cos());
        let cfg = EngineConfig::paper_default();
        let yl = gemm_f(&x, &b, &cfg);
        let yp = crate::fpe::gemm(&x, &u, &cfg);
        for bb in 0..2 {
            for r in 0..4 {
                let denom = yp[(bb, r)].abs().max(1.0);
                assert!(
                    ((yl[(bb, r)] - yp[(bb, r)]) / denom).abs() < 1e-4,
                    "({bb},{r}): {} vs {}",
                    yl[(bb, r)],
                    yp[(bb, r)]
                );
            }
        }
    }

    #[test]
    fn mu_one_degenerates_to_bit_serial() {
        let (x, b) = setup(3, 16, 2);
        let cfg = EngineConfig {
            mu: 1,
            ..EngineConfig::paper_default()
        };
        let y = gemm_f(&x, &b, &cfg);
        let oracle = reference::gemm(&x, &Weights::Bcq(&b), &cfg);
        assert!(y.max_abs_diff(&oracle) < 1e-2);
    }
}
