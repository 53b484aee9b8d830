//! Binary-coding quantization (BCQ) with optional offset.
//!
//! BCQ expresses a real weight as a signed combination of binary planes:
//!
//! ```text
//! w ≈ Σᵢ αᵢ·bᵢ + z,    bᵢ ∈ {−1, +1},  αᵢ ≥ 0
//! ```
//!
//! This is the weight format FIGLUT executes natively — each plane is
//! streamed through the bit-serial MPU, the RACs look up `±x` combinations,
//! and the α/z scaling happens once per plane at the array edge.
//!
//! Two constructions are provided:
//!
//! * [`BcqWeight::quantize`] — the greedy + alternating optimizer of Xu et
//!   al. (2018) (non-uniform grids; what ShiftAddLLM builds on), optionally
//!   weighted by per-column importance ([`BcqWeight::quantize_weighted`]).
//! * [`BcqWeight::from_uniform`] — the *exact* rewrite of any uniform grid
//!   into BCQ-with-offset (LUT-GEMM / paper Eq. 3 and Fig. 1): scaling
//!   factors become `s·2^(i−1)` and the offset absorbs the grid origin.
//!   This is how FIGLUT runs uniformly quantized (RTN / GPTQ) models on
//!   BCQ-format hardware with zero additional error.

use crate::bitmatrix::BitMatrix;
use crate::linalg::solve_spd;
use figlut_num::Mat;

/// Configuration for the BCQ optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BcqParams {
    /// Number of binary planes `q` (1..=8).
    pub bits: u32,
    /// Columns sharing one (α, z) set; `0` = whole row.
    pub group_size: usize,
    /// Include the offset term `z` (required to represent uniform grids).
    pub with_offset: bool,
    /// Alternating-refinement iterations after the greedy init.
    pub refine_iters: usize,
}

impl BcqParams {
    /// Per-row non-uniform BCQ with offset and a practical refinement depth.
    pub fn per_row(bits: u32) -> Self {
        Self {
            bits,
            group_size: 0,
            with_offset: true,
            refine_iters: 12,
        }
    }

    /// Group-wise variant.
    pub fn grouped(bits: u32, group_size: usize) -> Self {
        Self {
            group_size,
            ..Self::per_row(bits)
        }
    }
}

/// A BCQ-quantized `rows × cols` weight matrix.
#[derive(Clone, Debug)]
pub struct BcqWeight {
    rows: usize,
    cols: usize,
    group_size: usize,
    /// `q` sign planes, each `rows × cols`.
    planes: Vec<BitMatrix>,
    /// Per-plane scale, `rows × groups` each.
    alpha: Vec<Mat<f64>>,
    /// Offset `z`, `rows × groups` (absent for pure non-uniform BCQ).
    offset: Option<Mat<f64>>,
}

impl BcqWeight {
    /// Number of binary planes `q`.
    pub fn bits(&self) -> u32 {
        self.planes.len() as u32
    }

    /// `(rows, cols)` of the represented matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Columns per scale group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Scale groups per row.
    pub fn groups(&self) -> usize {
        self.cols / self.group_size
    }

    /// Sign plane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ bits()`.
    pub fn plane(&self, i: usize) -> &BitMatrix {
        &self.planes[i]
    }

    /// All planes, LSB-equivalent first (for uniform conversions plane `i`
    /// carries weight `2^i`).
    pub fn planes(&self) -> &[BitMatrix] {
        &self.planes
    }

    /// Scale of plane `i` for element `(r, c)`.
    #[inline]
    pub fn alpha(&self, i: usize, r: usize, c: usize) -> f64 {
        self.alpha[i][(r, c / self.group_size)]
    }

    /// Offset `z` for element `(r, c)` (0 when the format has no offset).
    #[inline]
    pub fn offset(&self, r: usize, c: usize) -> f64 {
        self.offset
            .as_ref()
            .map_or(0.0, |z| z[(r, c / self.group_size)])
    }

    /// `true` if the container carries an offset plane.
    pub fn has_offset(&self) -> bool {
        self.offset.is_some()
    }

    /// Dequantized value of one element.
    pub fn value(&self, r: usize, c: usize) -> f64 {
        let mut v = self.offset(r, c);
        for (i, plane) in self.planes.iter().enumerate() {
            v += self.alpha(i, r, c) * plane.sign(r, c);
        }
        v
    }

    /// Dequantize the whole matrix.
    pub fn dequantize(&self) -> Mat<f64> {
        Mat::from_fn(self.rows, self.cols, |r, c| self.value(r, c))
    }

    /// Storage payload in bits: `q` planes of 1 bit/weight plus 16-bit α per
    /// (plane, row, group) and 16-bit z per (row, group) — the accounting the
    /// paper uses when reporting compression (e.g. "Q2.4 compresses the
    /// model by 20% vs Q3").
    pub fn payload_bits(&self) -> usize {
        let q = self.planes.len();
        self.rows * self.cols * q
            + self.rows * self.groups() * 16 * q
            + if self.offset.is_some() {
                self.rows * self.groups() * 16
            } else {
                0
            }
    }

    /// Exact conversion of a uniform grid to BCQ-with-offset (paper Eq. 3).
    ///
    /// Plane `i` holds bit `i` of the unsigned code; its scale is
    /// `s·2^(i−1)` (i.e. `s·2^i / 2`) and the offset becomes
    /// `z = s·(2^q − 1)/2 + base`. The represented values are identical to
    /// the uniform container's, so FIGLUT can execute RTN/GPTQ models
    /// without any re-quantization error.
    ///
    /// Each plane is built a word at a time, eight codes per multiply
    /// ([`BitMatrix::from_row_fn`]); the plane words are bit-identical to
    /// the per-element definition `plane i (r, c) = bit i of code (r, c)`.
    /// α and z are the scalar formulas above, element for element, so a ±0,
    /// infinite or NaN scale or base gives the same bits it always did.
    pub fn from_uniform(u: &crate::uniform::UniformWeight) -> Self {
        let (rows, cols) = u.shape();
        let q = u.bits();
        let gs = u.group_size();
        let groups = cols / gs;
        let planes: Vec<BitMatrix> = (0..q)
            .map(|i| {
                BitMatrix::from_row_fn(rows, cols, |r, words| {
                    for (word, codes) in words.iter_mut().zip(u.row_codes(r).chunks(64)) {
                        *word = plane_word(codes, i);
                    }
                })
            })
            .collect();
        let alpha: Vec<Mat<f64>> = (0..q)
            .map(|i| {
                Mat::from_fn(rows, groups, |r, g| {
                    u.scale(r, g * gs) * (1u64 << i) as f64 / 2.0
                })
            })
            .collect();
        let levels = ((1u64 << q) - 1) as f64;
        let offset = Mat::from_fn(rows, groups, |r, g| {
            u.scale(r, g * gs) * levels / 2.0 + u.base(r, g * gs)
        });
        Self {
            rows,
            cols,
            group_size: gs,
            planes,
            alpha,
            offset: Some(offset),
        }
    }

    /// Reassemble a `BcqWeight` from raw planes and scales.
    ///
    /// This is the inverse direction of accessor-based deconstruction: an
    /// execution backend that re-packs planes into its own layout (e.g.
    /// `figlut-exec`) uses it to hand weights back to the datapath models
    /// for differential testing. The represented values are exactly
    /// `Σᵢ αᵢ·bᵢ (+ z)` per element, as for every other constructor.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is empty or exceeds 8 entries, plane shapes
    /// disagree, `group_size` is 0 or does not divide the columns, or the
    /// `alpha`/`offset` matrices are not `rows × cols/group_size`.
    pub fn from_parts(
        planes: Vec<BitMatrix>,
        alpha: Vec<Mat<f64>>,
        offset: Option<Mat<f64>>,
        group_size: usize,
    ) -> Self {
        assert!(
            (1..=8).contains(&planes.len()),
            "plane count {} outside 1..=8",
            planes.len()
        );
        let rows = planes[0].rows();
        let cols = planes[0].cols();
        for p in &planes {
            assert_eq!((p.rows(), p.cols()), (rows, cols), "plane shape mismatch");
        }
        assert!(
            group_size > 0 && cols.is_multiple_of(group_size),
            "group size {group_size} does not divide {cols}"
        );
        let groups = cols / group_size;
        assert_eq!(alpha.len(), planes.len(), "one alpha matrix per plane");
        for a in &alpha {
            assert_eq!(a.shape(), (rows, groups), "alpha shape mismatch");
        }
        if let Some(z) = &offset {
            assert_eq!(z.shape(), (rows, groups), "offset shape mismatch");
        }
        Self {
            rows,
            cols,
            group_size,
            planes,
            alpha,
            offset,
        }
    }

    /// Greedy + alternating BCQ quantization of `w` (uniform column
    /// importance).
    pub fn quantize(w: &Mat<f64>, params: BcqParams) -> Self {
        Self::quantize_weighted(w, params, None)
    }

    /// BCQ quantization minimizing `Σ_c d_c·(w_c − ŵ_c)²` per (row, group).
    ///
    /// `col_importance` supplies `d_c ≥ 0` per column (e.g. the diagonal of
    /// a calibration Hessian, as ShiftAddLLM uses); `None` means uniform.
    ///
    /// # Panics
    ///
    /// Panics if `bits ∉ 1..=8`, the group size doesn't divide the columns,
    /// or the importance vector has the wrong length.
    pub fn quantize_weighted(
        w: &Mat<f64>,
        params: BcqParams,
        col_importance: Option<&[f64]>,
    ) -> Self {
        assert!(
            (1..=8).contains(&params.bits),
            "bits {} outside 1..=8",
            params.bits
        );
        let (rows, cols) = w.shape();
        let gs = if params.group_size == 0 {
            cols
        } else {
            params.group_size
        };
        assert!(cols % gs == 0, "group size {gs} does not divide {cols}");
        if let Some(d) = col_importance {
            assert_eq!(d.len(), cols, "importance length mismatch");
        }
        let q = params.bits as usize;
        let groups = cols / gs;
        let mut planes = vec![BitMatrix::new(rows, cols); q];
        let mut alpha = vec![Mat::zeros(rows, groups); q];
        let mut offset = params.with_offset.then(|| Mat::zeros(rows, groups));

        let uniform_d = vec![1.0; gs];
        for r in 0..rows {
            for g in 0..groups {
                let c0 = g * gs;
                let ws = &w.row(r)[c0..c0 + gs];
                let d: &[f64] = match col_importance {
                    Some(di) => &di[c0..c0 + gs],
                    None => &uniform_d,
                };
                let sol = fit_group(ws, d, q, params.with_offset, params.refine_iters);
                for i in 0..q {
                    alpha[i][(r, g)] = sol.alpha[i];
                    for (j, &plus) in sol.signs[i].iter().enumerate() {
                        planes[i].set(r, c0 + j, plus);
                    }
                }
                if let Some(z) = offset.as_mut() {
                    z[(r, g)] = sol.z;
                }
            }
        }
        Self {
            rows,
            cols,
            group_size: gs,
            planes,
            alpha,
            offset,
        }
    }
}

/// Per-(row, group) solution of the alternating optimizer.
struct GroupFit {
    alpha: Vec<f64>,
    z: f64,
    signs: Vec<Vec<bool>>, // [plane][col]
}

/// Fit `ws` with `q` binary planes (+ optional offset) minimizing the
/// `d`-weighted squared error.
fn fit_group(ws: &[f64], d: &[f64], q: usize, with_offset: bool, iters: usize) -> GroupFit {
    let n = ws.len();
    // --- Greedy init (Xu et al.): peel off weighted-mean-absolute residual.
    let mut alpha = vec![0.0; q];
    let mut signs = vec![vec![false; n]; q];
    let mut z = 0.0;
    let dsum: f64 = d.iter().sum();
    let mut resid: Vec<f64> = ws.to_vec();
    if with_offset {
        z = if dsum > 0.0 {
            ws.iter().zip(d).map(|(w, di)| w * di).sum::<f64>() / dsum
        } else {
            0.0
        };
        for v in &mut resid {
            *v -= z;
        }
    }
    for i in 0..q {
        let a = if dsum > 0.0 {
            resid.iter().zip(d).map(|(r, di)| r.abs() * di).sum::<f64>() / dsum
        } else {
            0.0
        };
        alpha[i] = a;
        for (j, rv) in resid.iter_mut().enumerate() {
            let s = *rv >= 0.0;
            signs[i][j] = s;
            *rv -= if s { a } else { -a };
        }
    }

    // --- Alternating refinement.
    let mut best = weighted_err(ws, d, &alpha, z, &signs);
    for _ in 0..iters {
        // (1) Fix signs, solve for α (and z) by weighted least squares.
        let dim = q + with_offset as usize;
        let mut g = Mat::zeros(dim, dim);
        let mut rhs = vec![0.0; dim];
        let basis = |i: usize, c: usize| -> f64 {
            if i < q {
                if signs[i][c] {
                    1.0
                } else {
                    -1.0
                }
            } else {
                1.0 // offset column
            }
        };
        for i in 0..dim {
            for j in i..dim {
                let mut s = 0.0;
                for (c, &dc) in d.iter().enumerate() {
                    s += dc * basis(i, c) * basis(j, c);
                }
                g[(i, j)] = s;
                g[(j, i)] = s;
            }
            let mut s = 0.0;
            for (c, (&dc, &wc)) in d.iter().zip(ws).enumerate() {
                s += dc * basis(i, c) * wc;
            }
            rhs[i] = s;
        }
        if let Some(sol) = solve_spd(&g, &rhs) {
            alpha[..q].copy_from_slice(&sol[..q]);
            if with_offset {
                z = sol[q];
            }
            // Canonicalize: negative α ≡ flipped plane.
            for i in 0..q {
                if alpha[i] < 0.0 {
                    alpha[i] = -alpha[i];
                    for s in &mut signs[i] {
                        *s = !*s;
                    }
                }
            }
        }

        // (2) Fix α/z, re-pick each column's code by exhaustive search over
        // the 2^q representable levels.
        let m = 1usize << q;
        let mut levels = vec![z; m];
        for (mask, lv) in levels.iter_mut().enumerate() {
            for (i, &a) in alpha.iter().enumerate() {
                *lv += if (mask >> i) & 1 == 1 { a } else { -a };
            }
        }
        for c in 0..n {
            let mut best_mask = 0;
            let mut best_d = f64::INFINITY;
            for (mask, &lv) in levels.iter().enumerate() {
                let e = (ws[c] - lv).abs();
                if e < best_d {
                    best_d = e;
                    best_mask = mask;
                }
            }
            for (i, sv) in signs.iter_mut().enumerate() {
                sv[c] = (best_mask >> i) & 1 == 1;
            }
        }

        let err = weighted_err(ws, d, &alpha, z, &signs);
        if err >= best - 1e-15 {
            break;
        }
        best = err;
    }
    GroupFit { alpha, z, signs }
}

#[allow(clippy::needless_range_loop)] // c indexes ws, d and every plane of signs
fn weighted_err(ws: &[f64], d: &[f64], alpha: &[f64], z: f64, signs: &[Vec<bool>]) -> f64 {
    let mut err = 0.0;
    for (c, (&w, &dc)) in ws.iter().zip(d).enumerate() {
        let mut v = z;
        for (i, &a) in alpha.iter().enumerate() {
            v += if signs[i][c] { a } else { -a };
        }
        err += dc * (w - v) * (w - v);
    }
    err
}

/// Bit `i` of up to 64 codes as one plane word (bit `k` ↔ `codes[k]`),
/// eight codes per multiply: in a little-endian word of eight codes the
/// masked bits sit 8 apart, and the multiply gathers them into the top
/// byte without carries, since every partial product lands on a distinct
/// bit.
#[inline(always)]
fn plane_word(codes: &[u8], i: u32) -> u64 {
    let byte = |le: [u8; 8]| {
        ((u64::from_le_bytes(le) >> i) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080)
            >> 56
    };
    let eights = codes.chunks_exact(8);
    let tail = eights.remainder();
    let mut word = 0;
    let mut k = 0;
    for eight in eights {
        let mut le = [0; 8];
        le.copy_from_slice(eight);
        word |= byte(le) << k;
        k += 8;
    }
    if !tail.is_empty() {
        let mut le = [0; 8];
        le[..tail.len()].copy_from_slice(tail);
        word |= byte(le) << k;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::weight_mse;
    use crate::uniform::{rtn, RtnParams};

    fn test_weights(rows: usize, cols: usize) -> Mat<f64> {
        // Deterministic pseudo-Gaussian-ish spread.
        Mat::from_fn(rows, cols, |r, c| {
            let t = (r * cols + c) as f64;
            (t * 0.37).sin() + 0.3 * (t * 0.11).cos()
        })
    }

    #[test]
    fn from_uniform_is_exact() {
        let w = test_weights(4, 16);
        for bits in 1..=4 {
            let u = rtn(&w, RtnParams::per_row(bits));
            let b = BcqWeight::from_uniform(&u);
            assert_eq!(b.bits(), bits);
            let du = u.dequantize();
            let db = b.dequantize();
            assert!(
                du.max_abs_diff(&db) < 1e-12,
                "bits={bits}: {}",
                du.max_abs_diff(&db)
            );
        }
    }

    #[test]
    fn from_uniform_grouped_is_exact() {
        let w = test_weights(3, 24);
        let u = rtn(&w, RtnParams::grouped(3, 8));
        let b = BcqWeight::from_uniform(&u);
        assert_eq!(b.groups(), 3);
        assert!(u.dequantize().max_abs_diff(&b.dequantize()) < 1e-12);
    }

    #[test]
    fn greedy_alternating_reduces_error() {
        let w = test_weights(6, 32);
        let coarse = BcqWeight::quantize(
            &w,
            BcqParams {
                bits: 3,
                group_size: 0,
                with_offset: true,
                refine_iters: 0,
            },
        );
        let refined = BcqWeight::quantize(&w, BcqParams::per_row(3));
        let e0 = weight_mse(&w, &coarse.dequantize());
        let e1 = weight_mse(&w, &refined.dequantize());
        assert!(e1 <= e0 + 1e-15, "refined {e1} > greedy {e0}");
        assert!(
            e1 < e0 * 0.9,
            "refinement should help meaningfully: {e1} vs {e0}"
        );
    }

    #[test]
    fn more_planes_reduce_error() {
        let w = test_weights(4, 48);
        let mut last = f64::INFINITY;
        for bits in 1..=4 {
            let b = BcqWeight::quantize(&w, BcqParams::per_row(bits));
            let e = weight_mse(&w, &b.dequantize());
            assert!(e <= last + 1e-15, "bits={bits}: {e} > {last}");
            last = e;
        }
    }

    #[test]
    fn bcq_beats_rtn_at_low_bits() {
        // The key claim behind non-uniform quantization (paper Fig. 1 /
        // Table VI): at very low precision an optimized non-uniform grid has
        // lower weight error than the uniform RTN grid.
        let w = Mat::from_fn(8, 64, |r, c| {
            // Heavy-tailed distribution where non-uniform grids shine.
            let t = ((r * 64 + c) as f64 * 0.29).sin();
            t * t * t
        });
        for bits in [2u32, 3] {
            let u = rtn(&w, RtnParams::per_row(bits));
            let b = BcqWeight::quantize(&w, BcqParams::per_row(bits));
            let eu = weight_mse(&w, &u.dequantize());
            let eb = weight_mse(&w, &b.dequantize());
            assert!(eb < eu, "bits={bits}: BCQ {eb} !< RTN {eu}");
        }
    }

    #[test]
    fn offset_helps_on_shifted_data() {
        let w = Mat::from_fn(2, 32, |_, c| 5.0 + 0.1 * ((c as f64) * 0.7).sin());
        let no_off = BcqWeight::quantize(
            &w,
            BcqParams {
                bits: 2,
                group_size: 0,
                with_offset: false,
                refine_iters: 8,
            },
        );
        let with_off = BcqWeight::quantize(&w, BcqParams::per_row(2));
        let e0 = weight_mse(&w, &no_off.dequantize());
        let e1 = weight_mse(&w, &with_off.dequantize());
        assert!(e1 < e0, "offset {e1} !< no-offset {e0}");
        assert!(!no_off.has_offset());
        assert!(with_off.has_offset());
    }

    #[test]
    fn weighted_fit_prioritizes_important_columns() {
        let w = Mat::from_fn(
            1,
            16,
            |_, c| if c == 0 { 1.0 } else { -0.8 + 0.1 * c as f64 },
        );
        let mut d = vec![1.0; 16];
        d[0] = 1e4; // column 0 is critical
        let b = BcqWeight::quantize_weighted(&w, BcqParams::per_row(1), Some(&d));
        let bu = BcqWeight::quantize(&w, BcqParams::per_row(1));
        let e_w = (b.value(0, 0) - 1.0).abs();
        let e_u = (bu.value(0, 0) - 1.0).abs();
        assert!(e_w <= e_u + 1e-12, "weighted {e_w} > uniform {e_u}");
    }

    #[test]
    fn alphas_are_canonical_nonnegative() {
        let w = test_weights(3, 16);
        let b = BcqWeight::quantize(&w, BcqParams::per_row(3));
        for i in 0..3 {
            for r in 0..3 {
                assert!(b.alpha(i, r, 0) >= 0.0);
            }
        }
    }

    #[test]
    fn payload_accounting() {
        let w = test_weights(2, 64);
        let b3 = BcqWeight::quantize(&w, BcqParams::per_row(3));
        let b2 = BcqWeight::quantize(&w, BcqParams::per_row(2));
        assert!(b2.payload_bits() < b3.payload_bits());
        // Dominated by rows·cols·q.
        assert!(b3.payload_bits() >= 2 * 64 * 3);
    }

    #[test]
    fn from_parts_roundtrips() {
        let w = test_weights(4, 24);
        let b = BcqWeight::quantize(&w, BcqParams::grouped(3, 8));
        let rebuilt = BcqWeight::from_parts(
            b.planes().to_vec(),
            (0..3)
                .map(|i| Mat::from_fn(4, 3, |r, g| b.alpha(i, r, g * 8)))
                .collect(),
            Some(Mat::from_fn(4, 3, |r, g| b.offset(r, g * 8))),
            8,
        );
        assert_eq!(rebuilt.bits(), b.bits());
        assert_eq!(rebuilt.shape(), b.shape());
        assert!(b.dequantize().max_abs_diff(&rebuilt.dequantize()) == 0.0);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn from_parts_checks_group_size() {
        let w = test_weights(2, 8);
        let b = BcqWeight::quantize(&w, BcqParams::per_row(2));
        let _ = BcqWeight::from_parts(b.planes().to_vec(), vec![Mat::zeros(2, 1); 2], None, 3);
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn rejects_zero_bits() {
        let w = test_weights(1, 8);
        let _ = BcqWeight::quantize(&w, BcqParams::per_row(0));
    }
}
