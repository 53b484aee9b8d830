//! Round-to-nearest (RTN) uniform quantization.
//!
//! The paper's accuracy study (Table IV) quantizes OPT weights with "the
//! simple uniform quantization method, round-to-nearest", 4-bit, per-row.
//! We implement the standard asymmetric (min/max) and symmetric (absmax)
//! grids with per-tensor, per-row, or group-wise granularity.
//!
//! A [`UniformWeight`] stores unsigned codes `v ∈ [0, 2^q)` with an affine
//! map `w = scale·v + base` per (row, group). That form makes the exact
//! uniform → BCQ-with-offset conversion (paper Eq. 3) a two-line formula;
//! see [`crate::bcq::BcqWeight::from_uniform`].

use figlut_num::Mat;

/// Quantization grid granularity and symmetry for [`rtn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtnParams {
    /// Weight precision in bits (1..=8).
    pub bits: u32,
    /// Columns that share one scale; `0` means the whole row is one group.
    pub group_size: usize,
    /// Symmetric (absmax, zero at grid center) vs asymmetric (min/max) grid.
    pub symmetric: bool,
}

impl RtnParams {
    /// Asymmetric per-row quantization at `bits` (the paper's RTN setup).
    pub fn per_row(bits: u32) -> Self {
        Self {
            bits,
            group_size: 0,
            symmetric: false,
        }
    }

    /// Asymmetric group-wise quantization.
    pub fn grouped(bits: u32, group_size: usize) -> Self {
        Self {
            bits,
            group_size,
            symmetric: false,
        }
    }
}

/// A uniformly quantized `rows × cols` weight matrix.
///
/// Element `(r, c)` dequantizes to `scale[r][g]·code + base[r][g]` where
/// `g = c / group_size`.
#[derive(Clone, Debug, PartialEq)]
pub struct UniformWeight {
    rows: usize,
    cols: usize,
    bits: u32,
    group_size: usize,
    codes: Vec<u8>,
    scale: Mat<f64>,
    base: Mat<f64>,
}

impl UniformWeight {
    /// Weight precision in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `(rows, cols)` of the dequantized matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Columns per scale group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of scale groups per row.
    pub fn groups(&self) -> usize {
        self.cols.div_ceil(self.group_size)
    }

    /// Unsigned code of element `(r, c)`.
    #[inline]
    pub fn code(&self, r: usize, c: usize) -> u8 {
        self.codes[r * self.cols + c]
    }

    /// Scale of element `(r, c)`'s group.
    #[inline]
    pub fn scale(&self, r: usize, c: usize) -> f64 {
        self.scale[(r, c / self.group_size)]
    }

    /// Affine base (grid origin) of element `(r, c)`'s group.
    #[inline]
    pub fn base(&self, r: usize, c: usize) -> f64 {
        self.base[(r, c / self.group_size)]
    }

    /// Dequantized value of one element.
    #[inline]
    pub fn value(&self, r: usize, c: usize) -> f64 {
        self.scale(r, c) * self.code(r, c) as f64 + self.base(r, c)
    }

    /// Dequantize the whole matrix.
    pub fn dequantize(&self) -> Mat<f64> {
        Mat::from_fn(self.rows, self.cols, |r, c| self.value(r, c))
    }

    /// Replace the code at `(r, c)` (used by GPTQ's compensation loop).
    ///
    /// # Panics
    ///
    /// Panics if `code` does not fit in `bits`.
    pub fn set_code(&mut self, r: usize, c: usize, code: u8) {
        assert!(
            (code as u32) < (1 << self.bits),
            "code {code} out of range for {} bits",
            self.bits
        );
        self.codes[r * self.cols + c] = code;
    }

    /// Quantize `x` onto the grid of `(r, c)`'s group, returning the code.
    pub fn nearest_code(&self, r: usize, c: usize, x: f64) -> u8 {
        let s = self.scale(r, c);
        if s == 0.0 {
            return 0;
        }
        grid_code((x - self.base(r, c)) / s, ((1u32 << self.bits) - 1) as f64)
    }

    /// The codes of row `r`, one byte per column.
    #[inline]
    pub(crate) fn row_codes(&self, r: usize) -> &[u8] {
        &self.codes[r * self.cols..][..self.cols]
    }

    /// Payload size in bits: codes + one (scale, base) pair per group in the
    /// activation format's width (16 bits each here, matching the paper's
    /// storage accounting).
    pub fn payload_bits(&self) -> usize {
        self.rows * self.cols * self.bits as usize + self.rows * self.groups() * 32
    }
}

/// Round-to-nearest uniform quantization of `w`.
///
/// Each group's grid comes from the min and max (asymmetric) or the absmax
/// (symmetric) of its non-NaN values, and each code is
/// `round((x − base) / scale)` clamped to `0..=2^bits − 1`, rounding half
/// away from zero; a zero-scale group and a NaN weight get code 0. The
/// result is bit-identical to the scalar definition (sequential
/// `fold(f64::min)` / `fold(f64::max)` / absmax folds, then `f64::round`
/// per element): the group extremes come from one pass over eight
/// independent accumulators, and where an asymmetric group's min or max is
/// ±0, whose sign depends on fold order and lands in the stored base, the
/// group's grid comes from the sequential folds. A symmetric group with no
/// nonzero value has absmax +0, as the scalar absmax fold gives.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=8` or `group_size` does not divide the
/// column count (when nonzero).
pub fn rtn(w: &Mat<f64>, params: RtnParams) -> UniformWeight {
    assert!(
        (1..=8).contains(&params.bits),
        "bits {} outside 1..=8",
        params.bits
    );
    let (rows, cols) = w.shape();
    let group_size = if params.group_size == 0 {
        cols
    } else {
        params.group_size
    };
    assert!(
        cols % group_size == 0,
        "group size {group_size} does not divide {cols} columns"
    );
    let groups = cols / group_size;
    let levels = (1u32 << params.bits) - 1;
    let mut scale = Mat::zeros(rows, groups);
    let mut base = Mat::zeros(rows, groups);
    let mut codes = vec![0u8; rows * cols];
    for r in 0..rows {
        for g in 0..groups {
            let slice = &w.row(r)[g * group_size..(g + 1) * group_size];
            let (mn, mx) = min_max(slice);
            let (s, b) = if params.symmetric {
                // Codes 0..=levels map to −absmax..+absmax; zero code is the
                // midpoint (levels even keeps an exact zero for odd level
                // counts). A group with no nonzero value has absmax +0.
                let a = mx.max(-mn);
                let absmax = if a > 0.0 { a } else { 0.0 };
                let s = if absmax == 0.0 {
                    0.0
                } else {
                    2.0 * absmax / levels as f64
                };
                (s, -absmax)
            } else {
                // A zero extreme's sign depends on fold order, and the base
                // stores it: take the sequential folds' bits.
                let (mn, mx) = if mn == 0.0 || mx == 0.0 {
                    (
                        slice.iter().copied().fold(f64::INFINITY, f64::min),
                        slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    )
                } else {
                    (mn, mx)
                };
                let s = if mx > mn {
                    (mx - mn) / levels as f64
                } else {
                    0.0
                };
                (s, mn)
            };
            scale[(r, g)] = s;
            base[(r, g)] = b;
            if s != 0.0 {
                let out = &mut codes[r * cols + g * group_size..][..group_size];
                for (code, &x) in out.iter_mut().zip(slice) {
                    *code = grid_code((x - b) / s, levels as f64);
                }
            }
        }
    }
    UniformWeight {
        rows,
        cols,
        bits: params.bits,
        group_size,
        codes,
        scale,
        base,
    }
}

/// `(min, max)` of the non-NaN values of `xs` (`(+∞, −∞)` if there are
/// none), in one pass over eight independent accumulators. The values are
/// those of the sequential folds; only the sign of a zero extreme may
/// differ, since `f64::min`/`max` may return either of `+0` and `−0`.
fn min_max(xs: &[f64]) -> (f64, f64) {
    const LANES: usize = 8;
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for j in 0..LANES {
            lo[j] = lo[j].min(chunk[j]);
            hi[j] = hi[j].max(chunk[j]);
        }
    }
    for (j, &x) in tail.iter().enumerate() {
        lo[j] = lo[j].min(x);
        hi[j] = hi[j].max(x);
    }
    (
        lo.into_iter().fold(f64::INFINITY, f64::min),
        hi.into_iter().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// The code of grid position `q = (x − base) / scale` on a grid of
/// `levels + 1` codes: `q` clamped to `[0, levels]`, then rounded half away
/// from zero, with NaN giving 0. This equals `q.round().clamp(0, levels)`
/// on every input (both bounds are integers, and `round` is monotone), but
/// needs no libm call: a truncating cast and one compare of the exact
/// fraction.
#[inline(always)]
fn grid_code(q: f64, levels: f64) -> u8 {
    let c = q.clamp(0.0, levels);
    let whole = c as u8;
    whole + (c - whole as f64 >= 0.5) as u8
}

/// Build a [`UniformWeight`] with the given grids and all-zero codes, for
/// quantizers (like GPTQ) that fill codes themselves.
pub fn empty_with_grid(
    rows: usize,
    cols: usize,
    bits: u32,
    group_size: usize,
    scale: Mat<f64>,
    base: Mat<f64>,
) -> UniformWeight {
    let gs = if group_size == 0 { cols } else { group_size };
    assert!(
        cols.is_multiple_of(gs),
        "group size {gs} does not divide {cols}"
    );
    assert_eq!(scale.shape(), (rows, cols / gs), "scale shape");
    assert_eq!(base.shape(), (rows, cols / gs), "base shape");
    UniformWeight {
        rows,
        cols,
        bits,
        group_size: gs,
        codes: vec![0; rows * cols],
        scale,
        base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Mat<f64> {
        Mat::from_vec(2, 4, vec![0.0, 1.0, 2.0, 3.0, -1.0, -0.5, 0.5, 1.0])
    }

    #[test]
    fn rtn_exact_on_grid_values() {
        // Row 0 is exactly the 2-bit asymmetric grid [0, 3].
        let q = rtn(&toy(), RtnParams::per_row(2));
        let d = q.dequantize();
        for c in 0..4 {
            assert_eq!(d[(0, c)], c as f64);
        }
    }

    #[test]
    fn rtn_error_bounded_by_half_step() {
        let w = Mat::from_fn(4, 16, |r, c| ((r * 16 + c) as f64 * 0.37).sin());
        for bits in 2..=8 {
            let q = rtn(&w, RtnParams::per_row(bits));
            let d = q.dequantize();
            for r in 0..4 {
                let row = w.row(r);
                let mn = row.iter().cloned().fold(f64::INFINITY, f64::min);
                let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let step = (mx - mn) / ((1u32 << bits) - 1) as f64;
                for c in 0..16 {
                    assert!(
                        (d[(r, c)] - w[(r, c)]).abs() <= step / 2.0 + 1e-12,
                        "bits={bits} r={r} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn rtn_more_bits_never_worse() {
        let w = Mat::from_fn(8, 32, |r, c| ((r + 3 * c) as f64 * 0.711).cos());
        let mut last = f64::INFINITY;
        for bits in 1..=8 {
            let q = rtn(&w, RtnParams::per_row(bits));
            let err = crate::error::weight_mse(&w, &q.dequantize());
            assert!(err <= last + 1e-15, "bits={bits}: {err} > {last}");
            last = err;
        }
    }

    #[test]
    fn grouped_scales_beat_per_row() {
        // Each half sits exactly on its own 2-bit grid, but the two grids
        // are incompatible — group-wise scales capture both exactly while a
        // single per-row grid cannot.
        let w = Mat::from_vec(1, 8, vec![0.0, 0.1, 0.2, 0.3, 10.0, 13.0, 16.0, 19.0]);
        let per_row = rtn(&w, RtnParams::per_row(2));
        let grouped = rtn(&w, RtnParams::grouped(2, 4));
        let e_row = crate::error::weight_mse(&w, &per_row.dequantize());
        let e_grp = crate::error::weight_mse(&w, &grouped.dequantize());
        assert!(e_grp < e_row, "{e_grp} !< {e_row}");
        assert_eq!(grouped.groups(), 2);
    }

    #[test]
    fn symmetric_grid_covers_negatives() {
        let w = Mat::from_vec(1, 4, vec![-2.0, -1.0, 1.0, 2.0]);
        let q = rtn(
            &w,
            RtnParams {
                bits: 4,
                group_size: 0,
                symmetric: true,
            },
        );
        let d = q.dequantize();
        for c in 0..4 {
            assert!((d[(0, c)] - w[(0, c)]).abs() <= 2.0 * 2.0 / 15.0 / 2.0 + 1e-12);
        }
    }

    #[test]
    fn constant_row_quantizes_exactly() {
        let w = Mat::from_fn(1, 6, |_, _| 0.25);
        let q = rtn(&w, RtnParams::per_row(4));
        assert_eq!(q.dequantize().row(0), &[0.25; 6]);
    }

    #[test]
    fn nearest_code_clamps() {
        let q = rtn(&toy(), RtnParams::per_row(2));
        assert_eq!(q.nearest_code(0, 0, 100.0), 3);
        assert_eq!(q.nearest_code(0, 0, -100.0), 0);
        assert_eq!(q.nearest_code(0, 0, 1.2), 1);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn bad_group_size_rejected() {
        let _ = rtn(&toy(), RtnParams::grouped(4, 3));
    }
}
