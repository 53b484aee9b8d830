//! Exponent pre-alignment (the iFPU / FIGNA technique).
//!
//! Weight-only-quantized GEMM multiplies FP activations with INT weights.
//! iFPU (ICLR'23) and FIGNA (HPCA'24) observe that if every activation in a
//! reduction vector is re-expressed as an integer mantissa relative to the
//! *maximum* exponent in the vector, the whole FP-INT dot product collapses
//! to integer arithmetic followed by one final scale by `2^(e_max − p + 1)`.
//! FIGLUT-I inherits the same front end: LUT entries become integers and the
//! RACs accumulate integers.
//!
//! [`AlignedVector::align`] performs that transform; [`AlignedVector::value`]
//! reconstructs the represented real value of any element; the scale for a
//! raw accumulated integer is [`AlignedVector::scale`].
//!
//! Alignment is lossy: an element whose exponent is far below `e_max` loses
//! its low mantissa bits to the right shift. [`AlignMode`] selects whether
//! the shifted-out bits truncate (cheap hardware, what iFPU describes) or
//! round to nearest even (what FIGNA's "preserving numerical accuracy"
//! evaluation corresponds to). `guard_bits` extends the kept mantissa to
//! bound that loss; the paper's engines keep the full precision of the input
//! format plus accumulation headroom.

use crate::fp::FpFormat;

/// How bits shifted out during alignment are disposed of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum AlignMode {
    /// Round the shifted mantissa to nearest, ties to even.
    #[default]
    RoundNearestEven,
    /// Truncate toward zero (sign-magnitude truncation, as a bare barrel
    /// shifter on a sign-magnitude mantissa implements).
    Truncate,
}

/// A vector of activations re-expressed as integer mantissas sharing one
/// exponent.
///
/// For element `i`: `value(i) = mantissas[i] × 2^(e_max − frac_bits)`.
#[derive(Clone, Debug, PartialEq)]
pub struct AlignedVector {
    mantissas: Vec<i64>,
    e_max: i32,
    frac_bits: u32,
}

impl AlignedVector {
    /// Align `values` (finite `f64`s already rounded to `format`) to their
    /// maximum exponent.
    ///
    /// `format` fixes the significand precision `p`; `guard_bits` keeps `g`
    /// extra fractional bits below the ulp of the largest element, so the
    /// kept mantissa has up to `p + g` significant bits. The paper's
    /// integer engines use `g = 0` with the format's own precision.
    ///
    /// Zeros map to mantissa 0. An all-zero vector aligns to exponent 0.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN or infinite, or if `p + guard_bits > 61`
    /// (mantissas must fit an `i64` with sign).
    pub fn align(values: &[f64], format: FpFormat, guard_bits: u32, mode: AlignMode) -> Self {
        let mut mantissas = Vec::with_capacity(values.len());
        let (e_max, frac_bits) = align_core(values, format, guard_bits, mode, &mut mantissas);
        Self {
            mantissas,
            e_max,
            frac_bits,
        }
    }

    /// Buffer-reusing variant of [`AlignedVector::align`]: *appends* the
    /// aligned mantissas of `values` to `out` (reusing its capacity) and
    /// returns the conversion scale ([`AlignedVector::scale`]) directly.
    ///
    /// Bit-identical to `align` — both run the same core — but performs no
    /// allocation once `out` is warm, which is what lets the `figlut-exec`
    /// hot path stay allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AlignedVector::align`].
    pub fn align_into(
        values: &[f64],
        format: FpFormat,
        guard_bits: u32,
        mode: AlignMode,
        out: &mut Vec<i64>,
    ) -> f64 {
        let (e_max, frac_bits) = align_core(values, format, guard_bits, mode, out);
        pow2(e_max - frac_bits as i32)
    }

    /// The aligned integer mantissas.
    pub fn mantissas(&self) -> &[i64] {
        &self.mantissas
    }

    /// The shared (maximum) unbiased exponent.
    pub fn shared_exponent(&self) -> i32 {
        self.e_max
    }

    /// Number of fractional bits kept below `2^e_max`.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The real value represented by element `i`.
    pub fn value(&self, i: usize) -> f64 {
        self.mantissas[i] as f64 * self.scale()
    }

    /// Scale factor that converts an accumulated integer (any signed
    /// combination of mantissas) back to the real domain.
    pub fn scale(&self) -> f64 {
        pow2(self.e_max - self.frac_bits as i32)
    }

    /// Worst-case absolute representation error of a single element.
    ///
    /// RNE loses at most half an ulp of the aligned grid; truncation a full
    /// ulp.
    pub fn max_element_error(&self, mode: AlignMode) -> f64 {
        match mode {
            AlignMode::RoundNearestEven => 0.5 * self.scale(),
            AlignMode::Truncate => self.scale(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.mantissas.len()
    }

    /// `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.mantissas.is_empty()
    }
}

/// Shared alignment core: appends the aligned mantissas of `values` to
/// `out` and returns `(e_max, frac_bits)`. Both public entry points route
/// through here so their results are bit-identical by construction.
fn align_core(
    values: &[f64],
    format: FpFormat,
    guard_bits: u32,
    mode: AlignMode,
    out: &mut Vec<i64>,
) -> (i32, u32) {
    let p = format.precision();
    assert!(
        p + guard_bits <= 61,
        "aligned mantissa width {} exceeds i64",
        p + guard_bits
    );
    // One scan: the largest magnitude as an integer. Encodings order like
    // magnitudes, so it carries the maximum exponent, and ∞ / NaN sort
    // above every finite value — finding none of them proves finiteness.
    let max_abs = values
        .iter()
        .fold(0u64, |m, v| m.max(v.to_bits() & (u64::MAX >> 1)));
    assert!(
        max_abs < f64::INFINITY.to_bits(),
        "cannot align non-finite activation {}",
        values
            .iter()
            .find(|v| !v.is_finite())
            .map_or(f64::NAN, |&v| v)
    );
    let frac_bits = p - 1 + guard_bits;
    if max_abs == 0 {
        out.extend(std::iter::repeat_n(0i64, values.len()));
        return (0, frac_bits);
    }
    let e_max = exponent_of(f64::from_bits(max_abs));
    let scale = pow2(frac_bits as i32 - e_max);
    // `v * scale` is exact (power-of-two scaling) and below 2^(frac_bits+1)
    // in magnitude; zeros of either sign come out as mantissa 0.
    match mode {
        // Below 2^51, adding and subtracting 1.5·2^52 leaves exactly the
        // nearest integer, ties to even: the sum lands in the binade whose
        // ulp is 1, and the hardware's RNE does the rounding. Wider
        // mantissas keep the explicit tie test.
        AlignMode::RoundNearestEven if frac_bits < 50 => {
            const MAGIC: f64 = 1.5 * (1u64 << 52) as f64;
            out.extend(values.iter().map(|&v| ((v * scale + MAGIC) - MAGIC) as i64));
        }
        AlignMode::RoundNearestEven => {
            out.extend(values.iter().map(|&v| round_ties_even(v * scale) as i64));
        }
        AlignMode::Truncate => out.extend(values.iter().map(|&v| (v * scale).trunc() as i64)),
    }
    (e_max, frac_bits)
}

/// Unbiased base-2 exponent of a finite nonzero `f64`.
fn exponent_of(v: f64) -> i32 {
    debug_assert!(v.is_finite() && v != 0.0);
    let bits = v.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i32;
    if e == 0 {
        // Subnormal: exponent of the leading significand bit.
        let frac = bits & ((1u64 << 52) - 1);
        -1022 - (52 - (63 - frac.leading_zeros() as i32))
    } else {
        e - 1023
    }
}

/// Exact `2^n` for |n| within f64's normal range.
fn pow2(n: i32) -> f64 {
    debug_assert!(
        (-1022..=1023).contains(&n),
        "pow2 exponent {n} out of range"
    );
    f64::from_bits(((1023 + n) as u64) << 52)
}

/// Round to nearest integer, ties to even (f64 → f64).
fn round_ties_even(x: f64) -> f64 {
    let r = x.round(); // ties away from zero
    if (x - x.trunc()).abs() == 0.5 {
        // Tie: pick the even neighbour.
        let down = x.trunc();
        let up = r;
        if (down as i64) % 2 == 0 {
            down
        } else {
            up
        }
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp16;

    #[test]
    fn align_simple() {
        // fp16, p = 11. Values 1.0 and 0.5 → e_max = 0, frac_bits = 10.
        let v = [1.0, 0.5, -0.25, 0.0];
        let a = AlignedVector::align(&v, FpFormat::Fp16, 0, AlignMode::RoundNearestEven);
        assert_eq!(a.shared_exponent(), 0);
        assert_eq!(a.frac_bits(), 10);
        assert_eq!(a.mantissas(), &[1024, 512, -256, 0]);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(a.value(i), x, "element {i}");
        }
    }

    #[test]
    fn align_is_exact_within_precision_window() {
        // Any set of fp16 values whose exponents span < p positions aligns
        // losslessly.
        let vals = [1.5, 1.25, 0.75, -0.625];
        let rounded: Vec<f64> = vals.iter().map(|&x| Fp16::from_f64(x).to_f64()).collect();
        let a = AlignedVector::align(&rounded, FpFormat::Fp16, 0, AlignMode::RoundNearestEven);
        for (i, &x) in rounded.iter().enumerate() {
            assert_eq!(a.value(i), x);
        }
    }

    #[test]
    fn align_into_matches_align_and_appends() {
        let rows: [&[f64]; 3] = [
            &[1.0, 0.5, -0.25, 0.0],
            &[0.0, 0.0, 0.0],
            &[3.75, -0.125, 2.0e-5, 1.0],
        ];
        for mode in [AlignMode::RoundNearestEven, AlignMode::Truncate] {
            for guard in [0u32, 4] {
                let mut flat: Vec<i64> = Vec::new();
                for row in rows {
                    let before = flat.len();
                    let scale =
                        AlignedVector::align_into(row, FpFormat::Fp16, guard, mode, &mut flat);
                    let a = AlignedVector::align(row, FpFormat::Fp16, guard, mode);
                    assert_eq!(&flat[before..], a.mantissas(), "append must match align");
                    assert_eq!(scale, a.scale(), "scale must match align");
                }
                assert_eq!(flat.len(), rows.iter().map(|r| r.len()).sum::<usize>());
            }
        }
    }

    #[test]
    fn align_loses_low_bits_of_small_elements() {
        // 1.0 has e = 0; 2^-14 × (1 + 2^-10) needs bits 24 below e_max →
        // rounds away its fraction at fp16 precision (10 frac bits kept).
        let small = (2.0f64).powi(-14) * (1.0 + (2.0f64).powi(-10));
        let a = AlignedVector::align(
            &[1.0, small],
            FpFormat::Fp16,
            0,
            AlignMode::RoundNearestEven,
        );
        let err = (a.value(1) - small).abs();
        assert!(err > 0.0, "expected alignment loss");
        assert!(err <= a.max_element_error(AlignMode::RoundNearestEven));
    }

    #[test]
    fn guard_bits_reduce_error() {
        let small = (2.0f64).powi(-8) * 1.000976562; // odd low bits
        let coarse = AlignedVector::align(
            &[1.0, small],
            FpFormat::Bf16,
            0,
            AlignMode::RoundNearestEven,
        );
        let fine = AlignedVector::align(
            &[1.0, small],
            FpFormat::Bf16,
            8,
            AlignMode::RoundNearestEven,
        );
        let e_coarse = (coarse.value(1) - small).abs();
        let e_fine = (fine.value(1) - small).abs();
        assert!(e_fine <= e_coarse);
    }

    #[test]
    fn truncate_vs_rne() {
        let v = [1.0, 3.0 * (2.0f64).powi(-12)]; // needs shifting under fp16
        let t = AlignedVector::align(&v, FpFormat::Fp16, 0, AlignMode::Truncate);
        let r = AlignedVector::align(&v, FpFormat::Fp16, 0, AlignMode::RoundNearestEven);
        assert!((t.value(1) - v[1]).abs() >= (r.value(1) - v[1]).abs() - 1e-18);
        // Truncation is toward zero.
        assert!(t.value(1).abs() <= v[1].abs());
    }

    #[test]
    fn all_zero_vector() {
        let a = AlignedVector::align(&[0.0, 0.0], FpFormat::Fp32, 0, AlignMode::default());
        assert_eq!(a.mantissas(), &[0, 0]);
        assert_eq!(a.value(0), 0.0);
    }

    #[test]
    fn subnormal_inputs() {
        let tiny = (2.0f64).powi(-30);
        let a = AlignedVector::align(&[tiny, tiny / 2.0], FpFormat::Fp16, 0, AlignMode::default());
        assert_eq!(a.shared_exponent(), -30);
        assert_eq!(a.value(0), tiny);
        assert_eq!(a.value(1), tiny / 2.0);
    }

    #[test]
    fn dot_product_via_integers_matches_f64() {
        // The whole point: Σ ±x_i computed on mantissas × scale equals the
        // exact signed sum when no alignment loss occurs.
        let xs = [1.0, -0.5, 0.75, 0.125];
        let a = AlignedVector::align(&xs, FpFormat::Fp16, 0, AlignMode::default());
        let signs = [1i64, -1, -1, 1];
        let int_sum: i64 = a.mantissas().iter().zip(signs).map(|(&m, s)| m * s).sum();
        let exact: f64 = xs.iter().zip(signs).map(|(&x, s)| x * s as f64).sum();
        assert_eq!(int_sum as f64 * a.scale(), exact);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let _ = AlignedVector::align(&[f64::NAN], FpFormat::Fp16, 0, AlignMode::default());
    }
}
