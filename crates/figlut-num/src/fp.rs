//! Bit-accurate software floating point.
//!
//! The engine models in `figlut-gemm` must reproduce hardware datapaths
//! *bit-exactly* — e.g. the FPE baseline multiplies two FP16 values and
//! accumulates in FP32, and Table IV of the paper hinges on those roundings.
//! Host `f32` cannot express FP16/BF16 rounding, so we provide a generic
//! soft-float [`Sf<E, M>`] over the storage bit layout (1 sign, `E` exponent,
//! `M` mantissa bits) plus the three concrete formats the paper evaluates:
//! [`Fp16`], [`Bf16`] and [`Fp32`].
//!
//! ## Correctness strategy
//!
//! All formats here have significand precision `p = M + 1 ≤ 24`. A classic
//! result (Figueroa, *When is double rounding innocuous?*) shows that
//! rounding an exactly-computed `f64` (`p = 53`) result down to a format with
//! `p ≤ 25` is identical to directly rounding the exact result, because
//! `53 ≥ 2p + 2`. Addition and multiplication of two values from any format
//! below are computed exactly-then-rounded by the host `f64` unit, so
//! `from_f64(a.to_f64() op b.to_f64())` is the correctly-rounded soft-float
//! result. The `from_f64` conversion itself (including subnormals, overflow
//! to infinity, and ties-to-even) is implemented by hand below and verified
//! against the host in this crate's property tests.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};

/// Round `sig` right by `shift` bits with round-to-nearest, ties-to-even.
///
/// `sig` must be `< 2^54`. Returns the rounded quotient (which may carry one
/// bit past the pre-shift width).
#[inline]
fn rne_shift(sig: u64, shift: u32) -> u64 {
    debug_assert!(sig < (1 << 54));
    if shift == 0 {
        return sig;
    }
    if shift >= 55 {
        // Everything is below half an ulp of the destination.
        return 0;
    }
    let q = sig >> shift;
    let rem = sig & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    let up = rem > half || (rem == half && (q & 1) == 1);
    q + up as u64
}

/// A binary floating-point value with 1 sign bit, `E` exponent bits and `M`
/// explicit mantissa bits, stored in the low `1 + E + M` bits of a `u32`.
///
/// Equality and hashing are **bitwise** (so `NaN == NaN` and `0.0 != -0.0`);
/// use [`Sf::total_cmp`] or [`Sf::to_f64`] for numeric comparisons. This is
/// deliberate: the reproduction cares about bit patterns, not IEEE equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sf<const E: u32, const M: u32>(u32);

/// IEEE-754 binary16: 5 exponent bits, 10 mantissa bits.
pub type Fp16 = Sf<5, 10>;
/// bfloat16: 8 exponent bits, 7 mantissa bits.
pub type Bf16 = Sf<8, 7>;
/// IEEE-754 binary32: 8 exponent bits, 23 mantissa bits.
pub type Fp32 = Sf<8, 23>;
/// FP8 E4M3 (OCP 8-bit float, extended range variant not modeled: we keep
/// the IEEE-style special encoding for simplicity). Provided as an
/// *extension* beyond the paper's FP16/BF16/FP32 sweep — a natural
/// future-work activation format for LUT-based GEMM.
pub type Fp8E4M3 = Sf<4, 3>;
/// FP8 E5M2 (OCP 8-bit float).
pub type Fp8E5M2 = Sf<5, 2>;

impl<const E: u32, const M: u32> Sf<E, M> {
    /// Exponent bias (`2^(E-1) - 1`).
    pub const BIAS: i32 = (1 << (E - 1)) - 1;
    /// All-ones biased exponent (infinity / NaN marker).
    pub const EXP_SPECIAL: u32 = (1 << E) - 1;
    const EXP_MASK: u32 = Self::EXP_SPECIAL << M;
    const MANT_MASK: u32 = (1 << M) - 1;
    const SIGN_MASK: u32 = 1 << (E + M);
    /// Significand precision in bits, including the hidden bit.
    pub const PRECISION: u32 = M + 1;
    /// Minimum normal (unbiased) exponent.
    pub const EMIN: i32 = 1 - Self::BIAS;
    /// Maximum finite (unbiased) exponent.
    pub const EMAX: i32 = (Self::EXP_SPECIAL as i32 - 1) - Self::BIAS;

    /// Positive zero.
    pub const ZERO: Self = Self(0);
    /// One.
    pub const ONE: Self = Self((Self::BIAS as u32) << M);
    /// Positive infinity.
    pub const INFINITY: Self = Self(Self::EXP_MASK);
    /// Negative infinity.
    pub const NEG_INFINITY: Self = Self(Self::SIGN_MASK | Self::EXP_MASK);
    /// A quiet NaN.
    pub const NAN: Self = Self(Self::EXP_MASK | (1 << (M - 1)));

    /// Construct from raw storage bits (low `1 + E + M` bits).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if bits above the storage width are set.
    #[inline]
    pub const fn from_bits(bits: u32) -> Self {
        debug_assert!(bits >> (1 + E + M) == 0);
        Self(bits)
    }

    /// Raw storage bits.
    #[inline]
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// Sign bit (`true` if negative, including `-0.0` and negative NaN).
    #[inline]
    pub const fn sign(self) -> bool {
        self.0 & Self::SIGN_MASK != 0
    }

    /// Biased exponent field.
    #[inline]
    pub const fn biased_exponent(self) -> u32 {
        (self.0 & Self::EXP_MASK) >> M
    }

    /// Raw mantissa field (without the hidden bit).
    #[inline]
    pub const fn mantissa(self) -> u32 {
        self.0 & Self::MANT_MASK
    }

    /// `true` if the value is NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        self.biased_exponent() == Self::EXP_SPECIAL && self.mantissa() != 0
    }

    /// `true` if the value is +∞ or −∞.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.biased_exponent() == Self::EXP_SPECIAL && self.mantissa() == 0
    }

    /// `true` for zeros, subnormals and normal numbers.
    #[inline]
    pub const fn is_finite(self) -> bool {
        self.biased_exponent() != Self::EXP_SPECIAL
    }

    /// `true` for ±0.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 & !Self::SIGN_MASK == 0
    }

    /// Exact conversion to `f64`.
    ///
    /// Every finite value of every format with `E ≤ 8`, `M ≤ 24` is exactly
    /// representable in `f64`, so this conversion is lossless.
    pub fn to_f64(self) -> f64 {
        let s = if self.sign() { -1.0 } else { 1.0 };
        let e = self.biased_exponent();
        let m = self.mantissa();
        if e == Self::EXP_SPECIAL {
            return if m == 0 { s * f64::INFINITY } else { f64::NAN };
        }
        if e == 0 {
            // Subnormal: m × 2^(EMIN − M).
            return s * m as f64 * (Self::EMIN - M as i32).exp2_i();
        }
        let sig = ((1u32 << M) | m) as f64;
        s * sig * (e as i32 - Self::BIAS - M as i32).exp2_i()
    }

    /// Convert from `f64` with round-to-nearest-even.
    ///
    /// Handles gradual underflow to subnormals, underflow to signed zero, and
    /// overflow to infinity, exactly as an IEEE-754 conversion would.
    pub fn from_f64(x: f64) -> Self {
        let bits = x.to_bits();
        let sign = (((bits >> 63) as u32) & 1) << (E + M);
        let aexp = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        if aexp == 0x7ff {
            return if frac == 0 {
                Self(sign | Self::EXP_MASK)
            } else {
                Self::NAN
            };
        }
        if aexp == 0 {
            // f64 subnormals are < 2^-1022, far below half the smallest
            // subnormal of any format here → round to signed zero.
            return Self(sign);
        }
        let e = aexp - 1023;
        let sig = (1u64 << 52) | frac; // value = sig × 2^(e − 52)
        let mut shift = 52 - M as i32;
        let mut e_t = e;
        if e < Self::EMIN {
            shift += Self::EMIN - e;
            e_t = Self::EMIN;
        }
        if shift >= 64 {
            return Self(sign);
        }
        let mut q = rne_shift(sig, shift as u32);
        if e < Self::EMIN {
            // Subnormal result; rounding may promote it to the smallest
            // normal, in which case q == 2^M and the encoding below (biased
            // exponent 1, mantissa 0) falls out naturally.
            debug_assert!(q <= 1 << M);
            return Self(sign | q as u32);
        }
        if q >> Self::PRECISION != 0 {
            // Rounding carried into a new binade.
            q >>= 1;
            e_t += 1;
        }
        let be = e_t + Self::BIAS;
        if be >= Self::EXP_SPECIAL as i32 {
            return Self(sign | Self::EXP_MASK);
        }
        debug_assert!(be >= 1);
        Self(sign | ((be as u32) << M) | (q as u32 & Self::MANT_MASK))
    }

    /// Convert from `f32` (round-to-nearest-even; exact for [`Fp32`]).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        // f32 → f64 is exact, so a single rounding happens here.
        Self::from_f64(x as f64)
    }

    /// Absolute value (clears the sign bit, even of NaN).
    #[inline]
    pub const fn abs(self) -> Self {
        Self(self.0 & !Self::SIGN_MASK)
    }

    /// Fused round: `self + rhs` rounded once in this format.
    ///
    /// Exactly the result an IEEE-754 adder for this format produces (see the
    /// module docs for why evaluating through `f64` is exact).
    #[inline]
    pub fn add_rne(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() + rhs.to_f64())
    }

    /// `self × rhs` rounded once in this format.
    #[inline]
    pub fn mul_rne(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() * rhs.to_f64())
    }

    /// IEEE-754 `totalOrder` comparison (negative NaN < −∞ < … < +∞ < NaN).
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        let key = |v: &Self| -> i64 {
            let b = v.0 as i64;
            if v.sign() {
                (Self::SIGN_MASK as i64) - b - 1 - (Self::SIGN_MASK as i64)
            } else {
                b
            }
        };
        key(self).cmp(&key(other))
    }

    /// Unbiased exponent of a finite nonzero value (subnormals report the
    /// exponent of their leading set bit).
    ///
    /// # Panics
    ///
    /// Panics if the value is zero, infinite or NaN.
    pub fn exponent(self) -> i32 {
        assert!(
            self.is_finite() && !self.is_zero(),
            "exponent of zero/special"
        );
        let e = self.biased_exponent();
        if e == 0 {
            // Subnormal: leading bit position of the mantissa.
            let lead = 31 - self.mantissa().leading_zeros();
            Self::EMIN - (M as i32 - lead as i32)
        } else {
            e as i32 - Self::BIAS
        }
    }
}

/// Exact power-of-two helper: `2^self` as `f64`.
trait Exp2I {
    fn exp2_i(self) -> f64;
}

impl Exp2I for i32 {
    #[inline]
    fn exp2_i(self) -> f64 {
        // Exact for the exponent ranges used here (|n| < 300).
        debug_assert!((-1000..=1000).contains(&self));
        f64::from_bits(((1023 + self) as u64) << 52)
    }
}

impl<const E: u32, const M: u32> Neg for Sf<E, M> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(self.0 ^ Self::SIGN_MASK)
    }
}

impl<const E: u32, const M: u32> Add for Sf<E, M> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.add_rne(rhs)
    }
}

impl<const E: u32, const M: u32> Sub for Sf<E, M> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.add_rne(-rhs)
    }
}

impl<const E: u32, const M: u32> Mul for Sf<E, M> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.mul_rne(rhs)
    }
}

impl<const E: u32, const M: u32> Div for Sf<E, M> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        Self::from_f64(self.to_f64() / rhs.to_f64())
    }
}

impl<const E: u32, const M: u32> Default for Sf<E, M> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const E: u32, const M: u32> fmt::Debug for Sf<E, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sf<{E},{M}>({:#x} = {})", self.0, self.to_f64())
    }
}

impl<const E: u32, const M: u32> fmt::Display for Sf<E, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const E: u32, const M: u32> From<f32> for Sf<E, M> {
    fn from(x: f32) -> Self {
        Self::from_f32(x)
    }
}

impl<const E: u32, const M: u32> From<Sf<E, M>> for f64 {
    fn from(x: Sf<E, M>) -> f64 {
        x.to_f64()
    }
}

/// A dynamically chosen activation format, as swept in the paper's Figs.
/// 13–16 (FP16 / BF16 / FP32 input activations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpFormat {
    /// IEEE binary16.
    Fp16,
    /// bfloat16.
    Bf16,
    /// IEEE binary32.
    Fp32,
}

impl FpFormat {
    /// All supported formats, in the order the paper plots them.
    pub const ALL: [FpFormat; 3] = [FpFormat::Fp16, FpFormat::Bf16, FpFormat::Fp32];

    /// Significand precision including the hidden bit (11 / 8 / 24).
    pub const fn precision(self) -> u32 {
        match self {
            FpFormat::Fp16 => Fp16::PRECISION,
            FpFormat::Bf16 => Bf16::PRECISION,
            FpFormat::Fp32 => Fp32::PRECISION,
        }
    }

    /// Storage width in bits (16 / 16 / 32).
    pub const fn storage_bits(self) -> u32 {
        match self {
            FpFormat::Fp16 | FpFormat::Bf16 => 16,
            FpFormat::Fp32 => 32,
        }
    }

    /// Round an `f64` to this format (RNE), returning the value as `f64`.
    ///
    /// This is the workhorse for engines that stay in the `f64` domain but
    /// must apply format rounding at specific datapath points.
    pub fn quantize(self, x: f64) -> f64 {
        match self {
            // FP16 is the activation format of every serving call, so its
            // normal range skips the soft-float round trip: with the
            // unbiased exponent in EMIN..EMAX (−14..=14) the result is a
            // normal FP16 (a rounding carry reaches at most 2^15, still
            // finite), and RNE to 10 mantissa bits is RNE of the `f64`
            // encoding's low 42 bits *as an integer* — add half an ulp minus
            // one plus the kept LSB, clear the dropped bits; a mantissa
            // carry walks into the exponent field by itself. Zeros,
            // subnormal results, the top binade (overflow), NaN and ∞ take
            // the `Sf` route.
            FpFormat::Fp16
                if (Fp16::EMIN..Fp16::EMAX)
                    .contains(&(((x.to_bits() >> 52) & 0x7ff) as i32 - 1023)) =>
            {
                const DROPPED: u32 = 52 - (Fp16::PRECISION - 1);
                let bits = x.to_bits();
                let rounded = bits + ((1u64 << (DROPPED - 1)) - 1) + ((bits >> DROPPED) & 1);
                f64::from_bits(rounded & !((1u64 << DROPPED) - 1))
            }
            FpFormat::Fp16 => Fp16::from_f64(x).to_f64(),
            FpFormat::Bf16 => Bf16::from_f64(x).to_f64(),
            FpFormat::Fp32 => Fp32::from_f64(x).to_f64(),
        }
    }

    /// Short lowercase name (`"fp16"`, `"bf16"`, `"fp32"`).
    pub const fn name(self) -> &'static str {
        match self {
            FpFormat::Fp16 => "fp16",
            FpFormat::Bf16 => "bf16",
            FpFormat::Fp32 => "fp32",
        }
    }
}

impl fmt::Display for FpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fp16() {
        assert_eq!(Fp16::BIAS, 15);
        assert_eq!(Fp16::EMIN, -14);
        assert_eq!(Fp16::EMAX, 15);
        assert_eq!(Fp16::PRECISION, 11);
        assert_eq!(Fp16::ONE.to_f64(), 1.0);
        assert_eq!(Fp16::ONE.to_bits(), 0x3c00);
    }

    #[test]
    fn constants_bf16_fp32() {
        assert_eq!(Bf16::ONE.to_bits(), 0x3f80);
        assert_eq!(Fp32::ONE.to_bits(), 0x3f80_0000);
        assert_eq!(Fp32::from_f32(1.5).to_bits(), 1.5f32.to_bits());
    }

    #[test]
    fn fp16_known_values() {
        // 65504 is the largest finite fp16.
        assert_eq!(Fp16::from_f64(65504.0).to_f64(), 65504.0);
        assert_eq!(Fp16::from_f64(65520.0).to_f64(), f64::INFINITY);
        // Smallest positive subnormal: 2^-24.
        let tiny = (-24i32).exp2_i();
        assert_eq!(Fp16::from_f64(tiny).to_f64(), tiny);
    }

    #[test]
    fn fp16_subnormal_halfway_ties_to_even() {
        // 2^-25 is exactly halfway between 0 and the smallest subnormal
        // (2^-24); RNE goes to the even candidate, which is 0.
        let half_tiny = (-25i32).exp2_i();
        assert!(Fp16::from_f64(half_tiny).is_zero());
        // Just above the halfway point must round up.
        assert_eq!(
            Fp16::from_f64(half_tiny * 1.0001).to_f64(),
            (-24i32).exp2_i()
        );
    }

    #[test]
    fn rounding_ties_to_even() {
        // fp16 has 10 mantissa bits: 1 + 2^-11 is a tie between 1.0 and
        // 1 + 2^-10 → rounds to even (1.0).
        let x = 1.0 + (-11i32).exp2_i();
        assert_eq!(Fp16::from_f64(x).to_f64(), 1.0);
        // 1 + 3·2^-11 ties between 1+2^-10 and 1+2^-9 → rounds to 1+2^-10·2?
        let y = 1.0 + 3.0 * (-11i32).exp2_i();
        assert_eq!(Fp16::from_f64(y).to_f64(), 1.0 + 2.0 * (-10i32).exp2_i());
    }

    #[test]
    fn specials() {
        assert!(Fp16::NAN.is_nan());
        assert!(Fp16::INFINITY.is_infinite());
        assert!(!Fp16::INFINITY.sign());
        assert!(Fp16::NEG_INFINITY.sign());
        assert!(Fp16::from_f64(f64::NAN).is_nan());
        assert_eq!(Fp16::from_f64(f64::INFINITY), Fp16::INFINITY);
        assert!(Fp16::from_f64(-0.0).sign());
        assert!(Fp16::from_f64(-0.0).is_zero());
    }

    #[test]
    fn neg_and_abs() {
        let x = Fp16::from_f64(3.5);
        assert_eq!((-x).to_f64(), -3.5);
        assert_eq!((-x).abs().to_f64(), 3.5);
    }

    #[test]
    fn arithmetic_matches_f64_single_round() {
        let a = Fp16::from_f64(0.1); // rounded
        let b = Fp16::from_f64(0.2);
        let s = a + b;
        // Reference: exact f64 sum of the *rounded* operands, re-rounded.
        assert_eq!(s.to_f64(), Fp16::from_f64(a.to_f64() + b.to_f64()).to_f64());
    }

    #[test]
    fn fp32_matches_host_ops() {
        let cases = [
            (1.0f32, 2.5f32),
            (1e-38, 1e-38),
            (3.4e38, 3.4e38),
            (1.5e-45, 1.5e-45), // subnormals
            (-7.25, 0.1),
            (1e20, -1e20),
        ];
        for (x, y) in cases {
            let a = Fp32::from_f32(x);
            let b = Fp32::from_f32(y);
            assert_eq!((a + b).to_bits(), (x + y).to_bits(), "add {x} {y}");
            assert_eq!((a * b).to_bits(), (x * y).to_bits(), "mul {x} {y}");
        }
    }

    #[test]
    fn exponent_of_subnormal() {
        // fp16 subnormal 3 × 2^-24 has leading bit at 2^-23.
        let x = Fp16::from_f64(3.0 * (-24i32).exp2_i());
        assert_eq!(x.exponent(), -23);
        assert_eq!(Fp16::ONE.exponent(), 0);
        assert_eq!(Fp16::from_f64(0.5).exponent(), -1);
    }

    #[test]
    fn total_cmp_orders_negatives() {
        let mut v = [
            Fp16::from_f64(1.0),
            Fp16::from_f64(-2.0),
            Fp16::ZERO,
            Fp16::from_f64(-0.5),
            Fp16::INFINITY,
            Fp16::NEG_INFINITY,
        ];
        v.sort_by(Fp16::total_cmp);
        let got: Vec<f64> = v.iter().map(|x| x.to_f64()).collect();
        assert_eq!(
            got,
            vec![f64::NEG_INFINITY, -2.0, -0.5, 0.0, 1.0, f64::INFINITY]
        );
    }

    #[test]
    fn format_quantize() {
        assert_eq!(FpFormat::Fp16.quantize(0.1), Fp16::from_f64(0.1).to_f64());
        assert_eq!(FpFormat::Bf16.precision(), 8);
        assert_eq!(FpFormat::Fp32.storage_bits(), 32);
    }

    #[test]
    fn fp8_e4m3_basics() {
        assert_eq!(Fp8E4M3::BIAS, 7);
        assert_eq!(Fp8E4M3::PRECISION, 4);
        assert_eq!(Fp8E4M3::from_f64(1.0).to_f64(), 1.0);
        // Largest finite with IEEE-style specials: 1.875 × 2^7 = 240
        // (the OCP variant's 448 reuses the exponent-1111 space, which this
        // encoding reserves for Inf/NaN).
        assert_eq!(Fp8E4M3::EMAX, 7);
        assert_eq!(Fp8E4M3::from_f64(240.0).to_f64(), 240.0);
        assert!(Fp8E4M3::from_f64(1e4).is_infinite());
        // Quantization steps are coarse: 1.1 rounds to the 4-bit grid.
        let q = Fp8E4M3::from_f64(1.1).to_f64();
        assert!((q - 1.125).abs() < 1e-12, "{q}");
    }

    #[test]
    fn fp8_e5m2_trades_precision_for_range() {
        // E5M2 reaches further than E4M3 but is coarser.
        assert!(Fp8E5M2::from_f64(40000.0).is_finite());
        assert!(Fp8E4M3::from_f64(40000.0).is_infinite());
        let e4 = (Fp8E4M3::from_f64(1.1).to_f64() - 1.1).abs();
        let e5 = (Fp8E5M2::from_f64(1.1).to_f64() - 1.1).abs();
        assert!(e4 <= e5);
    }

    #[test]
    fn fp8_roundtrip_all_encodings() {
        for bits in 0..=255u32 {
            let x = Fp8E4M3::from_bits(bits);
            let back = Fp8E4M3::from_f64(x.to_f64());
            if x.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.to_bits(), bits, "E4M3 {bits:#x}");
            }
            let y = Fp8E5M2::from_bits(bits);
            let back = Fp8E5M2::from_f64(y.to_f64());
            if y.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.to_bits(), bits, "E5M2 {bits:#x}");
            }
        }
    }
}
