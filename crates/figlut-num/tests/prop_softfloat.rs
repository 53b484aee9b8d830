//! Property tests: the soft-float formats must agree with IEEE-754 hardware.
//!
//! `Fp32` has a hardware oracle (the host `f32` unit, which is correctly
//! rounded for add/mul), so we drive it with arbitrary bit patterns —
//! including subnormals, infinities and NaNs — and demand bit equality.
//! `Fp16`/`Bf16` are checked for the algebraic properties that don't need an
//! oracle, plus round-trip invariants.

use figlut_num::align::{AlignMode, AlignedVector};
use figlut_num::fp::{Bf16, Fp16, Fp32, FpFormat};
use proptest::prelude::*;

fn f32_from_bits() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn fp32_roundtrip_bits(bits in any::<u32>()) {
        let x = f32::from_bits(bits);
        let sf = Fp32::from_f32(x);
        if x.is_nan() {
            prop_assert!(sf.is_nan());
        } else {
            prop_assert_eq!(sf.to_bits(), bits);
        }
    }

    #[test]
    fn fp32_quantize_equals_native_cast(bits in any::<u64>()) {
        // `figlut_gemm::common::fp32` (the per-partial fold rounding of
        // every engine and of figlut-exec) uses the host's `f64 → f32`
        // cast; this pins it to the bit-accurate `Sf<8, 23>` path on
        // arbitrary f64 patterns — subnormals and infinities included.
        let x = f64::from_bits(bits);
        prop_assume!(!x.is_nan());
        let soft = FpFormat::Fp32.quantize(x);
        let native = x as f32 as f64;
        prop_assert_eq!(soft.to_bits(), native.to_bits(), "x={:e}", x);
    }

    #[test]
    fn fp32_add_matches_host(a in f32_from_bits(), b in f32_from_bits()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let host = a + b;
        let soft = Fp32::from_f32(a) + Fp32::from_f32(b);
        if host.is_nan() {
            prop_assert!(soft.is_nan());
        } else {
            prop_assert_eq!(soft.to_bits(), host.to_bits(),
                "a={:e} b={:e} host={:e} soft={:e}", a, b, host, soft.to_f64());
        }
    }

    #[test]
    fn fp32_mul_matches_host(a in f32_from_bits(), b in f32_from_bits()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let host = a * b;
        let soft = Fp32::from_f32(a) * Fp32::from_f32(b);
        if host.is_nan() {
            prop_assert!(soft.is_nan());
        } else {
            prop_assert_eq!(soft.to_bits(), host.to_bits(),
                "a={:e} b={:e}", a, b);
        }
    }

    #[test]
    fn fp16_roundtrip_is_idempotent(bits in any::<u16>()) {
        // from_f64(to_f64(x)) must be the identity on every encoding.
        let x = Fp16::from_bits(bits as u32);
        let back = Fp16::from_f64(x.to_f64());
        if x.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bf16_roundtrip_is_idempotent(bits in any::<u16>()) {
        let x = Bf16::from_bits(bits as u32);
        let back = Bf16::from_f64(x.to_f64());
        if x.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bf16_truncation_consistency(x in f32_from_bits()) {
        // bf16 is f32 with a shorter mantissa: rounding f32→bf16 must agree
        // with RNE on the top 16 bits of the f32 encoding.
        prop_assume!(x.is_finite());
        let soft = Bf16::from_f32(x);
        // Oracle: round the f32 bits to the nearest multiple of 2^16, ties
        // to even, then reinterpret the top half (finite cases only).
        let bits = x.to_bits();
        let lo = bits & 0xffff;
        let hi = bits >> 16;
        let rounded = if lo > 0x8000 || (lo == 0x8000 && hi & 1 == 1) { hi + 1 } else { hi };
        prop_assume!(f32::from_bits(rounded << 16).is_finite());
        prop_assert_eq!(soft.to_bits(), rounded, "x={:e}", x);
    }

    #[test]
    fn fp16_add_commutes(a in any::<u16>(), b in any::<u16>()) {
        let x = Fp16::from_bits(a as u32);
        let y = Fp16::from_bits(b as u32);
        prop_assume!(!x.is_nan() && !y.is_nan());
        let l = x + y;
        let r = y + x;
        prop_assert!(l == r || (l.is_nan() && r.is_nan()));
    }

    #[test]
    fn fp16_mul_by_one_is_identity(a in any::<u16>()) {
        let x = Fp16::from_bits(a as u32);
        prop_assume!(!x.is_nan());
        prop_assert_eq!((x * Fp16::ONE).to_bits(), x.to_bits());
    }

    #[test]
    fn fp16_add_is_exact_on_small_ints(a in -1000i32..1000, b in -1000i32..1000) {
        // Integers up to 2^11 are exactly representable in fp16 and their
        // sums within range are exact.
        prop_assume!((a + b).abs() <= 2048);
        let x = Fp16::from_f64(a as f64);
        let y = Fp16::from_f64(b as f64);
        prop_assert_eq!((x + y).to_f64(), (a + b) as f64);
    }

    #[test]
    fn alignment_error_bound(vals in prop::collection::vec(-1e4f64..1e4, 1..64)) {
        // Pre-rounding to fp16 then aligning at fp16 precision loses at most
        // half an aligned ulp per element (RNE mode).
        let rounded: Vec<f64> = vals.iter().map(|&v| Fp16::from_f64(v).to_f64()).collect();
        let a = AlignedVector::align(&rounded, FpFormat::Fp16, 0, AlignMode::RoundNearestEven);
        let bound = a.max_element_error(AlignMode::RoundNearestEven) * (1.0 + 1e-12);
        for (i, &x) in rounded.iter().enumerate() {
            prop_assert!((a.value(i) - x).abs() <= bound,
                "i={} x={} got={} bound={}", i, x, a.value(i), bound);
        }
    }

    #[test]
    fn alignment_with_guard_bits_is_lossless_for_fp16(
        vals in prop::collection::vec(-1e4f64..1e4, 1..32)
    ) {
        // fp16 exponents span at most [-24, 15]; keeping 40+10 fractional
        // bits below e_max preserves every input exactly.
        let rounded: Vec<f64> = vals.iter().map(|&v| Fp16::from_f64(v).to_f64()).collect();
        let a = AlignedVector::align(&rounded, FpFormat::Fp16, 40, AlignMode::RoundNearestEven);
        for (i, &x) in rounded.iter().enumerate() {
            prop_assert_eq!(a.value(i), x);
        }
    }

    #[test]
    fn alignment_signed_sums_match_f64(
        vals in prop::collection::vec(-100.0f64..100.0, 1..32),
        signs in prop::collection::vec(any::<bool>(), 32)
    ) {
        // With lossless alignment (guard bits), the integer signed sum times
        // the scale equals the exact f64 signed sum — the core soundness
        // property FIGLUT-I relies on.
        let rounded: Vec<f64> = vals.iter().map(|&v| Fp16::from_f64(v).to_f64()).collect();
        let a = AlignedVector::align(&rounded, FpFormat::Fp16, 40, AlignMode::RoundNearestEven);
        let sum_int: i128 = a.mantissas().iter().zip(&signs)
            .map(|(&m, &s)| if s { m as i128 } else { -(m as i128) })
            .sum();
        let exact: f64 = rounded.iter().zip(&signs)
            .map(|(&x, &s)| if s { x } else { -x })
            .sum();
        prop_assert_eq!(sum_int as f64 * a.scale(), exact);
    }
}

/// SplitMix64 — the equivalence sweeps below want 10⁶ cheap patterns, not
/// 10⁶ shrinkable proptest cases.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn fp16_quantize_fast_path_is_bit_equal_to_softfloat() {
    let same = |x: f64| {
        let (fast, soft) = (FpFormat::Fp16.quantize(x), Fp16::from_f64(x).to_f64());
        assert_eq!(
            fast.to_bits(),
            soft.to_bits(),
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    };
    // Both ends of the fast range, the subnormal and overflow thresholds,
    // and the specials, in both signs.
    let p = |e: i32| 2.0f64.powi(e);
    for x in [
        0.0,
        p(-14),
        p(-14) - p(-24),
        f64::from_bits(p(-14).to_bits() - 1),
        p(-24),
        p(-25),
        p(-15),
        32767.9,
        f64::from_bits(p(15).to_bits() - 1),
        p(15),
        65504.0,
        65519.99,
        65520.0,
        f64::INFINITY,
        f64::MIN_POSITIVE,
    ] {
        same(x);
        same(-x);
    }
    assert!(FpFormat::Fp16.quantize(f64::NAN).is_nan());
    // Random encodings around the FP16 range. Of the 42 dropped fraction
    // bits, the low 41 are random, zero (with bit 41 set: an exact tie,
    // resolved by the random kept LSB) or all ones (just below a tie / just
    // below the next value); the kept bits are random or all ones (a
    // round-up carries into the next binade).
    let mut rng = 0x5eed_u64;
    for _ in 0..1_000_000 {
        let r = splitmix(&mut rng);
        let exp = (1023 - 30 + (r % 51) as i64) as u64; // −30..=20
        let mut frac = splitmix(&mut rng) & ((1 << 52) - 1);
        let low41 = (1u64 << 41) - 1;
        match (r >> 8) % 4 {
            0 => frac &= !low41,
            1 => frac |= low41,
            _ => {}
        }
        if (r >> 12).is_multiple_of(8) {
            frac |= !((1u64 << 42) - 1) & ((1 << 52) - 1);
        }
        same(f64::from_bits((r >> 63) << 63 | exp << 52 | frac));
    }
}

/// The alignment algorithm as it stood before the fast paths (three passes,
/// explicit tie test) — the reference `align` / `align_into` must match.
fn align_reference(values: &[f64], frac_bits: u32, mode: AlignMode) -> (Vec<i64>, i32) {
    let exponent_of = |v: f64| {
        let e = ((v.to_bits() >> 52) & 0x7ff) as i32;
        assert_ne!(e, 0, "the sweeps below draw no f64 subnormals");
        e - 1023
    };
    let e_max = values
        .iter()
        .filter(|&&v| v != 0.0)
        .map(|&v| exponent_of(v))
        .max();
    let Some(e_max) = e_max else {
        return (vec![0; values.len()], 0);
    };
    let scale = 2.0f64.powi(frac_bits as i32 - e_max);
    let mantissas = values
        .iter()
        .map(|&v| {
            let exact = v * scale;
            match mode {
                AlignMode::Truncate => exact.trunc() as i64,
                AlignMode::RoundNearestEven if (exact - exact.trunc()).abs() == 0.5 => {
                    let down = exact.trunc() as i64;
                    down + (down % 2) // the even neighbour, away from zero if odd
                }
                AlignMode::RoundNearestEven => exact.round() as i64,
            }
        })
        .collect();
    (mantissas, e_max)
}

#[test]
fn align_fast_paths_are_bit_equal_to_the_reference_algorithm() {
    // FP16-shaped rows (11-bit significands) whose exponents spread over
    // 0..=30 positions below a random top: every shift distance, zeros of
    // both signs, and — a significand shifted right by s ties with
    // probability 2⁻ˢ, plus the forced `…1000` patterns — exact ties.
    // Guard 44 keeps 54 fractional bits and runs on the same rows with
    // their low fraction bits filled in: products up to 2⁵⁵ with every bit
    // significant, where the add-and-subtract rounding would be wrong and
    // the explicit tie test must still run.
    let mut rng = 0xa11c_u64;
    let mut flat = Vec::new();
    for case in 0..20_000 {
        let len = 1 + (splitmix(&mut rng) % 24) as usize;
        let top = (splitmix(&mut rng) % 28) as i32 - 14;
        let spread = case % 31;
        let row: Vec<f64> = (0..len)
            .map(|_| {
                let r = splitmix(&mut rng);
                if r.is_multiple_of(11) {
                    return if r & 1 == 0 { 0.0 } else { -0.0 };
                }
                let shift = (r >> 8) as i32 % (spread + 1);
                let mut sig = 1024 | ((r >> 16) & 1023) as i64;
                if (r >> 32).is_multiple_of(4) && (1..=10).contains(&shift) {
                    sig = (sig >> shift << shift) | (1 << (shift - 1)); // tie after the shift
                }
                let v = sig as f64 * 2.0f64.powi(top - shift - 10);
                if r >> 63 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        let wide: Vec<f64> = row
            .iter()
            .map(|&v| match v == 0.0 {
                true => v,
                false => f64::from_bits(v.to_bits() | splitmix(&mut rng) >> 22),
            })
            .collect();
        for mode in [AlignMode::RoundNearestEven, AlignMode::Truncate] {
            for guard in [0u32, 4, 44] {
                let row = if guard == 44 { &wide } else { &row };
                let (want, e_max) = align_reference(row, 10 + guard, mode);
                let a = AlignedVector::align(row, FpFormat::Fp16, guard, mode);
                assert_eq!(
                    a.mantissas(),
                    &want[..],
                    "{mode:?} guard {guard} row {row:?}"
                );
                assert_eq!(a.shared_exponent(), e_max, "row {row:?}");
                flat.clear();
                let scale = AlignedVector::align_into(row, FpFormat::Fp16, guard, mode, &mut flat);
                assert_eq!(flat, want, "align_into, {mode:?} guard {guard} row {row:?}");
                assert_eq!(scale, a.scale());
            }
        }
    }
}
