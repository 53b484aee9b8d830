//! Wide integer accumulators with bit-width bookkeeping.
//!
//! The integer engines (iFPU, FIGNA, FIGLUT-I) accumulate aligned mantissas
//! (or mantissa × weight products) into wide registers. Functionally an
//! `i128` suffices; the simulator additionally needs to know *how wide the
//! register must be* to size flip-flop area and energy. [`WideAcc`] tracks
//! the running value and the maximum magnitude ever held, and
//! [`required_bits`] converts magnitudes to two's-complement widths.

/// Two's-complement bits required to hold any value whose magnitude is at
/// most `max_abs` (including the sign bit).
///
/// ```
/// # use figlut_num::fixed::required_bits;
/// assert_eq!(required_bits(0), 1);
/// assert_eq!(required_bits(1), 2);   // −1..1 needs 2 bits
/// assert_eq!(required_bits(127), 8);
/// assert_eq!(required_bits(128), 9);
/// ```
pub fn required_bits(max_abs: u128) -> u32 {
    // A w-bit two's-complement register holds −2^(w−1) ..= 2^(w−1)−1; to hold
    // ±max_abs symmetrically we need 2^(w−1) − 1 ≥ max_abs.
    let mut w = 1;
    while ((1u128 << (w - 1)) - 1) < max_abs {
        w += 1;
    }
    w
}

/// Closed-form accumulator width for a dot product of `n` terms of
/// `operand_bits`-wit signed operands (the worst case the simulator sizes
/// registers for).
///
/// `operand_bits` includes the sign; the result includes the sign.
pub fn accumulator_bits(operand_bits: u32, n: usize) -> u32 {
    if n == 0 {
        return 1;
    }
    let growth = usize::BITS - (n - 1).leading_zeros();
    operand_bits + growth
}

/// A signed accumulator that records the widest value it ever held.
///
/// Overflow of the underlying `i128` panics (in all build profiles): the
/// models never legitimately reach 2^127.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WideAcc {
    value: i128,
    max_abs: u128,
}

impl WideAcc {
    /// A zeroed accumulator.
    pub const fn new() -> Self {
        Self {
            value: 0,
            max_abs: 0,
        }
    }

    /// Add `v` into the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the sum leaves `i128`.
    pub fn add(&mut self, v: i128) {
        self.value = self
            .value
            .checked_add(v)
            // audit: allow(panic) — documented `# Panics` precondition: the sum stays inside i128
            .expect("WideAcc overflow: accumulation exceeded i128");
        self.max_abs = self.max_abs.max(self.value.unsigned_abs());
    }

    /// Subtract `v` from the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `v` is `i128::MIN` or the difference leaves `i128`.
    pub fn sub(&mut self, v: i128) {
        // audit: allow(panic) — documented `# Panics` precondition: v > i128::MIN
        self.add(v.checked_neg().expect("i128::MIN negation"));
    }

    /// Current value.
    pub fn value(&self) -> i128 {
        self.value
    }

    /// Largest magnitude the accumulator ever held.
    pub fn max_abs(&self) -> u128 {
        self.max_abs
    }

    /// Two's-complement register width needed for the observed history.
    pub fn observed_bits(&self) -> u32 {
        required_bits(self.max_abs)
    }

    /// Reset the value, keeping the observed width watermark.
    pub fn clear(&mut self) {
        self.value = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_bits_boundaries() {
        assert_eq!(required_bits(0), 1);
        assert_eq!(required_bits(1), 2);
        assert_eq!(required_bits(2), 3);
        assert_eq!(required_bits(3), 3);
        assert_eq!(required_bits(4), 4);
        assert_eq!(required_bits(u64::MAX as u128), 65);
    }

    #[test]
    fn accumulator_bits_growth() {
        // 8-bit operands: 1 term needs 8 bits, 2 terms 9, 256 terms 16.
        assert_eq!(accumulator_bits(8, 1), 8);
        assert_eq!(accumulator_bits(8, 2), 9);
        assert_eq!(accumulator_bits(8, 3), 10);
        assert_eq!(accumulator_bits(8, 256), 16);
        assert_eq!(accumulator_bits(8, 257), 17);
        assert_eq!(accumulator_bits(12, 0), 1);
    }

    #[test]
    fn acc_tracks_watermark() {
        let mut a = WideAcc::new();
        a.add(100);
        a.sub(300);
        assert_eq!(a.value(), -200);
        assert_eq!(a.max_abs(), 200);
        a.add(1000);
        assert_eq!(a.max_abs(), 800);
        assert_eq!(a.observed_bits(), required_bits(800));
        a.clear();
        assert_eq!(a.value(), 0);
        assert_eq!(a.max_abs(), 800, "watermark survives clear");
    }

    #[test]
    fn acc_bits_cover_worst_case_dot() {
        // Brute check: any n sums of b-bit operands fit accumulator_bits.
        for b in [4u32, 8, 12] {
            for n in [1usize, 2, 5, 31, 32, 33] {
                let max_operand = (1i128 << (b - 1)) - 1;
                let w = accumulator_bits(b, n);
                let worst = max_operand * n as i128;
                assert!(
                    required_bits(worst.unsigned_abs()) <= w,
                    "b={b} n={n} w={w} worst={worst}"
                );
            }
        }
    }
}
