//! The read-accumulate (RAC) unit.
//!
//! FIGLUT's PE replaces the MAC of a conventional systolic array with a RAC
//! (paper §III-C): a µ-bit key register, a read port into the PE's shared
//! LUT, and an accumulator. One RAC "operation" retrieves the partial sum
//! for its stored weight pattern and adds it to the running total —
//! covering µ weight positions per cycle without any multiplier.
//!
//! [`Mac`] is the conventional multiply-accumulate reference used in
//! equivalence tests.

use crate::key::Key;
use crate::table::{LutRead, LutValue};

/// A read-accumulate unit over scalar `T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rac<T> {
    key: Key,
    acc: T,
}

impl<T: LutValue + Default> Rac<T> {
    /// A fresh RAC for group size µ with a zeroed accumulator and an
    /// all-minus key.
    pub fn new(mu: u32) -> Self {
        Self {
            key: Key::new(0, mu),
            acc: T::default(),
        }
    }

    /// Load the weight-pattern key for the next read (the weight-stationary
    /// dataflow writes this once per tile/bit-plane).
    pub fn set_key(&mut self, key: Key) {
        self.key = key;
    }

    /// The currently registered key.
    pub fn key(&self) -> Key {
        self.key
    }

    /// One RAC operation: read the LUT at the stored key and fold the value
    /// into the accumulator with the datapath adder.
    ///
    /// # Panics
    ///
    /// Panics if the LUT's µ differs from the key's.
    pub fn read_accumulate(&mut self, lut: &impl LutRead<T>, add: impl FnOnce(T, T) -> T) {
        let v = lut.read(self.key);
        self.acc = add(self.acc, v);
    }

    /// Current accumulator value.
    pub fn acc(&self) -> T {
        self.acc
    }

    /// Drain the accumulator (returns the total and resets to zero).
    pub fn take(&mut self) -> T {
        core::mem::take(&mut self.acc)
    }
}

/// Conventional multiply-accumulate reference.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mac {
    acc: f64,
}

impl Mac {
    /// A zeroed MAC.
    pub fn new() -> Self {
        Self::default()
    }

    /// `acc += w · x` with a caller-supplied rounded multiply-add pipeline.
    pub fn multiply_accumulate(
        &mut self,
        w: f64,
        x: f64,
        mul: impl FnOnce(f64, f64) -> f64,
        add: impl FnOnce(f64, f64) -> f64,
    ) {
        self.acc = add(self.acc, mul(w, x));
    }

    /// Current value.
    pub fn acc(&self) -> f64 {
        self.acc
    }

    /// Drain.
    pub fn take(&mut self) -> f64 {
        core::mem::take(&mut self.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{FullLut, HalfLut};

    #[test]
    fn rac_accumulates_group_sums() {
        let xs = [1.0f64, 2.0, 4.0, 8.0];
        let lut = HalfLut::build(&xs, |a, b| a + b);
        let mut rac = Rac::<f64>::new(4);
        rac.set_key(Key::new(0b1111, 4)); // +1+2+4+8 = 15
        rac.read_accumulate(&lut, |a, b| a + b);
        rac.set_key(Key::new(0b0001, 4)); // +1−2−4−8 = −13
        rac.read_accumulate(&lut, |a, b| a + b);
        assert_eq!(rac.acc(), 2.0);
        assert_eq!(rac.take(), 2.0);
        assert_eq!(rac.acc(), 0.0);
    }

    #[test]
    fn rac_matches_mac_on_binary_weights() {
        // A RAC over µ=4 with key k must equal four MACs with weights ±1.
        let xs = [0.5f64, -1.25, 2.0, 0.75];
        let lut = FullLut::build(&xs, |a, b| a + b);
        for k in 0..16u16 {
            let mut rac = Rac::<f64>::new(4);
            rac.set_key(Key::new(k, 4));
            rac.read_accumulate(&lut, |a, b| a + b);
            let mut mac = Mac::new();
            for (j, &x) in xs.iter().enumerate() {
                let w = if (k >> j) & 1 == 1 { 1.0 } else { -1.0 };
                mac.multiply_accumulate(w, x, |a, b| a * b, |a, b| a + b);
            }
            assert!((rac.acc() - mac.acc()).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn integer_rac() {
        let xs = [100i64, -200, 300];
        let lut = HalfLut::build(&xs, |a, b| a + b);
        let mut rac = Rac::<i64>::new(3);
        rac.set_key(Key::new(0b110, 3)); // −100 −(−200)? bit0 clear → −100; bit1 → −200·+1? …
        rac.read_accumulate(&lut, |a, b| a + b);
        // bit0=0 → −100, bit1=1 → +(−200), bit2=1 → +300 → 0… compute: −100 −200 +300 = 0.
        assert_eq!(rac.acc(), 0);
    }
}
