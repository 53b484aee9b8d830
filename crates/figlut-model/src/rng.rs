//! Deterministic random number generation for synthetic models.
//!
//! Everything the reproduction randomizes (weights, corpus sampling) flows
//! through this splitmix64-based generator so results are identical on
//! every platform and run.

/// splitmix64's state step: every raw draw adds it once.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Raw draws one [`Rng::normal`] takes.
pub(crate) const NORMAL_DRAWS: usize = 2;

/// A small, fast, deterministic RNG (splitmix64 core).
///
/// The state is a counter: each raw draw ([`Rng::next_u64`]) advances it by
/// one fixed step and returns a hash of it. Every sampler takes a fixed
/// number of raw draws — [`Rng::uniform`], [`Rng::below`] and
/// [`Rng::categorical`] one, [`Rng::normal`] two — so the generator `n`
/// samples ahead is known without drawing them, and a stream can be cut
/// into parts that are drawn independently with the bits of one pass
/// (the teacher's rows are drawn that way, DESIGN.md §2).
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded construction.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(GAMMA),
        }
    }

    /// Move past the next `draws` raw draws in O(1), as if they had been
    /// drawn.
    pub(crate) fn skip(&mut self, draws: usize) {
        self.state = self.state.wrapping_add((draws as u64).wrapping_mul(GAMMA));
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.uniform() * n as f64) as usize % n
    }

    /// Sample an index from unnormalized non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to zero or are empty.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "degenerate categorical distribution");
        let mut u = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn skip_lands_where_drawing_does() {
        let mut drawn = Rng::new(11);
        for n in [0, 1, 2, 7, 1000] {
            let mut skipped = drawn.clone();
            skipped.skip(n * NORMAL_DRAWS);
            for _ in 0..n {
                drawn.normal();
            }
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "{n} normals");
        }
    }

    #[test]
    fn uniform_in_range_and_spread() {
        let mut r = Rng::new(1);
        let mut mean = 0.0;
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            mean += u;
        }
        mean /= 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(2);
        let n = 20_000;
        let (mut m1, mut m2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            m1 += x;
            m2 += x * x;
        }
        m1 /= n as f64;
        m2 /= n as f64;
        assert!(m1.abs() < 0.05, "mean {m1}");
        assert!((m2 - 1.0).abs() < 0.08, "var {m2}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = Rng::new(3);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[r.categorical(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 2);
    }
}
