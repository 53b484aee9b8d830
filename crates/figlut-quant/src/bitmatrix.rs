//! Packed binary (±1) weight planes.
//!
//! A BCQ weight of precision `q` is `q` bit-planes, each an `m × n` matrix
//! over `{−1, +1}`. We store a plane as packed `u64` words, one row at a
//! time, bit = 1 meaning `+1`. The packing order (LSB of word 0 is column 0)
//! is also the order the LUT key extractor in `figlut-lut` consumes, so a
//! row can be sliced into µ-bit keys with shifts and masks only.

use core::fmt;

/// A dense `rows × cols` matrix over `{−1, +1}`, bit-packed by row.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// All-minus-one matrix (all bits clear).
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Build from a closure returning `true` for `+1`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        Self::from_row_fn(rows, cols, |r, words| {
            for c in 0..cols {
                words[c / 64] |= (f(r, c) as u64) << (c % 64);
            }
        })
    }

    /// Build a whole row of packed words at a time: `f(r, words)` fills
    /// row `r`'s `cols.div_ceil(64)` words, which start zeroed, in the
    /// [`Self::row_words`] layout. Padding bits beyond `cols` are cleared
    /// after each call, so `f` may write anything there; the result is
    /// bit-identical to [`Self::from_fn`] over the same column bits.
    pub fn from_row_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, &mut [u64])) -> Self {
        let mut m = Self::new(rows, cols);
        let wpr = m.words_per_row;
        let pad = match cols % 64 {
            0 => u64::MAX,
            tail => (1 << tail) - 1,
        };
        for r in 0..rows {
            let words = &mut m.data[r * wpr..][..wpr];
            f(r, words);
            if let Some(last) = words.last_mut() {
                *last &= pad;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` ⇔ the element is `+1`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        let w = self.data[r * self.words_per_row + c / 64];
        (w >> (c % 64)) & 1 == 1
    }

    /// The element as `+1.0` / `−1.0`.
    #[inline]
    pub fn sign(&self, r: usize, c: usize) -> f64 {
        if self.get(r, c) {
            1.0
        } else {
            -1.0
        }
    }

    /// The element as `+1` / `−1`.
    #[inline]
    pub fn sign_i(&self, r: usize, c: usize) -> i64 {
        if self.get(r, c) {
            1
        } else {
            -1
        }
    }

    /// Set element `(r, c)` to `+1` (`true`) or `−1` (`false`).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, plus: bool) {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        let w = &mut self.data[r * self.words_per_row + c / 64];
        if plus {
            *w |= 1 << (c % 64);
        } else {
            *w &= !(1 << (c % 64));
        }
    }

    /// Extract `width ≤ 16` consecutive column bits of row `r` starting at
    /// column `c0` as an integer key (bit 0 ↔ column `c0`).
    ///
    /// Columns past `cols` read as 0 (−1), so callers may ask for a full
    /// window at the ragged right edge.
    ///
    /// # Panics
    ///
    /// Panics if `width > 16` or `r`/`c0` are out of bounds.
    pub fn key(&self, r: usize, c0: usize, width: usize) -> u16 {
        assert!(width <= 16, "key width {width} > 16");
        assert!(r < self.rows && c0 < self.cols, "({r},{c0}) out of bounds");
        let row = &self.data[r * self.words_per_row..(r + 1) * self.words_per_row];
        let word = c0 / 64;
        let off = c0 % 64;
        let mut bits = row[word] >> off;
        if off + width > 64 && word + 1 < row.len() {
            bits |= row[word + 1] << (64 - off);
        }
        let in_range = (self.cols - c0).min(width);
        let mask = if in_range >= 16 {
            u16::MAX
        } else {
            (1u16 << in_range) - 1
        };
        (bits as u16) & mask & (((1u32 << width) - 1) as u16)
    }

    /// The packed words of row `r` (bit `c % 64` of word `c / 64` ↔ column
    /// `c`; padding bits beyond `cols` are always 0). This is the layout
    /// fast executors copy verbatim instead of re-reading bit by bit.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Count of `+1` entries.
    pub fn count_plus(&self) -> usize {
        // Padding bits beyond `cols` are always zero, so popcount is safe.
        self.data.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Storage footprint in bits (excluding padding), i.e. `rows × cols`.
    pub fn payload_bits(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}×{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(64) {
                write!(f, "{}", if self.get(r, c) { '+' } else { '-' })?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::new(3, 70); // spans two words per row
        assert!(!m.get(0, 0));
        m.set(1, 65, true);
        m.set(1, 0, true);
        assert!(m.get(1, 65));
        assert!(m.get(1, 0));
        assert!(!m.get(1, 64));
        m.set(1, 65, false);
        assert!(!m.get(1, 65));
    }

    #[test]
    fn signs() {
        let m = BitMatrix::from_fn(1, 4, |_, c| c % 2 == 0);
        assert_eq!(m.sign(0, 0), 1.0);
        assert_eq!(m.sign(0, 1), -1.0);
        assert_eq!(m.sign_i(0, 2), 1);
        assert_eq!(m.sign_i(0, 3), -1);
    }

    #[test]
    fn from_row_fn_clears_padding_and_matches_from_fn() {
        // 130 columns: the last word holds two real bits and 62 padding
        // bits, which the closure sets and the constructor must clear.
        let bit = |r: usize, c: usize| (r * 7 + c * 3) % 5 < 2;
        let by_row = BitMatrix::from_row_fn(3, 130, |r, words| {
            assert_eq!(words, &[0; 3], "rows start zeroed");
            words.fill(u64::MAX);
            for c in 0..130 {
                if !bit(r, c) {
                    words[c / 64] &= !(1 << (c % 64));
                }
            }
        });
        assert_eq!(by_row, BitMatrix::from_fn(3, 130, bit));
        assert_eq!(
            by_row.count_plus(),
            (0..3)
                .flat_map(|r| (0..130).map(move |c| bit(r, c)))
                .filter(|&b| b)
                .count()
        );
        for cols in [64, 0] {
            let m = BitMatrix::from_row_fn(2, cols, |_, words| words.fill(u64::MAX));
            assert_eq!(m.count_plus(), 2 * cols);
        }
    }

    #[test]
    fn key_extraction_within_word() {
        // Row bits: columns 0..6 = + - - + + -  → bits 0b011001 (LSB = col 0).
        let m = BitMatrix::from_fn(1, 6, |_, c| [true, false, false, true, true, false][c]);
        assert_eq!(m.key(0, 0, 3), 0b001);
        assert_eq!(m.key(0, 3, 3), 0b011);
        assert_eq!(m.key(0, 0, 6), 0b011001);
    }

    #[test]
    fn key_extraction_across_word_boundary() {
        let mut m = BitMatrix::new(1, 130);
        m.set(0, 62, true);
        m.set(0, 63, true);
        m.set(0, 64, true);
        m.set(0, 66, true);
        // Window [62, 66): bits for 62,63,64,65 → 1,1,1,0 → 0b0111.
        assert_eq!(m.key(0, 62, 4), 0b0111);
        // Window [63, 67): 63,64,65,66 → 1,1,0,1 → 0b1011.
        assert_eq!(m.key(0, 63, 4), 0b1011);
    }

    #[test]
    fn key_at_ragged_edge_pads_with_zero() {
        let m = BitMatrix::from_fn(1, 5, |_, _| true);
        // Window starting at column 4 with width 4 covers one real column.
        assert_eq!(m.key(0, 4, 4), 0b0001);
    }

    #[test]
    fn count_plus() {
        let m = BitMatrix::from_fn(2, 100, |r, c| (r + c) % 3 == 0);
        let expect = (0..2)
            .flat_map(|r| (0..100).map(move |c| (r + c) % 3 == 0))
            .filter(|&b| b)
            .count();
        assert_eq!(m.count_plus(), expect);
    }

    #[test]
    fn row_words_match_bits() {
        let m = BitMatrix::from_fn(3, 130, |r, c| (r * 130 + c) % 5 == 0);
        for r in 0..3 {
            let words = m.row_words(r);
            assert_eq!(words.len(), 3);
            for c in 0..130 {
                let bit = (words[c / 64] >> (c % 64)) & 1 == 1;
                assert_eq!(bit, m.get(r, c), "({r},{c})");
            }
            // Padding beyond `cols` is zero.
            assert_eq!(words[2] >> (130 - 128), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        let m = BitMatrix::new(2, 2);
        let _ = m.get(2, 0);
    }
}
