//! [`PackedBcq`] — BCQ weights re-packed for the execution kernels.
//!
//! `figlut_quant::BcqWeight` is organized for *construction* (one
//! `BitMatrix` per plane, one scale matrix per plane). The kernels read
//! the sign bits as byte keys (≤ 8-column windows), LUT-stationary, one
//! k-tile at a time ([`crate::kernel`]), so there is one layout, tile-major
//! and key-byte-major, which both kernel passes and the accessors read:
//!
//! * **Key bytes**: every scale group starts on one, so a key byte is a
//!   window of one group: column `c` is bit `c / gs · 8⌈gs/8⌉ + c % gs` of
//!   a row's `groups·⌈gs/8⌉` key bytes, a ragged group's last byte padded
//!   with zero bits (bit `c` is column `c` if `gs % 8 == 0` or `groups = 1`).
//! * **Sign planes** are cut along the reduction dimension into *k-tiles*
//!   of `TILE_WORDS` words (32 key bytes; the last one as wide as what is
//!   left) and along the rows into 32-row *blocks*:
//!   `[tile][block][plane][key byte][32 rows]`. One `[u8; 32]` holds one
//!   key byte (bit = `+1`) of a block's 32 rows, row `r` in byte `r` —
//!   the order the shuffle pass's widening chain emits its sums in. The
//!   shuffle pass loads it as one register; the lane pass reads four rows'
//!   keys at stride 32. The last block is padded with zero keys. A shape
//!   whose groups split a tile's words (see `lane_tiled`) is a single tile
//!   as wide as the row.
//! * **Scales** are `[group][plane][row]` and **offsets** `[group][row]`,
//!   both padded with zeros to whole blocks, so one plane's scales of a
//!   block are one slice and a fold can run over all 32 rows.
//!
//! Packing is lossless and cheap (a byte transpose out of
//! [`figlut_quant::BitMatrix::row_words`]); [`PackedBcq::unpack`] hands
//! the weights back to the bit-accurate engines for differential testing.

use crate::shuffle::BLOCK_ROWS;
use figlut_num::Mat;
use figlut_quant::{BcqWeight, BitMatrix};
use std::ops::Range;

/// Packed words per k-tile of a lane-tiled shape: 256 columns, 32
/// byte-wide windows, two gs-128 scale groups (at most 128 KiB of 8-lane
/// tables per run). Measured against 1, 2 and 8 words (CHANGES.md):
/// 1 loses everywhere; 4 is 18–20 % ahead of 2 at batch 1 and 5–7 %
/// behind it at batch 8.
pub(crate) const TILE_WORDS: usize = 4;

/// `true` if the planes are cut into [`TILE_WORDS`]-word k-tiles: no
/// scale group ends inside a word of key bytes (`⌈gs/8⌉ % 8 == 0`), or
/// one group spans the row.
pub(crate) fn lane_tiled(group_size: usize, groups: usize) -> bool {
    group_size.div_ceil(8).is_multiple_of(8) || groups == 1
}

/// Bit of column `c` in a row's key bytes (module docs).
fn key_bit(c: usize, gs: usize) -> usize {
    c / gs * 8 * gs.div_ceil(8) + c % gs
}

/// A BCQ weight matrix packed for the `figlut-exec` kernels.
#[derive(Clone, Debug)]
pub struct PackedBcq {
    rows: usize,
    cols: usize,
    group_size: usize,
    bits: usize,
    /// Key bytes per row, `groups·⌈gs/8⌉`.
    pub(crate) key_bytes: usize,
    /// Key bytes per k-tile: `8·TILE_WORDS` on a lane-tiled shape, the
    /// whole row otherwise.
    pub(crate) tile_keys: usize,
    /// Plane bits, `[tile][block][plane][key byte]`, each a key byte of
    /// the block's 32 rows: tile `t` starts at `t·tile_keys·blocks·bits`
    /// (every earlier tile is full width).
    planes: Vec<[u8; BLOCK_ROWS]>,
    /// Flat scales: `scales[(g·bits + i)·R + r]` is `αᵢ(r, g)`, `R` the
    /// row count rounded up to whole blocks (padding rows read 0).
    scales: Vec<f64>,
    /// Flat offsets: `offsets[g·R + r]`, padded like the scales (empty when
    /// the source format carries no offset).
    offsets: Vec<f64>,
}

impl PackedBcq {
    /// Pack `w` for execution.
    pub fn pack(w: &BcqWeight) -> Self {
        let (rows, cols) = w.shape();
        let q = w.bits() as usize;
        let gs = w.group_size();
        let groups = w.groups();
        let key_bytes = groups * gs.div_ceil(8);
        let tile_keys = if lane_tiled(gs, groups) {
            8 * TILE_WORDS
        } else {
            key_bytes.max(1)
        };
        let blocks = rows.div_ceil(BLOCK_ROWS);
        let padded = blocks * BLOCK_ROWS;
        let mut scales = Vec::with_capacity(padded * groups * q);
        let mut offsets = Vec::with_capacity(if w.has_offset() { padded * groups } else { 0 });
        for g in 0..groups {
            for i in 0..q {
                scales.extend((0..rows).map(|r| w.alpha(i, r, g * gs)));
                scales.resize(scales.len() + padded - rows, 0.0);
            }
            if w.has_offset() {
                offsets.extend((0..rows).map(|r| w.offset(r, g * gs)));
                offsets.resize(offsets.len() + padded - rows, 0.0);
            }
        }
        let mut p = Self {
            rows,
            cols,
            group_size: gs,
            bits: q,
            key_bytes,
            tile_keys,
            planes: vec![[0u8; BLOCK_ROWS]; key_bytes * blocks * q],
            scales,
            offsets,
        };
        if !p.bits_are_columns() {
            for (i, plane) in w.planes().iter().enumerate() {
                for r in 0..rows {
                    for c in (0..cols).filter(|&c| plane.get(r, c)) {
                        let bit = key_bit(c, gs);
                        let at = p.key_at(bit / 8, r / BLOCK_ROWS, i);
                        p.planes[at][r % BLOCK_ROWS] |= 1 << (bit % 8);
                    }
                }
            }
            return p;
        }
        // Block by block: a block's source rows (`32·q` of them) stay in
        // cache while its tiles are written, each one contiguous slice.
        for b in 0..blocks {
            let rows = b * BLOCK_ROWS..rows.min((b + 1) * BLOCK_ROWS);
            for k0 in (0..key_bytes).step_by(tile_keys) {
                let tk = tile_keys.min(key_bytes - k0);
                for (i, plane) in w.planes().iter().enumerate() {
                    let base = p.key_at(k0, b, i);
                    let chunk = &mut p.planes[base..base + tk];
                    for (j, r) in rows.clone().enumerate() {
                        let words = &plane.row_words(r)[k0 / 8..];
                        for (keys, word) in chunk.chunks_mut(8).zip(words) {
                            for (key, byte) in keys.iter_mut().zip(word.to_le_bytes()) {
                                key[j] = byte;
                            }
                        }
                    }
                }
            }
        }
        p
    }

    /// `(rows, cols)` of the represented matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Output rows `m`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction width `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of binary planes `q`.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Columns per scale group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Scale groups per row.
    pub fn groups(&self) -> usize {
        self.cols / self.group_size
    }

    /// `true` if the format carries an offset plane.
    pub fn has_offset(&self) -> bool {
        !self.offsets.is_empty()
    }

    /// Number of k-tiles the reduction dimension is cut into — what one
    /// `exec_*` sweep visits per output row (the unit of the `exec_ktiles`
    /// trace counter).
    pub fn tiles(&self) -> usize {
        self.key_bytes.div_ceil(self.tile_keys)
    }

    /// `true` if key bit `c` is column `c` (`gs % 8 == 0`, or one group
    /// spans the row): the key bytes are the plane words' bytes.
    fn bits_are_columns(&self) -> bool {
        self.group_size.is_multiple_of(8) || self.groups() == 1
    }

    /// Index in `planes` of key byte `kb` of plane `i` of the 32-row block
    /// `b`.
    #[inline]
    fn key_at(&self, kb: usize, b: usize, i: usize) -> usize {
        let k0 = kb - kb % self.tile_keys;
        let tk = self.tile_keys.min(self.key_bytes - k0);
        let blocks = self.rows.div_ceil(BLOCK_ROWS);
        k0 * blocks * self.bits + (b * self.bits + i) * tk + kb - k0
    }

    /// The key bytes of k-tile `t` for plane `i` of the 32-row block `b`:
    /// element `j` holds the tile's key byte `j` of row `32·b + r` at `[r]`.
    #[inline]
    pub(crate) fn block_keys(&self, t: usize, b: usize, i: usize) -> &[[u8; BLOCK_ROWS]] {
        let keys = self.tile(t);
        let at = self.key_at(keys.start, b, i);
        &self.planes[at..at + keys.len()]
    }

    /// The key bytes of k-tile `t`.
    #[inline]
    pub(crate) fn tile(&self, t: usize) -> Range<usize> {
        t * self.tile_keys..self.key_bytes.min((t + 1) * self.tile_keys)
    }

    /// Scales of plane `i` of group `g`, one per output row, then 0 up to
    /// a whole block.
    #[inline]
    pub(crate) fn group_scales(&self, g: usize, i: usize) -> &[f64] {
        let padded = self.rows.next_multiple_of(BLOCK_ROWS);
        &self.scales[(g * self.bits + i) * padded..][..padded]
    }

    /// Offsets of group `g`, padded like [`PackedBcq::group_scales`]
    /// (empty when the format has no offset).
    #[inline]
    pub(crate) fn group_offsets(&self, g: usize) -> &[f64] {
        let padded = self.rows.next_multiple_of(BLOCK_ROWS);
        if self.has_offset() {
            &self.offsets[g * padded..][..padded]
        } else {
            &[]
        }
    }

    /// Sign of plane `i` at `(r, c)` as a bool (`true` = `+1`).
    ///
    /// # Panics
    ///
    /// Panics if `i`, `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, r: usize, c: usize) -> bool {
        assert!(
            i < self.bits && r < self.rows && c < self.cols,
            "({i},{r},{c}) out of bounds"
        );
        let bit = key_bit(c, self.group_size);
        self.planes[self.key_at(bit / 8, r / BLOCK_ROWS, i)][r % BLOCK_ROWS] >> (bit % 8) & 1 == 1
    }

    /// Dequantized value of one element (panics out of bounds, as
    /// [`PackedBcq::get`]).
    pub fn value(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        let g = c / self.group_size;
        let mut v = self.group_offsets(g).get(r).copied().unwrap_or(0.0);
        for i in 0..self.bits {
            let a = self.group_scales(g, i)[r];
            v += if self.get(i, r, c) { a } else { -a };
        }
        v
    }

    /// Dequantize the whole matrix.
    pub fn dequantize(&self) -> Mat<f64> {
        Mat::from_fn(self.rows, self.cols, |r, c| self.value(r, c))
    }

    /// Convert back to the construction-oriented container (for running the
    /// bit-accurate `figlut-gemm` engines on the same weights).
    pub fn unpack(&self) -> BcqWeight {
        let groups = self.groups();
        let q = self.bits;
        let planes: Vec<BitMatrix> = (0..q)
            .map(|i| {
                if !self.bits_are_columns() {
                    return BitMatrix::from_fn(self.rows, self.cols, |r, c| self.get(i, r, c));
                }
                BitMatrix::from_row_fn(self.rows, self.cols, |r, words| {
                    for t in 0..self.tiles() {
                        let keys = self.block_keys(t, r / BLOCK_ROWS, i);
                        for (j, key) in keys.iter().enumerate() {
                            let kb = t * self.tile_keys + j;
                            words[kb / 8] |= u64::from(key[r % BLOCK_ROWS]) << (8 * (kb % 8));
                        }
                    }
                })
            })
            .collect();
        let alpha: Vec<Mat<f64>> = (0..q)
            .map(|i| Mat::from_fn(self.rows, groups, |r, g| self.group_scales(g, i)[r]))
            .collect();
        let offset = self
            .has_offset()
            .then(|| Mat::from_fn(self.rows, groups, |r, g| self.group_offsets(g)[r]));
        BcqWeight::from_parts(planes, alpha, offset, self.group_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_quant::bcq::BcqParams;
    use figlut_quant::uniform::{rtn, RtnParams};

    fn weights(rows: usize, cols: usize) -> Mat<f64> {
        Mat::from_fn(rows, cols, |r, c| ((r * cols + c) as f64 * 0.217).sin())
    }

    #[test]
    fn pack_preserves_values() {
        let w = weights(5, 70); // spans two words per row
        let b = BcqWeight::quantize(&w, BcqParams::per_row(3));
        let p = PackedBcq::pack(&b);
        assert_eq!(p.shape(), (5, 70));
        assert_eq!(p.bits(), 3);
        assert_eq!(p.groups(), 1);
        assert!(p.has_offset());
        assert_eq!(b.dequantize().max_abs_diff(&p.dequantize()), 0.0);
    }

    #[test]
    fn pack_grouped_and_offsetless() {
        let w = weights(3, 24);
        let b = BcqWeight::quantize(
            &w,
            BcqParams {
                bits: 2,
                group_size: 8,
                with_offset: false,
                refine_iters: 4,
            },
        );
        let p = PackedBcq::pack(&b);
        assert_eq!(p.groups(), 3);
        assert!(!p.has_offset());
        assert_eq!(b.dequantize().max_abs_diff(&p.dequantize()), 0.0);
    }

    #[test]
    fn unpack_roundtrips_exactly() {
        // gs 10 (one tile per row), gs 192 (lane-tiled, a group spanning
        // three words and a tile edge), groups that end inside a key byte
        // (gs 1, 3, 15, 17) and ragged per-row widths (1001: four tiles,
        // a ragged last byte): every plane word, α and offset comes back
        // bit for bit.
        let cases = [
            (4, 40, 10),
            (3, 384, 192),
            (3, 300, 0),
            (2, 264, 0),
            (3, 12, 1),
            (4, 30, 3),
            (3, 45, 15),
            (2, 68, 17),
            (3, 1001, 0),
        ];
        for (rows, cols, gs) in cases {
            let w = weights(rows, cols);
            let u = rtn(&w, RtnParams::grouped(4, gs));
            let b = BcqWeight::from_uniform(&u);
            let p = PackedBcq::pack(&b);
            let back = p.unpack();
            assert_eq!(back.bits(), b.bits());
            assert_eq!(back.group_size(), b.group_size());
            for i in 0..4 {
                for r in 0..rows {
                    assert_eq!(back.plane(i).row_words(r), b.plane(i).row_words(r));
                    for c in (0..cols).step_by(b.group_size()) {
                        assert_eq!(back.alpha(i, r, c).to_bits(), b.alpha(i, r, c).to_bits());
                        assert_eq!(back.offset(r, c).to_bits(), b.offset(r, c).to_bits());
                    }
                }
            }
            assert_eq!(b.dequantize().max_abs_diff(&back.dequantize()), 0.0);
        }
    }

    #[test]
    fn tile_major_layout_round_trips_off_tile_widths() {
        // Widths on both sides of a tile (64·TILE_WORDS columns) and of a
        // word, lane-tiled (per-row scales, gs 64) and one-tile-per-row
        // (gs 10, gs 32, and groups that end inside a key byte: gs 1, 3,
        // 15, 17): every sign, scale and offset survives pack → `get` /
        // `dequantize` / `unpack`.
        let cases = [
            (3, 48, 0, true),
            (5, 72, 0, true),
            (4, 136, 0, true),
            (2, 520, 0, true),
            (3, 192, 64, true),
            (4, 130, 0, true),
            (3, 1001, 0, true),
            (4, 70, 10, false),
            (3, 96, 32, false),
            (3, 10, 1, false),
            (4, 30, 3, false),
            (3, 45, 15, false),
            (2, 68, 17, false),
        ];
        for (rows, cols, gs, tiled) in cases {
            let params = if gs == 0 {
                BcqParams::per_row(3)
            } else {
                BcqParams::grouped(3, gs)
            };
            let b = BcqWeight::quantize(&weights(rows, cols), params);
            let p = PackedBcq::pack(&b);
            let got = lane_tiled(p.group_size(), p.groups());
            assert_eq!(got, tiled, "{rows}x{cols} gs {gs}");
            let g = p.group_size();
            let key_bytes = cols / g * g.div_ceil(8);
            assert_eq!(p.key_bytes, key_bytes, "{rows}x{cols} gs {gs}");
            let tiles = if tiled {
                key_bytes.div_ceil(8 * TILE_WORDS)
            } else {
                1
            };
            assert_eq!(p.tiles(), tiles, "{rows}x{cols} gs {gs}");
            for i in 0..3 {
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(p.get(i, r, c), b.plane(i).get(r, c), "({i},{r},{c})");
                    }
                }
            }
            assert_eq!(b.dequantize().max_abs_diff(&p.dequantize()), 0.0);
            let back = p.unpack();
            assert_eq!(back.group_size(), b.group_size());
            for i in 0..3 {
                for r in 0..rows {
                    assert_eq!(back.plane(i).row_words(r), b.plane(i).row_words(r));
                }
            }
            assert_eq!(b.dequantize().max_abs_diff(&back.dequantize()), 0.0);
        }
    }

    /// A 5 × 24 weight in gs-12 groups: each group's second key byte has
    /// four pad bits, and the last block 27 pad rows.
    fn ragged() -> PackedBcq {
        PackedBcq::pack(&BcqWeight::quantize(
            &weights(5, 24),
            BcqParams::grouped(2, 12),
        ))
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_the_last_column_panics() {
        let _ = ragged().get(0, 0, 24);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn value_past_the_last_row_panics() {
        let _ = ragged().value(5, 0);
    }
}
