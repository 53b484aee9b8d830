//! [`PackedBcq`] — BCQ weights re-packed for the execution kernels.
//!
//! `figlut_quant::BcqWeight` is organized for *construction* (one
//! `BitMatrix` per plane, one scale matrix per plane). The kernels walk the
//! weights *LUT-stationary* — one tile of look-up tables at a time, every
//! output row against it before the next ([`crate::kernel`]) — so the
//! packed layout is tile-major, and everything one tile visit reads is one
//! contiguous slice:
//!
//! * **Sign planes** stay bit-packed `u64` words (bit = `+1`), cut along
//!   the reduction dimension into *k-tiles* of `TILE_WORDS` words (the
//!   last one as wide as what is left) and laid out
//!   `[tile][row][plane][word]` — the software analogue of FIGLUT
//!   streaming every weight row past one generated table. A shape the
//!   kernels walk window by window (see `lane_tiled`) is a single tile as
//!   wide as the row.
//! * **Scales** are `[group][row][plane]` and **offsets** `[group][row]`:
//!   a group's partials complete for every row of a panel before the next
//!   group's, which is the order the fused fold visits them.
//!
//! Packing is lossless and cheap (a copy per tile row out of
//! [`figlut_quant::BitMatrix::row_words`]); [`PackedBcq::unpack`] hands the
//! weights back to the bit-accurate engines for differential testing.

use figlut_num::Mat;
use figlut_quant::{BcqWeight, BitMatrix};

/// Packed words per k-tile of a lane-tiled shape: 256 columns, 32
/// byte-wide windows, two gs-128 scale groups. The kernels sweep a tile one
/// scale group at a time, so the tables in use are at most `32·256` entries
/// per lane (32 KiB of `i32` at one lane, 128 KiB for one gs-128 group at
/// eight), and a tile visit streams `rows × q × 4` words against them.
/// Measured on the benchmark's four workloads against 1, 2 and 8 words
/// (CHANGES.md, PR 14): 1 splits a gs-128 group and loses everywhere; 2
/// and 4 tie on the serving models; 4 is 18–20 % ahead of 2 at batch 1 on
/// the OPT-1.3B layer set and 5–7 % behind it at batch 8.
pub(crate) const TILE_WORDS: usize = 4;

/// `true` if the kernels take the lane pass on this shape: windows are
/// bytes of the packed words (effective µ = 8, which every group size
/// divisible by 8 gets) and no scale group ends inside a word.
fn lane_tiled(group_size: usize, groups: usize) -> bool {
    group_size.is_multiple_of(8) && (group_size.is_multiple_of(64) || groups == 1)
}

/// A BCQ weight matrix packed for the `figlut-exec` kernels.
#[derive(Clone, Debug)]
pub struct PackedBcq {
    rows: usize,
    cols: usize,
    group_size: usize,
    bits: usize,
    words_per_row: usize,
    /// Words per k-tile: [`TILE_WORDS`] on a lane-tiled shape, the whole
    /// row otherwise.
    tile_words: usize,
    /// Flat plane bits, `[tile][row][plane][word]`: tile `t` starts at
    /// `t·tile_words·rows·bits` (every earlier tile is full width).
    planes: Vec<u64>,
    /// Flat scales: `scales[(g·rows + r)·bits + i]` is `αᵢ(r, g)`.
    scales: Vec<f64>,
    /// Flat offsets: `offsets[g·rows + r]` (empty when the source format
    /// carries no offset).
    offsets: Vec<f64>,
}

impl PackedBcq {
    /// Pack `w` for execution.
    pub fn pack(w: &BcqWeight) -> Self {
        let (rows, cols) = w.shape();
        let q = w.bits() as usize;
        let gs = w.group_size();
        let groups = w.groups();
        let words_per_row = cols.div_ceil(64);
        let tile_words = if lane_tiled(gs, groups) {
            TILE_WORDS
        } else {
            words_per_row.max(1)
        };
        let mut planes = Vec::with_capacity(q * rows * words_per_row);
        for w0 in (0..words_per_row).step_by(tile_words) {
            let w1 = words_per_row.min(w0 + tile_words);
            for r in 0..rows {
                for plane in w.planes() {
                    planes.extend_from_slice(&plane.row_words(r)[w0..w1]);
                }
            }
        }
        let mut scales = Vec::with_capacity(rows * groups * q);
        let mut offsets = Vec::with_capacity(if w.has_offset() { rows * groups } else { 0 });
        for g in 0..groups {
            for r in 0..rows {
                scales.extend((0..q).map(|i| w.alpha(i, r, g * gs)));
                if w.has_offset() {
                    offsets.push(w.offset(r, g * gs));
                }
            }
        }
        Self {
            rows,
            cols,
            group_size: gs,
            bits: q,
            words_per_row,
            tile_words,
            planes,
            scales,
            offsets,
        }
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

    /// `true` if the planes are cut into [`TILE_WORDS`]-word k-tiles for
    /// the lane pass (`false`: one tile per row, the generic walk).
    pub(crate) fn lane_tiled(&self) -> bool {
        lane_tiled(self.group_size, self.groups())
    }

    /// Number of k-tiles the reduction dimension is cut into — what one
    /// `exec_*` sweep visits per output row (the unit of the `exec_ktiles`
    /// trace counter).
    pub fn tiles(&self) -> usize {
        self.words_per_row.div_ceil(self.tile_words)
    }

    /// The contiguous slab of k-tile `t` for output rows `r0..r0 + rows`,
    /// and the tile's width `tw` in words: plane `i` of row `r0 + j` is
    /// `slab[(j·bits + i)·tw..][..tw]`, covering columns from
    /// `64·t·tile_words` (bit `c % 64` of word `c / 64` ↔ column `c`;
    /// bits beyond `cols` are 0).
    #[inline]
    pub(crate) fn tile(&self, t: usize, r0: usize, rows: usize) -> (&[u64], usize) {
        let w0 = t * self.tile_words;
        let tw = self.tile_words.min(self.words_per_row - w0);
        let base = (w0 * self.rows + r0 * tw) * self.bits;
        (&self.planes[base..base + rows * self.bits * tw], tw)
    }

    /// Scales of group `g` for output rows `r0..r0 + rows`, `[row][plane]`.
    #[inline]
    pub(crate) fn group_scales(&self, g: usize, r0: usize, rows: usize) -> &[f64] {
        &self.scales[(g * self.rows + r0) * self.bits..][..rows * self.bits]
    }

    /// Offsets of group `g` for output rows `r0..r0 + rows` (empty when
    /// the format has no offset).
    #[inline]
    pub(crate) fn group_offsets(&self, g: usize, r0: usize, rows: usize) -> &[f64] {
        if self.has_offset() {
            &self.offsets[g * self.rows + r0..][..rows]
        } else {
            &[]
        }
    }

    /// Sign of plane `i` at `(r, c)` as a bool (`true` = `+1`).
    #[inline]
    pub fn get(&self, i: usize, r: usize, c: usize) -> bool {
        let t = c / 64 / self.tile_words;
        let (slab, tw) = self.tile(t, r, 1);
        let w = slab[i * tw + (c / 64 - t * self.tile_words)];
        (w >> (c % 64)) & 1 == 1
    }

    /// Dequantized value of one element.
    pub fn value(&self, r: usize, c: usize) -> f64 {
        let g = c / self.group_size;
        let mut v = self.group_offsets(g, r, 1).first().copied().unwrap_or(0.0);
        for (i, &a) in self.group_scales(g, r, 1).iter().enumerate() {
            v += if self.get(i, r, c) { a } else { -a };
        }
        v
    }

    /// Dequantize the whole matrix.
    pub fn dequantize(&self) -> Mat<f64> {
        Mat::from_fn(self.rows, self.cols, |r, c| self.value(r, c))
    }

    /// Build a reusable [`crate::plan::ExecPlan`] for these weights under
    /// `cfg` (shorthand for [`crate::plan::ExecPlan::new`]). Hold the plan
    /// wherever the same weights execute more than once — it caches the
    /// window decomposition and recycles every kernel scratch buffer.
    pub fn plan(&self, cfg: &figlut_gemm::EngineConfig) -> crate::plan::ExecPlan {
        crate::plan::ExecPlan::new(self, cfg)
    }

    /// Convert back to the construction-oriented container (for running the
    /// bit-accurate `figlut-gemm` engines on the same weights).
    pub fn unpack(&self) -> BcqWeight {
        let groups = self.groups();
        let q = self.bits;
        let planes: Vec<BitMatrix> = (0..q)
            .map(|i| BitMatrix::from_fn(self.rows, self.cols, |r, c| self.get(i, r, c)))
            .collect();
        let alpha: Vec<Mat<f64>> = (0..q)
            .map(|i| Mat::from_fn(self.rows, groups, |r, g| self.group_scales(g, r, 1)[i]))
            .collect();
        let offset = self
            .has_offset()
            .then(|| Mat::from_fn(self.rows, groups, |r, g| self.group_offsets(g, r, 1)[0]));
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
        let w = weights(4, 40);
        let u = rtn(&w, RtnParams::grouped(4, 10));
        let b = BcqWeight::from_uniform(&u);
        let p = PackedBcq::pack(&b);
        let back = p.unpack();
        assert_eq!(back.bits(), b.bits());
        assert_eq!(back.group_size(), b.group_size());
        assert_eq!(b.dequantize().max_abs_diff(&back.dequantize()), 0.0);
    }

    #[test]
    fn tile_major_layout_round_trips_off_tile_widths() {
        // Widths on both sides of a tile (64·TILE_WORDS columns) and of a
        // word, lane-tiled (per-row scale over whole bytes, gs 64) and
        // one-tile-per-row (130 columns, gs 10, gs 32): every sign, scale
        // and offset survives pack → `get` / `dequantize` / `unpack`.
        let cases = [
            (3, 48, 0, true),
            (5, 72, 0, true),
            (4, 136, 0, true),
            (2, 520, 0, true),
            (3, 192, 64, true),
            (4, 130, 0, false),
            (4, 70, 10, false),
            (3, 96, 32, false),
        ];
        for (rows, cols, gs, tiled) in cases {
            let params = if gs == 0 {
                BcqParams::per_row(3)
            } else {
                BcqParams::grouped(3, gs)
            };
            let b = BcqWeight::quantize(&weights(rows, cols), params);
            let p = PackedBcq::pack(&b);
            assert_eq!(p.lane_tiled(), tiled, "{rows}x{cols} gs {gs}");
            let words = cols.div_ceil(64);
            let tiles = if tiled { words.div_ceil(TILE_WORDS) } else { 1 };
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
}
