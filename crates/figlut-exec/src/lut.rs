//! Flat per-window FFLUT precomputation.
//!
//! The datapath models in `figlut-gemm` rebuild a boxed
//! [`figlut_lut::table::HalfLut`] per window per activation row and decode
//! every read through [`figlut_lut::key::Key::fold`]. That is the right
//! shape for proving the hardware's MSB-fold decoder transparent; it is the
//! wrong shape for throughput. This module precomputes, per activation
//! tile, the *full* `2^µ`-entry table of every window into one flat buffer
//! with a constant power-of-two stride, so the kernel's inner loop is
//! `table[base | key]` with no branches. For a batched call the batch
//! columns are cut into *lane blocks* of `L ∈ {1, 2, 4, 8}` columns and the
//! `L` entries of one `(window, key)` are one contiguous `[T; L]` — so a
//! weight key decoded once adds a whole lane vector to register-resident
//! accumulators (see [`crate::kernel`]'s lane pass), and the build fills
//! all lanes of a key with contiguous adds.
//!
//! The build still uses the hFFLUT semantics (DESIGN.md §3, paper Fig. 10):
//! only the MSB-clear half is computed with additions; the MSB-set half is
//! mirrored by exact negation (vertical symmetry `lut[~k] = −lut[k]`).
//! For integer tables every entry is the exact signed sum
//! `Σ ±mantissa`, so any build order yields bit-identical tables — which is
//! what makes [`crate::kernel::exec_i`] bit-exact against
//! `figlut_gemm::figlut::gemm_i` (integer addition is associative). The
//! unit tests pin the tables against `figlut-lut` reads key by key.

/// One µ-wide column window of a scale group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Scale-group index.
    pub group: u32,
    /// First column.
    pub start: u32,
    /// Width in columns (`≤ µ`; narrower at a ragged group tail).
    pub width: u32,
}

/// The window decomposition the FIGLUT engines use: each scale group is cut
/// into `⌈gs/µ⌉` windows; windows never straddle a group boundary, and the
/// last window of a group may be narrower than µ. Identical to the
/// decomposition inside `figlut_gemm::figlut` (asserted by the differential
/// tests).
pub fn windows(cols: usize, group_size: usize, mu: usize) -> Vec<Window> {
    assert!(
        group_size > 0 && cols.is_multiple_of(group_size),
        "bad group size"
    );
    let groups = cols / group_size;
    let mut out = Vec::with_capacity(groups * group_size.div_ceil(mu));
    for g in 0..groups {
        let c0 = g * group_size;
        let mut start = c0;
        while start < c0 + group_size {
            let width = mu.min(c0 + group_size - start);
            out.push(Window {
                group: g as u32,
                start: start as u32,
                width: width as u32,
            });
            start += width;
        }
    }
    out
}

/// Lanes of the widest column block.
pub(crate) const MAX_LANES: usize = 8;

/// Lane width of a column block holding `cols ∈ 1..=MAX_LANES` batch
/// columns: the next power of two (the kernel's monomorphized widths), so
/// 3 and 5–7 columns ride in a block padded with zero lanes.
pub(crate) fn lane_width(cols: usize) -> usize {
    cols.next_power_of_two()
}

/// The column blocks of a `batch`-column call as `(first column, columns,
/// lanes)`: full [`MAX_LANES`]-column blocks, then a last block sized by
/// its own width (`batch = 9` is 8 + 1 lanes, not 8 + 8).
pub(crate) fn column_blocks(batch: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..batch).step_by(MAX_LANES).map(move |col0| {
        let cols = (batch - col0).min(MAX_LANES);
        (col0, cols, lane_width(cols))
    })
}

/// One column block of a [`FlatLuts`]: batch columns `col0..col0 + cols`
/// in `lanes`-wide entries (`entries[((w << mu) | k)·lanes + l]`).
pub(crate) struct LaneBlock<'a, T> {
    pub col0: usize,
    pub cols: usize,
    pub lanes: usize,
    pub entries: &'a [T],
}

/// Flat full tables for every window of a *batch* of activation rows, in
/// the lane-blocked layout the kernels stream.
///
/// Batch columns are cut into *column blocks* of up to 8 columns, each
/// with its own complete table set, `L ∈ {1, 2, 4, 8}` *lanes* wide
/// (`column_blocks`; unused lanes are zero). Within block `j` — which
/// starts at `entries[8·j·windows·2^µ]`, every earlier block being 8 lanes
/// wide — entry `k` of window `w` for the block's column `l` lives at
/// `((w << mu) | k)·L + l`: the `L` entries of one `(window, key)` are one
/// contiguous `[T; L]`. That granularity is the point — the kernel decodes
/// each weight key once and adds its whole lane vector to `L`
/// register-resident accumulators (one or two packed adds), instead of
/// `batch` scattered reads from `batch` separate tables. Windows of width
/// `< µ` only populate their first `2^width` key slots (keys never address
/// beyond them, because the kernel masks to the window width). `batch = 1`
/// is one 1-lane block: the classic one-table-per-window layout.
#[derive(Clone, Debug)]
pub struct FlatLuts<T> {
    mu: u32,
    batch: usize,
    wins: usize,
    entries: Vec<T>,
}

impl<T> Default for FlatLuts<T> {
    /// An empty table set (no windows, batch 1) — a placeholder to
    /// [`FlatLuts::rebuild`] into.
    fn default() -> Self {
        Self {
            mu: 1,
            batch: 1,
            wins: 0,
            entries: Vec::new(),
        }
    }
}

impl<T: Copy + Default + core::ops::Add<Output = T> + core::ops::Neg<Output = T>> FlatLuts<T> {
    /// Precompute the tables for one activation row `values` (aligned
    /// mantissas or rounded activations) under the given window
    /// decomposition.
    ///
    /// # Panics
    ///
    /// Panics if `µ ∉ 1..=8`.
    pub fn build(values: &[T], wins: &[Window], mu: u32) -> Self {
        Self::build_batched(values, values.len(), wins, mu, 1)
    }

    /// Precompute the lane-blocked tables for `batch` activation rows.
    /// `values` is row-major (`values[b·cols + c]` is column `c` of batch
    /// row `b`); every window's start/width indexes within one row.
    ///
    /// # Panics
    ///
    /// Panics if `µ ∉ 1..=8` or `values.len() ≠ batch·cols`.
    pub fn build_batched(
        values: &[T],
        cols: usize,
        wins: &[Window],
        mu: u32,
        batch: usize,
    ) -> Self {
        let mut luts = Self::default();
        luts.rebuild(values, cols, wins, mu, batch);
        luts
    }

    /// [`FlatLuts::build_batched`] into `self`, reusing the entry buffer —
    /// allocation-free once the buffer has seen the shape (the
    /// `figlut-exec` steady-state contract).
    ///
    /// # Panics
    ///
    /// Panics if `µ ∉ 1..=8` or `values.len() ≠ batch·cols`.
    pub fn rebuild(&mut self, values: &[T], cols: usize, wins: &[Window], mu: u32, batch: usize) {
        assert!((1..=8).contains(&mu), "µ = {mu} unsupported");
        assert_eq!(values.len(), batch * cols, "values are not batch × cols");
        let per_lane = wins.len() << mu;
        self.mu = mu;
        self.batch = batch;
        self.wins = wins.len();
        let lanes: usize = column_blocks(batch).map(|(_, _, lanes)| lanes).sum();
        // No clear: `fill_block` writes every slot.
        self.entries.resize(per_lane * lanes, T::default());
        for (col0, bcols, lanes) in column_blocks(batch) {
            let block = &mut self.entries[col0 * per_lane..][..lanes * per_lane];
            let rows = &values[col0 * cols..(col0 + bcols) * cols];
            match lanes {
                1 => fill_block::<T, 1>(block, rows, cols, wins, mu),
                2 => fill_block::<T, 2>(block, rows, cols, wins, mu),
                4 => fill_block::<T, 4>(block, rows, cols, wins, mu),
                _ => fill_block::<T, MAX_LANES>(block, rows, cols, wins, mu),
            }
        }
    }
}

impl<T: Copy> FlatLuts<T> {
    /// Table stride shift (the configured µ).
    #[inline]
    pub fn mu(&self) -> u32 {
        self.mu
    }

    /// Number of batch columns.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The flat entry buffer (`windows × 2^µ × Σ block lanes`).
    #[inline]
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// The column blocks, in column order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = LaneBlock<'_, T>> {
        let per_lane = self.wins << self.mu;
        column_blocks(self.batch).map(move |(col0, cols, lanes)| LaneBlock {
            col0,
            cols,
            lanes,
            entries: &self.entries[col0 * per_lane..][..lanes * per_lane],
        })
    }

    /// Read entry `key` of window `wi` for batch column 0.
    #[inline]
    pub fn read(&self, wi: usize, key: usize) -> T {
        self.read_batched(wi, 0, key)
    }

    /// Read entry `key` of window `wi` for batch column `b`.
    #[inline]
    pub fn read_batched(&self, wi: usize, b: usize, key: usize) -> T {
        let col0 = b - b % MAX_LANES;
        let lanes = lane_width((self.batch - col0).min(MAX_LANES));
        let block = col0 * (self.wins << self.mu);
        self.entries[block + ((wi << self.mu) | key) * lanes + (b - col0)]
    }
}

/// Fill one column block's tables from its `rows` (`≤ L` activation rows
/// of `cols` values; missing lanes stay zero): per window, transpose the
/// activations to lane-major and build all `L` lanes of every key at once.
fn fill_block<T, const L: usize>(block: &mut [T], rows: &[T], cols: usize, wins: &[Window], mu: u32)
where
    T: Copy + Default + core::ops::Add<Output = T> + core::ops::Neg<Output = T>,
{
    for (table, win) in block.chunks_exact_mut(L << mu).zip(wins) {
        let (start, width) = (win.start as usize, win.width as usize);
        let mut xs = [[T::default(); L]; 8];
        for (l, row) in rows.chunks_exact(cols).enumerate() {
            for (x, &v) in xs.iter_mut().zip(&row[start..start + width]) {
                x[l] = v;
            }
        }
        fill_window(table, &xs[..width]);
        table[L << width..].fill(T::default()); // key slots a narrow window never populates
    }
}

/// Fill one window's `2^width` keys × `L` lanes (`table[k·L + l]`):
/// compute the MSB-clear half with additions, mirror the MSB-set half by
/// negation (hFFLUT vertical symmetry). `xs[j]` holds column `j` of the
/// window for every lane, so each key is `L` contiguous adds.
fn fill_window<T, const L: usize>(table: &mut [T], xs: &[[T; L]])
where
    T: Copy + core::ops::Add<Output = T> + core::ops::Neg<Output = T>,
{
    let width = xs.len();
    // Key 0 = −x₀ −x₁ … ; then the MSB-clear half grows by doubling: bit j
    // set flips one sign, so keys 2^j..2^(j+1) are keys 0..2^j plus 2·x_j —
    // one contiguous block add per bit, no data-dependent source index.
    let mut all_minus = xs[0].map(|x| -x);
    for x in &xs[1..] {
        for l in 0..L {
            all_minus[l] = all_minus[l] + (-x[l]);
        }
    }
    table[..L].copy_from_slice(&all_minus);
    for (j, x) in xs[..width - 1].iter().enumerate() {
        let twice = x.map(|x| x + x);
        let (done, rest) = table.split_at_mut(L << j);
        for (dst, src) in rest.chunks_exact_mut(L).zip(done.chunks_exact(L)) {
            // (a whole lane vector per store keeps the adds in registers)
            dst.copy_from_slice(&std::array::from_fn::<T, L, _>(|l| src[l] + twice[l]));
        }
    }
    // MSB-set half: lut[k] = −lut[~k] (exact negation, Fig. 10 decoder) —
    // the computed half negated in reverse key order.
    let (low, high) = table[..L << width].split_at_mut(L << (width - 1));
    for (dst, src) in high.chunks_exact_mut(L).zip(low.chunks_exact(L).rev()) {
        dst.copy_from_slice(&std::array::from_fn::<T, L, _>(|l| -src[l]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_lut::key::Key;
    use figlut_lut::table::{FullLut, HalfLut, LutRead};

    #[test]
    fn windows_match_engine_decomposition() {
        // cols 30, gs 15, µ 4 → per group: widths 4,4,4,3.
        let w = windows(30, 15, 4);
        assert_eq!(w.len(), 8);
        assert_eq!(
            w[3],
            Window {
                group: 0,
                start: 12,
                width: 3
            }
        );
        assert_eq!(
            w[4],
            Window {
                group: 1,
                start: 15,
                width: 4
            }
        );
        let total: u32 = w.iter().map(|w| w.width).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn float_tables_match_figlut_lut_definition() {
        let xs: Vec<f64> = (0..11).map(|i| 0.3 * (i as f64) - 1.1).collect();
        let wins = windows(11, 11, 4); // widths 4,4,3
        let luts = FlatLuts::build(&xs, &wins, 4);
        for (wi, win) in wins.iter().enumerate() {
            let slice = &xs[win.start as usize..(win.start + win.width) as usize];
            let oracle = FullLut::build(slice, |a, b| a + b);
            for k in 0..(1u16 << win.width) {
                let want = oracle.read(Key::new(k, win.width));
                let got = luts.read(wi, k as usize);
                assert!((got - want).abs() < 1e-12, "win {wi} key {k}");
            }
        }
    }

    #[test]
    fn integer_tables_are_exact_and_match_half_lut() {
        let mant: Vec<i64> = vec![13, -7, 29, 5, -3, 11, 2];
        let wins = windows(7, 7, 3); // widths 3,3,1
        let luts = FlatLuts::build(&mant, &wins, 3);
        for (wi, win) in wins.iter().enumerate() {
            let slice = &mant[win.start as usize..(win.start + win.width) as usize];
            let half = HalfLut::build(slice, |a, b| a + b);
            for k in 0..(1u16 << win.width) {
                assert_eq!(
                    luts.read(wi, k as usize),
                    half.read(Key::new(k, win.width)),
                    "win {wi} key {k}"
                );
            }
        }
    }

    #[test]
    fn byte_wide_tables_match_half_lut_at_every_lane_width() {
        // The serving operating point: µ = 8, two windows per row, batches
        // that fill a 1-, 2-, 4- and 8-lane block (3 and 6 pad one).
        let cols = 16usize;
        let mant: Vec<i64> = (0..8 * cols as i64)
            .map(|i| (i * 7919) % 2003 - 1001)
            .collect();
        let wins = windows(cols, cols, 8);
        for batch in [1usize, 2, 3, 4, 6, 8] {
            let luts = FlatLuts::build_batched(&mant[..batch * cols], cols, &wins, 8, batch);
            for b in 0..batch {
                for (wi, win) in wins.iter().enumerate() {
                    let slice = &mant[b * cols + win.start as usize..][..8];
                    let half = HalfLut::build(slice, |a, b| a + b);
                    for k in 0..256u16 {
                        assert_eq!(
                            luts.read_batched(wi, b, k as usize),
                            half.read(Key::new(k, 8)),
                            "B={batch} b={b} win {wi} key {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mirror_half_is_exact_negation() {
        let xs = [0.1f64, 0.25, -0.5, 0.75];
        let wins = windows(4, 4, 4);
        let luts = FlatLuts::build(&xs, &wins, 4);
        for k in 0..16usize {
            assert_eq!(luts.read(0, k), -luts.read(0, k ^ 0xf), "k={k}");
        }
    }

    #[test]
    fn batched_tables_stack_per_window_and_match_per_row_builds() {
        // 11 cols, µ = 4 → per-row windows of widths 4, 4, 3. Batches
        // cover every lane width and a multi-block split (9 = 8 + 1).
        let cols = 11usize;
        let flat: Vec<f64> = (0..17 * cols).map(|i| 0.17 * (i as f64) - 1.3).collect();
        let wins = windows(cols, cols, 4);
        let per_lane = wins.len() * 16;
        for (batch, lanes) in [(1usize, 1usize), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8)] {
            assert_eq!(lane_width(batch), lanes, "B={batch}");
        }
        for (batch, total_lanes) in [
            (1usize, 1usize),
            (3, 4),
            (7, 8),
            (9, 8 + 1),
            (10, 8 + 2),
            (17, 16 + 1),
        ] {
            let batched = FlatLuts::build_batched(&flat[..batch * cols], cols, &wins, 4, batch);
            assert_eq!(batched.batch(), batch);
            assert_eq!(batched.entries().len(), per_lane * total_lanes, "B={batch}");
            // read_batched ≡ the per-row build, for every column.
            for b in 0..batch {
                let solo = FlatLuts::build(&flat[b * cols..(b + 1) * cols], &wins, 4);
                for (wi, win) in wins.iter().enumerate() {
                    for k in 0..(1usize << win.width) {
                        assert_eq!(
                            batched.read_batched(wi, b, k),
                            solo.read(wi, k),
                            "B={batch} b={b} win={wi} key={k}"
                        );
                    }
                }
            }
            // Blocks are independent table sets: 8-column blocks back to
            // back, the last sized by its own width; inside a block the
            // lanes of one (window, key) are adjacent and padding lanes
            // are zero.
            let mut at = 0;
            for blk in batched.blocks() {
                assert_eq!(blk.col0 % MAX_LANES, 0);
                assert_eq!(blk.lanes, lane_width(blk.cols));
                assert_eq!(
                    blk.entries.as_ptr(),
                    batched.entries()[at..].as_ptr(),
                    "B={batch}"
                );
                at += blk.entries.len();
                for (slot, lane_vec) in blk.entries.chunks_exact(blk.lanes).enumerate() {
                    let (wi, k) = (slot >> 4, slot & 15);
                    if k >= 1 << wins[wi].width {
                        continue; // unpopulated slots of a narrow window
                    }
                    for (l, &e) in lane_vec.iter().enumerate() {
                        if l < blk.cols {
                            assert_eq!(e, batched.read_batched(wi, blk.col0 + l, k));
                        } else {
                            assert_eq!(e, 0.0, "B={batch} padding lane {l}");
                        }
                    }
                }
            }
            assert_eq!(at, batched.entries().len());
        }
        // Rebuild at a new batch reuses the buffer and relabels the layout.
        let mut reb = FlatLuts::build_batched(&flat[..9 * cols], cols, &wins, 4, 9);
        reb.rebuild(&flat[..cols], cols, &wins, 4, 1);
        assert_eq!(reb.batch(), 1);
        let solo = FlatLuts::build(&flat[..cols], &wins, 4);
        assert_eq!(reb.entries(), solo.entries());
    }

    #[test]
    fn mu_one_windows() {
        let xs = [3i64, -4];
        let wins = windows(2, 2, 1);
        let luts = FlatLuts::build(&xs, &wins, 1);
        assert_eq!(luts.read(0, 0), -3);
        assert_eq!(luts.read(0, 1), 3);
        assert_eq!(luts.read(1, 0), 4);
        assert_eq!(luts.read(1, 1), -4);
    }
}
