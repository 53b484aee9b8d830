//! Flat per-window FFLUT precomputation, in the two layouts the kernel's
//! passes read.
//!
//! The datapath models rebuild a boxed [`figlut_lut::table::HalfLut`] per
//! window and row and decode every read through [`figlut_lut::key::Key::fold`]
//! (to prove the MSB-fold decoder transparent); here a read is `table[base | key]`:
//!
//! * [`FlatLuts`], the lane pass's: the *full* `2^µ`-entry table of every
//!   window, batch columns cut into *lane blocks* in which the `L` entries
//!   of one `(window, key)` are one contiguous `[T; L]` — so a weight key
//!   decoded once adds a whole lane vector to register-resident
//!   accumulators, and the build fills all lanes of a key with contiguous
//!   adds. It uses the hFFLUT semantics (DESIGN.md §3, paper Fig. 10):
//!   only the MSB-clear half is computed with additions; the MSB-set half
//!   is mirrored by exact negation (`lut[~k] = −lut[k]`).
//! * `NibbleLuts`, the shuffle pass's: per key byte (a window of at most 8
//!   columns), the 16-entry tables of its two µ = 4 nibbles, split into
//!   byte planes, one 16-byte register operand each.
//!
//! Integer entries are exact signed sums `Σ ±mantissa`, so any build order
//! yields bit-identical tables, which makes [`crate::kernel::exec_i`]
//! bit-exact against `figlut_gemm::figlut::gemm_i`. The unit tests pin the
//! tables against `figlut-lut` reads key by key.
//!
//! The benchmark's `bench/src/probe.rs` is the one caller of [`windows`] and
//! [`FlatLuts::rebuild`] outside the crate; without it the module could be private.

use std::ops::Range;

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
/// its own width (`batch = 9` is 8 + 1 lanes, not 8 + 8), at least
/// `min_lanes` wide.
pub(crate) fn column_blocks(
    batch: usize,
    min_lanes: usize,
) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..batch).step_by(MAX_LANES).map(move |col0| {
        let cols = (batch - col0).min(MAX_LANES);
        (col0, cols, lane_width(cols).max(min_lanes))
    })
}

/// One column block of a stage: batch columns `col0..col0 + cols`, swept
/// by the shuffle pass (one or two columns) or by the lane pass (its
/// tables `lane_width(cols)`, at least 4, lanes wide).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Block {
    pub col0: usize,
    pub cols: usize,
    pub shuffle: bool,
}

/// Flat full tables for every window of a *batch* of activation rows, in
/// the lane-blocked layout the kernels stream.
///
/// Batch columns are cut into *column blocks* of up to 8 columns, each
/// with its own complete table set, `L` *lanes* wide (`column_blocks`;
/// unused lanes are zero): `L ∈ {1, 2, 4, 8}`, the kernel's own sets at
/// least 4 (a one- or two-column block is padded). Within block `j` —
/// which starts at `entries[8·j·windows·2^µ]`, every earlier block being 8
/// lanes wide — entry `k` of window `w` for the block's column `l` lives
/// at `((w << mu) | k)·L + l`. Windows of width `< µ` only populate their
/// first `2^width` key slots, the rest zero (a packed key's bits past its
/// window's width are zero). `batch = 1` is one 1-lane block: the classic
/// one-table-per-window layout.
///
/// The kernel's sets are one k-tile of one lane block: a thread rebuilds
/// its set from the tile's windows just before its readers sweep that
/// tile (32 key-byte windows, 256 KiB at 8 lanes), so no table of the
/// whole reduction dimension exists.
#[derive(Clone, Debug)]
pub struct FlatLuts<T> {
    mu: u32,
    batch: usize,
    /// The narrowest block (1, or 4 where the lane pass pads a one- or
    /// two-column block).
    min_lanes: usize,
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
            min_lanes: 1,
            wins: 0,
            entries: Vec::new(),
        }
    }
}

impl<T: Copy + Default + core::ops::Add<Output = T> + core::ops::Neg<Output = T>> FlatLuts<T> {
    /// Precompute the lane-blocked tables for `batch` activation rows into
    /// `self`: `values` is row-major (`values[b·cols + c]` is column `c` of
    /// batch row `b`); every window's start/width indexes within one row.
    /// Reuses the entry buffer — allocation-free once the buffer has seen
    /// the shape (the `figlut-exec` steady-state contract).
    ///
    /// # Panics
    ///
    /// Panics if `µ ∉ 1..=8` or `values.len() ≠ batch·cols`.
    pub fn rebuild(&mut self, values: &[T], cols: usize, wins: &[Window], mu: u32, batch: usize) {
        self.rebuild_lanes(values, cols, wins, mu, batch, 1);
    }

    /// [`FlatLuts::rebuild`] with every block at least `min_lanes` wide.
    #[inline(always)]
    pub(crate) fn rebuild_lanes(
        &mut self,
        values: &[T],
        cols: usize,
        wins: &[Window],
        mu: u32,
        batch: usize,
        min_lanes: usize,
    ) {
        assert!((1..=8).contains(&mu), "µ = {mu} unsupported");
        assert_eq!(values.len(), batch * cols, "values are not batch × cols");
        let per_lane = wins.len() << mu;
        self.mu = mu;
        self.batch = batch;
        self.min_lanes = min_lanes;
        self.wins = wins.len();
        let blocks = || column_blocks(batch, min_lanes);
        let lanes: usize = blocks().map(|(_, _, lanes)| lanes).sum();
        // No clear: `fill_block` writes every slot.
        self.entries.resize(per_lane * lanes, T::default());
        for (col0, bcols, lanes) in blocks() {
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

impl<T> FlatLuts<T> {
    /// Every block's entries, in column order.
    pub(crate) fn entries(&self) -> &[T] {
        &self.entries
    }
}

/// Fill one column block's tables from its `rows` (`≤ L` activation rows
/// of `cols` values; missing lanes stay zero): per window, transpose the
/// activations to lane-major and build all `L` lanes of every key at once.
#[inline(always)]
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
#[inline(always)]
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

/// The shuffle pass's tables ([`crate::shuffle`]), the register FFLUT:
/// for every batch column `c` of the set and key byte `kb` (window `kb`
/// of a k-tile, at most 8 columns, a narrower one zero-filled to 8), the
/// 16-entry tables of its two nibble windows (µ = 4; half 0 is the
/// window's first four columns, the key's low nibble).
/// Every entry `e` is stored as the `P` bytes of `e + 2^(8P−1)`, so
/// `tables[((c·key_bytes + kb)·P + p)·2 + h]` is byte plane `p` of half
/// `h`. An entry is a signed sum of four mantissas, within `±4·max|m|`, so
/// `P` bytes hold it once `8·max|m| < 256^P` ([`NibbleLuts::planes_for`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct NibbleLuts {
    /// Byte planes `P` per entry.
    pub(crate) planes: usize,
    /// Key bytes (windows) per column.
    key_bytes: usize,
    /// The batch columns the set holds.
    pub(crate) cols: Range<usize>,
    tables: Vec<[u8; 16]>,
}

impl NibbleLuts {
    /// The byte planes an entry needs when no mantissa exceeds `max_m` in
    /// magnitude: the least `P ≤ 4` with `8·max_m < 256^P`, if any.
    pub(crate) fn planes_for(max_m: u64) -> Option<usize> {
        (1..=4).find(|&p| max_m.saturating_mul(8) < 1 << (8 * p))
    }

    /// Build the tables of batch columns `cols` from `m32` (`batch × n`
    /// aligned mantissas) over the key-byte windows `wins` in `planes` byte
    /// planes, reusing the buffer (allocation-free once it has seen the
    /// shape).
    #[inline(always)]
    pub(crate) fn rebuild(
        &mut self,
        m32: &[i32],
        n: usize,
        wins: &[Window],
        cols: Range<usize>,
        planes: usize,
    ) {
        self.planes = planes;
        self.key_bytes = wins.len();
        self.cols = cols.clone();
        self.tables.clear();
        let bias = 1u32 << (8 * planes - 1);
        for row in m32[cols.start * n..cols.end * n].chunks_exact(n) {
            for win in wins {
                // A narrow window's missing columns read 0: its entries are
                // the sums over its real columns.
                let mut x = [0i32; 8];
                let width = win.width as usize;
                x[..width].copy_from_slice(&row[win.start as usize..][..width]);
                let halves = [&x[..4], &x[4..]].map(|x| {
                    // Key 0 is −Σx; setting bit j adds 2·x_j (the doubling
                    // of `fill_window`).
                    let mut e = [0i32; 16];
                    e[0] = -x.iter().sum::<i32>();
                    for (j, &v) in x.iter().enumerate() {
                        let (done, rest) = e.split_at_mut(1 << j);
                        for (d, &s) in rest[..1 << j].iter_mut().zip(&*done) {
                            *d = s + 2 * v;
                        }
                    }
                    e.map(|e| (e as u32).wrapping_add(bias))
                });
                for p in 0..planes {
                    for h in halves {
                        self.tables.push(h.map(|u| (u >> (8 * p)) as u8));
                    }
                }
            }
        }
    }

    /// The tables of key bytes `keys` of batch column `c`.
    #[inline]
    pub(crate) fn column(&self, c: usize, keys: Range<usize>) -> &[[u8; 16]] {
        let at = |kb: usize| ((c - self.cols.start) * self.key_bytes + kb) * 2 * self.planes;
        &self.tables[at(keys.start)..at(keys.end)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_lut::key::Key;
    use figlut_lut::table::{FullLut, HalfLut, LutRead};

    impl<T: Copy + Default + core::ops::Add<Output = T> + core::ops::Neg<Output = T>> FlatLuts<T> {
        fn build(values: &[T], wins: &[Window], mu: u32) -> Self {
            Self::build_batched(values, values.len(), wins, mu, 1)
        }

        fn build_batched(
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

        /// Entry `key` of window `wi` for batch column 0.
        fn read(&self, wi: usize, key: usize) -> T {
            self.read_batched(wi, 0, key)
        }

        /// Entry `key` of window `wi` for batch column `b`.
        fn read_batched(&self, wi: usize, b: usize, key: usize) -> T {
            let col0 = b - b % MAX_LANES;
            let lanes = lane_width((self.batch - col0).min(MAX_LANES)).max(self.min_lanes);
            let block = col0 * (self.wins << self.mu);
            self.entries[block + ((wi << self.mu) | key) * lanes + (b - col0)]
        }
    }

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
            assert_eq!(batched.batch, batch);
            assert_eq!(batched.entries.len(), per_lane * total_lanes, "B={batch}");
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
            for (col0, bcols, lanes) in column_blocks(batch, 1) {
                assert_eq!(col0 % MAX_LANES, 0);
                assert_eq!(lanes, lane_width(bcols));
                let entries = &batched.entries[at..][..per_lane * lanes];
                at += entries.len();
                for (slot, lane_vec) in entries.chunks_exact(lanes).enumerate() {
                    let (wi, k) = (slot >> 4, slot & 15);
                    if k >= 1 << wins[wi].width {
                        continue; // unpopulated slots of a narrow window
                    }
                    for (l, &e) in lane_vec.iter().enumerate() {
                        if l < bcols {
                            assert_eq!(e, batched.read_batched(wi, col0 + l, k));
                        } else {
                            assert_eq!(e, 0.0, "B={batch} padding lane {l}");
                        }
                    }
                }
            }
            assert_eq!(at, batched.entries.len());
        }
        // Rebuild at a new batch reuses the buffer and relabels the layout.
        let mut reb = FlatLuts::build_batched(&flat[..9 * cols], cols, &wins, 4, 9);
        reb.rebuild(&flat[..cols], cols, &wins, 4, 1);
        assert_eq!(reb.batch, 1);
        let solo = FlatLuts::build(&flat[..cols], &wins, 4);
        assert_eq!(reb.entries, solo.entries);
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
