//! LUT-stationary, lane-blocked LUT-GEMM kernels over [`PackedBcq`] weights.
//!
//! Both kernels follow the FIGLUT pipeline: per activation row, precompute
//! one flat FFLUT per µ-column window ([`crate::lut`]); then every output
//! row *reads* its µ-bit weight keys out of the packed bit-planes instead
//! of multiplying. Like the paper's datapath the sweep is *LUT-stationary*:
//! a tile of tables is visited once per call and every weight row of the
//! panel reads it before the next tile is touched. Work is blocked three
//! ways:
//!
//! * **row panels** — output rows are split into contiguous panels, one per
//!   worker thread ([`crate::parallel`]);
//! * **column blocks** — the batch columns are cut into lane blocks of
//!   `L ∈ {1, 2, 4, 8}` columns, each with its own tables in which the `L`
//!   entries of one `(window, key)` are contiguous
//!   ([`crate::lut::FlatLuts`]); a block is swept like a batch-1 call, so
//!   the packed planes are streamed once per block (once per call up to
//!   batch 8) instead of once per batch row;
//! * **k-tiles** — [`PackedBcq`] stores the planes tile-major (256
//!   columns per tile), so a sweep walks *tile → run → row → plane*, a run
//!   being the part of one scale group inside the tile: a run's tables (at
//!   most 32 byte windows, 32 KiB of `i32` entries per lane) stay in L1/L2
//!   while the panel's weight words, scales and offsets stream past them.
//!
//! The hot loop is one const-generic pass, `lane_pass`, taken whenever
//! windows are bytes of the packed words (effective µ = 8, which every
//! group size divisible by 8 gets) and scale groups end on word boundaries
//! (`gs % 64 == 0`, or one group per row). It walks a *run* — one tile ∩
//! one scale group — a word at a time: the word's eight bytes are eight
//! keys, each indexing its own 256-entry table with no bounds check, no
//! group test and no shift chain, and the `R × L` accumulators (`R` = 2
//! output rows sharing the table walk) are locals for the whole run, so
//! each key costs one or two packed adds from a contiguous `[E; L]` into
//! registers. Every other shape (odd µ, groups that split a word) is
//! packed as one tile per row and takes the generic descriptor walk
//! (`generic_sweep`), row by row.
//!
//! The fold is fused into the walk: a run that completes a scale group
//! folds its partial straight into the row's running output (`Arith`), so
//! no `rows × groups × q × batch` partials exist anywhere. Only a group
//! that crosses a tile boundary (wider than a tile, or gs 192) carries
//! integers between tile visits, in a `rows × q × L` open-group buffer.
//! Groups complete in ascending order
//! and planes in ascending order within a group, so each (row, column)
//! sees exactly the datapath model's fold sequence, and its serial
//! FP32-rounded chain overlaps the next rows' look-ups. The integer path
//! narrows tables *and* accumulators to i32 whenever the plan proves the
//! group-partial bound (see `Accum`), which is what makes a lane vector
//! one or two SSE2 registers.
//!
//! [`exec_i`] reproduces the *exact* arithmetic of the FIGLUT-I datapath
//! model: the same pre-alignment ([`AlignedVector`]), exact integer window
//! sums (associativity makes the blocking — including the tile and
//! column-block splits — invisible), and the same FP32-rounded fold
//! sequence (`figlut_gemm::ifpu::fold_partial`) per `(group, plane)` in
//! the same order — so its output is bit-identical to
//! `figlut_gemm::figlut::gemm_i` (and therefore to iFPU; DESIGN.md §3),
//! *and* each batch row is bit-identical to a batch-1 call on that row
//! alone (the invariance `figlut-serve` builds on, pinned by
//! `tests/prop_exec.rs`). [`exec_f`] accumulates window partials in native
//! `f64` in a fixed (window-order) sequence, so it tracks
//! `figlut_gemm::figlut::gemm_f` to within the scale-aware tolerance the
//! property tests assert, at much higher throughput.
//!
//! The entry points here build a throwaway [`ExecPlan`] per call; repeated
//! execution over the same weights should build the plan once and call its
//! methods instead ([`crate::plan`]).
//!
//! [`AlignedVector`]: figlut_num::align::AlignedVector

use crate::lut::{FlatLuts, LaneBlock, Window, MAX_LANES};
use crate::packed::{PackedBcq, TILE_WORDS};
use crate::parallel::thread_count;
use crate::plan::ExecPlan;
use figlut_gemm::common::{add32, mul32};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;

/// Accumulator `Self` absorbing table entries of type `E`. Decoupling the
/// two lets `exec_i` keep exact `i64` group partials while reading *narrow*
/// `i32` tables — half the bytes per lookup, which matters because large-k
/// shapes are bound by table-read bandwidth, not arithmetic. Sign extension
/// is exact, so narrowing never changes a result (the build site proves the
/// no-overflow bound first).
pub(crate) trait Accum<E: Copy>: Copy + Default {
    /// Fold one table entry into the accumulator.
    fn absorb(&mut self, e: E);
    /// Fold another accumulator (the open part of a group) into this one.
    fn merge(&mut self, other: Self);
    /// The accumulated value as `f64`, for the final fold. Converting the
    /// native-width integer directly is bit-identical to the datapath
    /// API's `i128 as f64` (same integer value, same round-to-nearest) but
    /// is one hardware instruction instead of a softfloat libcall — this
    /// sits on the per-(row, column) fold path.
    fn to_f64(self) -> f64;
}
impl Accum<i64> for i64 {
    #[inline(always)]
    fn absorb(&mut self, e: i64) {
        *self += e;
    }
    #[inline(always)]
    fn merge(&mut self, other: i64) {
        *self += other;
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
}
impl Accum<i32> for i64 {
    #[inline(always)]
    fn absorb(&mut self, e: i32) {
        *self += e as i64;
    }
    #[inline(always)]
    fn merge(&mut self, other: i64) {
        *self += other;
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
}
/// The fully-narrow tier: i32 entries into i32 accumulators. Exact only
/// when every group partial provably fits — the plan proves
/// `group_size·max|mantissa| ≤ i32::MAX` first, which bounds every window
/// sum, build intermediate, and running group partial (a group spans
/// `group_size` columns, so any partial sum of its ±mantissa terms is
/// within that bound). The payoff over `i32 → i64`: a key's lane vector
/// and its accumulators are both 32-bit lanes, so an 8-lane add is two
/// plain SSE2 `paddd` instead of sign-extending loads into four `paddq`.
impl Accum<i32> for i32 {
    #[inline(always)]
    fn absorb(&mut self, e: i32) {
        *self += e;
    }
    #[inline(always)]
    fn merge(&mut self, other: i32) {
        *self += other;
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
}
impl Accum<f64> for f64 {
    #[inline(always)]
    fn absorb(&mut self, e: f64) {
        *self += e;
    }
    #[inline(always)]
    fn merge(&mut self, other: f64) {
        *self += other;
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
}

/// The lane pass: accumulate one *run* of byte-wide windows — `tables`
/// holds one `[[E; L]; 256]` per window, `words[r]` starts at the run's
/// first packed word of output row `r` — for two output rows × `L` lanes.
/// Each word's eight bytes are the eight keys of its eight tables, fully
/// unrolled; a ragged last word (a row whose window count is not a
/// multiple of 8) gets the short tail loop. The `2 × L` accumulators are
/// locals, so LLVM keeps them in vector registers for the whole run.
#[inline(always)]
fn lane_pass<E: Copy, A: Accum<E>, const L: usize>(
    words: [&[u64]; 2],
    tables: &[E],
) -> [[A; L]; 2] {
    let mut acc = [[A::default(); L]; 2];
    let mut absorb = |keys: &[[u8; 8]; 2], j: usize, table: &[E]| {
        for (a, k) in acc.iter_mut().zip(keys) {
            let e = &table[k[j] as usize * L..][..L];
            for l in 0..L {
                a[l].absorb(e[l]);
            }
        }
    };
    let mut per_word = tables.chunks_exact(8 * 256 * L);
    for (wi, word_tables) in per_word.by_ref().enumerate() {
        let keys = words.map(|w| w[wi].to_le_bytes());
        for j in 0..8 {
            absorb(&keys, j, &word_tables[j * 256 * L..][..256 * L]);
        }
    }
    let tail = per_word.remainder();
    if !tail.is_empty() {
        let keys = words.map(|w| w[tables.len() / (8 * 256 * L)].to_le_bytes());
        for (j, table) in tail.chunks_exact(256 * L).enumerate() {
            absorb(&keys, j, table);
        }
    }
    acc
}

/// The arithmetic a finished group partial `p` is folded with —
/// `acc + α·(p·λ)`, then `acc + z·Σx` once per group — and the one place
/// the two kernels differ.
pub(crate) trait Arith {
    /// A running output between the folds of one run (losslessly
    /// [`load`](Arith::load)ed from and [`store`](Arith::store)d to the
    /// `f64` output panel).
    type Acc: Copy + Default;
    /// A running output read back from the output panel.
    fn load(v: f64) -> Self::Acc;
    /// A running output written to the output panel.
    fn store(acc: Self::Acc) -> f64;
    /// `acc + b`.
    fn add(acc: Self::Acc, b: f64) -> Self::Acc;
    /// `a × b`.
    fn mul(a: f64, b: f64) -> f64;
}

/// `exec_i`: every operation FP32-rounded, which makes the plane fold
/// `figlut_gemm::ifpu::fold_partial` with the i128 partial replaced by the
/// accumulator's own width ([`Accum::to_f64`] explains why that is
/// bit-identical). A running output is always an FP32 value, so it is
/// held as the `f32` it is: that drops no bit, and it lets the compiler
/// turn `add32` of two widened `f32`s into one `f32` add — the same bits
/// (`f64` carries more than 2·24 + 2 significand bits, so rounding the
/// `f64` sum again is innocuous) for three conversions fewer per fold,
/// which at eight lanes is most of the fold's cost.
pub(crate) struct Fp32;
impl Arith for Fp32 {
    type Acc = f32;
    #[inline(always)]
    fn load(v: f64) -> f32 {
        v as f32
    }
    #[inline(always)]
    fn store(acc: f32) -> f64 {
        acc as f64
    }
    #[inline(always)]
    fn add(acc: f32, b: f64) -> f32 {
        add32(acc as f64, b) as f32
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        mul32(a, b)
    }
}

/// `exec_f`: native `f64`.
pub(crate) struct Native;
impl Arith for Native {
    type Acc = f64;
    #[inline(always)]
    fn load(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn store(acc: f64) -> f64 {
        acc
    }
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// The per-batch-column operands of the fold. Each column folds with its
/// own λ and Σx, so every (row, column) result is bit-identical to a
/// batch-1 call.
pub(crate) struct Columns<'a> {
    /// Alignment scale λ per column (`exec_f`: 1).
    pub lambdas: &'a [f64],
    /// Offset multiplier per (column, group), `batch × groups`: `exec_i`
    /// pre-folds the row-invariant `mul32(Σx, λ)`, `exec_f` passes `Σx`.
    pub gsums: &'a [f64],
}

/// `f(column)` for each of a block's columns, 0 in its padding lanes.
fn per_lane<E, const L: usize>(blk: &LaneBlock<'_, E>, f: impl Fn(usize) -> f64) -> [f64; L] {
    std::array::from_fn(|l| if l < blk.cols { f(blk.col0 + l) } else { 0.0 })
}

/// Sweep one `L`-lane column block over a worker's rows of a lane-tiled
/// shape, LUT-stationary: per k-tile, per run (tile ∩ scale group), per
/// row pair (a lone last row rides with itself), per bit-plane, one
/// [`lane_pass`]. A run that ends its group folds the partial into the
/// row's running output `panel[row·batch + column]` and, after the last
/// plane, the group's offset term; a run that does not parks it in `open`
/// (`[row][plane][lane]`), where the group's next run picks it up — a
/// group's first run assigns, so `open` is never cleared. All `L` lanes
/// fold in lockstep (padding lanes fold zeros).
fn lane_sweep<E: Copy, A: Accum<E>, R: Arith, const L: usize>(
    w: &PackedBcq,
    blk: &LaneBlock<'_, E>,
    cx: &Columns<'_>,
    batch: usize,
    r0: usize,
    panel: &mut [f64],
    open: &mut Vec<A>,
) {
    let q = w.bits();
    let groups = w.groups();
    let rows = panel.len() / batch;
    let wpg = w.group_size() / 8; // windows per group
    let nwin = w.cols() / 8;
    let tile_wins = 8 * TILE_WORDS;
    // A group stays open across a tile boundary unless groups tile the
    // tile exactly (gs 64, 128, 256); gs 192, or any group wider than a
    // tile, does not.
    if w.tiles() > 1 && !tile_wins.is_multiple_of(wpg) {
        open.resize(rows * q * L, A::default());
    }
    let lam: [f64; L] = per_lane(blk, |col| cx.lambdas[col]);
    for t in 0..w.tiles() {
        let (slab, tw) = w.tile(t, r0, rows);
        let win_hi = nwin.min((t + 1) * tile_wins);
        let mut lo = t * tile_wins;
        while lo < win_hi {
            let g = lo / wpg;
            let hi = win_hi.min((g + 1) * wpg);
            let (starts, ends) = (lo == g * wpg, hi == (g + 1) * wpg);
            let tables = &blk.entries[lo * 256 * L..hi * 256 * L];
            let word0 = lo / 8 - t * TILE_WORDS;
            let scales = w.group_scales(g, r0, rows);
            let zs = w.group_offsets(g, r0, rows);
            let gsum: [f64; L] = per_lane(blk, |col| cx.gsums[col * groups + g]);
            for (pi, pair) in panel.chunks_mut(2 * batch).enumerate() {
                let ri = 2 * pi;
                let live = pair.len() / batch; // 2, or 1 for a lone last row
                let mut y = [[R::Acc::default(); L]; 2];
                if ends {
                    for (y, out) in y.iter_mut().zip(pair.chunks(batch)) {
                        for (y, &o) in y.iter_mut().zip(&out[blk.col0..][..blk.cols]) {
                            *y = R::load(o);
                        }
                    }
                }
                for i in 0..q {
                    let words = [ri, ri + live - 1].map(|r| &slab[(r * q + i) * tw + word0..]);
                    let mut accs = lane_pass::<E, A, L>(words, tables);
                    for j in 0..live {
                        let at = (ri + j) * q + i;
                        let acc = &mut accs[j];
                        if !(starts && ends) {
                            let carry = &mut open[at * L..][..L];
                            if !starts {
                                for l in 0..L {
                                    acc[l].merge(carry[l]);
                                }
                            }
                            if !ends {
                                carry.copy_from_slice(acc);
                                continue;
                            }
                        }
                        let (alpha, p) = (scales[at], acc.map(A::to_f64));
                        y[j] = std::array::from_fn(|l| {
                            R::add(y[j][l], R::mul(alpha, R::mul(p[l], lam[l])))
                        });
                    }
                }
                if ends {
                    for (j, (y, out)) in y.iter_mut().zip(pair.chunks_mut(batch)).enumerate() {
                        if let Some(&z) = zs.get(ri + j) {
                            for l in 0..L {
                                y[l] = R::add(y[l], R::mul(z, gsum[l]));
                            }
                        }
                        for (o, &y) in out[blk.col0..][..blk.cols].iter_mut().zip(&*y) {
                            *o = R::store(y);
                        }
                    }
                }
            }
            lo = hi;
        }
    }
}

/// The generic walk over one column block: per-window descriptors,
/// arbitrary widths/starts (ragged group tails, µ ∤ 64, groups that split
/// a word), on a shape packed as one tile per row. Row by row, group by
/// group, plane by plane: the key of each descriptor window is decoded
/// from the weight bits once, its lane vector read for every column of the
/// block, and the finished group partial folded at once.
#[allow(clippy::too_many_arguments)]
fn generic_sweep<E: Copy, A: Accum<E>, R: Arith>(
    w: &PackedBcq,
    wins: &[Window],
    blk: &LaneBlock<'_, E>,
    shift: u32,
    cx: &Columns<'_>,
    batch: usize,
    r0: usize,
    panel: &mut [f64],
) {
    let q = w.bits();
    let groups = w.groups();
    let rows = panel.len() / batch;
    let (slab, wpr) = w.tile(0, r0, rows);
    let wpg = wins.len() / groups; // windows per group
    for (ri, out) in panel.chunks_mut(batch).enumerate() {
        let out = &mut out[blk.col0..blk.col0 + blk.cols];
        for (g, group_wins) in wins.chunks(wpg).enumerate() {
            let scales = w.group_scales(g, r0 + ri, 1);
            for (i, &alpha) in scales.iter().enumerate() {
                let words = &slab[(ri * q + i) * wpr..][..wpr];
                let mut acc = [A::default(); MAX_LANES];
                for (wo, win) in group_wins.iter().enumerate() {
                    let start = win.start as usize;
                    let wi = start >> 6;
                    let off = (start & 63) as u32;
                    let mut bits = words[wi] >> off;
                    if off + win.width > 64 {
                        // width ≤ 8 ⇒ off ≥ 57 here, so the shift below is < 64.
                        bits |= words[wi + 1] << (64 - off);
                    }
                    let key = (bits as usize) & ((1usize << win.width) - 1);
                    let base = ((g * wpg + wo) << shift | key) * blk.lanes;
                    for (a, &e) in acc.iter_mut().zip(&blk.entries[base..base + blk.lanes]) {
                        a.absorb(e);
                    }
                }
                for ((o, &p), col) in out.iter_mut().zip(&acc).zip(blk.col0..) {
                    let real = R::mul(p.to_f64(), cx.lambdas[col]);
                    *o = R::store(R::add(R::load(*o), R::mul(alpha, real)));
                }
            }
            if let [z] = *w.group_offsets(g, r0 + ri, 1) {
                for (o, col) in out.iter_mut().zip(blk.col0..) {
                    *o = R::store(R::add(R::load(*o), R::mul(z, cx.gsums[col * groups + g])));
                }
            }
        }
    }
}

/// One worker's share of an `exec_*` call: sweep every column block over
/// output rows `r0..`, folding into `panel` — the worker's zeroed
/// `rows × batch` slice of the transposed output. `open` is caller-owned
/// open-group scratch (reused allocation-free across calls).
pub(crate) fn sweep_panel<E: Copy, A: Accum<E>, R: Arith>(
    w: &PackedBcq,
    wins: &[Window],
    luts: &FlatLuts<E>,
    cx: &Columns<'_>,
    r0: usize,
    panel: &mut [f64],
    open: &mut Vec<A>,
) {
    let batch = luts.batch();
    let shift = luts.mu();
    // Traffic accounting, off the walk itself: a sweep streams every
    // packed word of the panel once per column block and visits every
    // k-tile once per row (guarded so the disabled path costs one read).
    if figlut_trace::enabled() {
        let row_sweeps = (luts.blocks().count() * panel.len() / batch) as u64;
        let row_words = (w.bits() * w.cols().div_ceil(64)) as u64;
        figlut_trace::counters::bump_exec_streamed_words(row_sweeps * row_words);
        figlut_trace::counters::bump_exec_ktiles(row_sweeps * w.tiles() as u64);
    }
    for blk in luts.blocks() {
        match (w.lane_tiled(), blk.lanes) {
            (false, _) => generic_sweep::<E, A, R>(w, wins, &blk, shift, cx, batch, r0, panel),
            (true, 1) => lane_sweep::<E, A, R, 1>(w, &blk, cx, batch, r0, panel, open),
            (true, 2) => lane_sweep::<E, A, R, 2>(w, &blk, cx, batch, r0, panel, open),
            (true, 4) => lane_sweep::<E, A, R, 4>(w, &blk, cx, batch, r0, panel, open),
            (true, _) => lane_sweep::<E, A, R, MAX_LANES>(w, &blk, cx, batch, r0, panel, open),
        }
    }
}

/// The window width the kernels actually use. The datapath models read
/// µ-wide windows because that is the hardware's LUT size; the *software*
/// backend is free to widen them — per-(group, plane) partials are sums
/// over whole groups, and integer addition is associative, so any window
/// decomposition of a group yields bit-identical `exec_i` results (and
/// `exec_f` stays within its tolerance). Wider windows halve or quarter
/// the lookup count at the price of bigger tables; 8 (256-entry, 2 KiB
/// tables) is the sweet spot, mirroring the paper's own µ-vs-table-power
/// trade-off (Fig. 8). Falls back to the configured µ (generic descriptor
/// walk) when the group size has no even divisor in range.
pub(crate) fn effective_mu(gs: usize, cfg_mu: u32) -> usize {
    for e in [8usize, 4, 2] {
        if gs.is_multiple_of(e) {
            return e;
        }
    }
    cfg_mu as usize
}

/// Validate shapes/config shared by both kernels; returns `(batch, m, n)`.
pub(crate) fn check(x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig) -> (usize, usize, usize) {
    assert!((1..=8).contains(&cfg.mu), "µ = {} unsupported", cfg.mu);
    let (batch, n) = x.shape();
    let (m, wn) = w.shape();
    assert_eq!(
        n, wn,
        "activation width {n} does not match weight reduction dim {wn}"
    );
    (batch, m, n)
}

/// FIGLUT-I fast path: `y = x·Wᵀ`, bit-identical to
/// `figlut_gemm::figlut::gemm_i` (and hence to iFPU), on at most `threads`
/// worker threads (a maximum, see [`ExecPlan::fan_out`]; the result is
/// bit-identical for every value). Builds a throwaway [`ExecPlan`];
/// callers that execute the same weights repeatedly should cache one.
///
/// # Panics
///
/// Panics on shape mismatch or `µ ∉ 1..=8`.
pub fn exec_i_threads(x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig, threads: usize) -> Mat<f64> {
    ExecPlan::new(w, cfg).exec_i_threads(x, w, cfg, threads)
}

/// [`exec_i_threads`] with the default worker count
/// ([`crate::parallel::thread_count`]; override via `FIGLUT_EXEC_THREADS`).
pub fn exec_i(x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig) -> Mat<f64> {
    exec_i_threads(x, w, cfg, thread_count())
}

/// FIGLUT-F fast path: `y = x·Wᵀ` with `f64` accumulation, tracking
/// `figlut_gemm::figlut::gemm_f` within scale-aware tolerance, on at most
/// `threads` worker threads (a maximum, see [`ExecPlan::fan_out`]; the
/// result is bit-identical for every value). Builds a throwaway
/// [`ExecPlan`]; callers that execute the same weights repeatedly should
/// cache one.
///
/// # Panics
///
/// Panics on shape mismatch or `µ ∉ 1..=8`.
pub fn exec_f_threads(x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig, threads: usize) -> Mat<f64> {
    ExecPlan::new(w, cfg).exec_f_threads(x, w, cfg, threads)
}

/// [`exec_f_threads`] with the default worker count
/// ([`crate::parallel::thread_count`]; override via `FIGLUT_EXEC_THREADS`).
pub fn exec_f(x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig) -> Mat<f64> {
    exec_f_threads(x, w, cfg, thread_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_gemm::figlut::{gemm_f, gemm_i};
    use figlut_quant::bcq::{BcqParams, BcqWeight};
    use figlut_quant::uniform::{rtn, RtnParams};

    fn setup(m: usize, n: usize, bits: u32) -> (Mat<f64>, BcqWeight) {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.201).sin() * 0.5);
        let b = BcqWeight::quantize(&w, BcqParams::per_row(bits));
        let x = Mat::from_fn(3, n, |bb, c| ((bb * n + c) as f64 * 0.063).cos());
        (x, b)
    }

    #[test]
    fn exec_i_bit_identical_to_gemm_i() {
        for (m, n, bits) in [(4, 32, 2), (6, 48, 3), (5, 130, 4), (1, 7, 1)] {
            let (x, b) = setup(m, n, bits);
            let cfg = EngineConfig::paper_default();
            let p = PackedBcq::pack(&b);
            for threads in [1usize, 3] {
                let ye = exec_i_threads(&x, &p, &cfg, threads);
                let ym = gemm_i(&x, &b, &cfg);
                assert_eq!(
                    ye.as_slice(),
                    ym.as_slice(),
                    "m={m} n={n} q={bits} t={threads}"
                );
            }
        }
    }

    #[test]
    fn exec_i_bit_identical_all_mu() {
        // Per-row scales (gs = 40, even): `effective_mu` widens every
        // configured µ to 8, so all eight iterations take the fast path.
        let (x, b) = setup(4, 40, 3);
        let p = PackedBcq::pack(&b);
        // gs = 15 (no even divisor): `effective_mu` keeps the configured
        // µ, so µ ∈ {3, 5, 6, 7} (64 % µ ≠ 0) and µ ∈ {2, 4, 8}
        // (15 % µ ≠ 0, ragged tails) all walk the generic descriptor
        // path; only µ = 1 stays fast. Batch 3 exercises the batched
        // variants of both walks.
        let w9 = Mat::from_fn(5, 45, |r, c| ((r * 45 + c) as f64 * 0.201).sin() * 0.5);
        let b9 = BcqWeight::quantize(&w9, BcqParams::grouped(3, 15));
        let x9 = Mat::from_fn(3, 45, |bb, c| ((bb * 45 + c) as f64 * 0.063).cos());
        let p9 = PackedBcq::pack(&b9);
        for mu in 1..=8u32 {
            let cfg = EngineConfig {
                mu,
                ..EngineConfig::paper_default()
            };
            assert_eq!(
                exec_i(&x, &p, &cfg).as_slice(),
                gemm_i(&x, &b, &cfg).as_slice(),
                "fast µ={mu}"
            );
            assert_eq!(
                exec_i(&x9, &p9, &cfg).as_slice(),
                gemm_i(&x9, &b9, &cfg).as_slice(),
                "generic µ={mu}"
            );
        }
    }

    #[test]
    fn exec_i_spans_tiles_and_an_odd_row_count() {
        // Per-row scale over 288 columns: five words, so a full k-tile
        // and a ragged one, with the row's one group open across both;
        // 273 rows end on a lone row after 136 pairs.
        let (x, b) = setup(273, 288, 2);
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
        assert_eq!(p.tiles(), 5usize.div_ceil(TILE_WORDS));
        assert_eq!(
            exec_i_threads(&x, &p, &cfg, 2).as_slice(),
            gemm_i(&x, &b, &cfg).as_slice()
        );
    }

    #[test]
    fn batched_call_rows_match_single_row_calls() {
        // The batch-blocking theorem at unit-test scale, with batch sizes
        // spanning every lane width (1; 2; 3..=4 in a 4-lane block; 5..=8
        // in an 8-lane one) and a second column block (9 = 8 + 1), over an
        // odd row count, so the 1-row pass runs too: each row of one
        // batched call equals the batch-1 call on that row alone, bit for
        // bit (the property suite widens this to arbitrary shapes).
        let (_, b) = setup(9, 96, 3);
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
        let x9 = Mat::from_fn(9, 96, |bb, c| ((bb * 96 + c) as f64 * 0.063).cos());
        for batch in 1..=9usize {
            let x = Mat::from_fn(batch, 96, |bb, c| x9[(bb, c)]);
            let batched = exec_i_threads(&x, &p, &cfg, 2);
            for bb in 0..batch {
                let row = Mat::from_fn(1, 96, |_, c| x[(bb, c)]);
                let solo = exec_i_threads(&row, &p, &cfg, 1);
                assert_eq!(batched.row(bb), solo.row(0), "B={batch} row {bb}");
            }
        }
    }

    #[test]
    fn exec_f_tracks_gemm_f() {
        let (x, b) = setup(6, 64, 3);
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
        let ye = exec_f(&x, &p, &cfg);
        let ym = gemm_f(&x, &b, &cfg);
        for bb in 0..x.rows() {
            let xs: f64 = x.row(bb).iter().map(|v| v.abs()).sum();
            for r in 0..6 {
                let denom = xs.max(1.0);
                assert!(
                    ((ye[(bb, r)] - ym[(bb, r)]) / denom).abs() < 1e-4,
                    "({bb},{r}): {} vs {}",
                    ye[(bb, r)],
                    ym[(bb, r)]
                );
            }
        }
    }

    #[test]
    fn grouped_scales_and_ragged_tail() {
        // gs = 10 with µ = 4: `effective_mu` narrows to 2 (the largest
        // even divisor), so this runs the fast path at MU = 2 with five
        // windows per group and tile boundaries landing mid-group;
        // n = 70 spans words. (The truly ragged generic walk is pinned by
        // `exec_i_bit_identical_all_mu`'s gs = 15 half.)
        let w = Mat::from_fn(7, 70, |r, c| ((r * 70 + c) as f64 * 0.113).sin());
        let b = BcqWeight::quantize(&w, BcqParams::grouped(3, 10));
        let x = Mat::from_fn(2, 70, |bb, c| ((bb + c) as f64 * 0.091).cos());
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
        assert_eq!(
            exec_i_threads(&x, &p, &cfg, 4).as_slice(),
            gemm_i(&x, &b, &cfg).as_slice()
        );
    }

    #[test]
    fn grouped_scales_fast_path() {
        // gs = 12 with µ = 4 → full-width windows, several groups per tile.
        let w = Mat::from_fn(9, 132, |r, c| ((r * 132 + c) as f64 * 0.119).sin());
        let b = BcqWeight::quantize(&w, BcqParams::grouped(2, 12));
        let x = Mat::from_fn(2, 132, |bb, c| ((bb + c) as f64 * 0.087).cos());
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
        assert_eq!(
            exec_i_threads(&x, &p, &cfg, 3).as_slice(),
            gemm_i(&x, &b, &cfg).as_slice()
        );
    }

    #[test]
    fn uniform_via_bcq_offset_path() {
        let w = Mat::from_fn(5, 32, |r, c| ((r * 32 + c) as f64 * 0.157).sin());
        let u = rtn(&w, RtnParams::per_row(4));
        let b = BcqWeight::from_uniform(&u);
        let x = Mat::from_fn(2, 32, |bb, c| ((bb + c) as f64 * 0.091).cos());
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
        assert_eq!(
            exec_i(&x, &p, &cfg).as_slice(),
            gemm_i(&x, &b, &cfg).as_slice()
        );
    }

    #[test]
    fn more_threads_than_rows() {
        let (x, b) = setup(2, 16, 2);
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
        assert_eq!(
            exec_i_threads(&x, &p, &cfg, 64).as_slice(),
            gemm_i(&x, &b, &cfg).as_slice()
        );
    }
}
