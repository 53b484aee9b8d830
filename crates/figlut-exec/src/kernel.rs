//! The LUT-stationary LUT-GEMM kernel over [`PackedBcq`] weights.
//!
//! The kernel follows the FIGLUT pipeline: per activation row, precompute
//! the FFLUTs of its windows ([`crate::lut`]); then every output row
//! *reads* its weight keys out of the packed bit-planes instead of
//! multiplying. Work is blocked three ways:
//!
//! * **row panels** — contiguous output rows per worker thread, whole
//!   four-row lane groups ([`crate::parallel`]);
//! * **column blocks** — up to eight batch columns share one sweep, so the
//!   packed planes are streamed once per block (once per call up to
//!   batch 8) instead of once per batch row;
//! * **k-tiles** — a thread builds a tile's tables just before its readers
//!   sweep it, *run → row group → plane* (a run is the part of one scale
//!   group inside the tile), so the tables stay in cache while the keys,
//!   scales and offsets stream past (`crate::plan`, `sweep_rows`).
//!
//! Every scale group starts on a key byte ([`crate::packed`]), so every
//! shape is swept a key byte (a window of at most 8 columns of one group)
//! at a time by one of two passes over the same layout and the same walk
//! (`walk`):
//!
//! * the **shuffle pass** (the `shuffle` module, the register FFLUT) takes a
//!   block of one or two columns, 32 rows per group: each key
//!   byte is two µ = 4 nibble windows whose 16-entry byte-plane tables one
//!   `vpshufb` reads for all 32 rows. It needs the narrow tier and a proof
//!   that every entry fits its byte planes (`Stage`);
//! * the **lane pass** (`lane_pass`) takes blocks of three to eight
//!   columns, four rows per group: a key indexes its 256-entry table of
//!   `L ∈ {4, 8}` lanes, whose `L` contiguous entries it adds to
//!   register-resident accumulators of the entries' own type.
//!
//! A window narrower than 8 columns (a ragged group's last byte) has zero
//! pad bits, so its key only reaches the entries of its real columns. The
//! fold is fused into the walk: a run that completes a scale group folds
//! its partial straight into the row's running output, and only a group
//! that crosses a tile boundary carries its integer sums to its next run
//! (`open`). Groups
//! complete in ascending order and planes in ascending order within a
//! group, so each (row, column) sees exactly the datapath model's fold
//! sequence.
//!
//! [`exec_i`] reproduces the *exact* arithmetic of the FIGLUT-I datapath
//! model: the same pre-alignment ([`AlignedVector`]), exact integer window
//! sums (associativity makes every blocking, table split and byte-plane
//! recombination invisible), and the same FP32-rounded fold sequence
//! (`figlut_gemm::ifpu::fold_partial`) — so its output is bit-identical to
//! `figlut_gemm::figlut::gemm_i` (and therefore to iFPU; DESIGN.md §3),
//! *and* each batch row is bit-identical to a batch-1 call on that row
//! alone (the invariance `figlut-serve` builds on, pinned by
//! `tests/prop_exec.rs`). The entry points here build a throwaway
//! [`ExecPlan`] per call; repeated execution over the same weights should
//! hold a plan ([`crate::plan`]).
//!
//! [`AlignedVector`]: figlut_num::align::AlignedVector

use crate::lut::{Block, FlatLuts, NibbleLuts, MAX_LANES};
use crate::packed::PackedBcq;
use crate::parallel::thread_count;
use crate::plan::ExecPlan;
use crate::shuffle::{Isa, BLOCK_ROWS};
use figlut_gemm::common::{add32, mul32};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;
use std::ops::{AddAssign, Range};

/// Accumulator of exact integer sums, and the entry type of the lane
/// tables it sweeps, so a key's lane vector adds lane by lane into
/// accumulators of its own width. The stage picks the type (`Stage`):
/// `i32` where it proves every group partial fits, else `i64`; both are
/// exact, so both return the same bits.
pub(crate) trait Accum: Copy + Default + AddAssign {
    /// The accumulated value as `f64`, for the final fold. Converting the
    /// native-width integer directly is bit-identical to the datapath
    /// API's `i128 as f64` (same integer value, same round-to-nearest) but
    /// is one hardware instruction instead of a softfloat libcall — this
    /// sits on the per-(row, column) fold path.
    fn to_f64(self) -> f64;
}
impl Accum for i64 {
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
/// within that bound). The payoff over `i64`: half the table-read bytes,
/// and an 8-lane add is one AVX2 `vpaddd` (two `paddd` in the baseline
/// build), not two `vpaddq`s.
impl Accum for i32 {
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// Rows the lane pass sweeps at once (their keys are one 32-bit load).
pub(crate) const LANE_ROWS: usize = 4;

/// The lane pass: accumulate one *run* of byte-wide windows — `tables`
/// holds one `[[A; L]; 256]` per window — for four output rows × `L`
/// lanes: rows `at..at + 4` (`at` a multiple of 4) of a block, whose keys
/// sit side by side in every key byte of `keys` (`crate::packed`), so one
/// 32-bit load reads all four. The `4 × L` accumulators are locals, so
/// LLVM keeps them in vector registers for the whole run.
#[inline(always)]
fn lane_pass<A: Accum, const L: usize>(
    keys: &[[u8; BLOCK_ROWS]],
    at: usize,
    tables: &[A],
) -> [[A; L]; LANE_ROWS] {
    let mut acc = [[A::default(); L]; LANE_ROWS];
    let at = at % BLOCK_ROWS / LANE_ROWS * LANE_ROWS;
    // Four keys a step, unrolled: 6 % faster at batch 8 than one a step.
    let mut fours = tables.chunks_exact(4 * 256 * L);
    for (tables, keys) in fours.by_ref().zip(keys.chunks_exact(4)) {
        for (table, k) in tables.chunks_exact(256 * L).zip(keys) {
            absorb(&mut acc, table, &k[at..at + LANE_ROWS]);
        }
    }
    let done = tables.len() / (4 * 256 * L) * 4;
    for (table, k) in fours.remainder().chunks_exact(256 * L).zip(&keys[done..]) {
        absorb(&mut acc, table, &k[at..at + LANE_ROWS]);
    }
    acc
}

/// Add entry `keys[j]` of one window's `table` to row `j`'s accumulators.
#[inline(always)]
fn absorb<A: Accum, const L: usize>(acc: &mut [[A; L]; LANE_ROWS], table: &[A], keys: &[u8]) {
    let keys = u32::from_le_bytes(keys.try_into().unwrap_or_default());
    for (j, a) in acc.iter_mut().enumerate() {
        let e = &table[(keys >> (8 * j) & 0xff) as usize * L..][..L];
        for l in 0..L {
            a[l] += e[l];
        }
    }
}

/// The fold's FP32-rounded `acc + b` on a running output: with every
/// product `mul32`-rounded, a finished group partial `p` folds as
/// `acc + α·(p·λ)`, then `acc + z·Σx` once per group — the plane fold
/// `figlut_gemm::ifpu::fold_partial` with the i128 partial replaced by the
/// accumulator's own width ([`Accum::to_f64`] explains why that is
/// bit-identical). A running output is always an FP32 value, so it is
/// held as the `f32` it is: that drops no bit, and it lets the compiler
/// turn `add32` of two widened `f32`s into one `f32` add — the same bits
/// (`f64` carries more than 2·24 + 2 significand bits, so rounding the
/// `f64` sum again is innocuous) for three conversions fewer per fold,
/// which at eight lanes is most of the fold's cost.
#[inline(always)]
fn add_f32(acc: f32, b: f64) -> f32 {
    add32(acc as f64, b) as f32
}

/// One plane's fold of a finished group partial `p`: `y ⊕ α·(p·λ)`, each
/// product `mul32`-rounded. Where the stage proves `gs·max|m| < 2^24` and
/// every λ (a power of two) in `[2^−126, f32::MAX / 2^24]` (`EXACT`), `p·λ`
/// is an exact normal `f32`, so the fold is `y + (α·(p·λ)) as f32` in
/// `f32`: the same bits (as [`add_f32`]), one round trip fewer per lane.
#[inline(always)]
fn fold<const EXACT: bool>(y: f32, alpha: f64, p: f64, lambda: f64) -> f32 {
    if EXACT {
        y + (alpha * (p * lambda)) as f32
    } else {
        add_f32(y, mul32(alpha, mul32(p, lambda)))
    }
}

/// The operands of one column block's fold. Each column folds with its
/// own λ and Σx, so every (row, column) result is bit-identical to a
/// batch-1 call.
pub(crate) struct Columns<'a> {
    /// Alignment scale λ per batch column of the call.
    pub lambdas: &'a [f64],
    /// Offset multiplier per (column, group), `batch × groups`: the
    /// row-invariant `mul32(Σx, λ)`, pre-folded at staging.
    pub gsums: &'a [f64],
    /// The block's columns, and the pass that sweeps them.
    pub blk: Block,
    /// The k-tile swept.
    pub tile: usize,
}

/// `f(column)` for each of the block's columns, 0 in its padding lanes.
fn per_lane<const L: usize>(blk: Block, f: impl Fn(usize) -> f64) -> [f64; L] {
    std::array::from_fn(|l| if l < blk.cols { f(blk.col0 + l) } else { 0.0 })
}

/// One pass of [`walk`] in build `I`: the integer sums `[row % G][lane]`
/// of one run of key bytes for one `G`-row group over a tile's tables: a
/// method, inlined, not a closure, so it compiles into the walk's entry.
trait RunPass<A, const G: usize, const L: usize> {
    /// The sums of `keys`, the key bytes `run` (counted from the tile's
    /// first) of a 32-row block, for the group whose first row is `at` in
    /// the block.
    fn pass<I: Isa>(&self, keys: &[[u8; 32]], at: usize, run: Range<usize>) -> [[A; L]; G];
}

/// The lane pass over one lane block's tables, four rows at a time.
impl<A: Accum, const L: usize> RunPass<A, LANE_ROWS, L> for FlatLuts<A> {
    #[inline(always)]
    fn pass<I: Isa>(&self, keys: &[[u8; 32]], at: usize, run: Range<usize>) -> [[A; L]; 4] {
        let tables = &self.entries()[run.start * 256 * L..run.end * 256 * L];
        lane_pass::<A, L>(keys, at, tables)
    }
}

/// The shuffle pass over the columns the tables hold, 32 rows at a time.
impl<A: Accum + From<i32>, const L: usize> RunPass<A, BLOCK_ROWS, L> for NibbleLuts {
    #[inline(always)]
    fn pass<I: Isa>(&self, keys: &[[u8; 32]], _: usize, run: Range<usize>) -> [[A; L]; 32] {
        let mut sums = [[A::default(); L]; BLOCK_ROWS];
        for (l, c) in self.cols.clone().enumerate() {
            let s = I::pass(keys, self.column(c, run.clone()), self.planes);
            for (sum, &s) in sums.iter_mut().zip(s.as_flattened()) {
                sum[l] = A::from(s);
            }
        }
        sums
    }
}

/// The LUT-stationary walk of k-tile `cx.tile` of column block `cx.blk`
/// (`L` lanes) over a reader's rows `r0..`: per run (the key bytes of one
/// scale group inside the tile), per aligned `G`-row group, per plane, one
/// [`RunPass::pass`] over the tile's `tables` — `keys` the run's key bytes
/// of the group's 32-row block, `at` the group's first row in them. A run
/// that ends its group folds the partial into the row's running output
/// `panel[row·batch + column]` and, after the last plane, the group's
/// offset term; a run that does not parks it in the reader's `open`
/// (`[row][plane][lane]`) for the group's next run, in a later tile — a
/// group's first run assigns, so `open` is never cleared. All `L` lanes
/// fold in lockstep (padding lanes fold zeros).
#[inline(always)]
fn walk<I: Isa, A: Accum, const G: usize, const L: usize, const EXACT: bool>(
    w: &PackedBcq,
    cx: &Columns<'_>,
    r0: usize,
    panel: &mut [f64],
    open: &mut [A],
    tables: &impl RunPass<A, G, L>,
) {
    let (q, groups, batch, t) = (w.bits(), w.groups(), cx.lambdas.len(), cx.tile);
    let (col0, cols) = (cx.blk.col0, cx.blk.cols);
    let rows = panel.len() / batch;
    let kpg = w.group_size().div_ceil(8); // key bytes per group
    let Range { start: k0, end: k1 } = w.tile(t);
    let lam: [f64; L] = per_lane(cx.blk, |col| cx.lambdas[col]);
    for g in k0 / kpg..k1.div_ceil(kpg) {
        let (lo, hi) = (k0.max(g * kpg), k1.min((g + 1) * kpg));
        let (starts, ends) = (lo == g * kpg, hi == (g + 1) * kpg);
        let zs = w.group_offsets(g);
        let gsum: [f64; L] = per_lane(cx.blk, |col| cx.gsums[col * groups + g]);
        for b in r0 / G..(r0 + rows).div_ceil(G) {
            // Rows of the block outside the panel are summed and folded
            // too, and never stored.
            let live = (b * G).max(r0)..((b + 1) * G).min(r0 + rows);
            let out = |r: usize| (r - r0) * batch + col0..(r - r0) * batch + col0 + cols;
            let mut y = [[0f32; L]; G];
            if ends {
                for r in live.clone() {
                    for (y, &o) in y[r - b * G].iter_mut().zip(&panel[out(r)]) {
                        *y = o as f32;
                    }
                }
            }
            for i in 0..q {
                let keys = &w.block_keys(t, b * G / BLOCK_ROWS, i)[lo - k0..hi - k0];
                let mut accs = tables.pass::<I>(keys, b * G % BLOCK_ROWS, lo - k0..hi - k0);
                if !(starts && ends) {
                    let js = live.start - b * G..live.end - b * G;
                    let at = (live.start - r0) * q + i;
                    for (acc, at) in accs[js].iter_mut().zip((at..).step_by(q)) {
                        let carry = &mut open[at * L..][..L];
                        if !starts {
                            for l in 0..L {
                                acc[l] += carry[l];
                            }
                        }
                        if !ends {
                            carry.copy_from_slice(acc);
                        }
                    }
                }
                if ends {
                    let alphas = &w.group_scales(g, i)[b * G..(b + 1) * G];
                    for ((y, acc), &alpha) in y.iter_mut().zip(&accs).zip(alphas) {
                        let p = acc.map(A::to_f64);
                        *y = std::array::from_fn(|l| fold::<EXACT>(y[l], alpha, p[l], lam[l]));
                    }
                }
            }
            if ends {
                if let Some(zs) = zs.get(b * G..(b + 1) * G) {
                    for (y, &z) in y.iter_mut().zip(zs) {
                        *y = std::array::from_fn(|l| add_f32(y[l], mul32(z, gsum[l])));
                    }
                }
                for r in live {
                    for (o, &y) in panel[out(r)].iter_mut().zip(&y[r - b * G]) {
                        *o = y as f64;
                    }
                }
            }
        }
    }
}

/// One reader's sweep of k-tile `cx.tile` of the column block `cx.blk`, in build
/// `I`, over the tile's tables — the lane pass's `luts` or the shuffle
/// pass's `nib`: output rows `r0..`, folding into `panel` (the reader's
/// `rows × batch` share of a part, zeroed before the block's first tile),
/// region `at` of `open` the reader's open-group carry (grown to hold it:
/// allocation-free once warm).
#[inline(always)]
pub(crate) fn sweep_tile<I: Isa, A: Accum + From<i32>, const EXACT: bool>(
    w: &PackedBcq,
    (luts, nib): (&FlatLuts<A>, &NibbleLuts),
    cx: &Columns<'_>,
    r0: usize,
    panel: &mut [f64],
    open: &mut Vec<A>,
    at: Range<usize>,
) {
    if open.len() < at.end {
        open.resize(at.end, A::default());
    }
    let open = &mut open[at];
    match (cx.blk.shuffle, cx.blk.cols) {
        (false, ..=4) => walk::<I, A, LANE_ROWS, 4, EXACT>(w, cx, r0, panel, open, luts),
        (false, _) => walk::<I, A, LANE_ROWS, MAX_LANES, EXACT>(w, cx, r0, panel, open, luts),
        (true, 1) => walk::<I, A, BLOCK_ROWS, 1, EXACT>(w, cx, r0, panel, open, nib),
        (true, _) => walk::<I, A, BLOCK_ROWS, 2, EXACT>(w, cx, r0, panel, open, nib),
    }
}

/// Validate a call's shapes and config; returns `(batch, m, n)`.
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
/// worker threads (a maximum: [`crate::parallel::crew_size`] of the call's
/// [look-ups](ExecPlan::lookups) decides how many run; the result is
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::TILE_WORDS;
    use figlut_gemm::figlut::gemm_i;
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
        // Whatever µ the config names, the kernel sweeps key-byte windows,
        // bit-identical to the model's µ-wide ones: per-row scales over 40
        // columns (five key bytes), and gs = 15 (two key bytes per group,
        // the second seven columns wide). Batch 3 runs the lane pass.
        let (x, b) = setup(4, 40, 3);
        let p = PackedBcq::pack(&b);
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
                "per-row µ={mu}"
            );
            assert_eq!(
                exec_i(&x9, &p9, &cfg).as_slice(),
                gemm_i(&x9, &b9, &cfg).as_slice(),
                "gs 15 µ={mu}"
            );
        }
    }

    #[test]
    fn exec_i_spans_tiles_and_an_odd_row_count() {
        // Per-row scale over 288 columns: five words, so a full k-tile
        // and a ragged one, with the row's one group open across both;
        // 273 rows end inside a 4-row group and a 32-row block.
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
    fn grouped_scales_and_ragged_tail() {
        // gs = 10: each group is two key bytes, the second two columns
        // wide, so seven groups pad n = 70 out to 14 key bytes.
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
        // gs = 12: each group an 8- and a 4-column key byte, 11 groups.
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
