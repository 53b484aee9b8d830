//! Cache-blocked, lane-blocked LUT-GEMM kernels over [`PackedBcq`] weights.
//!
//! Both kernels follow the FIGLUT pipeline: per activation row, precompute
//! one flat FFLUT per µ-column window ([`crate::lut`]); then every output
//! row *reads* its µ-bit weight keys out of the packed bit-planes instead
//! of multiplying. Work is blocked four ways:
//!
//! * **row panels** — output rows are split into contiguous panels, one per
//!   worker thread ([`crate::parallel`]);
//! * **sub-panels** — each worker walks its rows in `PANEL_ROWS`-row
//!   blocks: few enough to bound the per-row partial accumulators a table
//!   tile streams through, enough that a sub-panel's look-ups outweigh
//!   re-streaming the whole table set;
//! * **k-tiles** — windows are visited in cache-sized tiles
//!   (`tile_windows`), swept across the whole sub-panel before moving
//!   on, so table reads stay cache-resident while plane bits stream
//!   sequentially;
//! * **column blocks** — the batch columns are cut into lane blocks of
//!   `L ∈ {1, 2, 4, 8}` columns, each with its own tables in which the `L`
//!   entries of one `(window, key)` are contiguous
//!   ([`crate::lut::FlatLuts`]); a block is swept like a batch-1 call, so
//!   the packed planes are streamed once per block (once per call up to
//!   batch 8) instead of once per batch row.
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
//! registers. Every other shape (odd µ, groups that split a word) takes
//! the generic descriptor walk (`generic_block`).
//!
//! The final per-(row, column) fold interleaves four batch columns in
//! lockstep — the FP32-rounded accumulator chain is serial per column, so
//! independent columns hide its latency without reordering any single
//! column's operations — and the integer path narrows tables *and*
//! accumulators to i32 whenever the plan proves the group-partial bound
//! (see `Accum`), which is what makes a lane vector one or two SSE2
//! registers.
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
use crate::packed::PackedBcq;
use crate::parallel::thread_count;
use crate::plan::ExecPlan;
use figlut_gemm::common::{add32, mul32};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;

/// Rows per sub-panel. Every sub-panel re-streams the call's whole table
/// set (2–8 MB at batch 8 on the OPT-1.3B shapes), so it must carry enough
/// look-ups to outweigh that: at 64 rows a batch-8 call lost ~10 % to table
/// re-streaming, from 256 up the gain is inside the noise, and batch 1
/// (tables 8× smaller) does not care. The cap bounds the live
/// partial-accumulator footprint (`PANEL_ROWS × batch × groups × q`
/// scalars) independently of the thread count.
pub(crate) const PANEL_ROWS: usize = 256;

/// Entry size the generic walk's tiles are sized for — the widest entry,
/// whatever the call's narrowing tier. Its tiles may split a packed word,
/// so their size shows in the streamed-word count; fixing it keeps
/// [`crate::ExecPlan::streamed_words`] one tier-independent formula. (The
/// lane pass's tiles are whole words: its count is the same at any size.)
pub(crate) const GENERIC_ENTRY_BYTES: usize = 8;

/// Windows per k-tile of a `lanes`-wide column block with
/// `entry_bytes`-byte entries, sized so one tile's tables stay around
/// 256 KiB — comfortably L2-resident next to the streaming plane words,
/// and each tile is reused across the whole sub-panel before the next
/// streams in. Measured on the OPT decode shapes, smaller (L1-sized) tiles
/// lose to per-pass loop overhead and larger ones thrash L2 once k·2^µ
/// tables outgrow it. Always a multiple of the windows-per-word count for
/// every µ dividing 64 (the lane pass needs word-aligned tile boundaries).
pub(crate) fn tile_windows(mu: u32, lanes: usize, entry_bytes: usize) -> usize {
    let kpw = if 64 % mu == 0 { (64 / mu) as usize } else { 1 };
    let t = ((262144usize >> mu) / (lanes * entry_bytes)).max(4);
    t.next_multiple_of(kpw)
}

/// `true` if calls on this shape take `lane_pass`: windows are bytes of
/// the packed words and no scale group ends inside a word.
pub(crate) fn lane_path(mu: usize, group_size: usize, groups: usize) -> bool {
    mu == 8 && (group_size.is_multiple_of(64) || groups == 1)
}

/// Packed words one column-block sweep streams per (bit-plane, output
/// row): per tile, the contiguous word range covering its windows.
/// Windows cover the columns gap-free, so first-to-last word span is
/// exactly what both the lane pass and the generic walk read. This is the
/// unit of the `exec_streamed_words` trace counter and of
/// [`crate::ExecPlan::streamed_words`] — keeping the two on one formula is
/// what makes them reconcile exactly.
pub(crate) fn sweep_words(wins: &[Window], tile: usize) -> u64 {
    let span = |t: &[Window]| {
        let (first, last) = (&t[0], &t[t.len() - 1]);
        (last.start as usize + last.width as usize - 1) / 64 - first.start as usize / 64 + 1
    };
    wins.chunks(tile).map(|t| span(t) as u64).sum()
}

/// Accumulator `Self` absorbing table entries of type `E`. Decoupling the
/// two lets `exec_i` keep exact `i64` group partials while reading *narrow*
/// `i32` tables — half the bytes per lookup, which matters because large-k
/// shapes are bound by table-read bandwidth, not arithmetic. Sign extension
/// is exact, so narrowing never changes a result (the build site proves the
/// no-overflow bound first).
pub(crate) trait Accum<E: Copy>: Copy + Default {
    /// Fold one table entry into the accumulator.
    fn absorb(&mut self, e: E);
    /// Fold another accumulator (a completed window sum) into this one.
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
/// first packed word of output row `r` — for `R` output rows × `L` lanes.
/// Each word's eight bytes are the eight keys of its eight tables, fully
/// unrolled; a ragged last word (a row whose window count is not a
/// multiple of 8) gets the short tail loop. The `R × L` accumulators are
/// locals, so LLVM keeps them in vector registers for the whole run.
#[inline(always)]
fn lane_pass<E: Copy, A: Accum<E>, const L: usize, const R: usize>(
    words: [&[u64]; R],
    tables: &[E],
) -> [[A; L]; R] {
    let mut acc = [[A::default(); L]; R];
    let mut absorb = |keys: &[[u8; 8]; R], j: usize, table: &[E]| {
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

/// Sweep one `L`-lane column block over rows `r0..` of a lane-path shape:
/// per k-tile, per row pair (an odd last row alone), per bit-plane, one
/// [`lane_pass`] per run, merged into
/// `prow[(group·q + plane)·batch + col0 + lane]`.
fn lane_block<E: Copy, A: Accum<E>, const L: usize>(
    w: &PackedBcq,
    blk: &LaneBlock<'_, E>,
    tile: usize,
    batch: usize,
    r0: usize,
    partials: &mut [A],
) {
    let q = w.bits();
    let prow_len = batch * w.groups() * q;
    let wpg = w.group_size() / 8; // windows per group
    let nwin = w.cols() / 8;
    let merge = |prow: &mut [A], d0: usize, acc: &[A; L]| {
        for (p, &a) in prow[d0..d0 + blk.cols].iter_mut().zip(acc) {
            p.merge(a);
        }
    };
    for win_lo in (0..nwin).step_by(tile) {
        let win_hi = (win_lo + tile).min(nwin);
        for (pi, pair) in partials.chunks_mut(2 * prow_len).enumerate() {
            let r = r0 + 2 * pi;
            let (p0, p1) = pair.split_at_mut(prow_len);
            for i in 0..q {
                let mut lo = win_lo;
                while lo < win_hi {
                    let g = lo / wpg;
                    let hi = win_hi.min((g + 1) * wpg);
                    let tables = &blk.entries[lo * 256 * L..hi * 256 * L];
                    let d0 = (g * q + i) * batch + blk.col0;
                    let w0 = &w.plane_row(i, r)[lo / 8..];
                    if p1.is_empty() {
                        let [a0] = lane_pass::<E, A, L, 1>([w0], tables);
                        merge(p0, d0, &a0);
                    } else {
                        let w1 = &w.plane_row(i, r + 1)[lo / 8..];
                        let [a0, a1] = lane_pass::<E, A, L, 2>([w0, w1], tables);
                        merge(p0, d0, &a0);
                        merge(p1, d0, &a1);
                    }
                    lo = hi;
                }
            }
        }
    }
}

/// The generic walk over one column block: per-window descriptors,
/// arbitrary widths/starts (ragged group tails, µ ∤ 64, groups that split
/// a word). The key of each descriptor window is decoded from the weight
/// bits once, then its lane vector is read for every column of the block.
#[allow(clippy::too_many_arguments)]
fn generic_block<E: Copy, A: Accum<E>>(
    w: &PackedBcq,
    wins: &[Window],
    blk: &LaneBlock<'_, E>,
    shift: u32,
    tile: usize,
    batch: usize,
    r0: usize,
    partials: &mut [A],
) {
    let q = w.bits();
    let prow_len = batch * w.groups() * q;
    for (t, tile_wins) in wins.chunks(tile).enumerate() {
        for (ri, prow) in partials.chunks_mut(prow_len).enumerate() {
            for i in 0..q {
                let words = w.plane_row(i, r0 + ri);
                for (wo, win) in tile_wins.iter().enumerate() {
                    let start = win.start as usize;
                    let wi = start >> 6;
                    let off = (start & 63) as u32;
                    let mut bits = words[wi] >> off;
                    if off + win.width > 64 {
                        // width ≤ 8 ⇒ off ≥ 57 here, so the shift below is < 64.
                        bits |= words[wi + 1] << (64 - off);
                    }
                    let key = (bits as usize) & ((1usize << win.width) - 1);
                    let d0 = (win.group as usize * q + i) * batch + blk.col0;
                    let base = ((t * tile + wo) << shift | key) * blk.lanes;
                    for (p, &e) in prow[d0..d0 + blk.cols].iter_mut().zip(&blk.entries[base..]) {
                        p.absorb(e);
                    }
                }
            }
        }
    }
}

/// Accumulate all window partials of rows `r0..r0+rows` for every batch
/// column: the shared tile walk of both kernels, one sweep per column
/// block. `partials` is `rows × groups × q × batch` in
/// `[row][group][plane][column]` order — columns innermost, so both the
/// kernel's per-run merges and the final fold's column-interleaved reads
/// are contiguous.
pub(crate) fn accumulate_panel<E: Copy, A: Accum<E>>(
    w: &PackedBcq,
    wins: &[Window],
    luts: &FlatLuts<E>,
    r0: usize,
    rows: usize,
    partials: &mut [A],
) {
    let batch = luts.batch();
    let q = w.bits();
    let shift = luts.mu();
    let lane = lane_path(shift as usize, w.group_size(), w.groups());
    let entry_bytes = if lane {
        size_of::<E>()
    } else {
        GENERIC_ENTRY_BYTES
    };
    let partials = &mut partials[..rows * batch * w.groups() * q];
    for blk in luts.blocks() {
        let tile = tile_windows(shift, blk.lanes, entry_bytes);
        // Traffic accounting, off the walk itself: the words a sweep
        // streams are fully determined by the window plan (guarded so the
        // disabled path costs one load).
        if figlut_trace::enabled() {
            let per_row = sweep_words(wins, tile) * q as u64;
            figlut_trace::counters::bump_exec_streamed_words(per_row * rows as u64);
            figlut_trace::counters::bump_exec_ktiles((wins.len().div_ceil(tile) * rows) as u64);
        }
        match (lane, blk.lanes) {
            (false, _) => generic_block(w, wins, &blk, shift, tile, batch, r0, partials),
            (true, 1) => lane_block::<E, A, 1>(w, &blk, tile, batch, r0, partials),
            (true, 2) => lane_block::<E, A, 2>(w, &blk, tile, batch, r0, partials),
            (true, 4) => lane_block::<E, A, 4>(w, &blk, tile, batch, r0, partials),
            (true, _) => lane_block::<E, A, MAX_LANES>(w, &blk, tile, batch, r0, partials),
        }
    }
}

/// One worker's share of `exec_i`: sub-panel blocks of integer partials,
/// then the datapath model's exact FP32-rounded fold per (output row,
/// batch column). `panel` is the worker's `rows × batch` slice of the
/// transposed output; `gsum_folds` is `batch × groups`; `partials` is
/// caller-owned scratch (reused allocation-free across calls).
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel_i<E: Copy, A: Accum<E>>(
    w: &PackedBcq,
    wins: &[Window],
    luts: &FlatLuts<E>,
    gsum_folds: &[f64],
    lambdas: &[f64],
    r0: usize,
    panel: &mut [f64],
    partials: &mut Vec<A>,
) {
    let batch = luts.batch();
    debug_assert_eq!(lambdas.len(), batch);
    let q = w.bits();
    let groups = w.groups();
    let gq = groups * q;
    let prow_len = batch * gq;
    let rows = panel.len() / batch;
    let pr = PANEL_ROWS;
    partials.clear();
    partials.resize(pr.min(rows) * prow_len, A::default());
    for (s, sub) in panel.chunks_mut(pr * batch).enumerate() {
        let sr0 = r0 + s * pr;
        let sub_rows = sub.len() / batch;
        let partials = &mut partials[..sub_rows * prow_len];
        partials.fill(A::default());
        accumulate_panel(w, wins, luts, sr0, sub_rows, partials);
        // Fold in exactly the datapath model's order — per group, plane
        // partials then the offset term, via the model's own
        // `fold_partial`; the row-invariant `mul32(Σx, λ)` of the offset
        // term arrives pre-folded in `gsum_folds`, so its fold stays
        // open-coded. Each batch column folds with its own λ and Σx, so
        // every (row, column) result is bit-identical to a batch-1 call.
        for (ri, out_row) in sub.chunks_mut(batch).enumerate() {
            let r = sr0 + ri;
            let scales = w.row_scales(r);
            let prow = &partials[ri * prow_len..(ri + 1) * prow_len];
            // Partials are `[group][plane][column]`, so column b of fold
            // slot gi is `prow[gi·batch + b]`. Each column's fold sequence
            // is exactly the datapath model's — `fold(acc, a, p) =
            // add32(acc, mul32(a, mul32(p, λ)))` is
            // `figlut_gemm::ifpu::fold_partial` with the i128 partial
            // replaced by the accumulator's own width ([`Accum::to_f64`]
            // explains why that is bit-identical) — but *four columns are
            // folded in lockstep*: the FP32-rounded accumulator chain is
            // serial per column (~3 dependent rounding steps per slot), so
            // interleaving independent columns hides most of its latency.
            // Interleaving never reorders any single column's operations,
            // so results stay bit-identical to batch-1 folds.
            let fold = |acc: f64, a: f64, p: A, lambda: f64| -> f64 {
                add32(acc, mul32(a, mul32(p.to_f64(), lambda)))
            };
            let zs = w.has_offset().then(|| w.row_offsets(r));
            let mut b0 = 0;
            while b0 + 4 <= batch {
                let mut acc = [0.0f64; 4];
                let lam = [
                    lambdas[b0],
                    lambdas[b0 + 1],
                    lambdas[b0 + 2],
                    lambdas[b0 + 3],
                ];
                if let Some(zs) = zs {
                    for g in 0..groups {
                        for i in 0..q {
                            let a = scales[g * q + i];
                            let base = (g * q + i) * batch + b0;
                            for j in 0..4 {
                                acc[j] = fold(acc[j], a, prow[base + j], lam[j]);
                            }
                        }
                        for j in 0..4 {
                            let gf = gsum_folds[(b0 + j) * groups + g];
                            acc[j] = add32(acc[j], mul32(zs[g], gf));
                        }
                    }
                } else {
                    for (gi, &a) in scales.iter().enumerate() {
                        let base = gi * batch + b0;
                        for j in 0..4 {
                            acc[j] = fold(acc[j], a, prow[base + j], lam[j]);
                        }
                    }
                }
                out_row[b0..b0 + 4].copy_from_slice(&acc);
                b0 += 4;
            }
            for (b, out) in out_row.iter_mut().enumerate().skip(b0) {
                let lambda = lambdas[b];
                let mut acc = 0.0;
                if let Some(zs) = zs {
                    let gsum_fold = &gsum_folds[b * groups..(b + 1) * groups];
                    for g in 0..groups {
                        for i in 0..q {
                            acc = fold(
                                acc,
                                scales[g * q + i],
                                prow[(g * q + i) * batch + b],
                                lambda,
                            );
                        }
                        acc = add32(acc, mul32(zs[g], gsum_fold[g]));
                    }
                } else {
                    for (gi, &a) in scales.iter().enumerate() {
                        acc = fold(acc, a, prow[gi * batch + b], lambda);
                    }
                }
                *out = acc;
            }
        }
    }
}

/// One worker's share of `exec_f`: f64 partials, plain f64 fold. Same
/// layout contract as [`panel_i`]; `gsums` is `batch × groups`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel_f(
    w: &PackedBcq,
    wins: &[Window],
    luts: &FlatLuts<f64>,
    gsums: &[f64],
    r0: usize,
    panel: &mut [f64],
    partials: &mut Vec<f64>,
) {
    let batch = luts.batch();
    let q = w.bits();
    let groups = w.groups();
    let gq = groups * q;
    let prow_len = batch * gq;
    let rows = panel.len() / batch;
    let pr = PANEL_ROWS;
    partials.clear();
    partials.resize(pr.min(rows) * prow_len, 0.0);
    for (s, sub) in panel.chunks_mut(pr * batch).enumerate() {
        let sr0 = r0 + s * pr;
        let sub_rows = sub.len() / batch;
        let partials = &mut partials[..sub_rows * prow_len];
        partials.fill(0.0);
        accumulate_panel(w, wins, luts, sr0, sub_rows, partials);
        for (ri, out_row) in sub.chunks_mut(batch).enumerate() {
            let r = sr0 + ri;
            let scales = w.row_scales(r);
            let prow = &partials[ri * prow_len..(ri + 1) * prow_len];
            for (b, out) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                if w.has_offset() {
                    let gsum = &gsums[b * groups..(b + 1) * groups];
                    let zs = w.row_offsets(r);
                    for g in 0..groups {
                        for i in 0..q {
                            acc += scales[g * q + i] * prow[(g * q + i) * batch + b];
                        }
                        acc += zs[g] * gsum[g];
                    }
                } else {
                    for (gi, &a) in scales.iter().enumerate() {
                        acc += a * prow[gi * batch + b];
                    }
                }
                *out = acc;
            }
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
    fn exec_i_spans_sub_panels_and_tiles() {
        // m > PANEL_ROWS forces multiple sub-panels; n > 64·µ spans words.
        let m = PANEL_ROWS + 17;
        let (x, b) = setup(m, 288, 2);
        let cfg = EngineConfig::paper_default();
        let p = PackedBcq::pack(&b);
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
    fn tile_windows_rescales_with_batch_and_stays_word_aligned() {
        for mu in [1u32, 2, 4, 8] {
            let kpw = 64 / mu as usize;
            let base = tile_windows(mu, 1, 4);
            assert_eq!(base, 65536 >> mu, "µ={mu}: 256 KiB of 4-byte entries");
            for lanes in [1usize, 4, 8] {
                for bytes in [4usize, 8] {
                    let t = tile_windows(mu, lanes, bytes);
                    assert!(t >= kpw, "µ={mu} L={lanes}: tile {t} < one word");
                    assert!(t.is_multiple_of(kpw), "µ={mu} L={lanes}: tile {t} ragged");
                    assert!(
                        (t << mu) * lanes * bytes <= 262144 || t == kpw,
                        "µ={mu} L={lanes} {bytes} B: tile {t} over budget"
                    );
                }
            }
        }
        // µ ∤ 64 (generic walk): no alignment constraint, still positive.
        assert!(tile_windows(3, 8, 8) >= 4);
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
