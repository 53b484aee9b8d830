//! Cache-blocked, batch-blocked LUT-GEMM kernels over [`PackedBcq`] weights.
//!
//! Both kernels follow the FIGLUT pipeline: per activation row, precompute
//! one flat FFLUT per µ-column window ([`crate::lut`]); then every output
//! row *reads* its µ-bit weight keys out of the packed bit-planes instead
//! of multiplying. Work is blocked four ways:
//!
//! * **row panels** — output rows are split into contiguous panels, one per
//!   worker thread ([`crate::parallel`]);
//! * **sub-panels** — each worker walks its rows in fixed
//!   `PANEL_ROWS`-row blocks so the per-row partial accumulators stay
//!   resident while a table tile streams through them;
//! * **k-tiles** — windows are visited in cache-sized tiles
//!   (`tile_windows`), swept across the whole sub-panel before moving
//!   on, so table reads stay cache-resident while plane bits stream
//!   sequentially;
//! * **batch columns** — a batched call processes *all* B activation rows
//!   per streamed weight word: each µ-bit key is decoded once and read out
//!   of the per-key-stacked FFLUTs ([`crate::lut::FlatLuts`]) for every
//!   batch column before the next word loads, so the packed planes — the
//!   kernel's only non-resident traffic — are swept once per call instead
//!   of once per batch row, and the B reads of one key land on contiguous,
//!   line-sharing entries. The k-tile size is rescaled by B so the stacked
//!   tables stay L2-resident. Two column engines cover the batch range:
//!   below `WIDE_MIN` columns, `COL_BLOCK`-wide *register* blocks (a
//!   const-generic `[A; CB]` per row — up to `2·COL_BLOCK` independent
//!   read chains per row pair, hiding table-read latency); from
//!   `WIDE_MIN` up, *memory-backed* full-batch accumulator rows whose
//!   per-key column zips auto-vectorize into packed adds
//!   (`tile_pass_fast*_wide`).
//!
//! The final per-(row, column) fold interleaves four batch columns in
//! lockstep — the FP32-rounded accumulator chain is serial per column, so
//! independent columns hide its latency without reordering any single
//! column's operations — and the integer path narrows tables *and*
//! accumulators to i32 whenever the plan proves the group-partial bound
//! (see `Accum`), which is what lets the wide pass vectorize on plain
//! SSE2-class lanes.
//!
//! When µ divides both 64 and the scale-group size — which covers the
//! paper's operating point (µ = 4) and every power-of-two config — windows
//! are contiguous µ-bit fields of the packed words, and a monomorphized
//! fast path (`tile_pass_fast*`) extracts keys by shifting one `u64` at a
//! time, with no per-window descriptors, branches, or bounds checks in the
//! lookup loop. Ragged group tails and odd µ fall back to the generic
//! descriptor walk (`tile_pass_generic`).
//!
//! [`exec_i`] reproduces the *exact* arithmetic of the FIGLUT-I datapath
//! model: the same pre-alignment ([`AlignedVector`]), exact integer window
//! sums (associativity makes the blocking — including the batch and
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

use crate::lut::{FlatLuts, Window};
use crate::packed::PackedBcq;
use crate::parallel::thread_count;
use crate::plan::ExecPlan;
use figlut_gemm::common::{add32, mul32};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;

/// Rows per sub-panel: bounds the live partial-accumulator footprint
/// (`PANEL_ROWS × batch × groups × q` scalars) independently of the thread
/// count.
pub(crate) const PANEL_ROWS: usize = 64;

/// Batch columns processed per register-blocked fast-path pass (batches
/// below `WIDE_MIN`). The per-column accumulators are a `[A; CB]` with
/// `CB ≤ COL_BLOCK` monomorphized, so they live in registers — the row
/// pair then carries `2·CB` independent `acc += table[key]` chains,
/// hiding the table-read latency that serializes a batch-1 pass. 4 is the
/// sweet spot on x86-64: the pair pass holds 8 accumulator registers plus
/// keys/pointers without spilling.
const COL_BLOCK: usize = 4;

/// Batch threshold for the *wide* fast passes (`tile_pass_fast*_wide`):
/// memory-backed full-batch accumulator rows whose per-key column zips
/// auto-vectorize into packed adds. Below this, register-chain column
/// blocks win (a vector round-trip through the stack costs more than it
/// saves on a handful of lanes); from 8 columns up — one or two full
/// vectors per key — the wide pass wins and keeps widening with the
/// batch. Measured on the OPT-1.3B decode shapes (`ext-batch-scaling`).
const WIDE_MIN: usize = 8;

/// Upper bound on the wide passes' stack-resident accumulator rows;
/// larger batches fall back to `COL_BLOCK`-at-a-time register blocks
/// (correct at any batch, just not the fastest shape for 8..=64).
const WIDE_MAX: usize = 64;

/// Windows per k-tile, sized so one tile's tables stay around 256 KiB
/// (assuming 8-byte entries; half that on the narrowed integer path) —
/// comfortably L2-resident next to the streaming plane words, and each
/// tile is reused across the whole sub-panel (`PANEL_ROWS × q` passes)
/// before the next tile streams in. Measured on the OPT decode shapes,
/// smaller (L1-sized) tiles lose to per-pass loop overhead and larger
/// ones thrash L2 once k·2^µ tables outgrow it. A batched call stacks
/// `batch` tables per window, so the window count is rescaled by `batch`
/// to hold the byte budget. Always a multiple of the windows-per-word
/// count for every µ dividing 64 (the fast path needs word-aligned tile
/// boundaries).
pub(crate) fn tile_windows(mu: u32, batch: usize) -> usize {
    let kpw = if 64 % mu == 0 { (64 / mu) as usize } else { 1 };
    let t = ((262144usize >> (mu + 3)) / batch.max(1)).max(4);
    t.next_multiple_of(kpw)
}

/// Packed words one tile walk streams per (bit-plane, output row): the
/// contiguous word range covering the tile's windows. Windows cover the
/// columns gap-free and tile boundaries are word-aligned on the fast path,
/// so first-to-last word span is exactly what both the fast and generic
/// passes read. This is the unit of the `exec_streamed_words` trace
/// counter and of [`crate::ExecPlan::streamed_words`] — keeping the two on
/// one formula is what makes them reconcile exactly.
pub(crate) fn tile_span_words(tile_wins: &[Window]) -> usize {
    let first = &tile_wins[0];
    let last = &tile_wins[tile_wins.len() - 1];
    (last.start as usize + last.width as usize - 1) / 64 - first.start as usize / 64 + 1
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
/// within that bound). The payoff over `i32 → i64`: the batched pass's
/// contiguous per-key column reads and its accumulators are both 32-bit
/// lanes, so the column block vectorizes on plain SSE2 (`paddd`) instead
/// of needing widening loads.
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

/// Fast tile pass for contiguous full-width windows (`µ | 64` and
/// `µ | group_size`) over one output row and the `CB` batch columns
/// starting at `col0`: walk the packed words of one plane row, peel µ-bit
/// keys by shifting, read each key's `CB` contiguous per-key-stacked
/// entries, and accumulate each scale group's reads in `CB` register
/// accumulators before spilling to
/// `prow[(group·q + plane)·batch + col0 + j]`.
///
/// `win_lo` must be word-aligned (a multiple of `64/MU`), which
/// [`tile_windows`] guarantees for tile boundaries. A batch-1 call is the
/// `CB = 1` instantiation with `col0 = 0` — the classic scalar pass.
#[allow(clippy::too_many_arguments)]
fn tile_pass_fast<E: Copy, A: Accum<E>, const MU: usize, const CB: usize>(
    words: &[u64],
    entries: &[E],
    batch: usize,
    col0: usize,
    win_lo: usize,
    win_hi: usize,
    wpg: usize,
    plane: usize,
    q: usize,
    prow: &mut [A],
) {
    if win_hi == win_lo {
        return;
    }
    let kpw = 64 / MU; // windows (keys) per packed word
    let stride = 1usize << MU;
    let mask = stride - 1;
    let bstride = batch * stride;
    let mut tables = entries[win_lo * bstride..win_hi * bstride].chunks_exact(bstride);
    let mut g = win_lo / wpg;
    let mut left = wpg - (win_lo % wpg);
    let mut acc = [A::default(); CB];
    let mut remaining = win_hi - win_lo;
    for &wordv in &words[win_lo / kpw..(win_hi).div_ceil(kpw)] {
        let mut bits = wordv;
        for table in tables.by_ref().take(kpw.min(remaining)) {
            let key = (bits as usize) & mask;
            bits >>= MU;
            // Per-key column stacking: the CB reads are contiguous (they
            // share cache lines — see `FlatLuts`).
            let sub = &table[key * batch + col0..key * batch + col0 + CB];
            for j in 0..CB {
                acc[j].absorb(sub[j]);
            }
            left -= 1;
            if left == 0 {
                let d0 = (g * q + plane) * batch + col0;
                for (j, a) in acc.iter_mut().enumerate() {
                    prow[d0 + j].merge(*a);
                    *a = A::default();
                }
                g += 1;
                left = wpg;
            }
        }
        remaining = remaining.saturating_sub(kpw);
    }
    // Tile ended mid-group: spill the partial group sums.
    if left != wpg {
        let d0 = (g * q + plane) * batch + col0;
        for (j, a) in acc.iter().enumerate() {
            prow[d0 + j].merge(*a);
        }
    }
}

/// [`tile_pass_fast`] over a *pair* of output rows sharing one table
/// walk: `2·CB` independent accumulator chains keep that many table loads
/// in flight — a single-row single-column pass is bound by its serial
/// `acc += table[key]` dependency chain, not by arithmetic — and each
/// streamed table line is reused by both rows while resident.
#[allow(clippy::too_many_arguments)]
fn tile_pass_fast2<E: Copy, A: Accum<E>, const MU: usize, const CB: usize>(
    words0: &[u64],
    words1: &[u64],
    entries: &[E],
    batch: usize,
    col0: usize,
    win_lo: usize,
    win_hi: usize,
    wpg: usize,
    plane: usize,
    q: usize,
    prow0: &mut [A],
    prow1: &mut [A],
) {
    if win_hi == win_lo {
        return;
    }
    let kpw = 64 / MU;
    let stride = 1usize << MU;
    let mask = stride - 1;
    let bstride = batch * stride;
    let mut tables = entries[win_lo * bstride..win_hi * bstride].chunks_exact(bstride);
    let mut g = win_lo / wpg;
    let mut left = wpg - (win_lo % wpg);
    let mut acc0 = [A::default(); CB];
    let mut acc1 = [A::default(); CB];
    let mut remaining = win_hi - win_lo;
    let lo = win_lo / kpw;
    let hi = win_hi.div_ceil(kpw);
    for (&w0, &w1) in words0[lo..hi].iter().zip(&words1[lo..hi]) {
        let mut bits0 = w0;
        let mut bits1 = w1;
        for table in tables.by_ref().take(kpw.min(remaining)) {
            let k0 = (bits0 as usize) & mask;
            let k1 = (bits1 as usize) & mask;
            bits0 >>= MU;
            bits1 >>= MU;
            // Per-key column stacking: each row's CB reads are contiguous
            // (they share cache lines — see `FlatLuts`).
            let sub0 = &table[k0 * batch + col0..k0 * batch + col0 + CB];
            let sub1 = &table[k1 * batch + col0..k1 * batch + col0 + CB];
            for j in 0..CB {
                acc0[j].absorb(sub0[j]);
                acc1[j].absorb(sub1[j]);
            }
            left -= 1;
            if left == 0 {
                let d0 = (g * q + plane) * batch + col0;
                for j in 0..CB {
                    prow0[d0 + j].merge(acc0[j]);
                    prow1[d0 + j].merge(acc1[j]);
                    acc0[j] = A::default();
                    acc1[j] = A::default();
                }
                g += 1;
                left = wpg;
            }
        }
        remaining = remaining.saturating_sub(kpw);
    }
    if left != wpg {
        let d0 = (g * q + plane) * batch + col0;
        for j in 0..CB {
            prow0[d0 + j].merge(acc0[j]);
            prow1[d0 + j].merge(acc1[j]);
        }
    }
}

/// Single-row variant of [`tile_pass_fast2_wide`] (ragged last row).
#[allow(clippy::too_many_arguments)]
fn tile_pass_fast_wide<E: Copy, A: Accum<E>, const MU: usize>(
    words: &[u64],
    entries: &[E],
    batch: usize,
    win_lo: usize,
    win_hi: usize,
    wpg: usize,
    plane: usize,
    q: usize,
    prow: &mut [A],
    accs: &mut [A],
) {
    if win_hi == win_lo {
        return;
    }
    let kpw = 64 / MU;
    let stride = 1usize << MU;
    let mask = stride - 1;
    let bstride = batch * stride;
    let mut tables = entries[win_lo * bstride..win_hi * bstride].chunks_exact(bstride);
    let mut g = win_lo / wpg;
    let mut left = wpg - (win_lo % wpg);
    accs.fill(A::default());
    let mut remaining = win_hi - win_lo;
    for &wordv in &words[win_lo / kpw..win_hi.div_ceil(kpw)] {
        let mut bits = wordv;
        for table in tables.by_ref().take(kpw.min(remaining)) {
            let key = (bits as usize) & mask;
            bits >>= MU;
            let sub = &table[key * batch..key * batch + batch];
            let r4 = batch & !3;
            for (ac, sc) in accs[..r4]
                .chunks_exact_mut(4)
                .zip(sub[..r4].chunks_exact(4))
            {
                for j in 0..4 {
                    ac[j].absorb(sc[j]);
                }
            }
            for (a, &e) in accs[r4..].iter_mut().zip(&sub[r4..]) {
                a.absorb(e);
            }
            left -= 1;
            if left == 0 {
                let d0 = (g * q + plane) * batch;
                for (j, a) in accs.iter_mut().enumerate() {
                    prow[d0 + j].merge(*a);
                    *a = A::default();
                }
                g += 1;
                left = wpg;
            }
        }
        remaining = remaining.saturating_sub(kpw);
    }
    if left != wpg {
        let d0 = (g * q + plane) * batch;
        for (j, a) in accs.iter().enumerate() {
            prow[d0 + j].merge(*a);
        }
    }
}

/// Full-batch-width [`tile_pass_fast2`]: the per-row accumulators are
/// *memory-backed* `batch`-wide arrays and every per-key operation is a
/// contiguous `accs[j] += sub[j]` zip over the whole batch, which the loop
/// vectorizer lowers to packed adds (the register-array passes stay scalar
/// — LLVM's SLP pass does not form vector PHIs for loop-carried register
/// accumulators). Used when the batch is wide enough that the vectorized
/// zip beats `COL_BLOCK`-at-a-time register chains.
#[allow(clippy::too_many_arguments)]
fn tile_pass_fast2_wide<E: Copy, A: Accum<E>, const MU: usize>(
    words0: &[u64],
    words1: &[u64],
    entries: &[E],
    batch: usize,
    win_lo: usize,
    win_hi: usize,
    wpg: usize,
    plane: usize,
    q: usize,
    prow0: &mut [A],
    prow1: &mut [A],
    accs0: &mut [A],
    accs1: &mut [A],
) {
    if win_hi == win_lo {
        return;
    }
    let kpw = 64 / MU;
    let stride = 1usize << MU;
    let mask = stride - 1;
    let bstride = batch * stride;
    let mut tables = entries[win_lo * bstride..win_hi * bstride].chunks_exact(bstride);
    let mut g = win_lo / wpg;
    let mut left = wpg - (win_lo % wpg);
    accs0.fill(A::default());
    accs1.fill(A::default());
    let mut remaining = win_hi - win_lo;
    let lo = win_lo / kpw;
    let hi = win_hi.div_ceil(kpw);
    for (&w0, &w1) in words0[lo..hi].iter().zip(&words1[lo..hi]) {
        let mut bits0 = w0;
        let mut bits1 = w1;
        for table in tables.by_ref().take(kpw.min(remaining)) {
            let k0 = (bits0 as usize) & mask;
            let k1 = (bits1 as usize) & mask;
            bits0 >>= MU;
            bits1 >>= MU;
            let sub0 = &table[k0 * batch..k0 * batch + batch];
            let sub1 = &table[k1 * batch..k1 * batch + batch];
            // Exact-4 chunks: straight-line column adds with contiguous
            // loads and memory-backed accumulators — the shape SLP lowers
            // to packed adds without a runtime-checked vector preamble.
            let r4 = batch & !3;
            for (ac, sc) in accs0[..r4]
                .chunks_exact_mut(4)
                .zip(sub0[..r4].chunks_exact(4))
            {
                for j in 0..4 {
                    ac[j].absorb(sc[j]);
                }
            }
            for (a, &e) in accs0[r4..].iter_mut().zip(&sub0[r4..]) {
                a.absorb(e);
            }
            for (ac, sc) in accs1[..r4]
                .chunks_exact_mut(4)
                .zip(sub1[..r4].chunks_exact(4))
            {
                for j in 0..4 {
                    ac[j].absorb(sc[j]);
                }
            }
            for (a, &e) in accs1[r4..].iter_mut().zip(&sub1[r4..]) {
                a.absorb(e);
            }
            left -= 1;
            if left == 0 {
                let d0 = (g * q + plane) * batch;
                for (j, (a0, a1)) in accs0.iter_mut().zip(accs1.iter_mut()).enumerate() {
                    prow0[d0 + j].merge(*a0);
                    prow1[d0 + j].merge(*a1);
                    *a0 = A::default();
                    *a1 = A::default();
                }
                g += 1;
                left = wpg;
            }
        }
        remaining = remaining.saturating_sub(kpw);
    }
    if left != wpg {
        let d0 = (g * q + plane) * batch;
        for (j, (a0, a1)) in accs0.iter().zip(accs1.iter()).enumerate() {
            prow0[d0 + j].merge(*a0);
            prow1[d0 + j].merge(*a1);
        }
    }
}

/// Generic tile pass: per-window descriptors, arbitrary widths/starts
/// (ragged group tails, µ ∤ 64). The key of each descriptor window is
/// decoded from the weight bits once, then read for every batch column.
#[allow(clippy::too_many_arguments)]
fn tile_pass_generic<E: Copy, A: Accum<E>>(
    words: &[u64],
    entries: &[E],
    batch: usize,
    shift: u32,
    tile: &[Window],
    win_lo: usize,
    plane: usize,
    q: usize,
    prow: &mut [A],
) {
    for (wo, win) in tile.iter().enumerate() {
        let start = win.start as usize;
        let wi = start >> 6;
        let off = (start & 63) as u32;
        let mut bits = words[wi] >> off;
        if off + win.width > 64 {
            // width ≤ 8 ⇒ off ≥ 57 here, so the shift below is < 64.
            bits |= words[wi + 1] << (64 - off);
        }
        let key = (bits as usize) & ((1usize << win.width) - 1);
        let d0 = (win.group as usize * q + plane) * batch;
        let base = ((win_lo + wo) << shift | key) * batch;
        for b in 0..batch {
            prow[d0 + b].absorb(entries[base + b]);
        }
    }
}

/// Invoke `$mac!(MU, CB)` for the runtime `(mu, cb)` pair — the fast-path
/// monomorphization grid (µ ∈ {1,2,4,8} are the divisors of 64 in range,
/// cb ∈ 1..=[`COL_BLOCK`]).
macro_rules! dispatch_mu_cb {
    ($mu:expr, $cb:expr, $mac:ident) => {
        match ($mu, $cb) {
            (1, 1) => $mac!(1, 1),
            (1, 2) => $mac!(1, 2),
            (1, 3) => $mac!(1, 3),
            (1, 4) => $mac!(1, 4),
            (2, 1) => $mac!(2, 1),
            (2, 2) => $mac!(2, 2),
            (2, 3) => $mac!(2, 3),
            (2, 4) => $mac!(2, 4),
            (4, 1) => $mac!(4, 1),
            (4, 2) => $mac!(4, 2),
            (4, 3) => $mac!(4, 3),
            (4, 4) => $mac!(4, 4),
            (8, 1) => $mac!(8, 1),
            (8, 2) => $mac!(8, 2),
            (8, 3) => $mac!(8, 3),
            (8, 4) => $mac!(8, 4),
            _ => unreachable!("64 % µ == 0 with µ ∈ 1..=8, 1 ≤ cb ≤ COL_BLOCK"),
        }
    };
}

/// Accumulate all window partials of rows `r0..r0+rows` for every batch
/// column: the shared tile walk of both kernels. `partials` is
/// `rows × groups × q × batch` in `[row][group][plane][column]` order —
/// columns innermost, so both the kernel's per-key spills and the final
/// fold's column-interleaved reads are contiguous.
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
    let gq = w.groups() * q;
    let prow_len = batch * gq;
    let shift = luts.mu();
    let mu = shift as usize;
    let entries = luts.entries();
    let gs = w.group_size();
    let fast = 64 % mu == 0 && gs.is_multiple_of(mu);
    let wpg = gs / mu; // windows per group (fast path only)
    let tile = tile_windows(shift, batch);
    let wide = (WIDE_MIN..=WIDE_MAX).contains(&batch);
    // Traffic accounting, off the walk itself: the words a panel pass
    // streams are fully determined by the window plan, so tally them in
    // one cheap pre-pass (guarded so the disabled path costs one load).
    if figlut_trace::enabled() {
        let span: u64 = wins.chunks(tile).map(|t| tile_span_words(t) as u64).sum();
        let tiles = wins.chunks(tile).len() as u64;
        figlut_trace::counters::bump_exec_streamed_words(span * (q * rows) as u64);
        figlut_trace::counters::bump_exec_ktiles(tiles * rows as u64);
    }
    let mut wacc0 = [A::default(); WIDE_MAX];
    let mut wacc1 = [A::default(); WIDE_MAX];
    for (t, tile_wins) in wins.chunks(tile).enumerate() {
        let win_lo = t * tile;
        let win_hi = win_lo + tile_wins.len();
        if fast && wide {
            let (a0, a1) = (&mut wacc0[..batch], &mut wacc1[..batch]);
            let mut pairs = partials[..rows * prow_len].chunks_mut(2 * prow_len);
            let mut ri = 0;
            for chunk in pairs.by_ref() {
                if chunk.len() == 2 * prow_len {
                    let (p0, p1) = chunk.split_at_mut(prow_len);
                    let (ra, rb) = (r0 + ri, r0 + ri + 1);
                    for i in 0..q {
                        let (w0, w1) = (w.plane_row(i, ra), w.plane_row(i, rb));
                        macro_rules! pass2w {
                            ($m:literal) => {
                                tile_pass_fast2_wide::<E, A, $m>(
                                    w0, w1, entries, batch, win_lo, win_hi, wpg, i, q, p0, p1, a0,
                                    a1,
                                )
                            };
                        }
                        match mu {
                            1 => pass2w!(1),
                            2 => pass2w!(2),
                            4 => pass2w!(4),
                            8 => pass2w!(8),
                            _ => unreachable!("64 % µ == 0 with µ ∈ 1..=8"),
                        }
                    }
                } else {
                    let prow = &mut chunk[..prow_len];
                    let r = r0 + ri;
                    for i in 0..q {
                        let words = w.plane_row(i, r);
                        macro_rules! pass1w {
                            ($m:literal) => {
                                tile_pass_fast_wide::<E, A, $m>(
                                    words, entries, batch, win_lo, win_hi, wpg, i, q, prow, a0,
                                )
                            };
                        }
                        match mu {
                            1 => pass1w!(1),
                            2 => pass1w!(2),
                            4 => pass1w!(4),
                            8 => pass1w!(8),
                            _ => unreachable!("64 % µ == 0 with µ ∈ 1..=8"),
                        }
                    }
                }
                ri += 2;
            }
        } else if fast {
            // Row pairs × column blocks: up to 2·COL_BLOCK independent
            // accumulator chains per pass hide table-read latency (see
            // [`tile_pass_fast2`]); a ragged last row falls back to the
            // single-row pass, a ragged column tail to a narrower block.
            let mut pairs = partials[..rows * prow_len].chunks_mut(2 * prow_len);
            let mut ri = 0;
            for chunk in pairs.by_ref() {
                if chunk.len() == 2 * prow_len {
                    let (p0, p1) = chunk.split_at_mut(prow_len);
                    let (ra, rb) = (r0 + ri, r0 + ri + 1);
                    for i in 0..q {
                        let (w0, w1) = (w.plane_row(i, ra), w.plane_row(i, rb));
                        let mut col0 = 0;
                        while col0 < batch {
                            let cb = (batch - col0).min(COL_BLOCK);
                            macro_rules! pass2 {
                                ($m:literal, $c:literal) => {
                                    tile_pass_fast2::<E, A, $m, $c>(
                                        w0, w1, entries, batch, col0, win_lo, win_hi, wpg, i, q,
                                        p0, p1,
                                    )
                                };
                            }
                            dispatch_mu_cb!(mu, cb, pass2);
                            col0 += cb;
                        }
                    }
                } else {
                    // Odd tail row.
                    let prow = &mut chunk[..prow_len];
                    let r = r0 + ri;
                    for i in 0..q {
                        let words = w.plane_row(i, r);
                        let mut col0 = 0;
                        while col0 < batch {
                            let cb = (batch - col0).min(COL_BLOCK);
                            macro_rules! pass1 {
                                ($m:literal, $c:literal) => {
                                    tile_pass_fast::<E, A, $m, $c>(
                                        words, entries, batch, col0, win_lo, win_hi, wpg, i, q,
                                        prow,
                                    )
                                };
                            }
                            dispatch_mu_cb!(mu, cb, pass1);
                            col0 += cb;
                        }
                    }
                }
                ri += 2;
            }
        } else {
            for (ri, prow) in partials.chunks_mut(prow_len).take(rows).enumerate() {
                let r = r0 + ri;
                for i in 0..q {
                    let words = w.plane_row(i, r);
                    tile_pass_generic(words, entries, batch, shift, tile_wins, win_lo, i, q, prow);
                }
            }
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
        // spanning both column engines (1..=7 covers COL_BLOCK register
        // blocks plus ragged 1/2/3-column tails; 8..=9 the wide
        // memory-backed pass) over an odd row count, so the odd-tail-row
        // variant of every pass runs too: each row of one batched call
        // equals the batch-1 call on that row alone, bit for bit (the
        // property suite widens this to arbitrary shapes).
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
            let base = tile_windows(mu, 1);
            assert_eq!(base, (262144usize >> (mu + 3)).max(4), "µ={mu} base");
            for batch in [1usize, 2, 3, 7, 16, 100_000] {
                let t = tile_windows(mu, batch);
                assert!(t >= kpw, "µ={mu} B={batch}: tile {t} < one word");
                assert!(t.is_multiple_of(kpw), "µ={mu} B={batch}: tile {t} ragged");
                assert!(t <= base, "µ={mu} B={batch}: tile grew");
            }
        }
        // µ ∤ 64 (generic walk): no alignment constraint, still positive.
        assert!(tile_windows(3, 9) >= 4);
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
