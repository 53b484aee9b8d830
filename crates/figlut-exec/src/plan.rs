//! [`ExecPlan`] — a reusable execution handle for one [`PackedBcq`].
//!
//! An `ExecPlan` hoists the kernels' preamble, so a decode step recomputes
//! and reallocates nothing:
//!
//! * the window plan — one window per key byte, `windows(n, gs, 8)`, for
//!   every µ (integer window sums are associative) — is built once;
//! * every buffer lives in pooled scratch, checked out once per *stage* —
//!   one quantize/align of an activation matrix — and the tables once per
//!   swept part: a warm call makes **zero heap allocations**
//!   (`tests/alloc.rs`);
//! * a stage is built once per distinct input: [`ExecPlan::exec_i_crew`]
//!   runs any number of readers over each table build (the paper's one
//!   FFLUT feeding k RACs), one k-tile at a time; on a [`Crew`], its rows
//!   are staged in parts and each thread builds its own tiles.
//!
//! The pools are `Mutex`-guarded free lists, so concurrent calls on one
//! plan are correct. `Clone` clones the plan's *decisions* with empty
//! pools, so `figlut-model` keeps a plan in its `Clone`-able
//! `LinearWeights::Packed`.

use crate::kernel::{check, sweep_tile, Columns, LANE_ROWS};
use crate::lut::{column_blocks, windows, Block, FlatLuts, NibbleLuts, Window, MAX_LANES};
use crate::packed::PackedBcq;
use crate::parallel::{crew_size, Crew, RowWork};
use crate::shuffle::{self, Isa};
use figlut_gemm::common::mul32;
use figlut_gemm::EngineConfig;
use figlut_num::align::AlignedVector;
use figlut_num::Mat;
use std::ops::Range;
use std::sync::Mutex;

/// One staged activation matrix: the aligned rows, the fold operands and
/// the narrowing tier — everything a thread needs to build the tables and
/// fold a reader's sweep. Staged once per distinct input (however many
/// readers share it), its rows in parts on a crew.
#[derive(Debug, Default)]
pub(crate) struct Stage {
    /// One row's quantized activations (scratch).
    xa: Vec<f64>,
    /// Aligned integer mantissas, `batch × n`.
    mant: Vec<i64>,
    /// Narrowed mantissas (read at [`Tier::I32I32`]), `batch × n`.
    m32: Vec<i32>,
    /// max |mantissa| of the staged rows.
    maxm: u64,
    /// Per-batch-row alignment scales λ.
    lambdas: Vec<f64>,
    /// Offset multiplier per (column, group), `batch × groups`: the
    /// row-invariant `mul32(Σx·λ)`, pre-folded.
    gsums: Vec<f64>,
    /// Batch rows staged.
    batch: usize,
    /// Which tables are built, and into which accumulators they sweep.
    tier: Tier,
    /// Byte planes of a shuffle-table entry, at [`Tier::I32I32`].
    key_planes: Option<usize>,
    /// `gs·max|mantissa| < 2^24` and every λ in `[2^−126, f32::MAX / 2^24]`:
    /// `p·λ` is an exact `f32` for every group partial `p`, and the sweep
    /// folds with one rounding fewer (`kernel::fold`).
    exact: bool,
}

/// The integer type of a stage's lane tables and accumulators. Both tiers
/// are exact (bit-identical results); narrower is faster.
#[derive(Clone, Copy, Debug, Default)]
enum Tier {
    /// `gs·max|mantissa| ≤ i32::MAX` bounds every window sum, build
    /// intermediate and group partial (`Accum for i32`): the FP16 point.
    #[default]
    I32I32,
    /// Wider activation ranges (FP32 mantissas).
    I64I64,
}

impl Stage {
    /// Stage `x` under `plan`'s window plan: every row, then the tier.
    pub(crate) fn stage_i(&mut self, x: &Mat<f64>, cfg: &EngineConfig, plan: &ExecPlan) {
        self.clear();
        self.stage_rows(x, 0..x.rows(), cfg, plan);
        self.seal(plan);
    }

    /// Append rows `rows` of `x`: quantize, align per row (λ is a per-row
    /// max-exponent decision, exactly as in a batch-1 call), narrow, and
    /// pre-fold the per-group offset terms `mul32(Σx·λ)`.
    pub(crate) fn stage_rows(
        &mut self,
        x: &Mat<f64>,
        rows: Range<usize>,
        cfg: &EngineConfig,
        plan: &ExecPlan,
    ) {
        for b in rows {
            self.xa.clear();
            self.xa
                .extend(x.row(b).iter().map(|&v| cfg.act.quantize(v)));
            let at = self.mant.len();
            let (act, guard) = (cfg.act, cfg.guard_bits);
            let lambda = AlignedVector::align_into(&self.xa, act, guard, cfg.align, &mut self.mant);
            self.lambdas.push(lambda);
            let row = &self.mant[at..];
            self.maxm = row.iter().fold(self.maxm, |m, v| m.max(v.unsigned_abs()));
            self.m32.extend(row.iter().map(|&v| v as i32));
            for group in row.chunks_exact(plan.group_size) {
                let p: i128 = group.iter().map(|&v| v as i128).sum();
                self.gsums.push(mul32(p as f64, lambda));
            }
        }
        self.batch = self.lambdas.len();
    }

    /// Drop every staged row.
    pub(crate) fn clear(&mut self) {
        self.mant.clear();
        self.m32.clear();
        self.lambdas.clear();
        self.gsums.clear();
        (self.batch, self.maxm) = (0, 0);
    }

    /// Append the rows `part` staged.
    pub(crate) fn append(&mut self, part: &Stage) {
        self.mant.extend_from_slice(&part.mant);
        self.m32.extend_from_slice(&part.m32);
        self.lambdas.extend_from_slice(&part.lambdas);
        self.gsums.extend_from_slice(&part.gsums);
        (self.batch, self.maxm) = (self.batch + part.batch, self.maxm.max(part.maxm));
    }

    /// Pick the narrowing tier over the whole batch (one entry type per
    /// batched table set) and the exact-fold proof.
    pub(crate) fn seal(&mut self, plan: &ExecPlan) {
        let (gs, maxm) = (plan.group_size, self.maxm);
        let narrow = (gs as u64).saturating_mul(maxm) <= i32::MAX as u64;
        self.tier = if narrow { Tier::I32I32 } else { Tier::I64I64 };
        self.key_planes = narrow.then(|| NibbleLuts::planes_for(maxm)).flatten();
        let normal = f32::MIN_POSITIVE as f64..=f32::MAX as f64 / (1 << 24) as f64;
        self.exact = (gs as u64).saturating_mul(maxm) < 1 << 24
            && self.lambdas.iter().all(|l| normal.contains(l));
        figlut_trace::counters::bump_exec_lut_builds(1);
    }

    /// Batch rows staged.
    pub(crate) fn batch(&self) -> usize {
        self.batch
    }

    /// The stage's column blocks, in column order: lane blocks and, given
    /// the proof that its entries fit their byte planes, a last block of
    /// one or two columns for the shuffle pass (else the lane pass pads
    /// such a block to four lanes).
    fn blocks(&self) -> impl Iterator<Item = Block> {
        let (batch, tail) = (self.batch, self.batch % MAX_LANES);
        let shuffled = self.key_planes.is_some() && tail <= 2;
        let from = if shuffled { batch - tail } else { batch };
        let block = |col0, cols, shuffle| Block {
            col0,
            cols,
            shuffle,
        };
        let lanes = column_blocks(from, 1).map(move |(col0, cols, _)| block(col0, cols, false));
        lanes.chain((from < batch).then(|| block(from, batch - from, true)))
    }

    /// Count one reader's call at this stage's tier.
    fn count_call(&self) {
        use figlut_trace::counters as c;
        match self.tier {
            Tier::I32I32 => c::bump_exec_tier_i32_i32(1),
            Tier::I64I64 => c::bump_exec_tier_i64_i64(1),
        }
        c::bump_exec_calls(1);
    }
}

/// One thread's tables — one k-tile of one column block of a stage, built
/// from the shared stage just before the readers sweep that tile — and the
/// readers' open-group carries. No core reads table lines another core
/// wrote (DESIGN.md §6, "The serve crew"); the build is a pure function of
/// the stage, so every thread's tables hold the same bits.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// Narrowed integer tables (i32 entries) of a lane block.
    luts32: FlatLuts<i32>,
    /// Wide integer tables of a lane block.
    luts64: FlatLuts<i64>,
    /// Byte-plane nibble tables of the shuffle block.
    nib: NibbleLuts,
    /// The block and the k-tile the tables hold.
    blk: Block,
    tile: usize,
    /// Open-group carries by accumulator type, one `rows × q × MAX_LANES`
    /// region per reader, used only by shapes whose scale groups span
    /// k-tiles.
    open_i32: Vec<i32>,
    open_i64: Vec<i64>,
    /// Where the next reader's region starts. Each build resets it, and
    /// the readers sweep every tile in the same order, so each finds its
    /// own carries.
    carry: usize,
    /// Tiles built.
    #[cfg(test)]
    builds: usize,
}

impl Tables {
    /// Build k-tile `t` of block `blk` of `stage` from the tile's windows
    /// `wins` ([`shuffle::build`] picks the build): nibble tables for the
    /// shuffle pass, lane tables at least 4 lanes wide for the lane pass.
    #[inline(always)]
    pub(crate) fn build(&mut self, stage: &Stage, wins: &[Window], blk: Block, t: usize) {
        let n = stage.mant.len() / stage.batch;
        let cols = blk.col0..blk.col0 + blk.cols;
        (self.blk, self.tile, self.carry) = (blk, t, 0);
        if blk.shuffle {
            let planes = stage.key_planes.unwrap_or(1);
            self.nib.rebuild(&stage.m32, n, wins, cols, planes);
        } else if let Tier::I64I64 = stage.tier {
            let mant = &stage.mant[cols.start * n..cols.end * n];
            self.luts64.rebuild_lanes(mant, n, wins, 8, blk.cols, 4);
        } else {
            let m32 = &stage.m32[cols.start * n..cols.end * n];
            self.luts32.rebuild_lanes(m32, n, wins, 8, blk.cols, 4);
        }
        #[cfg(test)]
        {
            self.builds += 1;
        }
    }

    /// Sweep the tile these tables hold for output rows `r0..` of reader
    /// `w` into `panel` (the reader's `rows × batch` share of a part) in
    /// build `I` ([`shuffle::sweep`]), its open groups carried in the
    /// next region of the carries.
    #[inline(always)]
    pub(crate) fn sweep<I: Isa>(
        &mut self,
        stage: &Stage,
        w: &PackedBcq,
        r0: usize,
        panel: &mut [f64],
    ) {
        let cx = Columns {
            lambdas: &stage.lambdas,
            gsums: &stage.gsums,
            blk: self.blk,
            tile: self.tile,
        };
        // A group stays open across a tile boundary unless groups tile the
        // tile exactly (gs 64, 128, 256); gs 192, or any group wider than a
        // tile, does not.
        let opens = w.tiles() > 1 && !w.tile_keys.is_multiple_of(w.group_size().div_ceil(8));
        let rows = if opens { panel.len() / stage.batch } else { 0 };
        let at = self.carry..self.carry + rows * w.bits() * MAX_LANES;
        self.carry = at.end;
        let (l32, l64) = ((&self.luts32, &self.nib), (&self.luts64, &self.nib));
        let (o32, o64) = (&mut self.open_i32, &mut self.open_i64);
        match (stage.tier, stage.exact) {
            (Tier::I32I32, true) => sweep_tile::<I, _, true>(w, l32, &cx, r0, panel, o32, at),
            (Tier::I32I32, _) => sweep_tile::<I, _, false>(w, l32, &cx, r0, panel, o32, at),
            (Tier::I64I64, _) => sweep_tile::<I, _, false>(w, l64, &cx, r0, panel, o64, at),
        }
    }
}

/// A stage and the transposed output its caller sweeps into: one checkout
/// of a plan's pool per stage.
#[derive(Debug, Default)]
pub(crate) struct CallScratch {
    pub(crate) stage: Stage,
    /// `rows × batch`, the concatenated readers' transposed output.
    pub(crate) yt: Vec<f64>,
}

/// Part `p` of `parts` contiguous parts of `rows` concatenated output
/// rows, in whole lane-pass row groups (the last parts may be short or
/// empty; a part cutting a 32-row shuffle block stores only its rows).
pub(crate) fn part_rows(rows: usize, parts: usize, p: usize) -> Range<usize> {
    let chunk = rows.div_ceil(parts).next_multiple_of(LANE_ROWS);
    (p * chunk).min(rows)..((p + 1) * chunk).min(rows)
}

/// Sweep `rows` of the readers' concatenated output rows of `stage` into
/// `panel` (`rows.len() × batch`): per column block and k-tile, build the
/// tile's tables (from the pool of the part's first reader), then sweep
/// it for every reader in the part — one build read by every reader,
/// written just before it is read (paper Fig. 8/9).
pub(crate) fn sweep_rows<'r>(
    readers: impl Iterator<Item = (&'r ExecPlan, &'r PackedBcq)> + Clone,
    stage: &Stage,
    rows: Range<usize>,
    panel: &mut Vec<f64>,
) {
    let batch = stage.batch;
    panel.clear();
    panel.resize(rows.len() * batch, 0.0);
    // Each reader's share of the part: its plan and weights, its first
    // row, and its range of the panel.
    let (start, end) = (rows.start, rows.end);
    let shares = || {
        let mut first = 0;
        readers.clone().filter_map(move |(plan, w)| {
            let (lo, hi) = (start.max(first), end.min(first + plan.rows));
            let r0 = lo - first;
            first += plan.rows;
            (lo < hi).then(|| (plan, w, r0, (lo - start) * batch..(hi - start) * batch))
        })
    };
    let Some((plan, w, ..)) = shares().next() else {
        return;
    };
    // Traffic accounting, as the plan's formulas count it whichever pass
    // takes a column: every packed word of a reader's rows once per
    // 8-column block of the call, every k-tile once per row and block.
    if figlut_trace::enabled() {
        for (_, w, _, at) in shares() {
            let row_sweeps = (batch.div_ceil(MAX_LANES) * at.len() / batch) as u64;
            let row_words = (w.bits() * w.key_bytes.div_ceil(8)) as u64;
            figlut_trace::counters::bump_exec_streamed_words(row_sweeps * row_words);
            figlut_trace::counters::bump_exec_ktiles(row_sweeps * w.tiles() as u64);
        }
    }
    let mut tables = pop(&plan.tables);
    for blk in stage.blocks() {
        for t in 0..w.tiles() {
            shuffle::build(&mut tables, stage, &plan.wins[w.tile(t)], blk, t);
            for (_, w, r0, at) in shares() {
                shuffle::sweep(&mut tables, stage, w, r0, &mut panel[at]);
            }
        }
    }
    push(&plan.tables, tables);
}

/// Transpose `panel` — `rows` of the concatenated output rows, as
/// [`sweep_rows`] left them — into the readers' `batch × m` outputs.
pub(crate) fn scatter(
    readers: &mut [(&ExecPlan, &PackedBcq, &mut Mat<f64>)],
    rows: Range<usize>,
    batch: usize,
    panel: &[f64],
) {
    let mut base = 0;
    for (plan, _, out) in readers.iter_mut() {
        let (lo, hi) = (rows.start.max(base), rows.end.min(base + plan.rows));
        if lo < hi {
            for b in 0..batch {
                let dst = &mut out.row_mut(b)[lo - base..hi - base];
                for (o, r) in dst.iter_mut().zip(lo..hi) {
                    *o = panel[(r - rows.start) * batch + b];
                }
            }
        }
        base += plan.rows;
    }
}

/// A reusable execution plan for one [`PackedBcq`]: precomputed windows
/// and pooled scratch for allocation-free steady-state calls (module
/// docs).
///
/// ```
/// use figlut_exec::{exec_i, ExecPlan, PackedBcq};
/// use figlut_gemm::EngineConfig;
/// use figlut_num::Mat;
/// use figlut_quant::bcq::{BcqParams, BcqWeight};
///
/// let w = Mat::from_fn(8, 64, |r, c| ((r * 64 + c) as f64 * 0.1).sin());
/// let bcq = BcqWeight::quantize(&w, BcqParams::per_row(3));
/// let packed = PackedBcq::pack(&bcq);
/// let cfg = EngineConfig::paper_default();
/// let plan = ExecPlan::new(&packed, &cfg);
/// let x = Mat::from_fn(4, 64, |b, c| ((b + c) as f64 * 0.05).cos());
/// // Same bits as the plan-free entry point, without its per-call setup.
/// assert_eq!(
///     plan.exec_i_threads(&x, &packed, &cfg, 1).as_slice(),
///     exec_i(&x, &packed, &cfg).as_slice()
/// );
/// ```
#[derive(Debug)]
pub struct ExecPlan {
    rows: usize,
    cols: usize,
    group_size: usize,
    bits: usize,
    /// One window per key byte.
    wins: Vec<Window>,
    calls: Mutex<Vec<CallScratch>>,
    /// Tables of the threads that sweep a part starting in this plan's
    /// rows, one checkout per part: a crew's workers reuse them across
    /// steps too.
    tables: Mutex<Vec<Tables>>,
}

impl Clone for ExecPlan {
    /// Clones the plan's decisions; the scratch pools start empty (never
    /// shared between clones).
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            group_size: self.group_size,
            bits: self.bits,
            wins: self.wins.clone(),
            calls: Mutex::new(Vec::new()),
            tables: Mutex::new(Vec::new()),
        }
    }
}

impl ExecPlan {
    /// Build the plan for `w`: the window decomposition, and empty scratch
    /// pools that warm up on first use.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.mu ∉ 1..=8`.
    pub fn new(w: &PackedBcq, cfg: &EngineConfig) -> Self {
        assert!((1..=8).contains(&cfg.mu), "µ = {} unsupported", cfg.mu);
        figlut_trace::counters::bump_exec_plan_builds(1);
        let (rows, cols) = w.shape();
        let gs = w.group_size();
        Self {
            rows,
            cols,
            group_size: gs,
            bits: w.bits(),
            wins: windows(cols, gs, 8),
            calls: Mutex::new(Vec::new()),
            tables: Mutex::new(Vec::new()),
        }
    }

    /// `true` if this plan was built for exactly this weight shape (rows,
    /// columns, group size and planes). The config never matters: every µ
    /// executes the same key-byte windows.
    pub fn matches(&self, w: &PackedBcq, _cfg: &EngineConfig) -> bool {
        w.shape() == (self.rows, self.cols)
            && w.group_size() == self.group_size
            && w.bits() == self.bits
    }

    /// Output rows of the weights this plan was built for.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Packed weight words one non-empty call at this batch size streams:
    /// one sweep per column block of up to 8 columns, each sweep every word
    /// of every (output row, bit-plane) once — the analytical model of the
    /// weight traffic, which the `exec_streamed_words` trace counter
    /// reconciles against exactly (`tests/trace_reconcile.rs`).
    pub fn streamed_words(&self, batch: usize) -> u64 {
        // One window per key byte, eight key bytes per word.
        let words = self.wins.len().div_ceil(8);
        (column_blocks(batch, 1).count() * self.rows * self.bits * words) as u64
    }

    /// Table look-ups one call at this batch size computes: one per output
    /// row × bit-plane × window × batch column — the work a step sums to
    /// size its crew ([`crew_size`]).
    pub fn lookups(&self, batch: usize) -> usize {
        (self.rows * self.bits * self.wins.len()).saturating_mul(batch)
    }

    /// Check one reader of a call against `x`: shapes, µ, and that `self`
    /// is `w`'s plan.
    fn check_reader(&self, x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig, out: &Mat<f64>) {
        let (batch, m, _) = check(x, w, cfg);
        assert!(
            self.matches(w, cfg),
            "ExecPlan built for {}x{} (gs {}, q {}) used with {:?}-shaped weights (gs {}, q {})",
            self.rows,
            self.cols,
            self.group_size,
            self.bits,
            w.shape(),
            w.group_size(),
            w.bits(),
        );
        assert_eq!(out.shape(), (batch, m), "output shape mismatch");
    }

    /// `true` if `other`'s weights can read tables staged for this plan:
    /// the same reduction dim and group size, hence window plan and Σx.
    pub fn shares_stage(&self, other: &ExecPlan) -> bool {
        self.stage_key() == other.stage_key()
    }

    fn stage_key(&self) -> (usize, usize) {
        (self.cols, self.group_size)
    }

    /// One GEMM phase of a step on `crew`, one table set for k readers
    /// (paper Fig. 8/9: an FFLUT feeds k RACs): stage `x` **once**, then
    /// sweep every reader's `(plan, weights, batch × m output)` over its
    /// tables, the readers' rows concatenated and cut into one part per
    /// crew thread, each building its own tables. Each output element is
    /// swept by one thread in a fixed order: every output is bit-identical
    /// to the reader's own one-thread [`ExecPlan::exec_i_into`] call.
    ///
    /// # Panics
    ///
    /// Panics if any reader fails the [`ExecPlan::exec_i_into`] checks, or
    /// if the readers' plans do not [share a stage](ExecPlan::shares_stage).
    pub fn exec_i_crew<'a, W: RowWork + Default>(
        crew: &Crew<'_, 'a, W>,
        x: &Mat<f64>,
        cfg: &EngineConfig,
        readers: &mut [(&'a ExecPlan, &'a PackedBcq, &mut Mat<f64>)],
    ) {
        let Some(&(stager, ..)) = readers.first() else {
            return;
        };
        for (plan, w, out) in readers.iter() {
            assert!(
                stager.shares_stage(plan),
                "shared exec readers disagree on (k, gs): staged for {:?}, reader has {:?}",
                stager.stage_key(),
                plan.stage_key(),
            );
            plan.check_reader(x, w, cfg, out);
        }
        if x.rows() == 0 {
            return; // empty activation matrix: nothing to compute
        }
        let mut s = pop(&stager.calls);
        crew.stage(x, cfg, stager, &mut s.stage);
        readers.iter().for_each(|_| s.stage.count_call());
        crew.sweep(readers, &mut s);
        push(&stager.calls, s);
    }

    /// [`ExecPlan::exec_i_threads`] into a caller-owned `batch × m` output,
    /// the zero-allocation entry point: a one-reader
    /// [`ExecPlan::exec_i_crew`] on a [`Crew`] of [`crew_size`] of its
    /// [look-ups](ExecPlan::lookups), at most `threads`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, `µ ∉ 1..=8`, a plan/weight mismatch
    /// ([`ExecPlan::matches`]), or an `out` shape other than `batch × m`.
    pub fn exec_i_into(
        &self,
        x: &Mat<f64>,
        w: &PackedBcq,
        cfg: &EngineConfig,
        threads: usize,
        out: &mut Mat<f64>,
    ) {
        Crew::run(crew_size(self.lookups(x.rows()), threads), |crew| {
            Self::exec_i_crew(crew, x, cfg, &mut [(self, w, out)]);
        });
    }

    /// FIGLUT-I fast path over this plan: `y = x·Wᵀ`, bit-identical to
    /// `figlut_gemm::figlut::gemm_i` at every batch size, with every batch
    /// row bit-identical to its batch-1 run. `threads` is the *maximum*
    /// worker count ([`ExecPlan::exec_i_into`] decides how many run); the
    /// result is bit-identical for every value.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, `µ ∉ 1..=8`, or a plan/weight mismatch.
    pub fn exec_i_threads(
        &self,
        x: &Mat<f64>,
        w: &PackedBcq,
        cfg: &EngineConfig,
        threads: usize,
    ) -> Mat<f64> {
        let mut y = Mat::zeros(x.rows(), w.rows());
        self.exec_i_into(x, w, cfg, threads, &mut y);
        y
    }
}

/// Check a scratch set out of a pool (a fresh one while the pool warms
/// up). A poisoned lock is recovered: a pooled buffer holds no invariant.
fn pop<T: Default>(pool: &Mutex<Vec<T>>) -> T {
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    pool.pop().unwrap_or_default()
}

/// Return a scratch set to its pool.
fn push<T>(pool: &Mutex<Vec<T>>, s: T) {
    pool.lock().unwrap_or_else(|e| e.into_inner()).push(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::lane_width;
    use crate::shuffle::Base;
    use figlut_gemm::figlut::gemm_i;
    use figlut_quant::bcq::{BcqParams, BcqWeight};

    fn setup(m: usize, n: usize, gs: usize, bits: u32) -> (Mat<f64>, BcqWeight) {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.171).sin() * 0.4);
        let params = if gs == 0 {
            BcqParams::per_row(bits)
        } else {
            BcqParams::grouped(bits, gs)
        };
        let b = BcqWeight::quantize(&w, params);
        let x = Mat::from_fn(5, n, |bb, c| ((bb * n + c) as f64 * 0.057).cos());
        (x, b)
    }

    /// Sweep every row of `w` over `stage`, tile by tile: in the baseline
    /// build (`Base`, the driver's loop inlined here), or as a call does, in
    /// this host's.
    fn swept(stage: &Stage, plan: &ExecPlan, w: &PackedBcq, base: bool) -> Vec<f64> {
        let mut panel = vec![0.0; plan.rows * stage.batch];
        if base {
            let mut t = Tables::default();
            for blk in stage.blocks() {
                for tile in 0..w.tiles() {
                    t.build(stage, &plan.wins[w.tile(tile)], blk, tile);
                    t.sweep::<Base>(stage, w, 0, &mut panel);
                }
            }
        } else {
            sweep_rows([(plan, w)].into_iter(), stage, 0..plan.rows, &mut panel);
        }
        panel
    }

    #[test]
    fn baseline_and_dispatched_builds_sweep_the_same_bits() {
        // The baseline build (`Base`) and the dispatched one (AVX2 on an
        // AVX2 host) over one stage, against the datapath model: both
        // tiers, FP32 at 2 and 4 guard bits at i64/i64 (the inputs whose
        // windows, not groups, fit i32) but gs 15 + 2, whose groups fit;
        // batches whose blocks are shuffle blocks of 1 and 2 columns
        // and lane blocks of 4 and 8 lanes (10 = 8 + 2); a per-row group
        // open across k-tiles (288 columns), a ragged gs-15 group and gs
        // 64; 45 rows, so the last 32-row block is ragged. At batches 8 and
        // 10, two shapes of three tiles each, built tile by tile: a per-row
        // group open across all three (520 columns, the last tile one key
        // byte) and gs-192 groups that straddle the tile boundaries.
        use figlut_num::fp::FpFormat;
        let acts = [
            (FpFormat::Fp16, 4),
            (FpFormat::Fp32, 2),
            (FpFormat::Fp32, 4),
            (FpFormat::Fp32, 6),
        ];
        for (k, gs) in [
            (288usize, 0usize),
            (45, 15),
            (256, 64),
            (520, 0),
            (768, 192),
        ] {
            let (_, b) = setup(45, k, gs, 3);
            let batches: &[usize] = if k > 288 { &[8, 10] } else { &[1, 2, 3, 8, 10] };
            let p = PackedBcq::pack(&b);
            let mut tiers = [false; 2];
            for (act, guard_bits) in acts {
                let cfg = EngineConfig {
                    act,
                    guard_bits,
                    ..EngineConfig::paper_default()
                };
                let plan = ExecPlan::new(&p, &cfg);
                for &batch in batches {
                    let x = Mat::from_fn(batch, k, |bb, c| {
                        ((bb * k + c) as f64 * 0.083).sin() * 9.0e3
                    });
                    let mut stage = Stage::default();
                    stage.stage_i(&x, &cfg, &plan);
                    tiers[stage.tier as usize] = true;
                    let narrow = act == FpFormat::Fp16 || (gs, guard_bits) == (15, 2);
                    let case = format!("k {k} gs {gs} {act:?} + {guard_bits} B={batch}");
                    let tier = (stage.tier, narrow);
                    let want = matches!(tier, (Tier::I32I32, true) | (Tier::I64I64, false));
                    assert!(want, "{case}: {:?}", stage.tier);
                    let base = swept(&stage, &plan, &p, true);
                    let fast = swept(&stage, &plan, &p, false);
                    let model = gemm_i(&x, &b, &cfg);
                    for (r, (base, fast)) in base.chunks(batch).zip(fast.chunks(batch)).enumerate()
                    {
                        for (bb, (y0, y1)) in base.iter().zip(fast).enumerate() {
                            assert_eq!(y0.to_bits(), y1.to_bits(), "{case} ({r}, {bb})");
                            let y = model[(bb, r)].to_bits();
                            assert_eq!(y0.to_bits(), y, "{case} ({r}, {bb})");
                        }
                    }
                }
            }
            assert_eq!(tiers, [true; 2], "k {k} gs {gs}: every tier swept");
        }
    }

    #[test]
    fn exact_fold_is_proved_per_stage_and_keeps_every_bit() {
        // The stage proves the one-rounding-fewer fold at FP16 + 4 guard
        // bits with gs 128 (and at BF16); FP32 mantissas are too wide for
        // it, and one BF16 row of values near 2^−126 puts its λ below
        // 2^−126. Set or clear, both builds sweep `gemm_i`'s bits, on the
        // shuffle pass (batch 2) and the lane pass (batch 8).
        use figlut_num::fp::FpFormat;
        let (_, b) = setup(45, 256, 128, 3);
        let p = PackedBcq::pack(&b);
        let wave = |bb: usize, c: usize| ((bb * 256 + c) as f64 * 0.083).sin() * 9.0;
        let cases = [
            (FpFormat::Fp16, false, true),
            (FpFormat::Bf16, false, true),
            (FpFormat::Fp32, false, false),
            (FpFormat::Bf16, true, false),
        ];
        for (act, tiny, exact) in cases {
            let cfg = EngineConfig {
                act,
                guard_bits: 4,
                ..EngineConfig::paper_default()
            };
            let plan = ExecPlan::new(&p, &cfg);
            for batch in [2usize, 8] {
                let x = Mat::from_fn(batch, 256, |bb, c| match (tiny, bb) {
                    (true, 1) => 1.0e-38 * (1.5 + wave(bb, c) / 9.0),
                    _ => wave(bb, c),
                });
                let mut stage = Stage::default();
                stage.stage_i(&x, &cfg, &plan);
                assert_eq!(stage.exact, exact, "{act:?} B={batch}");
                // (FP32 misses the narrow tier; the tiny BF16 row only λ.)
                let narrow = matches!(stage.tier, Tier::I32I32);
                assert_eq!(narrow, act != FpFormat::Fp32, "{act:?}");
                let model = gemm_i(&x, &b, &cfg);
                for base in [true, false] {
                    let y = swept(&stage, &plan, &p, base);
                    for (r, y) in y.chunks(batch).enumerate() {
                        for (bb, y) in y.iter().enumerate() {
                            let what = format!("{act:?} B={batch} base {base} ({r}, {bb})");
                            assert_eq!(y.to_bits(), model[(bb, r)].to_bits(), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_tile_build_is_its_windows_of_the_whole_k_build() {
        // The oracle is the public whole-k `FlatLuts::rebuild`: tile t's
        // tables are its windows `k0..k1`, at 4 lanes (batch 3) and 8
        // (batch 8). Per-row scales over 520 columns are tiles of 32, 32
        // and 1 key bytes; gs 15 is one tile whose every second window is
        // 7 columns wide.
        for (k, gs, tiles) in [(520usize, 0usize, 3usize), (45, 15, 1)] {
            let (_, b) = setup(8, k, gs, 2);
            let w = PackedBcq::pack(&b);
            let cfg = EngineConfig::paper_default();
            let plan = ExecPlan::new(&w, &cfg);
            assert_eq!(w.tiles(), tiles);
            for batch in [3usize, 8] {
                let x = Mat::from_fn(batch, k, |bb, c| ((bb * k + c) as f64 * 0.061).cos());
                let mut stage = Stage::default();
                stage.stage_i(&x, &cfg, &plan);
                let mut oracle = FlatLuts::default();
                oracle.rebuild(&stage.m32, k, &plan.wins, 8, batch);
                let (mut t, lanes) = (Tables::default(), lane_width(batch));
                let blk = Block {
                    col0: 0,
                    cols: batch,
                    shuffle: false,
                };
                for tile in 0..tiles {
                    let keys = w.tile(tile);
                    t.build(&stage, &plan.wins[keys.clone()], blk, tile);
                    let want =
                        &oracle.entries()[(keys.start << 8) * lanes..(keys.end << 8) * lanes];
                    assert!(
                        t.luts32.entries() == want,
                        "k {k} gs {gs} B={batch} tile {tile}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_shared_call_builds_each_tile_once_per_thread() {
        // Three readers of one stage — per-row scales over 520 columns, so
        // three k-tiles and every row's group open across them — at batch
        // 10: an 8-lane block and a two-column shuffle block. A thread
        // builds each (block, tile) once however many readers sweep it,
        // whether it sweeps all 54 rows or one of two parts (the boundary
        // inside reader 1 and inside a 32-row block), and every reader's
        // rows are `gemm_i`'s.
        let cfg = EngineConfig::paper_default();
        let weights = [9usize, 40, 5].map(|m| setup(m, 520, 0, 3).1);
        let packed = weights.each_ref().map(PackedBcq::pack);
        let plans = packed.each_ref().map(|p| ExecPlan::new(p, &cfg));
        let (batch, rows) = (10, 54);
        let x = Mat::from_fn(batch, 520, |bb, c| ((bb * 520 + c) as f64 * 0.047).sin());
        let mut stage = Stage::default();
        stage.stage_i(&x, &cfg, &plans[0]);
        let blocks = stage.blocks().count();
        assert_eq!((blocks, packed[0].tiles()), (2, 3));
        for parts in [1usize, 2] {
            let mut yt = vec![0.0; rows * batch];
            for part in (0..parts).map(|p| part_rows(rows, parts, p)) {
                let mut panel = Vec::new();
                let readers = plans.iter().zip(&packed);
                sweep_rows(readers, &stage, part.clone(), &mut panel);
                // The part's one table set, back in a plan's pool: taken
                // out, so the next part builds into a fresh one.
                let sets = plans
                    .iter()
                    .flat_map(|p| std::mem::take(&mut *p.tables.lock().unwrap()));
                let builds: Vec<usize> = sets.map(|t| t.builds).collect();
                assert_eq!(builds, [blocks * 3], "{parts} parts, rows {part:?}");
                yt[part.start * batch..part.end * batch].copy_from_slice(&panel);
            }
            let mut first = 0;
            for b in &weights {
                let model = gemm_i(&x, b, &cfg);
                for r in 0..b.shape().0 {
                    for bb in 0..batch {
                        let y = yt[(first + r) * batch + bb];
                        assert_eq!(y.to_bits(), model[(bb, r)].to_bits(), "{parts} parts");
                    }
                }
                first += b.shape().0;
            }
        }
    }

    #[test]
    fn plan_reuse_across_batches_matches_model() {
        let (x, b) = setup(10, 96, 24, 3);
        let p = PackedBcq::pack(&b);
        let cfg = EngineConfig::paper_default();
        let plan = ExecPlan::new(&p, &cfg);
        // Same plan, shrinking and growing batch sizes: pools must resize
        // correctly and results stay bit-exact.
        for batch in [5usize, 1, 3, 5, 2] {
            let xb = Mat::from_fn(batch, 96, |bb, c| x[(bb, c)]);
            let y = plan.exec_i_threads(&xb, &p, &cfg, 2);
            let ym = gemm_i(&xb, &b, &cfg);
            assert_eq!(y.as_slice(), ym.as_slice(), "batch={batch}");
        }
    }

    #[test]
    fn zero_row_activations_return_empty() {
        let (_, b) = setup(5, 32, 16, 2);
        let p = PackedBcq::pack(&b);
        let cfg = EngineConfig::paper_default();
        let plan = ExecPlan::new(&p, &cfg);
        let x = Mat::from_fn(0, 32, |_, _| 0.0);
        let y = plan.exec_i_threads(&x, &p, &cfg, 2);
        assert_eq!(y.shape(), (0, 5));
    }

    #[test]
    fn exec_into_writes_every_element() {
        let (x, b) = setup(7, 48, 0, 2);
        let p = PackedBcq::pack(&b);
        let cfg = EngineConfig::paper_default();
        let plan = ExecPlan::new(&p, &cfg);
        let mut y = Mat::from_fn(5, 7, |_, _| f64::NAN); // must be overwritten
        plan.exec_i_into(&x, &p, &cfg, 1, &mut y);
        assert_eq!(y.as_slice(), gemm_i(&x, &b, &cfg).as_slice());
    }

    #[test]
    fn matches_ignores_mu() {
        // Every µ executes the same key-byte windows, so a plan matches its
        // weights under any configured µ, on an odd group size (gs 15) as
        // on an even one; only the weights decide.
        let cfg = |mu| EngineConfig {
            mu,
            ..EngineConfig::paper_default()
        };
        let (_, b) = setup(4, 30, 15, 2);
        let p = PackedBcq::pack(&b);
        let (_, be) = setup(4, 32, 16, 2);
        let pe = PackedBcq::pack(&be);
        let (plan, plan_e) = (ExecPlan::new(&p, &cfg(3)), ExecPlan::new(&pe, &cfg(3)));
        for mu in 1..=8 {
            assert!(plan.matches(&p, &cfg(mu)), "µ {mu}");
            assert!(plan_e.matches(&pe, &cfg(mu)), "µ {mu}");
            // Wrong weights for the plan.
            assert!(!plan.matches(&pe, &cfg(mu)), "µ {mu}");
        }
    }

    #[test]
    #[should_panic(expected = "ExecPlan built for")]
    fn mismatched_weights_panic() {
        let (x, b) = setup(4, 32, 16, 2);
        let p = PackedBcq::pack(&b);
        let cfg = EngineConfig::paper_default();
        let (_, b2) = setup(6, 32, 16, 2);
        let p2 = PackedBcq::pack(&b2);
        let plan = ExecPlan::new(&p2, &cfg);
        let _ = plan.exec_i_threads(&x, &p, &cfg, 1);
    }

    #[test]
    fn clone_starts_with_fresh_pools_and_same_bits() {
        let (x, b) = setup(6, 64, 32, 3);
        let p = PackedBcq::pack(&b);
        let cfg = EngineConfig::paper_default();
        let plan = ExecPlan::new(&p, &cfg);
        let y1 = plan.exec_i_threads(&x, &p, &cfg, 1);
        let clone = plan.clone();
        assert!(clone.calls.lock().unwrap().is_empty());
        let y2 = clone.exec_i_threads(&x, &p, &cfg, 1);
        assert_eq!(y1.as_slice(), y2.as_slice());
    }
}
