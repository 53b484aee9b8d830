//! [`ExecPlan`] — a reusable execution handle for one [`PackedBcq`].
//!
//! The kernels' preamble is not free: the window decomposition, the
//! effective-µ decision, the quantize/align/Σx staging buffers, the
//! lane-blocked FFLUTs, and every worker's open-group buffer. The
//! original backend recomputed the windows and reallocated every buffer on
//! *every* call — once per token per layer under `figlut-serve` decode
//! traffic. An `ExecPlan` hoists all of it:
//!
//! * the window plan and effective µ are computed once at construction;
//! * every staging buffer lives in pooled scratch, checked out once per
//!   *stage* — one quantize/align/table build of an activation matrix —
//!   and returned when its last reader has swept, so a steady-state call
//!   performs **zero heap allocations** in the exec hot path (asserted by
//!   `tests/alloc.rs` with a counting global allocator);
//! * a stage is built once per distinct input, not per weight matrix:
//!   [`ExecPlan::exec_i_shared`] runs any number of readers over one table
//!   set (the paper's one FFLUT feeding k RACs), and
//!   [`ExecPlan::exec_i_into`] is its one-reader case; on a
//!   [`Crew`] of several threads, each builds its own copy of the tables
//!   from the one stage ([`crate::parallel`]);
//! * every sweeping thread checks its open-group buffers out of a second
//!   pool, so crews reuse them across steps too.
//!
//! The pools are `Mutex`-guarded free lists: concurrent calls on one plan
//! are correct (each checks out its own scratch) and steady-state serial
//! calls are allocation-free. `Clone` clones the plan's *decisions* (shape,
//! windows, µ) but starts with empty pools — scratch is never shared
//! between clones — which is what lets `figlut-model` keep a plan inside
//! its `Clone`-able `LinearWeights::Packed` variant.
//!
//! The free functions [`crate::exec_i`] / [`crate::exec_f`] build a
//! throwaway plan per call, which preserves their historical semantics;
//! anything that executes the same weights twice should hold a plan.

use crate::kernel::{check, effective_mu, sweep_panel, Columns, Fp32, Native};
use crate::lut::{column_blocks, windows, FlatLuts, Window};
use crate::packed::PackedBcq;
use crate::parallel::{crew_size, thread_count, Crew};
use figlut_gemm::common::mul32;
use figlut_gemm::EngineConfig;
use figlut_num::align::AlignedVector;
use figlut_num::Mat;
use std::ops::Range;
use std::sync::Mutex;

/// One staged activation matrix: the quantized rows, their alignment, the
/// fold operands and the narrowing tier — everything a thread needs to
/// build the tables and fold a reader's sweep. Staged by the calling
/// thread once per distinct input (a single `exec_*` call, or a shared
/// call however many readers it has).
#[derive(Debug, Default)]
pub(crate) struct Stage {
    /// Quantized activations, `batch × n`.
    xa: Vec<f64>,
    /// Aligned integer mantissas, `batch × n`.
    mant: Vec<i64>,
    /// Narrowed mantissas (i32 table path), `batch × n`.
    m32: Vec<i32>,
    /// Per-batch-row alignment scales λ (`exec_f`: 1).
    lambdas: Vec<f64>,
    /// Offset multiplier per (column, group), `batch × groups`: `exec_i`
    /// pre-folds the row-invariant `mul32(Σx·λ)`, `exec_f` keeps `Σx`.
    gsums: Vec<f64>,
    /// Batch rows staged.
    batch: usize,
    /// Which tables are built, and into which accumulators they sweep.
    tier: Tier,
}

/// Table entry and accumulator types of a stage. Every integer tier is
/// exact, so they all return bit-identical results — narrower is faster.
#[derive(Clone, Copy, Debug, Default)]
enum Tier {
    /// `gs·max|mantissa| ≤ i32::MAX`: i32 tables *and* i32 group
    /// accumulators. A scale group spans `gs` columns, so every window
    /// sum, hFFLUT build intermediate and running group partial is a
    /// signed sum of at most `gs` mantissas and provably fits. This is the
    /// whole FP16 operating point, and it makes a key's lane vector and
    /// its accumulators plain SSE2 32-bit lanes.
    #[default]
    I32I32,
    /// `µ·max|mantissa| ≤ i32::MAX`: i32 tables (half the table-read
    /// bytes), i64 accumulators (group partials may exceed i32).
    I32I64,
    /// Extreme activation ranges: i64 tables and accumulators.
    I64I64,
    /// `exec_f`: float tables, `f64` accumulators, native arithmetic.
    Float,
}

impl Stage {
    /// Quantize every row of `x` into `xa`.
    fn quantize(&mut self, x: &Mat<f64>, cfg: &EngineConfig) {
        self.xa.clear();
        for b in 0..x.rows() {
            self.xa
                .extend(x.row(b).iter().map(|&v| cfg.act.quantize(v)));
        }
        self.batch = x.rows();
    }

    /// Stage `x` for `exec_i` under `plan`'s window plan: quantize, align
    /// per row (λ is a per-row max-exponent decision, exactly as in a
    /// batch-1 call), pre-fold the per-group offset terms `mul32(Σx·λ)`,
    /// and pick the narrowing tier over the whole batch (one entry type per
    /// batched table set).
    fn stage_i(&mut self, x: &Mat<f64>, cfg: &EngineConfig, plan: &ExecPlan) {
        let (n, gs) = (plan.cols, plan.group_size);
        self.quantize(x, cfg);
        self.mant.clear();
        self.lambdas.clear();
        self.gsums.clear();
        for row in self.xa.chunks_exact(n) {
            let at = self.mant.len();
            let lambda =
                AlignedVector::align_into(row, cfg.act, cfg.guard_bits, cfg.align, &mut self.mant);
            self.lambdas.push(lambda);
            for group in self.mant[at..].chunks_exact(gs) {
                let p: i128 = group.iter().map(|&v| v as i128).sum();
                self.gsums.push(mul32(p as f64, lambda));
            }
        }
        let maxm = self
            .mant
            .iter()
            .map(|&v| v.unsigned_abs())
            .max()
            .unwrap_or(0);
        let fits = |terms: usize| (terms as u64).saturating_mul(maxm) <= i32::MAX as u64;
        self.tier = if fits(gs) {
            Tier::I32I32
        } else if fits(plan.mu) {
            Tier::I32I64
        } else {
            Tier::I64I64
        };
        if !matches!(self.tier, Tier::I64I64) {
            self.m32.clear();
            self.m32.extend(self.mant.iter().map(|&v| v as i32));
        }
        figlut_trace::counters::bump_exec_lut_builds(1);
    }

    /// Stage `x` for `exec_f`: quantize and per-group `Σx`. Float tables
    /// hold real values, so the fold's `p·λ` is `p`.
    fn stage_f(&mut self, x: &Mat<f64>, cfg: &EngineConfig, plan: &ExecPlan) {
        self.quantize(x, cfg);
        self.gsums.clear();
        for group in self.xa.chunks_exact(plan.group_size) {
            self.gsums.push(group.iter().sum());
        }
        self.lambdas.clear();
        self.lambdas.resize(self.batch, 1.0);
        self.tier = Tier::Float;
        figlut_trace::counters::bump_exec_lut_builds(1);
    }

    /// Batch rows staged.
    pub(crate) fn batch(&self) -> usize {
        self.batch
    }

    /// Count one reader's call at this stage's tier.
    fn count_call(&self) {
        use figlut_trace::counters as c;
        match self.tier {
            Tier::I32I32 => c::bump_exec_tier_i32_i32(1),
            Tier::I32I64 => c::bump_exec_tier_i32_i64(1),
            Tier::I64I64 => c::bump_exec_tier_i64_i64(1),
            Tier::Float => return c::bump_exec_f_calls(1),
        }
        c::bump_exec_calls(1);
    }
}

/// The lane-blocked tables of a stage, one set per sweeping thread: each
/// builds its own from the shared stage, so no core reads table lines
/// another core wrote (DESIGN.md §6, "The step crew"). The build is a pure
/// function of the stage, so every thread's tables hold the same bits.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// Narrowed integer tables (i32 entries).
    luts32: FlatLuts<i32>,
    /// Wide integer tables.
    luts64: FlatLuts<i64>,
    /// Float tables (`exec_f`).
    lutsf: FlatLuts<f64>,
}

impl Tables {
    /// Build `stage`'s tables under `plan`'s window plan.
    pub(crate) fn build(&mut self, stage: &Stage, plan: &ExecPlan) {
        let (n, wins, mu, batch) = (plan.cols, &plan.wins, plan.mu as u32, stage.batch);
        match stage.tier {
            Tier::I32I32 | Tier::I32I64 => self.luts32.rebuild(&stage.m32, n, wins, mu, batch),
            Tier::I64I64 => self.luts64.rebuild(&stage.mant, n, wins, mu, batch),
            Tier::Float => self.lutsf.rebuild(&stage.xa, n, wins, mu, batch),
        }
    }

    /// Sweep output rows `r0..` of reader `(plan, w)` over these tables of
    /// `stage` into `panel` (zeroed, `rows × batch`), checking an
    /// open-group buffer out of `plan`'s pool.
    fn sweep(&self, stage: &Stage, plan: &ExecPlan, w: &PackedBcq, r0: usize, panel: &mut [f64]) {
        let cx = Columns {
            lambdas: &stage.lambdas,
            gsums: &stage.gsums,
        };
        let wins = &plan.wins;
        let mut ws = pop(&plan.workers);
        match stage.tier {
            Tier::I32I32 => {
                sweep_panel::<_, _, Fp32>(w, wins, &self.luts32, &cx, r0, panel, &mut ws.open_i32)
            }
            Tier::I32I64 => {
                sweep_panel::<_, _, Fp32>(w, wins, &self.luts32, &cx, r0, panel, &mut ws.open_i64)
            }
            Tier::I64I64 => {
                sweep_panel::<_, _, Fp32>(w, wins, &self.luts64, &cx, r0, panel, &mut ws.open_i64)
            }
            Tier::Float => {
                sweep_panel::<_, _, Native>(w, wins, &self.lutsf, &cx, r0, panel, &mut ws.open_f)
            }
        }
        push(&plan.workers, ws);
    }
}

/// What the calling thread of a stage uses — one checkout of a plan's pool
/// per stage: the stage, its own tables, and the transposed output it
/// sweeps into.
#[derive(Debug, Default)]
pub(crate) struct CallScratch {
    pub(crate) stage: Stage,
    pub(crate) tables: Tables,
    /// `rows × batch`, the concatenated readers' transposed output.
    pub(crate) yt: Vec<f64>,
}

/// Per-worker open-group buffers, one per accumulator type (one checkout
/// per reader sweep; `rows × q × lanes`, used only by shapes whose scale
/// groups span k-tiles).
#[derive(Debug, Default)]
struct WorkerScratch {
    open_i32: Vec<i32>,
    open_i64: Vec<i64>,
    open_f: Vec<f64>,
}

/// Part `p` of `parts` contiguous parts of `rows` concatenated output
/// rows: an even row count each (the lane pass walks row pairs), so the
/// last parts may be short or empty.
pub(crate) fn part_rows(rows: usize, parts: usize, p: usize) -> Range<usize> {
    let chunk = rows.div_ceil(parts).next_multiple_of(2);
    (p * chunk).min(rows)..((p + 1) * chunk).min(rows)
}

/// Sweep `rows` of the readers' concatenated output rows (reader 0's
/// first) over `tables` of `stage` into `panel`, resized to
/// `rows.len() × batch`.
pub(crate) fn sweep_rows<'r>(
    readers: impl Iterator<Item = (&'r ExecPlan, &'r PackedBcq)>,
    stage: &Stage,
    tables: &Tables,
    rows: Range<usize>,
    panel: &mut Vec<f64>,
) {
    let batch = stage.batch;
    panel.clear();
    panel.resize(rows.len() * batch, 0.0);
    let mut base = 0;
    for (plan, w) in readers {
        let (lo, hi) = (rows.start.max(base), rows.end.min(base + plan.rows));
        if lo < hi {
            let at = (lo - rows.start) * batch..(hi - rows.start) * batch;
            tables.sweep(stage, plan, w, lo - base, &mut panel[at]);
        }
        base += plan.rows;
    }
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

/// A reusable execution plan for one [`PackedBcq`] under one engine
/// config: precomputed windows, the effective-µ decision, and pooled
/// scratch for allocation-free steady-state calls (module docs).
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
///     plan.exec_i(&x, &packed, &cfg).as_slice(),
///     exec_i(&x, &packed, &cfg).as_slice()
/// );
/// ```
#[derive(Debug)]
pub struct ExecPlan {
    rows: usize,
    cols: usize,
    group_size: usize,
    bits: usize,
    /// The window width actually executed (`effective_mu`; [`ExecPlan::matches`]
    /// re-derives it from a call-site config to decide compatibility).
    mu: usize,
    wins: Vec<Window>,
    calls: Mutex<Vec<CallScratch>>,
    workers: Mutex<Vec<WorkerScratch>>,
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
            mu: self.mu,
            wins: self.wins.clone(),
            calls: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        }
    }
}

impl ExecPlan {
    /// Build the plan for `w` under `cfg`: effective-µ decision + window
    /// decomposition, and empty scratch pools that warm up on first use.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.mu ∉ 1..=8`.
    pub fn new(w: &PackedBcq, cfg: &EngineConfig) -> Self {
        assert!((1..=8).contains(&cfg.mu), "µ = {} unsupported", cfg.mu);
        figlut_trace::counters::bump_exec_plan_builds(1);
        let (rows, cols) = w.shape();
        let gs = w.group_size();
        let mu = effective_mu(gs, cfg.mu);
        Self {
            rows,
            cols,
            group_size: gs,
            bits: w.bits(),
            mu,
            wins: windows(cols, gs, mu),
            calls: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// `true` if this plan was built for exactly this weight shape and an
    /// equivalent config (same effective µ, hence the same window plan).
    /// Callers holding a plan next to interchangeable configs (e.g.
    /// `figlut-model`'s `Backend::Exec`) use this to decide between the
    /// cached plan and a throwaway one.
    pub fn matches(&self, w: &PackedBcq, cfg: &EngineConfig) -> bool {
        (1..=8).contains(&cfg.mu)
            && w.shape() == (self.rows, self.cols)
            && w.group_size() == self.group_size
            && w.bits() == self.bits
            && effective_mu(self.group_size, cfg.mu) == self.mu
    }

    /// Output rows of the weights this plan was built for.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Packed weight words one non-empty `exec_*` call at this batch size
    /// streams: one sweep per column block (the batch is cut into lane
    /// blocks of up to 8 columns, each with its own tables), each sweep
    /// every word of every (output row, bit-plane) exactly once.
    ///
    /// This is the analytical model of the kernel's weight traffic; the
    /// `exec_streamed_words` trace counter reconciles against it exactly
    /// (asserted by `tests/trace_reconcile.rs`), which is what makes the
    /// traced number trustworthy as a bandwidth proxy.
    pub fn streamed_words(&self, batch: usize) -> u64 {
        (column_blocks(batch).count() * self.rows * self.bits * self.cols.div_ceil(64)) as u64
    }

    /// Table look-ups one call at this batch size computes: one per output
    /// row × bit-plane × window × batch column — the work a step sums to
    /// size its crew ([`crew_size`]).
    pub fn lookups(&self, batch: usize) -> usize {
        (self.rows * self.bits * self.wins.len()).saturating_mul(batch)
    }

    /// Threads one direct call at this batch size runs on when the caller
    /// allows at most `threads`: the crew of a one-call step,
    /// [`crew_size`] of its [look-ups](ExecPlan::lookups). Speed only —
    /// results are bit-identical for every value.
    pub fn fan_out(&self, batch: usize, threads: usize) -> usize {
        crew_size(self.lookups(batch), threads)
    }

    /// Check one reader of a call against `x`: shapes, µ, and that `self`
    /// is `w`'s plan.
    fn check_reader(&self, x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig, out: &Mat<f64>) {
        let (batch, m, _) = check(x, w, cfg);
        assert!(
            self.matches(w, cfg),
            "ExecPlan built for {}x{} (gs {}, q {}, µ {}) used with {:?}-shaped weights / µ {}",
            self.rows,
            self.cols,
            self.group_size,
            self.bits,
            self.mu,
            w.shape(),
            cfg.mu,
        );
        assert_eq!(out.shape(), (batch, m), "output shape mismatch");
    }

    /// `true` if `other`'s weights can read tables staged for this plan:
    /// the same reduction dim, group size and effective µ — hence the same
    /// window plan, Σx groups and narrowing tier (the row count is free).
    pub fn shares_stage(&self, other: &ExecPlan) -> bool {
        self.stage_key() == other.stage_key()
    }

    fn stage_key(&self) -> (usize, usize, usize) {
        (self.cols, self.group_size, self.mu)
    }

    /// One table set, k readers (paper Fig. 8/9: an FFLUT feeds k RACs),
    /// as one step: [`ExecPlan::exec_i_crew`] on a [`Crew`] sized by the
    /// readers' summed look-ups, at most `threads`.
    ///
    /// # Panics
    ///
    /// As [`ExecPlan::exec_i_crew`].
    pub fn exec_i_shared<'a>(
        x: &Mat<f64>,
        cfg: &EngineConfig,
        threads: usize,
        readers: &mut [(&'a ExecPlan, &'a PackedBcq, &mut Mat<f64>)],
    ) {
        let lookups = readers
            .iter()
            .map(|(plan, ..)| plan.lookups(x.rows()))
            .sum();
        Crew::run(crew_size(lookups, threads), |crew| {
            Self::exec_i_crew(crew, x, cfg, readers);
        });
    }

    /// One GEMM phase of a step on `crew`: stage `x` **once** — quantize,
    /// align, pre-fold the offset terms, pick the narrowing tier — then
    /// sweep every reader's `(plan, weights, batch × m output)` over the
    /// lane-blocked tables of that stage, the readers' output rows
    /// concatenated and cut into one part per crew thread, each thread
    /// building its own copy of the tables. The stage and the tables depend
    /// only on `x`, `cfg` and the shared window plan, and each output
    /// element is swept by one thread in a fixed order, so every output is
    /// bit-identical to the reader's own one-thread
    /// [`ExecPlan::exec_i_into`] call. The first reader's plan lends the
    /// caller's scratch (allocation-free when warm, on a crew of one).
    ///
    /// # Panics
    ///
    /// Panics if any reader fails the [`ExecPlan::exec_i_into`] checks, or
    /// if the readers' plans do not [share a stage](ExecPlan::shares_stage).
    pub fn exec_i_crew<'a>(
        crew: &Crew<'_, 'a>,
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
                "shared exec readers disagree on (k, gs, µ): staged for {:?}, reader has {:?}",
                stager.stage_key(),
                plan.stage_key(),
            );
            plan.check_reader(x, w, cfg, out);
        }
        if x.rows() == 0 {
            return; // empty activation matrix: nothing to compute
        }
        let mut s = pop(&stager.calls);
        s.stage.stage_i(x, cfg, stager);
        readers.iter().for_each(|_| s.stage.count_call());
        crew.sweep(readers, &mut s);
        push(&stager.calls, s);
    }

    /// [`ExecPlan::exec_i_threads`] writing into a caller-owned
    /// `batch × m` output — the zero-allocation steady-state entry point
    /// (the convenience wrappers only add the output allocation, a call
    /// that [fans out](ExecPlan::fan_out) its crew). The one-reader case
    /// of [`ExecPlan::exec_i_shared`].
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
        Self::exec_i_shared(x, cfg, threads, &mut [(self, w, out)]);
    }

    /// FIGLUT-I fast path over this plan: `y = x·Wᵀ`, bit-identical to
    /// `figlut_gemm::figlut::gemm_i` at every batch size, with every batch
    /// row bit-identical to its batch-1 run. `threads` is the *maximum*
    /// worker count ([`ExecPlan::fan_out`] decides how many run); the
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

    /// [`ExecPlan::exec_i_threads`] with the default maximum worker count
    /// ([`crate::parallel::thread_count`]).
    pub fn exec_i(&self, x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig) -> Mat<f64> {
        self.exec_i_threads(x, w, cfg, thread_count())
    }

    /// [`ExecPlan::exec_f_threads`] writing into a caller-owned
    /// `batch × m` output (allocation-free in steady state, the crew of a
    /// call that [fans out](ExecPlan::fan_out) aside).
    ///
    /// # Panics
    ///
    /// Same conditions as [`ExecPlan::exec_i_into`].
    pub fn exec_f_into(
        &self,
        x: &Mat<f64>,
        w: &PackedBcq,
        cfg: &EngineConfig,
        threads: usize,
        out: &mut Mat<f64>,
    ) {
        self.check_reader(x, w, cfg, out);
        if x.rows() == 0 {
            return; // empty activation matrix: nothing to compute
        }
        Crew::run(self.fan_out(x.rows(), threads), |crew| {
            let mut s = pop(&self.calls);
            s.stage.stage_f(x, cfg, self);
            s.stage.count_call();
            crew.sweep(&mut [(self, w, out)], &mut s);
            push(&self.calls, s);
        });
    }

    /// FIGLUT-F fast path over this plan: `y = x·Wᵀ` with `f64`
    /// accumulation, tracking `figlut_gemm::figlut::gemm_f` within the
    /// scale-aware tolerance the property tests assert. `threads` is the
    /// *maximum* worker count ([`ExecPlan::fan_out`] decides how many
    /// run); the result is bit-identical for every value.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, `µ ∉ 1..=8`, or a plan/weight mismatch.
    pub fn exec_f_threads(
        &self,
        x: &Mat<f64>,
        w: &PackedBcq,
        cfg: &EngineConfig,
        threads: usize,
    ) -> Mat<f64> {
        let mut y = Mat::zeros(x.rows(), w.rows());
        self.exec_f_into(x, w, cfg, threads, &mut y);
        y
    }

    /// [`ExecPlan::exec_f_threads`] with the default maximum worker count
    /// ([`crate::parallel::thread_count`]).
    pub fn exec_f(&self, x: &Mat<f64>, w: &PackedBcq, cfg: &EngineConfig) -> Mat<f64> {
        self.exec_f_threads(x, w, cfg, thread_count())
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
        let y = plan.exec_i(&x, &p, &cfg);
        assert_eq!(y.shape(), (0, 5));
        let yf = plan.exec_f(&x, &p, &cfg);
        assert_eq!(yf.shape(), (0, 5));
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
    fn matches_tracks_shape_and_effective_mu() {
        let (_, b) = setup(4, 30, 15, 2); // gs 15: no even divisor
        let p = PackedBcq::pack(&b);
        let cfg3 = EngineConfig {
            mu: 3,
            ..EngineConfig::paper_default()
        };
        let plan = ExecPlan::new(&p, &cfg3);
        assert!(plan.matches(&p, &cfg3));
        // Different configured µ on an odd group size changes the window
        // plan → incompatible.
        let cfg4 = EngineConfig {
            mu: 4,
            ..EngineConfig::paper_default()
        };
        assert!(!plan.matches(&p, &cfg4));
        // Even group size: every configured µ widens to 8 → compatible.
        let (_, be) = setup(4, 32, 16, 2);
        let pe = PackedBcq::pack(&be);
        let plan_e = ExecPlan::new(&pe, &cfg3);
        assert!(plan_e.matches(&pe, &cfg4));
        // Wrong weights for the plan.
        assert!(!plan.matches(&pe, &cfg3));
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
        let _ = plan.exec_i(&x, &p, &cfg);
    }

    #[test]
    fn clone_starts_with_fresh_pools_and_same_bits() {
        let (x, b) = setup(6, 64, 32, 3);
        let p = PackedBcq::pack(&b);
        let cfg = EngineConfig::paper_default();
        let plan = ExecPlan::new(&p, &cfg);
        let y1 = plan.exec_i(&x, &p, &cfg);
        let clone = plan.clone();
        assert!(clone.calls.lock().unwrap().is_empty());
        let y2 = clone.exec_i(&x, &p, &cfg);
        assert_eq!(y1.as_slice(), y2.as_slice());
    }
}
