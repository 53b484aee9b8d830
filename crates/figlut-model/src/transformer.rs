//! A working decoder-only transformer with engine-dispatched linear layers.
//!
//! This is a faithful (if small) OPT-style decoder: token + learned position
//! embeddings, pre-LayerNorm blocks with causal multi-head attention and a
//! GELU FFN, and a weight-tied LM head. Weight-only quantization applies to
//! the six linear projections per block — exactly the layers the paper's
//! engines accelerate — while attention arithmetic, normalization and the
//! head stay in floating point, as in every weight-only-quantized serving
//! stack.
//!
//! The [`Backend`] decides how those linear layers execute: exact `f64`
//! (the "GPU" rows of Tables IV/VI) or any `figlut-gemm` engine model
//! (FIGLUT-F, FIGLUT-I, FIGNA, …). Swapping backends under an identical
//! model is how the reproduction demonstrates Table IV's numerical-parity
//! claim.
//!
//! There is one transformer body, [`Transformer::forward_batch`]'s: the
//! full-sequence [`Transformer::logits`] (perplexity, calibration capture,
//! sampling) runs it over one session with a fresh one-block KV cache
//! ([`Transformer::new_cache`]), and the serving entry points (`prefill`,
//! `decode_step`, `decode_batch`) are thin wrappers over it.
//!
//! Every step of that body runs on a [`StepCrew`]: its GEMMs as row parts
//! of the exec kernels, and its row-independent work — LayerNorm rows,
//! GELU chunks, attention heads, LM-head blocks — as [`StepWork`] parts, each output
//! element computed by one thread in its one-thread order. A direct call
//! opens its own crew; a serving run opens one for all its steps
//! ([`Transformer::open_crew`], [`Transformer::forward_on`]).

use crate::rng::{Rng, NORMAL_DRAWS};
use figlut_exec::parallel::{crew_size, step_width, thread_count, Crew, RowWork};
use figlut_exec::{exec_i, ExecPlan, PackedBcq};
use figlut_gemm::{Engine, EngineConfig, Weights};
use figlut_num::Mat;
use figlut_quant::{BcqWeight, UniformWeight};
use std::borrow::BorrowMut;
use std::ops::Range;

/// Scaled-down OPT-style architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Decoder layers.
    pub layers: usize,
    /// Attention heads (must divide `d_model`).
    pub heads: usize,
    /// FFN inner width.
    pub ffn: usize,
    /// Maximum sequence length (position table size).
    pub max_seq: usize,
}

impl ModelConfig {
    /// A small test-scale model with OPT proportions.
    pub fn tiny() -> Self {
        Self {
            vocab: 96,
            d_model: 48,
            layers: 2,
            heads: 4,
            ffn: 192,
            max_seq: 40,
        }
    }

    /// Scaled-down stand-in for an OPT family member: same layer count
    /// ratio flavor, widths divided to stay laptop-runnable.
    pub fn scaled(layers: usize, d_model: usize, heads: usize) -> Self {
        Self {
            vocab: 96,
            d_model,
            layers,
            heads,
            ffn: 4 * d_model,
            max_seq: 40,
        }
    }
}

/// Weight storage of one linear layer.
#[derive(Clone, Debug)]
pub enum LinearWeights {
    /// Unquantized.
    Fp(Mat<f64>),
    /// Uniform INT (RTN / GPTQ output).
    Uniform(UniformWeight),
    /// Binary-coding quantization (ShiftAddLLM output or Eq. 3 conversion).
    Bcq(BcqWeight),
    /// BCQ re-packed for the `figlut-exec` fast kernels, with the
    /// [`ExecPlan`] built once at packing time (see
    /// [`crate::calibrate::to_packed`]): the window decomposition and all
    /// kernel scratch are cached here, so steady-state decode runs the
    /// exec hot path without recomputing the plan or allocating — once
    /// per layer, not once per token per layer. Represents exactly the
    /// same values as the [`LinearWeights::Bcq`] it was packed from.
    Packed(PackedBcq, ExecPlan),
}

impl LinearWeights {
    /// `(out_features, in_features)`.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            LinearWeights::Fp(w) => w.shape(),
            LinearWeights::Uniform(u) => u.shape(),
            LinearWeights::Bcq(b) => b.shape(),
            LinearWeights::Packed(p, _) => p.shape(),
        }
    }

    /// Average bits per weight (16 for FP).
    pub fn bits(&self) -> f64 {
        match self {
            LinearWeights::Fp(_) => 16.0,
            LinearWeights::Uniform(u) => u.bits() as f64,
            LinearWeights::Bcq(b) => b.bits() as f64,
            LinearWeights::Packed(p, _) => p.bits() as f64,
        }
    }
}

/// A linear layer `y = x·Wᵀ + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weights (`out × in`).
    pub weights: LinearWeights,
    /// Bias (`out`), kept FP as in weight-only quantization practice.
    pub bias: Vec<f64>,
}

/// How linear layers execute.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Exact f64 arithmetic (dequantizing quantized weights) — the paper's
    /// GPU reference rows.
    Exact,
    /// A `figlut-gemm` hardware datapath model.
    Engine(Engine, EngineConfig),
    /// The `figlut-exec` packed fast path: **bit-identical** logits to
    /// `Backend::Engine(Engine::FiglutI, cfg)` on quantized layers (the
    /// exec kernel reproduces the FIGLUT-I datapath exactly; DESIGN.md
    /// §6), at host-GEMM speed. Pre-pack the model with
    /// [`crate::calibrate::to_packed`] to avoid re-packing per forward
    /// call.
    Exec(EngineConfig),
}

impl Linear {
    /// `x·Wᵀ + b` under `backend`; a packed layer whose cached plan matches
    /// the backend's config runs on the step's `crew`.
    fn forward<'a>(&'a self, x: &Mat<f64>, backend: &Backend, crew: &StepCrew<'_, 'a>) -> Mat<f64> {
        let mut y = match (backend, &self.weights) {
            (Backend::Exact, LinearWeights::Fp(w)) => x.matmul(&w.transposed()),
            (Backend::Exact, LinearWeights::Uniform(u)) => x.matmul(&u.dequantize().transposed()),
            (Backend::Exact, LinearWeights::Bcq(b)) => x.matmul(&b.dequantize().transposed()),
            (Backend::Exact, LinearWeights::Packed(p, _)) => x.matmul(&p.dequantize().transposed()),
            // FP weights under an engine/exec backend: the engine only
            // handles quantized layers; FP layers run on the reference
            // datapath (GPU-style FP16 tensor ops modeled exactly).
            (Backend::Engine(_, cfg) | Backend::Exec(cfg), LinearWeights::Fp(w)) => {
                let xa = x.map(|&v| cfg.act.quantize(v));
                xa.matmul(&w.map(|&v| cfg.act.quantize(v)).transposed())
            }
            (Backend::Engine(e, cfg), LinearWeights::Uniform(u)) => {
                e.run(x, &Weights::Uniform(u), cfg)
            }
            (Backend::Engine(e, cfg), LinearWeights::Bcq(b)) => e.run(x, &Weights::Bcq(b), cfg),
            // Datapath models don't consume the packed layout directly;
            // unpack (slow path — kept for differential testing).
            (Backend::Engine(e, cfg), LinearWeights::Packed(p, _)) => {
                e.run(x, &Weights::Bcq(&p.unpack()), cfg)
            }
            // Exec fast path. A pre-packed layer carries its own ExecPlan
            // (which serves every µ), so the steady-state call reuses the
            // cached window plan and scratch pools, on the step's crew.
            // Non-packed quantized weights are packed on the fly (correct,
            // but pay the packing cost per call — use `to_packed` for
            // repeated evaluation).
            (Backend::Exec(cfg), LinearWeights::Packed(p, plan)) => {
                let mut y = Mat::zeros(x.rows(), p.rows());
                ExecPlan::exec_i_crew(crew, x, cfg, &mut [(plan, p, &mut y)]);
                y
            }
            (Backend::Exec(cfg), LinearWeights::Bcq(b)) => exec_i(x, &PackedBcq::pack(b), cfg),
            (Backend::Exec(cfg), LinearWeights::Uniform(u)) => {
                exec_i(x, &PackedBcq::pack(&BcqWeight::from_uniform(u)), cfg)
            }
        };
        self.add_bias(&mut y);
        y
    }

    fn add_bias(&self, y: &mut Mat<f64>) {
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
    }
}

/// LayerNorm parameters.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: Vec<f64>,
    beta: Vec<f64>,
}

impl LayerNorm {
    fn identity(d: usize) -> Self {
        Self {
            gamma: vec![1.0; d],
            beta: vec![0.0; d],
        }
    }

    /// Append the normalized `row` to `out`.
    fn row(&self, row: &[f64], out: &mut Vec<f64>) {
        let d = row.len();
        let mean: f64 = row.iter().sum::<f64>() / d as f64;
        let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
        let sd = (var + 1e-5).sqrt();
        let affine = self.gamma.iter().zip(&self.beta);
        out.extend(
            row.iter()
                .zip(affine)
                .map(|(x, (g, b))| (x - mean) / sd * g + b),
        );
    }
}

/// One decoder block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Pre-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Q/K/V/output projections.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Pre-FFN LayerNorm.
    pub ln2: LayerNorm,
    /// FFN up-projection.
    pub fc1: Linear,
    /// FFN down-projection.
    pub fc2: Linear,
}

impl Block {
    /// The six quantizable linears in a fixed order (the order `calibrate`
    /// captures activations in).
    pub fn linears(&self) -> [&Linear; 6] {
        [&self.wq, &self.wk, &self.wv, &self.wo, &self.fc1, &self.fc2]
    }

    /// Mutable access in the same order.
    pub fn linears_mut(&mut self) -> [&mut Linear; 6] {
        [
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.wo,
            &mut self.fc1,
            &mut self.fc2,
        ]
    }

    /// The Q, K and V projections of `h`. They read the same input, so
    /// when all three are packed under plans that share a stage (same
    /// reduction width and group size) `h` is quantized, aligned and
    /// tabulated once and the three weight matrices read that one table
    /// set — the paper's one FFLUT, k RACs.
    /// Anything else (mixed group sizes, un-packed or FP layers, another
    /// backend) is three plain forwards; the bits are the same either way.
    /// The shared call is one GEMM phase of the step's `crew`: the three
    /// readers' rows form one concatenated set cut into its row parts.
    fn qkv<'a>(
        &'a self,
        h: &Mat<f64>,
        backend: &Backend,
        crew: &StepCrew<'_, 'a>,
    ) -> [Mat<f64>; 3] {
        use LinearWeights::Packed;
        let lins = [&self.wq, &self.wk, &self.wv];
        if let (Backend::Exec(cfg), [Packed(pq, q), Packed(pk, k), Packed(pv, v)]) =
            (backend, lins.map(|l| &l.weights))
        {
            if [k, v].into_iter().all(|plan| q.shares_stage(plan)) {
                let mut ys = [pq, pk, pv].map(|p| Mat::zeros(h.rows(), p.rows()));
                let [yq, yk, yv] = &mut ys;
                let readers = &mut [(q, pq, yq), (k, pk, yk), (v, pv, yv)];
                ExecPlan::exec_i_crew(crew, h, cfg, readers);
                for (lin, y) in lins.iter().zip(&mut ys) {
                    lin.add_bias(y);
                }
                return ys;
            }
        }
        lins.map(|l| l.forward(h, backend, crew))
    }
}

use crate::kv::BlockPool;
pub use crate::kv::KvCache;

/// A decoder-only transformer.
#[derive(Clone, Debug)]
pub struct Transformer {
    /// Architecture.
    pub cfg: ModelConfig,
    /// Token embedding (`vocab × d`), tied with the LM head.
    pub embed: Mat<f64>,
    /// Learned positional embedding (`max_seq × d`).
    pub pos: Mat<f64>,
    /// Decoder blocks.
    pub blocks: Vec<Block>,
    /// Final LayerNorm.
    pub ln_f: LayerNorm,
}

/// Exact GELU.
fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + erf(x / core::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 erf approximation (|ε| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let s = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    s * y
}

/// Vocabulary rows [`Transformer::head_block`] dots per pass over `h`.
const HEAD_PASS: usize = 8;

/// Elements of one [`Op::Gelu`] unit: a one-row step's GELU splits too.
const GELU_CHUNK: usize = 256;

/// `out[v] = Σₖ h[k]·rows[v·d + k]` over the `d`-wide rows of `rows`
/// (`d = h.len()`), `N` rows per pass over `h` (`out.len()` a multiple of
/// `N`): one `k`-ascending chain per row from 0.0, skipping `h[k] == 0` —
/// `Mat::matmul`'s order, `N` independent chains at a time.
fn dot_rows<const N: usize>(h: &[f64], rows: &[f64], out: &mut [f64]) {
    let d = h.len();
    for (o, rows) in out.chunks_exact_mut(N).zip(rows.chunks_exact(N * d)) {
        let e: [&[f64]; N] = std::array::from_fn(|i| &rows[i * d..(i + 1) * d]);
        let mut acc = [0.0; N];
        for (k, &a) in h.iter().enumerate() {
            if a != 0.0 {
                for (s, e) in acc.iter_mut().zip(&e) {
                    *s += a * e[k];
                }
            }
        }
        o.copy_from_slice(&acc);
    }
}

/// `x += y`, row by row, in place.
fn add_rows(x: &mut Mat<f64>, y: &Mat<f64>) {
    for r in 0..x.rows() {
        for (a, b) in x.row_mut(r).iter_mut().zip(y.row(r)) {
            *a += b;
        }
    }
}

fn softmax_row(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// A [`Crew`] whose steps run the transformer body, row work included.
pub type StepCrew<'c, 'a> = Crew<'c, 'a, StepWork<'a>>;

/// The row-independent work of a forward step, cut into parts on its
/// [`StepCrew`]: one op over the input rows `x`. The crew's workers
/// read it from the crew's slot, so it owns its inputs (`x`, each fused
/// row's session, each session's pool and block table) and borrows only
/// the model. Opaque outside this module.
#[derive(Default)]
pub struct StepWork<'a> {
    op: Op<'a>,
    /// The op's input rows, moved in for the phase.
    x: Mat<f64>,
    /// `(session, offset in its chunk)` of every fused row.
    row_of: Vec<(usize, usize)>,
    /// Positions each session's cache held before the step.
    p0: Vec<usize>,
    /// Each session's pool and block table, lent for an attention phase.
    kv: Vec<(BlockPool, Vec<usize>)>,
}

/// What a [`StepWork`] computes per unit.
#[derive(Clone, Copy, Default)]
enum Op<'a> {
    /// Nothing (between phases).
    #[default]
    Idle,
    /// One LayerNorm row per row.
    Norm(&'a LayerNorm),
    /// GELU of every element, [`GELU_CHUNK`] elements of one row per unit.
    Gelu,
    /// Layer `.1`'s attention context, one head of one fused row per unit
    /// (row-major), so a one-row step's attention splits too.
    Attend(&'a Transformer, usize),
    /// The LM head, one [`HEAD_PASS`] block of one row per unit
    /// (row-major, so the parts concatenate to the `rows × vocab` logits).
    Head(&'a Transformer),
}

impl<'a> StepWork<'a> {
    /// Run `op` over the rows of `x` on `crew` and return its
    /// `x.rows() × cols` output; `x` comes back unchanged.
    fn run(
        &mut self,
        crew: &StepCrew<'_, 'a>,
        op: Op<'a>,
        x: &mut Mat<f64>,
        cols: usize,
    ) -> Mat<f64> {
        self.op = op;
        std::mem::swap(&mut self.x, x);
        let mut out = Vec::with_capacity(self.x.rows() * cols);
        crew.rows(self, &mut out);
        std::mem::swap(&mut self.x, x);
        self.op = Op::Idle;
        Mat::from_vec(x.rows(), cols, out)
    }
}

impl RowWork for StepWork<'_> {
    fn units(&self) -> usize {
        match self.op {
            Op::Idle => 0,
            Op::Gelu => self.x.rows() * self.x.cols().div_ceil(GELU_CHUNK),
            Op::Attend(m, _) => self.x.rows() * m.cfg.heads,
            Op::Head(m) => self.x.rows() * m.cfg.vocab.div_ceil(HEAD_PASS),
            _ => self.x.rows(),
        }
    }

    /// Measured one-thread costs on the reference container: a LayerNorm
    /// element ≈ 3 ns, of which ≈ 1 ns of arithmetic is worth moving to
    /// another core (the rest is the row itself); a GELU ≈ 12 ns; an
    /// attention position ≈ 1.5 ns per model column; a head logit ≈ 0.4 ns
    /// per model column.
    fn cost_ns(&self) -> usize {
        let (rows, cols) = self.x.shape();
        match self.op {
            Op::Idle => 0,
            Op::Norm(_) => rows * cols,
            Op::Gelu => rows * cols * 12,
            Op::Attend(m, _) => {
                let positions: usize = (self.row_of.iter()).map(|&(i, t)| self.p0[i] + t + 1).sum();
                positions * m.cfg.d_model * 3 / 2
            }
            Op::Head(m) => rows * m.cfg.vocab * cols * 2 / 5,
        }
    }

    fn part(&self, units: Range<usize>, out: &mut Vec<f64>) {
        match self.op {
            Op::Idle => {}
            Op::Norm(ln) => units.for_each(|r| ln.row(self.x.row(r), out)),
            Op::Gelu => {
                let chunks = self.x.cols().div_ceil(GELU_CHUNK);
                for u in units {
                    let (row, c) = (self.x.row(u / chunks), u % chunks * GELU_CHUNK);
                    let chunk = &row[c..(c + GELU_CHUNK).min(row.len())];
                    out.extend(chunk.iter().map(|&v| gelu(v)));
                }
            }
            Op::Attend(m, li) => m.attend(self, li, units, out),
            Op::Head(m) => {
                let blocks = m.cfg.vocab.div_ceil(HEAD_PASS);
                units.for_each(|u| m.head_block(self.x.row(u / blocks), u % blocks, out));
            }
        }
    }
}

/// Raw teacher draws per worker of the teacher's crew: 2²⁰ draws are
/// ≈ 17 ms of one-thread drawing on the reference container (≈ 33 ns a
/// weight, two draws each) against a ≈ 0.1 ms spawn, so a model whose
/// matrices hold fewer — `tiny()` among them — is drawn on the caller
/// alone and spawns nothing (DESIGN.md §6).
const DRAWS_PER_WORKER: usize = 1 << 20;

/// One-thread nanoseconds of one teacher weight — a normal (two draws, a
/// log, a root and a cosine), a multiply and a store: a `serve-wide`
/// teacher's 6.4 M weights took 212 ms on one thread.
const NORMAL_NS: usize = 33;

/// The rows of one teacher matrix, cut into parts on the teacher's crew:
/// `rows × cols` normals of the stream at `rng`, times `scale`. Row `r`
/// starts `2 · r · cols` draws past `rng` ([`Rng`]'s counter), so a part
/// skips to its first row and draws from there, with the bits of one
/// pass over every row.
struct Draws {
    rng: Rng,
    rows: usize,
    cols: usize,
    scale: f64,
}

impl Default for Draws {
    fn default() -> Self {
        Self {
            rng: Rng::new(0),
            rows: 0,
            cols: 0,
            scale: 0.0,
        }
    }
}

impl Draws {
    /// A `rows × cols` matrix of `rng`'s next normals times `scale`,
    /// row-major, drawn on `crew`; `rng` moves past them.
    fn matrix(
        crew: &Crew<'_, '_, Draws>,
        rng: &mut Rng,
        rows: usize,
        cols: usize,
        scale: f64,
    ) -> Mat<f64> {
        let mut work = Draws {
            rng: rng.clone(),
            rows,
            cols,
            scale,
        };
        rng.skip(rows * cols * NORMAL_DRAWS);
        let mut out = Vec::with_capacity(rows * cols);
        crew.rows(&mut work, &mut out);
        Mat::from_vec(rows, cols, out)
    }
}

impl RowWork for Draws {
    fn units(&self) -> usize {
        self.rows
    }

    fn cost_ns(&self) -> usize {
        self.rows * self.cols * NORMAL_NS
    }

    fn part(&self, units: Range<usize>, out: &mut Vec<f64>) {
        let mut rng = self.rng.clone();
        rng.skip(units.start * self.cols * NORMAL_DRAWS);
        out.extend((0..units.len() * self.cols).map(|_| rng.normal() * self.scale));
    }
}

impl Transformer {
    /// A deterministic synthetic "teacher": weights are Gaussian with a
    /// scale chosen so the model's output distribution is peaked (low
    /// entropy), giving it genuinely low perplexity on text it generates —
    /// the stand-in for a trained OPT checkpoint (DESIGN.md §2).
    ///
    /// One [`Rng`] stream of `seed` draws every parameter in a fixed order:
    /// per block the weights then the bias of `wq`, `wk`, `wv`, `wo`,
    /// `fc1`, `fc2`, then the embedding and the positions, each matrix
    /// row-major. The matrices' rows are drawn on a crew (a worker per 2²⁰
    /// draws, none for `tiny()`), each part from its own place in the
    /// stream, so the weights are the same bits at every thread count.
    pub fn teacher(cfg: ModelConfig, seed: u64) -> Self {
        assert!(
            cfg.d_model.is_multiple_of(cfg.heads),
            "heads must divide d_model"
        );
        let d = cfg.d_model;
        let normals = cfg.layers * (4 * d + 2 * cfg.ffn) * d + (cfg.vocab + cfg.max_seq) * d;
        let size = 1 + normals * NORMAL_DRAWS / DRAWS_PER_WORKER;
        Crew::open(size.min(thread_count()), |crew| {
            let mut rng = Rng::new(seed);
            let g = |rng: &mut Rng, rows, cols, scale| Draws::matrix(crew, rng, rows, cols, scale);
            // Residual-stream scales ≈ 1/sqrt(d) keep activations O(1);
            // the embedding is boosted so logits (tied head) are peaked.
            let s = 1.0 / (d as f64).sqrt();
            let lin = |rng: &mut Rng, out: usize, inp: usize| Linear {
                weights: LinearWeights::Fp(g(rng, out, inp, s)),
                bias: (0..out).map(|_| rng.normal() * 0.01).collect(),
            };
            let blocks = (0..cfg.layers)
                .map(|_| Block {
                    ln1: LayerNorm::identity(d),
                    wq: lin(&mut rng, d, d),
                    wk: lin(&mut rng, d, d),
                    wv: lin(&mut rng, d, d),
                    wo: lin(&mut rng, d, d),
                    ln2: LayerNorm::identity(d),
                    fc1: lin(&mut rng, cfg.ffn, d),
                    fc2: lin(&mut rng, d, cfg.ffn),
                })
                .collect();
            Self {
                cfg,
                embed: g(&mut rng, cfg.vocab, d, 3.0 * s),
                pos: g(&mut rng, cfg.max_seq, d, 0.5 * s),
                blocks,
                ln_f: LayerNorm::identity(d),
            }
        })
    }

    /// Block `b` of the tied LM head `h · embedᵀ`, appended to `out`: the
    /// logits of vocabulary rows `b·HEAD_PASS..`, against `embed`'s rows
    /// where they lie — one [`HEAD_PASS`]-row pass over `h` ([`dot_rows`]),
    /// or the `vocab % HEAD_PASS` tail one row at a time. Every logit is
    /// bit-identical to `h.matmul(&embed.transposed())`.
    fn head_block(&self, h: &[f64], b: usize, out: &mut Vec<f64>) {
        let d = self.cfg.d_model;
        let v = b * HEAD_PASS..((b + 1) * HEAD_PASS).min(self.cfg.vocab);
        let (at, rows) = (out.len(), &self.embed.as_slice()[v.start * d..v.end * d]);
        out.resize(at + v.len(), 0.0);
        if v.len() == HEAD_PASS {
            dot_rows::<HEAD_PASS>(h, rows, &mut out[at..]);
        } else {
            dot_rows::<1>(h, rows, &mut out[at..]);
        }
    }

    /// Attention units `units` of layer `li` ([`Op::Attend`]: one head of
    /// one fused row each, row-major), appended to `out`: each row's
    /// context over its session's cache and its own chunk's earlier rows,
    /// never another session's. The units of one row are computed together,
    /// and consecutive rows of one session share one view of its pool.
    fn attend(&self, w: &StepWork<'_>, li: usize, units: Range<usize>, out: &mut Vec<f64>) {
        let cfg = &self.cfg;
        let (d, dh) = (cfg.d_model, cfg.d_model / cfg.heads);
        let scale = 1.0 / (dh as f64).sqrt();
        let mut held = None;
        let mut unit = units.start;
        while unit < units.end {
            // Heads h0..h1 of fused row r.
            let (r, h0) = (unit / cfg.heads, unit % cfg.heads);
            let h1 = (units.end - r * cfg.heads).min(cfg.heads);
            unit = r * cfg.heads + h1;
            let (i, t) = w.row_of[r];
            if held.as_ref().is_some_and(|&(s, _)| s != i) {
                held = None; // one lock at a time
            }
            let (_, view) = held.get_or_insert_with(|| (i, w.kv[i].0.view(&w.kv[i].1, li)));
            // Causal: row t of session i sees its session's cache plus its
            // own chunk rows 0..=t (pushed before the phase). Positions u
            // ascend across the view's block runs; a score is Σⱼ in j order
            // then × scale, a ctx element accumulates over u ascending. The
            // head-major scores sit past the row's heads in `out` until
            // they are done.
            let (n, cols) = (w.p0[i] + t + 1, h0 * dh..h1 * dh);
            let (qr, at) = (&w.x.row(r)[cols.clone()], out.len());
            out.resize(at + cols.len() + (h1 - h0) * n, 0.0);
            let (cr, scores) = out[at..].split_at_mut(cols.len());
            let keys = view.runs(n).flat_map(|(k, _)| k.chunks_exact(d));
            for (u, kr) in keys.enumerate() {
                let heads = qr.chunks_exact(dh).zip(kr[cols.clone()].chunks_exact(dh));
                for (head, (qh, kh)) in heads.enumerate() {
                    let s = qh.iter().zip(kh).fold(0.0, |s, (a, b)| s + a * b);
                    scores[head * n + u] = s * scale;
                }
            }
            scores.chunks_exact_mut(n).for_each(softmax_row);
            let values = view.runs(n).flat_map(|(_, v)| v.chunks_exact(d));
            for (u, vr) in values.enumerate() {
                let heads = cr
                    .chunks_exact_mut(dh)
                    .zip(vr[cols.clone()].chunks_exact(dh));
                for (head, (ch, vh)) in heads.enumerate() {
                    let a = scores[head * n + u];
                    for (c, v) in ch.iter_mut().zip(vh) {
                        *c += a * v;
                    }
                }
            }
            out.truncate(at + cols.len());
        }
    }

    /// Next-token logits for every position (`seq × vocab`), via the tied
    /// LM head: the [`Transformer::forward_batch`] body over one session
    /// with a fresh [`Transformer::new_cache`], so row `t` is bit-identical to the
    /// `t`-th [`Transformer::decode_step`] of the same tokens.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty, exceeds `max_seq`, or contains
    /// out-of-vocabulary ids.
    pub fn logits(&self, tokens: &[usize], backend: &Backend) -> Mat<f64> {
        let (chunks, mut caches) = ([tokens], [self.new_cache()]);
        self.one_step(tokens.len(), backend, |crew| {
            self.forward(crew, &chunks, &mut caches, backend, None)
        })
    }

    /// [`Transformer::logits`] that also captures each linear layer's input
    /// activations, indexed `layer·6 + {wq,wk,wv,wo,fc1,fc2}`. Each entry
    /// is a list of `seq × in_features` matrices (one per call).
    pub fn logits_with_capture(
        &self,
        tokens: &[usize],
        backend: &Backend,
        capture: &mut Vec<Vec<Mat<f64>>>,
    ) -> Mat<f64> {
        assert_eq!(capture.len(), self.blocks.len() * 6, "capture slots");
        let (chunks, mut caches) = ([tokens], [self.new_cache()]);
        self.one_step(tokens.len(), backend, |crew| {
            self.forward(crew, &chunks, &mut caches, backend, Some(capture))
        })
    }

    /// Create an empty KV cache for incremental decoding, over a private,
    /// unbounded pool whose one block holds the whole context (`max_seq`
    /// positions): attention reads the session's rows as one run.
    pub fn new_cache(&self) -> KvCache {
        KvCache::paged(&BlockPool::for_model(&self.cfg, self.cfg.max_seq, None))
    }

    /// Create an empty KV cache drawing blocks from a shared `pool`.
    /// Numerically indistinguishable from [`Transformer::new_cache`]:
    /// attention reads the rows in place, block run by block run in
    /// position order, so logits and sampled tokens are bit-identical for
    /// every block size (pinned by this crate's tests and `figlut-serve`'s
    /// property suite).
    ///
    /// # Panics
    ///
    /// Panics if the pool's layer count or width disagree with the model.
    pub fn new_paged_cache(&self, pool: &BlockPool) -> KvCache {
        assert_eq!(
            pool.layers(),
            self.cfg.layers,
            "pool layer count disagrees with the model"
        );
        assert_eq!(
            pool.d_model(),
            self.cfg.d_model,
            "pool row width disagrees with the model"
        );
        KvCache::paged(pool)
    }

    /// One incremental decoding step: consume `token` at the cache's
    /// current position and return the next-token logits.
    ///
    /// Bit-identical to the same row of [`Transformer::logits`] over the
    /// whole sequence — one body, only the K/V recomputation is skipped.
    /// This is the serving-style execution mode whose GEMV shapes
    /// (`batch × d` with batch = sequences in flight) the paper's Table V
    /// evaluates.
    ///
    /// # Panics
    ///
    /// Panics if the cache is full (`max_seq`) or the token is out of
    /// vocabulary.
    pub fn decode_step(&self, token: usize, cache: &mut KvCache, backend: &Backend) -> Vec<f64> {
        self.prefill(&[token], cache, backend).row(0).to_vec()
    }

    /// Consume a chunk of tokens starting at the cache's current position
    /// and return the next-token logits for every consumed position
    /// (`chunk × vocab`).
    ///
    /// The serving *prefill* path: the whole chunk flows through each
    /// linear layer as one `chunk × d` GEMM while attention stays causal
    /// over cache + earlier chunk rows, so one chunk, token by token, or any
    /// split in between yields bit-identical logits and cache contents
    /// (pinned by `tests/prop_decode.rs`). Thin wrapper over
    /// [`Transformer::forward_batch`] with a single session.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is empty, overflows `max_seq`, or contains
    /// out-of-vocabulary ids.
    pub fn prefill(&self, tokens: &[usize], cache: &mut KvCache, backend: &Backend) -> Mat<f64> {
        self.forward_batch(&[tokens], std::slice::from_mut(cache), backend)
    }

    /// One fused **mixed step** over independent sessions: session `i`
    /// consumes `chunks[i]` (≥ 1 token-rows) starting at its own cache
    /// position, and the `total-rows × vocab` next-token logits come back
    /// session-major (session 0's chunk rows first, then session 1's, …).
    /// `caches[i]` is session `i`'s cache, owned or lent (`&mut KvCache`).
    ///
    /// The forward path the serving layer schedules: decode rows (chunks of
    /// length 1) and prefill chunks ride one `rows × d` GEMM per linear
    /// layer over the shared (packed) weights — the paper's weight-traffic
    /// amortization — while attention stays strictly per-session (a row
    /// attends causally to its own session's cache and earlier chunk rows).
    ///
    /// **Bit-identity.** Every per-row operation reads only that row and
    /// every backend computes GEMM output rows independently in a fixed
    /// order, so each returned row is bit-identical to running its session
    /// alone, under any chunking or co-scheduled mix (pinned by
    /// `tests/prop_decode.rs` and `figlut-serve`'s property suite).
    /// [`Transformer::prefill`], [`Transformer::decode_batch`] and
    /// [`Transformer::decode_step`] are thin wrappers over this method.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, a `chunks`/`caches` length mismatch, an
    /// empty chunk, a chunk that overflows its session's `max_seq` cache,
    /// or an out-of-vocabulary token.
    pub fn forward_batch<C: BorrowMut<KvCache>>(
        &self,
        chunks: &[&[usize]],
        caches: &mut [C],
        backend: &Backend,
    ) -> Mat<f64> {
        let rows = chunks.iter().map(|c| c.len()).sum();
        self.one_step(rows, backend, |crew| {
            self.forward_on(crew, chunks, caches, backend)
        })
    }

    /// [`Transformer::forward_batch`] on a crew the caller opened with
    /// [`Transformer::open_crew`] — a serving run's, which lives across
    /// its steps. The step runs on as many of the crew's threads as its
    /// look-ups repay; the bits are the same on any crew.
    ///
    /// # Panics
    ///
    /// As [`Transformer::forward_batch`].
    pub fn forward_on<'a, C: BorrowMut<KvCache>>(
        &'a self,
        crew: &StepCrew<'_, 'a>,
        chunks: &[&[usize]],
        caches: &mut [C],
        backend: &Backend,
    ) -> Mat<f64> {
        let logits = self.forward(crew, chunks, caches, backend, None);
        // Phase accounting: a single-token chunk is a decode row, a longer
        // chunk prefill rows (the scheduler's definition, so the counters
        // reconcile with `Σ StepRecord::rows()`).
        if figlut_trace::enabled() {
            figlut_trace::counters::bump_model_forward_calls(1);
            for chunk in chunks {
                if chunk.len() == 1 {
                    figlut_trace::counters::bump_model_decode_rows(1);
                } else {
                    figlut_trace::counters::bump_model_prefill_rows(chunk.len() as u64);
                }
            }
        }
        logits
    }

    /// Run `body` on a crew for steps of up to `rows` token rows under
    /// `backend`: as many threads as the largest step runs on
    /// (`step_width` of [`Transformer::step_lookups`], at most
    /// `figlut_exec::parallel::thread_count()`), so no worker at all when
    /// even that step is below the rule. A serving run opens one for its
    /// largest possible step and runs every step on it with
    /// [`Transformer::forward_on`].
    pub fn open_crew<'a, T>(
        &'a self,
        rows: usize,
        backend: &Backend,
        body: impl FnOnce(&StepCrew<'_, 'a>) -> T,
    ) -> T {
        Crew::open(self.width(rows, backend), body)
    }

    /// Run `body` — one step of `rows` token rows — on a crew of its own,
    /// spawned only when the step repays the spawns (`crew_size`).
    fn one_step<'a, T>(
        &'a self,
        rows: usize,
        backend: &Backend,
        body: impl FnOnce(&StepCrew<'_, 'a>) -> T,
    ) -> T {
        let lookups = self.step_lookups(rows, backend);
        Crew::open(crew_size(lookups, thread_count()), body)
    }

    /// Threads of an open crew a step of `rows` token rows runs on.
    fn width(&self, rows: usize, backend: &Backend) -> usize {
        step_width(self.step_lookups(rows, backend), thread_count())
    }

    /// The one transformer body: [`Transformer::forward_on`] without the
    /// trace accounting, and with an optional `capture` hook receiving each
    /// linear layer's input (see [`Transformer::logits_with_capture`]).
    fn forward<'a, C: BorrowMut<KvCache>>(
        &'a self,
        crew: &StepCrew<'_, 'a>,
        chunks: &[&[usize]],
        caches: &mut [C],
        backend: &Backend,
        mut capture: Option<&mut Vec<Vec<Mat<f64>>>>,
    ) -> Mat<f64> {
        let cfg = &self.cfg;
        assert!(!chunks.is_empty(), "empty batch");
        assert_eq!(chunks.len(), caches.len(), "chunks/caches length mismatch");
        let mut w = StepWork::default();
        w.p0.extend(caches.iter().map(|c| c.borrow().len()));
        // (session, offset-in-chunk) of every fused row, session-major.
        for (i, (chunk, &p)) in chunks.iter().zip(&w.p0).enumerate() {
            assert!(!chunk.is_empty(), "session {i}: empty chunk");
            assert!(
                p + chunk.len() <= cfg.max_seq,
                "session {i}: KV cache full ({p} + {} > {})",
                chunk.len(),
                cfg.max_seq
            );
            for &tok in *chunk {
                assert!(
                    tok < cfg.vocab,
                    "session {i}: token {tok} out of vocabulary"
                );
            }
            w.row_of.extend((0..chunk.len()).map(|t| (i, t)));
        }
        let rows = w.row_of.len();
        // The step runs every phase below — GEMM and row work — on the
        // threads its summed GEMM work repays.
        crew.step(self.width(rows, backend), |crew| {
            let mut keep = |slot: usize, m: &Mat<f64>| {
                if let Some(cap) = capture.as_deref_mut() {
                    cap[slot].push(m.clone());
                }
            };
            let d = cfg.d_model;
            let mut x = Mat::from_fn(rows, d, |r, c| {
                let (i, t) = w.row_of[r];
                self.embed[(chunks[i][t], c)] + self.pos[(w.p0[i] + t, c)]
            });
            for (li, block) in self.blocks.iter().enumerate() {
                let h = w.run(crew, Op::Norm(&block.ln1), &mut x, d);
                (li * 6..li * 6 + 3).for_each(|slot| keep(slot, &h)); // wq, wk, wv
                let [mut q, k, v] = block.qkv(&h, backend, crew);
                for (r, &(i, _)) in w.row_of.iter().enumerate() {
                    caches[i].borrow_mut().push_row(li, k.row(r), v.row(r));
                }
                // Each session's pool and block table as the pushes left
                // them, lent to the attention parts for the phase (a phase
                // that panics takes them with it: a failed step's caches
                // are not stepped again).
                w.kv.extend(caches.iter_mut().map(|c| c.borrow_mut().lend()));
                let ctx = w.run(crew, Op::Attend(self, li), &mut q, d);
                for ((_, table), cache) in w.kv.drain(..).zip(caches.iter_mut()) {
                    cache.borrow_mut().take_back(table);
                }
                keep(li * 6 + 3, &ctx);
                add_rows(&mut x, &block.wo.forward(&ctx, backend, crew));
                let h = w.run(crew, Op::Norm(&block.ln2), &mut x, d);
                keep(li * 6 + 4, &h);
                let mut up = block.fc1.forward(&h, backend, crew);
                let act = w.run(crew, Op::Gelu, &mut up, cfg.ffn);
                keep(li * 6 + 5, &act);
                add_rows(&mut x, &block.fc2.forward(&act, backend, crew));
            }
            let mut h = w.run(crew, Op::Norm(&self.ln_f), &mut x, d);
            w.run(crew, Op::Head(self), &mut h, cfg.vocab)
        })
    }

    /// Table look-ups a step of `rows` token rows computes in the exec
    /// kernels under `backend`: `ExecPlan::lookups(rows)` summed over every
    /// packed linear. This is what sizes the step's share of an open crew
    /// (`figlut_exec::parallel::step_width(step_lookups, threads)`) and a
    /// crew opened for it alone (`crew_size`); 0 under any other backend.
    pub fn step_lookups(&self, rows: usize, backend: &Backend) -> usize {
        if !matches!(backend, Backend::Exec(_)) {
            return 0;
        }
        let lookups = self
            .blocks
            .iter()
            .flat_map(Block::linears)
            .map(|l| match &l.weights {
                LinearWeights::Packed(_, plan) => plan.lookups(rows),
                _ => 0,
            });
        lookups.sum()
    }

    /// One decoding step for a *batch of independent sessions*: consume
    /// `tokens[i]` at session `i`'s current position (which may differ per
    /// session) and return the `batch × vocab` next-token logits.
    ///
    /// The continuous-batching decode step: one `batch × d` GEMM per linear
    /// layer — under `Backend::Exec` on a packed model, one stream of each
    /// packed plane word indexing every session's tables — and row `i` is
    /// **bit-identical** to [`Transformer::decode_step`] alone on session
    /// `i`. Thin wrapper over [`Transformer::forward_batch`] with every
    /// session contributing a chunk of exactly one token.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, `tokens` and `caches` disagree in
    /// length, any session's cache is full, or any token is out of
    /// vocabulary.
    pub fn decode_batch<C: BorrowMut<KvCache>>(
        &self,
        tokens: &[usize],
        caches: &mut [C],
        backend: &Backend,
    ) -> Mat<f64> {
        let chunks: Vec<&[usize]> = tokens.chunks(1).collect();
        self.forward_batch(&chunks, caches, backend)
    }

    /// Autoregressively sample `len` tokens after a BOS token (id 0) at the
    /// given softmax temperature. Deterministic in `rng`.
    ///
    /// Decodes incrementally through one [`Transformer::new_cache`] — each token's
    /// logits are bit-identical to the last row of [`Transformer::logits`]
    /// over the prefix, at O(len) forward rows instead of O(len²).
    pub fn sample(&self, len: usize, temperature: f64, rng: &mut Rng) -> Vec<usize> {
        assert!(len < self.cfg.max_seq, "sample length exceeds max_seq");
        let mut toks = vec![0usize];
        let mut cache = self.new_cache();
        for _ in 0..len {
            let last = self.decode_step(toks[toks.len() - 1], &mut cache, &Backend::Exact);
            let max = last.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = last
                .iter()
                .map(|&l| ((l - max) / temperature).exp())
                .collect();
            toks.push(rng.categorical(&weights));
        }
        toks
    }

    /// This model with every quantizable linear's weights replaced by
    /// `weights(idx, linear)` (`idx` layer-major, as in
    /// [`Transformer::map_linears`]), built without copying any linear's
    /// weights: the embeddings, LayerNorms and biases are cloned, and each
    /// linear's new weights are computed from the borrowed old ones. The
    /// one constructor of the preparation pipeline (`calibrate`), so it
    /// never holds a second FP copy of the model (DESIGN.md §1).
    pub(crate) fn with_linears(
        &self,
        mut weights: impl FnMut(usize, &Linear) -> LinearWeights,
    ) -> Self {
        let mut idx = 0;
        let mut linear = |lin: &Linear| {
            let weights = weights(idx, lin);
            idx += 1;
            Linear {
                weights,
                bias: lin.bias.clone(),
            }
        };
        let blocks = (self.blocks.iter())
            .map(|b| {
                let [wq, wk, wv, wo, fc1, fc2] = b.linears().map(&mut linear);
                Block {
                    ln1: b.ln1.clone(),
                    wq,
                    wk,
                    wv,
                    wo,
                    ln2: b.ln2.clone(),
                    fc1,
                    fc2,
                }
            })
            .collect();
        Self {
            cfg: self.cfg,
            embed: self.embed.clone(),
            pos: self.pos.clone(),
            blocks,
            ln_f: self.ln_f.clone(),
        }
    }

    /// Apply `f` to every quantizable linear (layer-major order).
    pub fn map_linears(&mut self, mut f: impl FnMut(usize, &mut Linear)) {
        let mut idx = 0;
        for block in &mut self.blocks {
            for lin in block.linears_mut() {
                f(idx, lin);
                idx += 1;
            }
        }
    }

    /// The weights of every quantizable linear, layer-major.
    pub fn linear_weights(&self) -> Vec<&LinearWeights> {
        self.blocks
            .iter()
            .flat_map(|b| b.linears().map(|l| &l.weights))
            .collect()
    }

    /// Parameter-weighted average bits across quantizable linears.
    pub fn average_bits(&self) -> f64 {
        let mut bits = 0.0;
        let mut params = 0.0;
        for w in self.linear_weights() {
            let (m, n) = w.shape();
            let p = (m * n) as f64;
            bits += w.bits() * p;
            params += p;
        }
        bits / params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_quant::uniform::rtn;
    use figlut_quant::{BcqParams, RtnParams};

    #[test]
    fn forward_shapes() {
        let m = Transformer::teacher(ModelConfig::tiny(), 1);
        let logits = m.logits(&[0, 5, 9], &Backend::Exact);
        assert_eq!(logits.shape(), (3, 96));
    }

    #[test]
    fn layer_norm_is_bit_equal_to_the_per_element_formula() {
        // The reference recomputes mean and variance for every element;
        // `forward` computes them once per row. Random rows, non-trivial
        // γ/β, widths on both sides of a power of two.
        let mut rng = Rng::new(9);
        for d in [1usize, 7, 48, 65] {
            let ln = LayerNorm {
                gamma: (0..d).map(|_| rng.uniform() * 2.0 - 1.0).collect(),
                beta: (0..d).map(|_| rng.uniform() - 0.5).collect(),
            };
            let x = Mat::from_fn(5, d, |_, _| (rng.uniform() - 0.5) * 8.0);
            let want = Mat::from_fn(5, d, |r, c| {
                let row = x.row(r);
                let mean: f64 = row.iter().sum::<f64>() / d as f64;
                let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
                (x[(r, c)] - mean) / (var + 1e-5).sqrt() * ln.gamma[c] + ln.beta[c]
            });
            let mut got = Vec::new();
            (0..5).for_each(|r| ln.row(x.row(r), &mut got));
            assert_eq!(got, want.as_slice(), "d={d}");
        }
    }

    #[test]
    fn lm_head_is_bit_equal_to_matmul_against_the_transpose() {
        // Vocab 96 is all 8-row passes; 101 and 5 run the scalar tail.
        for vocab in [96, 101, 5] {
            let cfg = ModelConfig {
                vocab,
                ..ModelConfig::tiny()
            };
            let m = Transformer::teacher(cfg, 11);
            let mut rng = Rng::new(3);
            // Exact zeros exercise the zero-skip.
            let h = Mat::from_fn(
                4,
                48,
                |_, c| {
                    if c % 5 == 0 {
                        0.0
                    } else {
                        rng.uniform() - 0.5
                    }
                },
            );
            let want = h.matmul(&m.embed.transposed());
            let mut got = Vec::new();
            for r in 0..h.rows() {
                (0..vocab.div_ceil(HEAD_PASS)).for_each(|b| m.head_block(h.row(r), b, &mut got));
            }
            assert_eq!(got, want.as_slice(), "vocab {vocab}");
        }
    }

    #[test]
    fn deterministic_construction_and_forward() {
        let a = Transformer::teacher(ModelConfig::tiny(), 42);
        let b = Transformer::teacher(ModelConfig::tiny(), 42);
        let la = a.logits(&[0, 1, 2, 3], &Backend::Exact);
        let lb = b.logits(&[0, 1, 2, 3], &Backend::Exact);
        assert_eq!(la.as_slice(), lb.as_slice());
        let c = Transformer::teacher(ModelConfig::tiny(), 43);
        let lc = c.logits(&[0, 1, 2, 3], &Backend::Exact);
        assert_ne!(la.as_slice(), lc.as_slice());
    }

    #[test]
    fn causality() {
        // Changing a future token must not change past logits.
        let m = Transformer::teacher(ModelConfig::tiny(), 7);
        let l1 = m.logits(&[0, 4, 8, 15], &Backend::Exact);
        let l2 = m.logits(&[0, 4, 8, 16], &Backend::Exact);
        for t in 0..3 {
            for v in 0..96 {
                assert_eq!(l1[(t, v)], l2[(t, v)], "t={t} v={v}");
            }
        }
        // …but the logits at the changed position do differ upstream of it.
        assert_ne!(l1.row(3), l2.row(3));
    }

    #[test]
    fn teacher_is_peaked() {
        // The synthetic teacher must produce low-entropy next-token
        // distributions (otherwise perplexity experiments are vacuous).
        let m = Transformer::teacher(ModelConfig::tiny(), 11);
        let logits = m.logits(&[0, 3, 17, 40, 2], &Backend::Exact);
        let mut mean_entropy = 0.0;
        for t in 0..logits.rows() {
            let mut row = logits.row(t).to_vec();
            softmax_row(&mut row);
            let h: f64 = row.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum();
            mean_entropy += h;
        }
        mean_entropy /= logits.rows() as f64;
        let uniform_entropy = (96f64).ln();
        assert!(
            mean_entropy < 0.8 * uniform_entropy,
            "entropy {mean_entropy} vs uniform {uniform_entropy}"
        );
    }

    #[test]
    fn sampling_is_deterministic_and_in_vocab() {
        let m = Transformer::teacher(ModelConfig::tiny(), 5);
        let mut r1 = Rng::new(9);
        let mut r2 = Rng::new(9);
        let s1 = m.sample(12, 1.0, &mut r1);
        let s2 = m.sample(12, 1.0, &mut r2);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 13);
        assert!(s1.iter().all(|&t| t < 96));
    }

    #[test]
    fn capture_collects_all_slots() {
        let m = Transformer::teacher(ModelConfig::tiny(), 3);
        let mut cap: Vec<Vec<Mat<f64>>> = vec![Vec::new(); 2 * 6];
        let _ = m.logits_with_capture(&[0, 1, 2, 3, 4], &Backend::Exact, &mut cap);
        for (i, slot) in cap.iter().enumerate() {
            assert_eq!(slot.len(), 1, "slot {i}");
            let expect_cols = if i % 6 == 5 { 192 } else { 48 };
            assert_eq!(slot[0].shape(), (5, expect_cols), "slot {i}");
        }
    }

    #[test]
    fn average_bits_fp_is_16() {
        let m = Transformer::teacher(ModelConfig::tiny(), 2);
        assert_eq!(m.average_bits(), 16.0);
    }

    #[test]
    fn kv_cache_decoding_matches_full_forward() {
        // Incremental decoding must reproduce the teacher-forced logits at
        // every position bit for bit (same f64 operations, same order).
        let m = Transformer::teacher(ModelConfig::tiny(), 13);
        let toks = [0usize, 7, 19, 3, 88, 42];
        let full = m.logits(&toks, &Backend::Exact);
        let mut cache = m.new_cache();
        assert!(cache.is_empty());
        for (t, &tok) in toks.iter().enumerate() {
            let step = m.decode_step(tok, &mut cache, &Backend::Exact);
            assert_eq!(step, full.row(t), "t={t}");
        }
        assert_eq!(cache.len(), toks.len());
    }

    #[test]
    fn prefill_chunk_bit_matches_step_by_step() {
        // Any chunking of the prompt must produce bit-identical logits and
        // cache contents (the per-row operation order is the same).
        let m = Transformer::teacher(ModelConfig::tiny(), 21);
        let toks = [0usize, 7, 19, 3, 88, 42, 11];
        let mut by_step = m.new_cache();
        let mut step_logits: Vec<Vec<f64>> = Vec::new();
        for &tok in &toks {
            step_logits.push(m.decode_step(tok, &mut by_step, &Backend::Exact));
        }
        for split in [1usize, 2, 3, 7] {
            let mut cache = m.new_cache();
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for chunk in toks.chunks(split) {
                let l = m.prefill(chunk, &mut cache, &Backend::Exact);
                for t in 0..l.rows() {
                    rows.push(l.row(t).to_vec());
                }
            }
            assert_eq!(rows, step_logits, "split={split}");
            assert_eq!(cache.len(), by_step.len());
            assert_eq!(cache.snapshot(), by_step.snapshot(), "split={split}");
        }
    }

    #[test]
    fn decode_batch_rows_bit_match_solo_steps() {
        // Sessions at *different* positions, decoded together: each row must
        // equal the solo decode of that session, bit for bit.
        let m = Transformer::teacher(ModelConfig::tiny(), 23);
        let prompts: [&[usize]; 3] = [&[0, 5], &[0, 9, 33, 2], &[0, 61]];
        let steps: [usize; 3] = [4, 2, 3];
        // Solo reference: prefill + decode each session alone.
        let mut solo_logits: Vec<Vec<Vec<f64>>> = Vec::new();
        for (p, &n) in prompts.iter().zip(&steps) {
            let mut cache = m.new_cache();
            let _ = m.prefill(p, &mut cache, &Backend::Exact);
            let mut out = Vec::new();
            for s in 0..n {
                out.push(m.decode_step(40 + s, &mut cache, &Backend::Exact));
            }
            solo_logits.push(out);
        }
        // Batched: same sessions advance together while any has steps left.
        let mut caches: Vec<KvCache> = Vec::new();
        for p in prompts {
            let mut cache = m.new_cache();
            let _ = m.prefill(p, &mut cache, &Backend::Exact);
            caches.push(cache);
        }
        let mut s = 0usize;
        loop {
            let live: Vec<usize> = (0..3).filter(|&i| s < steps[i]).collect();
            if live.is_empty() {
                break;
            }
            let tokens: Vec<usize> = live.iter().map(|_| 40 + s).collect();
            let mut batch_caches: Vec<KvCache> = live.iter().map(|&i| caches[i].clone()).collect();
            let l = m.decode_batch(&tokens, &mut batch_caches, &Backend::Exact);
            for (row, &i) in live.iter().enumerate() {
                assert_eq!(l.row(row), &solo_logits[i][s][..], "session {i} step {s}");
                caches[i] = batch_caches[row].clone();
            }
            s += 1;
        }
    }

    #[test]
    fn forward_batch_mixed_chunks_bit_match_solo_runs() {
        // One fused step mixing a decode row, a mid-prompt chunk, and a
        // fresh prefill chunk: every returned row must equal the same row
        // computed with the session running alone, bit for bit.
        let m = Transformer::teacher(ModelConfig::tiny(), 29);
        let histories: [&[usize]; 3] = [&[0, 5, 9, 2], &[0, 7, 19, 3, 88], &[0, 61, 4]];
        let splits: [usize; 3] = [3, 2, 0]; // tokens already consumed
                                            // Solo reference: prefill the consumed part, then the rest alone.
        let mut solo_rows: Vec<Vec<Vec<f64>>> = Vec::new();
        let mut caches: Vec<KvCache> = Vec::new();
        for (h, &s) in histories.iter().zip(&splits) {
            let mut cache = m.new_cache();
            if s > 0 {
                let _ = m.prefill(&h[..s], &mut cache, &Backend::Exact);
            }
            let mut solo_cache = cache.clone();
            let l = m.prefill(&h[s..], &mut solo_cache, &Backend::Exact);
            solo_rows.push((0..l.rows()).map(|t| l.row(t).to_vec()).collect());
            caches.push(cache);
        }
        // Fused: all three remainders in one forward_batch call.
        let chunks: Vec<&[usize]> = histories
            .iter()
            .zip(&splits)
            .map(|(h, &s)| &h[s..])
            .collect();
        let logits = m.forward_batch(&chunks, &mut caches, &Backend::Exact);
        let mut row = 0usize;
        for (i, rows) in solo_rows.iter().enumerate() {
            for (t, want) in rows.iter().enumerate() {
                assert_eq!(logits.row(row), &want[..], "session {i} chunk row {t}");
                row += 1;
            }
        }
        assert_eq!(row, logits.rows());
        // The fused call advanced every cache to its full history length.
        for (cache, h) in caches.iter().zip(&histories) {
            assert_eq!(cache.len(), h.len());
        }
    }

    #[test]
    fn paged_cache_bit_matches_contiguous_for_all_block_sizes() {
        // The tentpole's numerics claim: paging is storage-only. Logits and
        // cache contents are bit-identical to the contiguous layout for
        // any block size.
        let m = Transformer::teacher(ModelConfig::tiny(), 31);
        let toks = [0usize, 7, 19, 3, 88, 42, 11, 5];
        let mut reference = m.new_cache();
        let mut ref_logits = Vec::new();
        for &tok in &toks {
            ref_logits.push(m.decode_step(tok, &mut reference, &Backend::Exact));
        }
        for bs in [1usize, 2, 7, 16, 64] {
            let pool = BlockPool::for_model(&m.cfg, bs, None);
            let mut cache = m.new_paged_cache(&pool);
            for (t, &tok) in toks.iter().enumerate() {
                let l = m.decode_step(tok, &mut cache, &Backend::Exact);
                assert_eq!(l, ref_logits[t], "bs={bs} t={t}");
            }
            assert_eq!(cache.snapshot(), reference.snapshot(), "bs={bs}");
            drop(cache);
            assert_eq!(pool.live_blocks(), 0, "bs={bs}: blocks leaked");
        }
    }

    #[test]
    fn swap_restore_mid_decode_is_invisible_to_logits() {
        // Preempt a session between any two decode steps; the remaining
        // steps must be bit-identical to never having been preempted.
        let m = Transformer::teacher(ModelConfig::tiny(), 37);
        let toks = [0usize, 7, 19, 3, 88, 42];
        let mut reference = m.new_cache();
        let mut ref_logits = Vec::new();
        for &tok in &toks {
            ref_logits.push(m.decode_step(tok, &mut reference, &Backend::Exact));
        }
        for preempt_at in 1..toks.len() {
            let pool = BlockPool::for_model(&m.cfg, 2, None);
            let mut cache = m.new_paged_cache(&pool);
            for (t, &tok) in toks.iter().enumerate() {
                if t == preempt_at {
                    let out = cache.swap_out();
                    assert_eq!(pool.live_blocks(), 0, "swap-out frees the blocks");
                    assert_eq!(cache.restore(), out);
                }
                let l = m.decode_step(tok, &mut cache, &Backend::Exact);
                assert_eq!(l, ref_logits[t], "preempt_at={preempt_at} t={t}");
            }
        }
    }

    #[test]
    fn adopted_prefix_prefill_bit_matches_private_storage() {
        // An adopter feeds only the prompt rows its cache has not consumed
        // — the private tail, or the last row of a wholly shared prompt —
        // and still samples from the solo run's last logits row over the
        // solo run's cache contents.
        let m = Transformer::teacher(ModelConfig::tiny(), 41);
        let shared: Vec<usize> = vec![0, 7, 19, 3, 88, 42, 11, 5];
        let pool = BlockPool::for_model(&m.cfg, 4, None);
        let mut registry = crate::kv::PrefixRegistry::new(&pool);
        let mut first = m.new_paged_cache(&pool);
        let _ = m.prefill(&shared, &mut first, &Backend::Exact);
        registry.register(&shared, &first);

        let mut tailed = shared.clone();
        tailed.extend([9usize, 2]);
        for (prompt, consumed, allocs) in [(&tailed, 8, 1), (&shared, 7, 0)] {
            let mut solo = m.new_cache();
            let solo_logits = m.prefill(prompt, &mut solo, &Backend::Exact);

            let mut adopted = m.new_paged_cache(&pool);
            assert_eq!(registry.adopt_into(prompt, &mut adopted), 8);
            assert_eq!(adopted.len(), consumed);
            let live_before = pool.live_blocks();
            let logits = m.prefill(&prompt[consumed..], &mut adopted, &Backend::Exact);
            assert_eq!(logits.rows(), prompt.len() - consumed);
            assert_eq!(
                logits.row(logits.rows() - 1),
                solo_logits.row(prompt.len() - 1),
                "prompt of {}",
                prompt.len()
            );
            assert_eq!(adopted.snapshot(), solo.snapshot());
            assert_eq!(
                pool.live_blocks(),
                live_before + allocs,
                "only the private tail allocates"
            );
        }
    }

    #[test]
    fn registry_ignores_caches_of_other_pools() {
        // A second pool's cache and a `new_cache` (its own private pool):
        // their block ids mean nothing in the registry's pool.
        let m = Transformer::teacher(ModelConfig::tiny(), 43);
        let prompt = [0usize, 7, 19, 3, 88, 42, 11, 5];
        let pool = BlockPool::for_model(&m.cfg, 4, None);
        let other = BlockPool::for_model(&m.cfg, 4, None);
        let mut registry = crate::kv::PrefixRegistry::new(&pool);
        for mut cache in [m.new_paged_cache(&other), m.new_cache()] {
            let _ = m.prefill(&prompt, &mut cache, &Backend::Exact);
            let live = (pool.live_blocks(), other.live_blocks());
            registry.register(&prompt, &cache);
            assert!(registry.is_empty());
            assert_eq!((pool.live_blocks(), other.live_blocks()), live);
        }
        assert_eq!(other.live_blocks(), 0, "the foreign cache freed its blocks");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn decode_batch_checks_lengths() {
        let m = Transformer::teacher(ModelConfig::tiny(), 1);
        let mut caches = vec![m.new_cache()];
        let _ = m.decode_batch(&[0, 1], &mut caches, &Backend::Exact);
    }

    #[test]
    #[should_panic(expected = "KV cache full")]
    fn prefill_overflow_panics() {
        let m = Transformer::teacher(ModelConfig::tiny(), 13);
        let mut cache = m.new_cache();
        let toks: Vec<usize> = vec![0; m.cfg.max_seq + 1];
        let _ = m.prefill(&toks, &mut cache, &Backend::Exact);
    }

    #[test]
    #[should_panic(expected = "KV cache full")]
    fn kv_cache_overflow_panics() {
        let m = Transformer::teacher(ModelConfig::tiny(), 13);
        let mut cache = m.new_cache();
        for _ in 0..=m.cfg.max_seq {
            let _ = m.decode_step(0, &mut cache, &Backend::Exact);
        }
    }

    #[test]
    fn row_work_units_split_anywhere_with_the_bits_of_one_part() {
        // Two sessions at different depths, a decode row and a two-row
        // chunk: every op's units cut at any point — attention inside a
        // row's heads, GELU inside a row, the head inside a row's blocks —
        // concatenate to the one-part output.
        let m = Transformer::teacher(ModelConfig::tiny(), 47);
        let mut caches = [m.new_cache(), m.new_cache()];
        let _ = m.prefill(&[0, 5, 9, 2], &mut caches[0], &Backend::Exact);
        let _ = m.prefill(&[0, 7], &mut caches[1], &Backend::Exact);
        let mut w = StepWork::default();
        w.p0.extend(caches.iter().map(KvCache::len));
        w.row_of.extend([(0, 0), (1, 0), (1, 1)]);
        let mut rng = Rng::new(5);
        let mut rows = |cols| Mat::from_fn(3, cols, |_, _| rng.uniform() - 0.5);
        // A GELU row of 600 elements is three chunks, the last ragged.
        let (d, wide) = (m.cfg.d_model, 600);
        let (q, k, up) = (rows(d), rows(d), rows(wide));
        for (r, &(i, _)) in w.row_of.iter().enumerate() {
            caches[i].push_row(0, k.row(r), k.row(r));
        }
        w.kv.extend(caches.iter_mut().map(KvCache::lend));
        let ops = [
            (Op::Attend(&m, 0), q.clone(), d),
            (Op::Gelu, up, wide),
            (Op::Norm(&m.blocks[0].ln1), q.clone(), d),
            (Op::Head(&m), q, m.cfg.vocab),
        ];
        for (op, x, cols) in ops {
            (w.op, w.x) = (op, x);
            let units = w.units();
            let mut whole = Vec::new();
            w.part(0..units, &mut whole);
            assert_eq!(whole.len(), 3 * cols);
            for cut in 0..=units {
                let mut split = Vec::new();
                w.part(0..cut, &mut split);
                w.part(cut..units, &mut split);
                assert_eq!(split, whole, "cut {cut} of {units}");
            }
        }
    }

    #[test]
    fn teacher_rows_split_anywhere_with_the_bits_of_one_pass() {
        // A teacher matrix's parts, cut at any row, concatenate to the
        // matrix the sequential stream draws, and the stream moves past it.
        let mut rng = Rng::new(3);
        rng.normal();
        let start = rng.clone();
        let want = Mat::from_fn(5, 7, |_, _| rng.normal() * 0.25);
        let after = rng.next_u64();
        let w = Draws {
            rng: start.clone(),
            rows: 5,
            cols: 7,
            scale: 0.25,
        };
        for cut in 0..=5 {
            let mut split = Vec::new();
            w.part(0..cut, &mut split);
            w.part(cut..5, &mut split);
            assert_eq!(split, want.as_slice(), "cut {cut}");
        }
        let mut rng = start;
        let got = Crew::open(1, |crew| Draws::matrix(crew, &mut rng, 5, 7, 0.25));
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(rng.next_u64(), after);
    }

    #[test]
    fn with_linears_equals_clone_then_map_linears() {
        // Every field the constructor clones made distinct from its
        // neighbours', and three kinds of new weights.
        let mut m = Transformer::teacher(ModelConfig::tiny(), 5);
        let mut rng = Rng::new(8);
        let blocks = m.blocks.iter_mut().flat_map(|b| [&mut b.ln1, &mut b.ln2]);
        for ln in blocks.chain([&mut m.ln_f]) {
            ln.gamma.iter_mut().for_each(|g| *g = rng.uniform());
            ln.beta.iter_mut().for_each(|b| *b = rng.uniform());
        }
        let weights = |idx: usize, lin: &Linear| {
            let LinearWeights::Fp(w) = &lin.weights else {
                unreachable!("the teacher is FP");
            };
            match idx % 3 {
                0 => LinearWeights::Uniform(rtn(w, RtnParams::per_row(4))),
                1 => LinearWeights::Bcq(BcqWeight::quantize(w, BcqParams::per_row(3))),
                _ => lin.weights.clone(),
            }
        };
        let built = m.with_linears(weights);
        let mut mapped = m.clone();
        mapped.map_linears(|idx, lin| lin.weights = weights(idx, lin));
        assert_eq!(built.cfg, mapped.cfg);
        assert_eq!(built.embed, mapped.embed);
        assert_eq!(built.pos, mapped.pos);
        assert_eq!(built.ln_f.gamma, mapped.ln_f.gamma);
        assert_eq!(built.ln_f.beta, mapped.ln_f.beta);
        assert_eq!(built.blocks.len(), mapped.blocks.len());
        for (b, want) in built.blocks.iter().zip(&mapped.blocks) {
            for (ln, want) in [(&b.ln1, &want.ln1), (&b.ln2, &want.ln2)] {
                assert_eq!((&ln.gamma, &ln.beta), (&want.gamma, &want.beta));
            }
            for (lin, want) in b.linears().into_iter().zip(want.linears()) {
                assert_eq!(lin.bias, want.bias);
                match (&lin.weights, &want.weights) {
                    (LinearWeights::Fp(a), LinearWeights::Fp(b)) => assert_eq!(a, b),
                    (LinearWeights::Uniform(a), LinearWeights::Uniform(b)) => assert_eq!(a, b),
                    (LinearWeights::Bcq(a), LinearWeights::Bcq(b)) => {
                        assert_eq!((a.shape(), a.group_size()), (b.shape(), b.group_size()));
                        assert!(a.planes() == b.planes());
                        let (rows, groups, gs) = (a.shape().0, a.groups(), a.group_size());
                        for (i, r, g) in (0..a.planes().len() * rows * groups)
                            .map(|e| (e / (rows * groups), e / groups % rows, e % groups))
                        {
                            assert_eq!(a.alpha(i, r, g * gs), b.alpha(i, r, g * gs));
                        }
                        assert_eq!(a.has_offset(), b.has_offset());
                        assert_eq!(a.dequantize(), b.dequantize());
                    }
                    _ => panic!("weight formats differ"),
                }
            }
        }
    }

    #[test]
    fn gelu_sane() {
        assert!((gelu(0.0)).abs() < 1e-12);
        assert!((gelu(3.0) - 3.0).abs() < 0.01);
        assert!(gelu(-3.0).abs() < 0.01);
    }
}
