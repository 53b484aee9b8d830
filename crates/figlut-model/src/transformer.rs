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

use crate::rng::Rng;
use figlut_exec::parallel::{crew_size, thread_count, Crew};
use figlut_exec::{exec_i, ExecPlan, PackedBcq};
use figlut_gemm::{Engine, EngineConfig, Weights};
use figlut_num::Mat;
use figlut_quant::{BcqWeight, UniformWeight};
use std::borrow::BorrowMut;

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
    fn forward<'a>(&'a self, x: &Mat<f64>, backend: &Backend, crew: &Crew<'_, 'a>) -> Mat<f64> {
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
            // Exec fast path. A pre-packed layer carries its ExecPlan, so
            // the steady-state call reuses the cached window plan and
            // scratch pools, on the step's crew; if the call-site config is
            // incompatible with the cached plan (a different effective µ),
            // fall back to a throwaway plan — same bits, per-call setup
            // cost. Non-packed quantized weights are packed on the fly
            // (correct, but pay the packing cost per call — use
            // `to_packed` for repeated evaluation).
            (Backend::Exec(cfg), LinearWeights::Packed(p, plan)) => {
                if plan.matches(p, cfg) {
                    let mut y = Mat::zeros(x.rows(), p.rows());
                    ExecPlan::exec_i_crew(crew, x, cfg, &mut [(plan, p, &mut y)]);
                    y
                } else {
                    exec_i(x, p, cfg)
                }
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

    fn forward(&self, x: &Mat<f64>) -> Mat<f64> {
        let d = x.cols();
        let mut out = Mat::zeros(x.rows(), d);
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean: f64 = row.iter().sum::<f64>() / d as f64;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / d as f64;
            let sd = (var + 1e-5).sqrt();
            for (c, o) in out.row_mut(r).iter_mut().enumerate() {
                *o = (row[c] - mean) / sd * self.gamma[c] + self.beta[c];
            }
        }
        out
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
    /// precision grouping and effective µ, matching the call-site config)
    /// `h` is quantized, aligned and tabulated once and the three weight
    /// matrices read that one table set — the paper's one FFLUT, k RACs.
    /// Anything else (mixed group sizes, un-packed or FP layers, another
    /// backend) is three plain forwards; the bits are the same either way.
    /// The shared call is one GEMM phase of the step's `crew`: the three
    /// readers' rows form one concatenated set cut into its row parts.
    fn qkv<'a>(&'a self, h: &Mat<f64>, backend: &Backend, crew: &Crew<'_, 'a>) -> [Mat<f64>; 3] {
        use LinearWeights::Packed;
        let lins = [&self.wq, &self.wk, &self.wv];
        if let (Backend::Exec(cfg), [Packed(pq, q), Packed(pk, k), Packed(pv, v)]) =
            (backend, lins.map(|l| &l.weights))
        {
            let fits =
                |(p, plan): (&PackedBcq, &ExecPlan)| plan.matches(p, cfg) && q.shares_stage(plan);
            if [(pq, q), (pk, k), (pv, v)].into_iter().all(fits) {
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

/// Vocabulary rows [`Transformer::lm_head`] dots per pass over `h`.
const HEAD_PASS: usize = 8;

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

impl Transformer {
    /// A deterministic synthetic "teacher": weights are Gaussian with a
    /// scale chosen so the model's output distribution is peaked (low
    /// entropy), giving it genuinely low perplexity on text it generates —
    /// the stand-in for a trained OPT checkpoint (DESIGN.md §2).
    pub fn teacher(cfg: ModelConfig, seed: u64) -> Self {
        assert!(
            cfg.d_model.is_multiple_of(cfg.heads),
            "heads must divide d_model"
        );
        let mut rng = Rng::new(seed);
        let g = |rng: &mut Rng, rows: usize, cols: usize, scale: f64| {
            Mat::from_fn(rows, cols, |_, _| rng.normal() * scale)
        };
        // Residual-stream scales ≈ 1/sqrt(d) keep activations O(1);
        // the embedding is boosted so logits (tied head) are peaked.
        let d = cfg.d_model;
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
    }

    /// The tied LM head `h · embedᵀ` against `embed`'s rows where they lie,
    /// [`HEAD_PASS`] vocabulary rows per pass over `h` and one at a time for
    /// the `vocab % HEAD_PASS` tail ([`dot_rows`]): every logit is
    /// bit-identical to `h.matmul(&embed.transposed())`.
    fn lm_head(&self, h: &Mat<f64>) -> Mat<f64> {
        let mut out = Mat::zeros(h.rows(), self.cfg.vocab);
        let embed = self.embed.as_slice();
        let split = self.cfg.vocab / HEAD_PASS * HEAD_PASS;
        for r in 0..h.rows() {
            let (hr, o) = (h.row(r), out.row_mut(r));
            let (body, tail) = o.split_at_mut(split);
            dot_rows::<HEAD_PASS>(hr, embed, body);
            dot_rows::<1>(hr, &embed[split * self.cfg.d_model..], tail);
        }
        out
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
        self.forward(&[tokens], &mut [self.new_cache()], backend, None)
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
        self.forward(&[tokens], &mut [self.new_cache()], backend, Some(capture))
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
        let logits = self.forward(chunks, caches, backend, None);
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

    /// The one transformer body: [`Transformer::forward_batch`] without the
    /// trace accounting, and with an optional `capture` hook receiving each
    /// linear layer's input (see [`Transformer::logits_with_capture`]).
    fn forward<C: BorrowMut<KvCache>>(
        &self,
        chunks: &[&[usize]],
        caches: &mut [C],
        backend: &Backend,
        mut capture: Option<&mut Vec<Vec<Mat<f64>>>>,
    ) -> Mat<f64> {
        let cfg = &self.cfg;
        assert!(!chunks.is_empty(), "empty batch");
        assert_eq!(chunks.len(), caches.len(), "chunks/caches length mismatch");
        let p0: Vec<usize> = caches.iter().map(|c| c.borrow().len()).collect();
        // (session, offset-in-chunk) of every fused row, session-major.
        let mut row_of: Vec<(usize, usize)> = Vec::new();
        for (i, (chunk, &p)) in chunks.iter().zip(&p0).enumerate() {
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
            row_of.extend((0..chunk.len()).map(|t| (i, t)));
        }
        let rows = row_of.len();
        // One crew for the whole step, sized by its summed GEMM work: every
        // exec phase below runs as row parts on it.
        let size = crew_size(self.step_lookups(rows, backend), thread_count());
        Crew::run(size, |crew| {
            let mut keep = |slot: usize, m: &Mat<f64>| {
                if let Some(cap) = capture.as_deref_mut() {
                    cap[slot].push(m.clone());
                }
            };
            let (d, dh) = (cfg.d_model, cfg.d_model / cfg.heads);
            let scale = 1.0 / (dh as f64).sqrt();
            let mut x = Mat::from_fn(rows, d, |r, c| {
                let (i, t) = row_of[r];
                self.embed[(chunks[i][t], c)] + self.pos[(p0[i] + t, c)]
            });
            let mut scores: Vec<f64> = Vec::new(); // head-major scores of one row
            for (li, block) in self.blocks.iter().enumerate() {
                let h = block.ln1.forward(&x);
                (li * 6..li * 6 + 3).for_each(|slot| keep(slot, &h)); // wq, wk, wv
                let [q, k, v] = block.qkv(&h, backend, crew);
                for (r, &(i, _)) in row_of.iter().enumerate() {
                    caches[i].borrow_mut().push_row(li, k.row(r), v.row(r));
                }
                let mut ctx = Mat::zeros(rows, d);
                let mut fused = 0..rows; // session-major row indices
                for (i, cache) in caches.iter().enumerate() {
                    // One session's view at a time: sessions of one step may
                    // share a pool, and the view holds its lock.
                    let view = cache.borrow().layer_view(li);
                    for (t, r) in fused.by_ref().take(chunks[i].len()).enumerate() {
                        // Causal: row t of session i sees its session's cache
                        // plus its own chunk rows 0..=t (pushed above), never
                        // another session. Positions u ascend across the view's
                        // block runs; a score is Σⱼ in j order then × scale, a
                        // ctx element accumulates over u ascending.
                        let (n, qr) = (p0[i] + t + 1, q.row(r));
                        scores.resize(cfg.heads * n, 0.0);
                        let keys = view.runs(n).flat_map(|(k, _)| k.chunks_exact(d));
                        for (u, kr) in keys.enumerate() {
                            let heads = qr.chunks_exact(dh).zip(kr.chunks_exact(dh));
                            for (head, (qh, kh)) in heads.enumerate() {
                                let s = qh.iter().zip(kh).fold(0.0, |s, (a, b)| s + a * b);
                                scores[head * n + u] = s * scale;
                            }
                        }
                        scores.chunks_exact_mut(n).for_each(softmax_row);
                        let cr = ctx.row_mut(r);
                        let values = view.runs(n).flat_map(|(_, v)| v.chunks_exact(d));
                        for (u, vr) in values.enumerate() {
                            let heads = cr.chunks_exact_mut(dh).zip(vr.chunks_exact(dh));
                            for (head, (ch, vh)) in heads.enumerate() {
                                let a = scores[head * n + u];
                                for (c, v) in ch.iter_mut().zip(vh) {
                                    *c += a * v;
                                }
                            }
                        }
                    }
                }
                keep(li * 6 + 3, &ctx);
                add_rows(&mut x, &block.wo.forward(&ctx, backend, crew));
                let h = block.ln2.forward(&x);
                keep(li * 6 + 4, &h);
                let mut act = block.fc1.forward(&h, backend, crew);
                for r in 0..rows {
                    act.row_mut(r).iter_mut().for_each(|v| *v = gelu(*v));
                }
                keep(li * 6 + 5, &act);
                add_rows(&mut x, &block.fc2.forward(&act, backend, crew));
            }
            self.lm_head(&self.ln_f.forward(&x))
        })
    }

    /// Table look-ups a step of `rows` token rows computes in the exec
    /// kernels under `backend`: `ExecPlan::lookups(rows)` summed over every
    /// packed linear whose cached plan matches the backend's config. This
    /// is what sizes the step's crew
    /// (`figlut_exec::parallel::crew_size(step_lookups, threads)`); 0 under
    /// any other backend.
    pub fn step_lookups(&self, rows: usize, backend: &Backend) -> usize {
        let Backend::Exec(cfg) = backend else {
            return 0;
        };
        let lookups = self
            .blocks
            .iter()
            .flat_map(Block::linears)
            .map(|l| match &l.weights {
                LinearWeights::Packed(p, plan) if plan.matches(p, cfg) => plan.lookups(rows),
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
            assert_eq!(ln.forward(&x).as_slice(), want.as_slice(), "d={d}");
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
            assert_eq!(m.lm_head(&h).as_slice(), want.as_slice(), "vocab {vocab}");
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
        // Prefix sharing is storage-level: an adopter recomputes its whole
        // prompt (identical logits) while writing nothing below the shared
        // length.
        let m = Transformer::teacher(ModelConfig::tiny(), 41);
        let shared: Vec<usize> = vec![0, 7, 19, 3, 88, 42, 11, 5];
        let pool = BlockPool::for_model(&m.cfg, 4, None);
        let mut registry = crate::kv::PrefixRegistry::new(&pool);
        let mut first = m.new_paged_cache(&pool);
        let _ = m.prefill(&shared, &mut first, &Backend::Exact);
        registry.register(&shared, &first);

        let mut prompt = shared.clone();
        prompt.extend([9usize, 2]);
        let mut solo = m.new_cache();
        let solo_logits = m.prefill(&prompt, &mut solo, &Backend::Exact);

        let mut adopted = m.new_paged_cache(&pool);
        assert_eq!(registry.adopt_into(&prompt, &mut adopted), 8);
        let live_before = pool.live_blocks();
        let adopted_logits = m.prefill(&prompt, &mut adopted, &Backend::Exact);
        assert_eq!(adopted_logits.as_slice(), solo_logits.as_slice());
        assert_eq!(adopted.snapshot(), solo.snapshot());
        assert_eq!(
            pool.live_blocks(),
            live_before + 1,
            "only the private tail allocates"
        );
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
    fn gelu_sane() {
        assert!((gelu(0.0)).abs() < 1e-12);
        assert!((gelu(3.0) - 3.0).abs() < 0.01);
        assert!(gelu(-3.0).abs() < 0.01);
    }
}
