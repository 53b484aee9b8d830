#![forbid(unsafe_code)]
//! # FIGLUT — LUT-based FP-INT GEMM, reproduced in Rust
//!
//! A full reproduction of *FIGLUT: An Energy-Efficient Accelerator Design
//! for FP-INT GEMM Using Look-Up Tables* (HPCA 2025): the LUT-based GEMM
//! method, the five compared hardware engines as bit-accurate datapath
//! models, every quantizer the paper evaluates, a 28 nm-class
//! energy/area/cycle simulator, and an LLM workload substrate.
//!
//! This facade crate re-exports the workspace members; depend on the
//! individual crates if you only need one layer:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`num`] (`figlut-num`) | bit-accurate FP16/BF16/FP32, pre-alignment, matrices |
//! | [`trace`] (`figlut-trace`) | zero-cost-when-off tracing: counter registry, spans, Chrome-trace sink and reader |
//! | [`quant`] (`figlut-quant`) | RTN, BCQ, GPTQ-style, ShiftAddLLM-style quantizers |
//! | [`lut`] (`figlut-lut`) | keys, FFLUT/hFFLUT, generator schedules, RACs, bank model |
//! | [`gemm`] (`figlut-gemm`) | FPE / iFPU / FIGNA / FIGLUT-F / FIGLUT-I engine models |
//! | [`exec`] (`figlut-exec`) | packed, batch-blocked LUT-GEMM kernels + `ExecPlan`, bit-exact vs FIGLUT-I |
//! | [`sim`] (`figlut-sim`) | 28 nm cost model: power, area, cycles, TOPS/W |
//! | [`model`] (`figlut-model`) | synthetic OPT-style transformer + perplexity |
//! | [`serve`] (`figlut-serve`) | deterministic continuous-batching serving layer (scenario traces, scheduler, paged KV with prefix sharing + preempt/restore, SLO metrics, fault injection + admission control + checkpoint/resume) |
//!
//! ## Quickstart
//!
//! ```
//! use figlut::prelude::*;
//!
//! // Quantize a weight matrix to 3-bit BCQ and run it through FIGLUT-F.
//! let w = Mat::from_fn(8, 64, |r, c| ((r * 64 + c) as f64 * 0.1).sin());
//! let bcq = BcqWeight::quantize(&w, BcqParams::per_row(3));
//! let x = Mat::from_fn(2, 64, |b, c| ((b + c) as f64 * 0.05).cos());
//! let cfg = EngineConfig::paper_default();
//! let y = Engine::FiglutF.run(&x, &Weights::Bcq(&bcq), &cfg);
//! let oracle = Engine::Reference.run(&x, &Weights::Bcq(&bcq), &cfg);
//! assert!(y.max_abs_diff(&oracle) < 1e-2);
//! ```

pub use figlut_exec as exec;
pub use figlut_gemm as gemm;
pub use figlut_lut as lut;
pub use figlut_model as model;
pub use figlut_num as num;
pub use figlut_quant as quant;
pub use figlut_serve as serve;
pub use figlut_sim as sim;
pub use figlut_trace as trace;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use figlut_exec::{exec_i, ExecPlan, PackedBcq};
    pub use figlut_gemm::{Engine, EngineConfig, Weights};
    pub use figlut_lut::{FullLut, GenSchedule, HalfLut, Key, LutRead, Rac};
    pub use figlut_model::{Backend, BlockPool, ModelConfig, OptConfig, Transformer, OPT_FAMILY};
    pub use figlut_num::{AlignMode, AlignedVector, Bf16, Fp16, Fp32, FpFormat, Mat};
    pub use figlut_quant::{BcqParams, BcqWeight, BitMatrix, RtnParams, UniformWeight};
    pub use figlut_serve::{
        synthetic_trace, AdmissionPolicy, BatchEngine, Checkpoint, Dist, FaultPlan, Goodput,
        PagingStats, Policy, Request, Sampling, Scenario, ServeConfig, ServeDists, ServeHooks,
        ServeReport, Slo, Trace, TraceParams, TtftSplit,
    };
    pub use figlut_sim::{evaluate, EngineSpec, GemmShape, Report, SimEngine, Tech, Workload};
    pub use figlut_trace::{install, snapshot, ChromeTraceSink, TraceGuard, TraceSink};
}
