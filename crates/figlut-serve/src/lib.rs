#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # figlut-serve — deterministic continuous-batching LLM serving
//!
//! The paper's pitch is LLM *serving*: single-sequence decode is DRAM-bound
//! and LUT-GEMM amortizes weight traffic across the sequences in flight.
//! This crate closes that loop in software: a request-level serving
//! subsystem that batches live sessions into single steps over the shared
//! (packed) weights, scheduled on a deterministic virtual clock so every
//! throughput and latency number is bit-reproducible. Since the
//! batch-blocked `figlut-exec` kernels landed, the host backend *actually*
//! amortizes the weights a batched step touches: one `decode_batch` step
//! streams each layer's packed planes once for every live session (each
//! decoded weight key is read for all batch columns before the next word
//! loads) through the layer's cached `ExecPlan` — no per-token window
//! recomputation, no per-token allocation — instead of paying a full
//! weight sweep per session (the benchmark's `exec.b8_amortization_x`
//! measures the win; the energy model and the kernels now batch the same
//! way).
//!
//! | Module | Contents |
//! |---|---|
//! | [`request`] | [`Request`], [`Sampling`], seeded arrival traces ([`synthetic_trace`]) and the [`Scenario`] library (bursty on-off, heavy-tail, flash-crowd) |
//! | [`engine`] | [`BatchEngine`]: fused mixed steps (decode rows + prefill chunks in one pass) over one shared model, [`solo_run`](BatchEngine::solo_run) reference |
//! | [`scheduler`] | [`serve`]: admission, mixed prefill/decode steps, [`Policy`] × `max_batch` × [`ServeConfig::prefill_chunk`]; paged KV ([`ServeConfig::block_size`] × [`ServeConfig::pool_blocks`]) with shared prefixes and preempt/restore ([`serve_with_hooks`]); resilience — [`AdmissionPolicy`] shedding, deterministic [`FaultPlan`] injection, crash-consistent [`Checkpoint`]/[`resume`] (DESIGN.md §10) |
//! | [`metrics`] | [`ServeReport`]: tokens/s, TTFT (with per-session [`TtftSplit`] decomposition), full latency [`Dist`]ributions, [`Slo`] [`Goodput`], inter-token stalls, occupancy, [`PagingStats`], phase-split `figlut-sim` energy per token |
//!
//! **The correctness commitment** is the repo's signature move applied at
//! the serving layer: for any trace, policy, batch limit, and thread
//! count, every session's emitted token stream is **bit-identical** to
//! running that session alone at batch 1. It holds because every
//! batch-level operation is per-row independent — the GEMM backends
//! compute output rows in a fixed per-row order (`figlut-exec`'s property
//! suite pins this), and attention/normalization/sampling never cross
//! session rows — so scheduling decides *when* tokens appear, never
//! *which* tokens. The property tests in `tests/` and the
//! `repro ext-serving` experiment assert it before reporting any rate.
//!
//! ```
//! use figlut_model::{Backend, ModelConfig, Transformer};
//! use figlut_serve::{serve, BatchEngine, Policy, ServeConfig, TraceParams};
//!
//! let model = Transformer::teacher(ModelConfig::tiny(), 7);
//! let trace = figlut_serve::synthetic_trace(&model.cfg, &TraceParams::light(4), 42);
//! let engine = BatchEngine::new(&model, Backend::Exact);
//! let report = serve(&engine, &trace, &ServeConfig::new(4, Policy::PrefillPriority));
//! assert_eq!(report.requests.len(), 4);
//! for r in &report.requests {
//!     let solo = engine.solo_run(&trace.requests[r.id]);
//!     assert_eq!(r.generated, solo); // batch-invariant tokens
//! }
//! ```

pub mod engine;
pub mod metrics;
pub mod request;
pub mod scheduler;

pub use engine::{BatchEngine, FinishReason, SessionState};
pub use metrics::{
    Dist, Goodput, PagingStats, RequestMetrics, ResilienceStats, ServeDists, ServeReport, Slo,
    StepKind, StepRecord, TtftSplit,
};
pub use request::{
    bursty_trace, flash_crowd_trace, heavy_tail_trace, synthetic_trace, BurstyParams,
    FlashCrowdParams, HeavyTailParams, Request, Sampling, Scenario, Trace, TraceParams,
};
pub use scheduler::{
    resume, serve, serve_with_hooks, AdmissionPolicy, Checkpoint, CheckpointHook, FaultPlan,
    Policy, ServeConfig, ServeHooks,
};
