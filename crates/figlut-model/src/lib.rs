#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # figlut-model — LLM workload substrate for the FIGLUT evaluation
//!
//! The paper evaluates on the OPT family (125M–30B) with WikiText-2
//! perplexity. Neither the checkpoints nor the dataset can ship with this
//! reproduction, so this crate provides the documented substitution
//! (DESIGN.md §2):
//!
//! * [`config`] — the *real* OPT architecture table (layers, widths, heads),
//!   used to derive exact GEMM shape inventories for the simulator.
//! * [`transformer`] — a working decoder-only transformer (MHA, LayerNorm,
//!   GELU FFN) whose linear layers execute through any `figlut-gemm`
//!   engine, with deterministic synthetic weights.
//! * [`corpus`] — evaluation text *generated by the FP teacher model
//!   itself*, so the teacher has genuinely low perplexity on it and
//!   quantization degrades it measurably — the property Tables IV/VI and
//!   Fig. 17 rest on.
//! * [`calibrate`] — activation capture + whole-model quantization
//!   pipelines (RTN / GPTQ / ShiftAddLLM-style, incl. mixed precision).
//! * [`ppl`] — teacher-forced perplexity evaluation.
//! * [`kv`] — paged KV storage: refcounted block pool, copy-on-write
//!   prefix sharing that skips the adopted prompt rows, and preempt-to-host
//!   swap images (the serving layer's memory subsystem).
//! * [`workload`] — OPT GEMM inventories as `figlut-sim` workloads.
//! * [`rng`] — the deterministic Gaussian generator behind all synthetic
//!   weights (results are bit-reproducible across runs).

pub mod calibrate;
pub mod config;
pub mod corpus;
pub mod kv;
pub mod ppl;
pub mod rng;
pub mod transformer;
pub mod workload;

pub use config::{OptConfig, OPT_FAMILY};
pub use kv::{BlockPool, KvCache, PrefixImage, PrefixRegistry};
pub use transformer::{Backend, ModelConfig, Transformer};
