#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # figlut-exec — high-throughput packed LUT-GEMM execution backend
//!
//! The engines in `figlut-gemm` are *datapath models*: scalar,
//! allocation-heavy, built to pin the paper's arithmetic rounding point by
//! rounding point. This crate is the second implementation of the same
//! pipeline, built for speed — a software analogue of the FIGLUT hardware
//! (DESIGN.md §6):
//!
//! | Module | Hardware analogue | Contents |
//! |---|---|---|
//! | [`packed`] | weight SRAM layout | [`PackedBcq`]: bit-planes as `u64` words, tile-major (`[k-tile][row][plane][word]`), scales and offsets `[group][row]` |
//! | [`lut`] | FFLUT generators | flat per-window `2^µ` tables, lane-blocked across activation rows (the 1/4/8 entries of one key contiguous), built half + mirrored (Fig. 10) |
//! | [`kernel`] | RAC arrays | LUT-stationary, lane-blocked [`exec_f`] / [`exec_i`] read-accumulate kernels: each tile of tables is visited once per call, the fold fused into the walk |
//! | [`plan`] | weight-stationary scheduling | [`ExecPlan`]: per-weight window plan + pooled scratch, allocation-free steady-state calls |
//! | [`parallel`] | MPU tiling | the step crew: one `std::thread::scope` per step (a forward pass, or one direct call), its workers claiming row parts of every GEMM phase; `threads` / `FIGLUT_EXEC_THREADS` is a *maximum*, a step opens a crew only as large as its summed look-ups repay the spawns |
//!
//! The correctness story is *differential*: [`exec_i`] is **bit-identical**
//! to `figlut_gemm::figlut::gemm_i` (same pre-alignment, exact integer
//! window sums, same FP32-rounded fold sequence — integer associativity
//! makes the blocking invisible), and [`exec_f`] tracks
//! `figlut_gemm::figlut::gemm_f` within scale-aware tolerance. Both hold
//! for every thread count: each output element is computed by one thread in
//! a fixed order, so results are deterministic and
//! thread-count-independent. A batched call streams each packed weight
//! word once per block of up to 8 batch columns (the paper's
//! weight-traffic amortization, executed on the host) and every batch row is
//! bit-identical to its batch-1 run. The property tests in `tests/`
//! enforce all of this over arbitrary shapes, µ, group sizes, batch
//! sizes, and ragged tails.
//!
//! ```
//! use figlut_exec::{exec_i, PackedBcq};
//! use figlut_gemm::{figlut, EngineConfig};
//! use figlut_num::Mat;
//! use figlut_quant::bcq::{BcqParams, BcqWeight};
//!
//! let w = Mat::from_fn(8, 64, |r, c| ((r * 64 + c) as f64 * 0.1).sin());
//! let bcq = BcqWeight::quantize(&w, BcqParams::per_row(3));
//! let x = Mat::from_fn(2, 64, |b, c| ((b + c) as f64 * 0.05).cos());
//! let cfg = EngineConfig::paper_default();
//! let fast = exec_i(&x, &PackedBcq::pack(&bcq), &cfg);
//! let model = figlut::gemm_i(&x, &bcq, &cfg);
//! assert_eq!(fast.as_slice(), model.as_slice()); // bit-identical
//! ```

pub mod kernel;
pub mod lut;
pub mod packed;
pub mod parallel;
pub mod plan;

pub use kernel::{exec_f, exec_f_threads, exec_i, exec_i_threads};
pub use packed::PackedBcq;
pub use plan::ExecPlan;
