#![deny(unsafe_code)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]
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
//! | [`packed`] | weight SRAM layout | [`PackedBcq`]: sign bits as key bytes, every scale group starting on one, tile-major in 32-row blocks (`[k-tile][block][plane][key byte][32 rows]`), scales and offsets `[group][row]` padded to whole blocks |
//! | [`lut`] | FFLUT generators | per key-byte window: 256-entry tables lane-blocked across activation rows (the 4/8 entries of one key contiguous), built half + mirrored (Fig. 10); and the shuffle pass's µ = 4 nibble tables in byte planes; the kernel builds both one k-tile at a time |
//! | [`kernel`] | RAC arrays | the LUT-stationary [`exec_i`] read-accumulate kernel: one walk per k-tile of the key bytes, over the tile's tables, swept by the shuffle pass (one or two batch columns) or the lane pass (blocks of 3–8), the FP32-rounded fold fused into it |
//! | `shuffle` | one FFLUT, k RACs (Fig. 8/9) | the register FFLUT: one AVX2 `vpshufb` reads a 16-entry table for 32 weight rows, with a portable fallback; and the crate's only `unsafe`: the runtime AVX2 check and the `#[target_feature]` entries that run the table build and the sweep compiled for AVX2 |
//! | [`plan`] | weight-stationary scheduling | [`ExecPlan`]: per-weight window plan + pooled scratch, allocation-free steady-state calls; one stage per distinct input, its lane tables and accumulators `i32` where it proves every group partial fits, else `i64`, and per lane block and k-tile one table build next to its readers (lane block → tile → reader), which every reader of a shared call sweeps |
//! | [`parallel`] | MPU tiling | the serve crew: one `std::thread::scope` per serve (or per forward pass / direct call), its workers living across the steps and claiming parts of every phase — GEMM staging and sweeps, and a step's row work; `threads` / `FIGLUT_EXEC_THREADS` is a *maximum*, a step runs on as many threads as its summed look-ups repay |
//!
//! The correctness story is *differential*: [`exec_i`] is **bit-identical**
//! to `figlut_gemm::figlut::gemm_i` (same pre-alignment, exact integer
//! window sums, same FP32-rounded fold sequence — integer associativity
//! makes the blocking invisible). FIGLUT-F has no fast path here; its
//! datapath model is `figlut_gemm::figlut::gemm_f`, priced by `figlut-sim`.
//! The identity holds for every thread count: each output element is
//! computed by one thread in a fixed order, so results are deterministic
//! and thread-count-independent. A batched call streams each packed weight
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
#[allow(unsafe_code)]
mod shuffle;

pub use kernel::{exec_i, exec_i_threads};
pub use packed::PackedBcq;
pub use plan::ExecPlan;
