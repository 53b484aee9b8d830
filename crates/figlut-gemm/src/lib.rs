#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # figlut-gemm — bit-accurate models of the five FP-INT GEMM engines
//!
//! The paper's hardware evaluation compares five engines on identical
//! workloads (§IV-B). This crate models each engine's *datapath* —
//! rounding point by rounding point — so numerical claims (Table IV) can be
//! checked, while `figlut-sim` prices the same datapaths in energy/area.
//!
//! | Engine | Module | Weights | Inner operation |
//! |---|---|---|---|
//! | GPU-like reference |  [`mod@reference`] | any | dequantize, exact f64 dot |
//! | FPE (baseline) | [`fpe`] | uniform | dequantize to FP, FP mul + FP32 add |
//! | iFPU (ICLR'23) | [`ifpu`] | BCQ | pre-align, INT add/sub per bit-plane |
//! | FIGNA (HPCA'24) | [`figna`] | uniform | pre-align, INT×INT mul + INT acc |
//! | FIGLUT-F (this paper) | [`figlut`] | BCQ | FP LUT read + FP32 accumulate |
//! | FIGLUT-I (this paper) | [`figlut`] | BCQ | pre-align, INT LUT read + INT acc |
//!
//! All engines take activations as a `B × n` [`Mat<f64>`] (rounded to the
//! configured activation format on entry, exactly as a memory interface
//! would deliver them), weights as `m × n` quantized containers from
//! `figlut-quant`, and produce the `B × m` output of `y = x·Wᵀ` with FP32
//! accumulation — the paper's accuracy-preserving configuration.
//!
//! The numerical relationships the paper relies on, enforced in this
//! crate's tests:
//!
//! * FIGLUT-I ≡ iFPU **bit-exactly** (same pre-alignment, same integer
//!   sums — the LUT only reassociates integer addition).
//! * FIGLUT-F ≈ FPE ≈ reference (FP32 accumulation differs only in
//!   association order).
//! * FIGNA ≈ iFPU on uniform weights (same integers, different scaling
//!   algebra).

pub mod common;
pub mod figlut;
pub mod figna;
pub mod fpe;
pub mod ifpu;
pub mod reference;

pub use common::{EngineConfig, Weights};

use figlut_num::Mat;

/// Engine selector for harness code that sweeps all engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Exact-arithmetic oracle (the "GPU" row of Table IV).
    Reference,
    /// Dequantize-then-FP-MAC baseline.
    Fpe,
    /// Bit-serial pre-aligned adder engine.
    Ifpu,
    /// Pre-aligned integer MAC engine.
    Figna,
    /// LUT-based engine, FP datapath.
    FiglutF,
    /// LUT-based engine, pre-aligned integer datapath.
    FiglutI,
}

impl Engine {
    /// All engines in the paper's plotting order.
    pub const ALL: [Engine; 6] = [
        Engine::Reference,
        Engine::Fpe,
        Engine::Ifpu,
        Engine::Figna,
        Engine::FiglutF,
        Engine::FiglutI,
    ];

    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            Engine::Reference => "GPU-ref",
            Engine::Fpe => "FPE",
            Engine::Ifpu => "iFPU",
            Engine::Figna => "FIGNA",
            Engine::FiglutF => "FIGLUT-F",
            Engine::FiglutI => "FIGLUT-I",
        }
    }

    /// `true` if the engine consumes BCQ bit-planes (Table I "BCQ support").
    pub const fn supports_bcq(self) -> bool {
        matches!(
            self,
            Engine::Reference | Engine::Ifpu | Engine::FiglutF | Engine::FiglutI
        )
    }

    /// Run the engine on `x (B×n)` against `w (m×n)`, producing `B×m`.
    ///
    /// # Panics
    ///
    /// Panics if the engine does not support the weight container's format
    /// (mirroring Table I: e.g. FIGNA has no BCQ support) or on shape
    /// mismatch.
    pub fn run(self, x: &Mat<f64>, w: &Weights<'_>, cfg: &EngineConfig) -> Mat<f64> {
        match (self, w) {
            (Engine::Reference, w) => reference::gemm(x, w, cfg),
            (Engine::Fpe, Weights::Uniform(u)) => fpe::gemm(x, u, cfg),
            (Engine::Ifpu, Weights::Bcq(b)) => ifpu::gemm(x, b, cfg),
            (Engine::Figna, Weights::Uniform(u)) => figna::gemm(x, u, cfg),
            (Engine::FiglutF, Weights::Bcq(b)) => figlut::gemm_f(x, b, cfg),
            (Engine::FiglutI, Weights::Bcq(b)) => figlut::gemm_i(x, b, cfg),
            (e, Weights::Uniform(_)) => {
                // audit: allow(panic) — documented `# Panics` precondition: Table I format support
                panic!(
                    "{} does not support uniform INT weights; convert with BcqWeight::from_uniform",
                    e.name()
                )
            }
            (e, Weights::Bcq(_)) => {
                // audit: allow(panic) — documented `# Panics` precondition: Table I format support
                panic!(
                    "{} does not support BCQ weights (see paper Table I)",
                    e.name()
                )
            }
        }
    }
}

impl core::fmt::Display for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}
