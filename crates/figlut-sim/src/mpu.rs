//! MPU geometries and area models for the five engines (paper §IV-B, Fig. 14).
//!
//! All engines are normalized to the *same peak throughput* (the paper's
//! fairness rule): 16384 weight-bit positions per cycle at Q4 —
//!
//! * FPE / FIGNA: 64 × 64 PE arrays (4096 multi-bit weights/cycle),
//! * iFPU: 64 × 64 × 4 one-bit cells,
//! * FIGLUT: a 2 × 16 × 4 PE array; with µ = 4 and k = 32 that is
//!   128 PEs × 32 RACs × 4 weights/read = 16384 bit positions.
//!
//! Area is reported in the paper's two buckets (arithmetic vs flip-flop),
//! plus the engine-level additions (SRAM buffers, VPU, systolic input
//! setup) used for TOPS/mm².

use crate::lutcost::{pe_area, LutKind, PeParams, RacDatapath};
use crate::tech::Tech;
use figlut_num::fp::FpFormat;

/// Hardware engine being simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// Dequantize + FP MAC baseline.
    Fpe,
    /// Bit-serial pre-aligned adder array.
    Ifpu,
    /// Pre-aligned INT-MAC array.
    Figna,
    /// LUT-based, FP datapath.
    FiglutF,
    /// LUT-based, pre-aligned integer datapath.
    FiglutI,
}

impl SimEngine {
    /// All engines in the paper's plotting order.
    pub const ALL: [SimEngine; 5] = [
        SimEngine::Fpe,
        SimEngine::Ifpu,
        SimEngine::Figna,
        SimEngine::FiglutF,
        SimEngine::FiglutI,
    ];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            SimEngine::Fpe => "FPE",
            SimEngine::Ifpu => "iFPU",
            SimEngine::Figna => "FIGNA",
            SimEngine::FiglutF => "FIGLUT-F",
            SimEngine::FiglutI => "FIGLUT-I",
        }
    }

    /// Bit-serial engines run cycles proportional to the weight bit-width;
    /// fixed engines pad sub-designed precisions (paper Fig. 15 discussion).
    pub const fn is_bit_serial(self) -> bool {
        matches!(
            self,
            SimEngine::Ifpu | SimEngine::FiglutF | SimEngine::FiglutI
        )
    }
}

impl core::fmt::Display for SimEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete hardware instance to evaluate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineSpec {
    /// Engine family.
    pub engine: SimEngine,
    /// Activation format.
    pub act: FpFormat,
    /// Designed weight width for the fixed-precision engines (4 for the Q4
    /// build, 8 for the extended Q8 build; ignored by bit-serial engines).
    pub designed_bits: u32,
    /// LUT group size (FIGLUT only).
    pub mu: u32,
    /// RACs per LUT (FIGLUT only).
    pub k: u32,
    /// LUT structure (FIGLUT only). The paper's design uses the hFFLUT;
    /// [`LutKind::Fflut`] is kept as an ablation point.
    pub lut_kind: LutKind,
}

impl EngineSpec {
    /// The paper's standard build: Q4-designed fixed engines, µ = 4, k = 32.
    pub fn paper(engine: SimEngine, act: FpFormat) -> Self {
        Self {
            engine,
            act,
            designed_bits: 4,
            mu: 4,
            k: 32,
            lut_kind: LutKind::Hfflut,
        }
    }

    /// The extended Q8 build of the fixed-precision engines.
    pub fn q8_variant(mut self) -> Self {
        self.designed_bits = 8;
        self
    }

    /// Aligned-mantissa width for the pre-aligning engines (format
    /// precision incl. hidden bit).
    pub fn mant_bits(&self) -> u32 {
        self.act.precision()
    }

    /// Integer accumulator width: mantissa + weight/group growth headroom
    /// (64-deep reduction ⇒ 6 bits, plus sign).
    pub fn acc_bits(&self) -> u32 {
        match self.engine {
            SimEngine::Figna => self.mant_bits() + self.designed_bits + 7,
            _ => self.mant_bits() + 13,
        }
    }

    /// The RAC datapath for LUT engines.
    pub fn rac_datapath(&self) -> RacDatapath {
        match self.engine {
            SimEngine::FiglutF => RacDatapath::Fp32Acc,
            _ => RacDatapath::IntAcc {
                bits: self.acc_bits(),
            },
        }
    }

    /// PE parameters for the LUT engines.
    pub fn pe_params(&self) -> PeParams {
        PeParams {
            mu: self.mu,
            k: self.k,
            fmt: self.act,
            kind: self.lut_kind,
            datapath: self.rac_datapath(),
            gen_share_rows: 2,
        }
    }
}

/// Array geometry and peak throughput.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometry {
    /// Output rows covered per tile.
    pub tm: usize,
    /// Input channels covered per tile.
    pub tn: usize,
    /// Physical compute cells (PEs / bit-cells / RACs).
    pub cells: usize,
    /// Systolic pipeline fill stages per tile (the paper's 63 vs 15).
    pub fill_stages: usize,
    /// Input bus width in activations per cycle.
    pub input_width: usize,
    /// Peak weight-bit positions processed per cycle.
    pub bit_ops_per_cycle: f64,
}

impl Geometry {
    /// Weights processed per cycle at an (average) precision `q`.
    ///
    /// Fixed engines always move `cells` weights per cycle; bit-serial
    /// engines trade bit-planes for speed.
    pub fn weights_per_cycle(&self, engine: SimEngine, q: f64) -> f64 {
        match engine {
            SimEngine::Fpe | SimEngine::Figna => self.cells as f64,
            SimEngine::Ifpu | SimEngine::FiglutF | SimEngine::FiglutI => self.bit_ops_per_cycle / q,
        }
    }
}

/// Geometry of the paper's builds.
pub fn geometry(spec: &EngineSpec) -> Geometry {
    match spec.engine {
        SimEngine::Fpe | SimEngine::Figna => Geometry {
            tm: 64,
            tn: 64,
            cells: 4096,
            fill_stages: 63,
            input_width: 64,
            bit_ops_per_cycle: 4096.0 * spec.designed_bits as f64,
        },
        SimEngine::Ifpu => Geometry {
            tm: 64,
            tn: 64,
            cells: 16384,
            fill_stages: 63,
            input_width: 64,
            bit_ops_per_cycle: 16384.0,
        },
        SimEngine::FiglutF | SimEngine::FiglutI => {
            // 2 × 16 × 4 PEs, k RACs each, µ weights per read.
            let pes = 2 * 16 * 4;
            let racs = pes * spec.k as usize;
            Geometry {
                tm: 2 * spec.k as usize,
                tn: 16 * 4 * spec.mu as usize,
                cells: racs,
                fill_stages: 15,
                input_width: 16 * 4 * spec.mu as usize,
                bit_ops_per_cycle: (racs * spec.mu as usize) as f64,
            }
        }
    }
}

/// MPU area in the paper's Fig. 14 buckets.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaBreakdown {
    /// Arithmetic logic (µm²).
    pub arithmetic_um2: f64,
    /// Flip-flops / storage (µm²).
    pub flipflop_um2: f64,
}

impl AreaBreakdown {
    /// Total (µm²).
    pub fn total_um2(&self) -> f64 {
        self.arithmetic_um2 + self.flipflop_um2
    }
}

/// Barrel-shifter + max-exponent comparator area per pre-alignment lane.
fn aligner_area(tech: &Tech, mant_bits: u32) -> f64 {
    // A log-shifter is ~log2(p) mux stages of p bits plus an exponent
    // comparator (int add width of the exponent field).
    let stages = (32 - (mant_bits - 1).leading_zeros()) as f64;
    stages * mant_bits as f64 * tech.mux2_um2_per_bit + tech.int_add_area(8)
}

/// MPU area of a build, split arithmetic vs flip-flop.
pub fn mpu_area(tech: &Tech, spec: &EngineSpec) -> AreaBreakdown {
    let g = geometry(spec);
    let p = spec.mant_bits();
    let d = spec.designed_bits;
    let fmt_bits = spec.act.storage_bits();
    match spec.engine {
        SimEngine::Fpe => {
            let per_pe_arith = tech.i2f_area(spec.act)
                + tech.fp_mul_area(spec.act)
                + tech.fp_add_area(FpFormat::Fp32);
            // Input register, FP32 psum, weight register, control.
            let per_pe_ff = (fmt_bits + 32 + d + 4) as f64 * tech.ff_um2_per_bit;
            AreaBreakdown {
                arithmetic_um2: g.cells as f64 * per_pe_arith,
                flipflop_um2: g.cells as f64 * per_pe_ff + setup_ff_area(tech, &g, fmt_bits),
            }
        }
        SimEngine::Figna => {
            let acc = spec.acc_bits();
            // INT×INT MAC plus the second (offset/base) accumulator path
            // required for asymmetric uniform grids: Σ mantissa.
            let per_pe_arith =
                tech.int_mul_area(p, d) + tech.int_add_area(acc) + tech.int_add_area(p + 7);
            let per_pe_ff = (p + acc + (p + 7) + d + 4) as f64 * tech.ff_um2_per_bit;
            let aligners = g.input_width as f64 * aligner_area(tech, p);
            // Edge scaling: one FP32 multiplier+adder pair per output row.
            let edge =
                g.tm as f64 * (tech.fp_mul_area(FpFormat::Fp32) + tech.fp_add_area(FpFormat::Fp32));
            AreaBreakdown {
                arithmetic_um2: g.cells as f64 * per_pe_arith + aligners + edge,
                flipflop_um2: g.cells as f64 * per_pe_ff + setup_ff_area(tech, &g, fmt_bits),
            }
        }
        SimEngine::Ifpu => {
            let acc = spec.acc_bits();
            // One add/sub per 1-bit cell; each cell owns its plane partial.
            let per_cell_arith = tech.int_add_area(acc);
            let per_cell_ff =
                (1 + 2 + acc) as f64 * tech.ff_um2_per_bit + (p as f64 / 4.0) * tech.ff_um2_per_bit; // input reg shared by 4 lanes
            let aligners = g.input_width as f64 * aligner_area(tech, p);
            let edge =
                g.tm as f64 * (tech.fp_mul_area(FpFormat::Fp32) + tech.fp_add_area(FpFormat::Fp32));
            AreaBreakdown {
                arithmetic_um2: g.cells as f64 * per_cell_arith + aligners + edge,
                flipflop_um2: g.cells as f64 * per_cell_ff + setup_ff_area(tech, &g, fmt_bits),
            }
        }
        SimEngine::FiglutF | SimEngine::FiglutI => {
            let pes = 2 * 16 * 4;
            let pe = pe_area(tech, &spec.pe_params());
            // The generator share inside `pe_area` covers the adder trees;
            // aligners for the I variant sit at the array edge.
            let aligners = if spec.engine == SimEngine::FiglutI {
                g.input_width as f64 * aligner_area(tech, p)
            } else {
                0.0
            };
            let edge =
                g.tm as f64 * (tech.fp_mul_area(FpFormat::Fp32) + tech.fp_add_area(FpFormat::Fp32));
            // Split the PE area into buckets: LUT storage + registers are
            // FF; adders, muxes and generators are arithmetic.
            let pp = spec.pe_params();
            let lut_bits = (spec.lut_kind.stored_entries(spec.mu) as u32 * fmt_bits) as f64;
            let reg_bits = spec.k as f64 * (spec.mu + pp.datapath.acc_bits()) as f64;
            let ff = (lut_bits + reg_bits) * tech.ff_um2_per_bit;
            let arith_per_pe = pe - ff;
            AreaBreakdown {
                arithmetic_um2: pes as f64 * arith_per_pe + aligners + edge,
                flipflop_um2: pes as f64 * ff + setup_ff_area(tech, &g, fmt_bits),
            }
        }
    }
}

/// Systolic data-setup flip-flops: a triangular delay array of up to
/// `fill_stages` registers across the input bus (paper: "63-stage input
/// buffers … FIGLUT requires a maximum of only 15").
fn setup_ff_area(tech: &Tech, g: &Geometry, fmt_bits: u32) -> f64 {
    let bits = g.fill_stages as f64 * g.input_width as f64 * fmt_bits as f64 / 2.0;
    bits * tech.ff_um2_per_bit
}

/// Per-cycle flip-flop energy of the systolic setup + PE pipeline registers.
pub fn pipeline_ff_pj_per_cycle(tech: &Tech, spec: &EngineSpec) -> f64 {
    let g = geometry(spec);
    let fmt_bits = spec.act.storage_bits();
    let p = spec.mant_bits();
    let d = spec.designed_bits;
    let per_cell_bits = match spec.engine {
        SimEngine::Fpe => (fmt_bits + 32 + d + 4) as f64,
        SimEngine::Figna => (p + spec.acc_bits() + (p + 7) + d + 4) as f64,
        SimEngine::Ifpu => (1 + 2 + spec.acc_bits()) as f64 + p as f64 / 4.0,
        // LUT engines: register energy is accounted inside `pe_power`.
        SimEngine::FiglutF | SimEngine::FiglutI => 0.0,
    };
    let setup_bits = g.fill_stages as f64 * g.input_width as f64 * fmt_bits as f64 / 2.0;
    (g.cells as f64 * per_cell_bits + setup_bits) * tech.ff_pj_per_bit_cycle
}

/// Engine-level area: MPU + SRAM buffers + VPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineArea {
    /// The matrix processing unit.
    pub mpu: AreaBreakdown,
    /// On-chip SRAM buffers (input/weight/psum/unified).
    pub sram_um2: f64,
    /// Vector processing unit for non-GEMM ops.
    pub vpu_um2: f64,
}

impl EngineArea {
    /// Total engine area (µm²).
    pub fn total_um2(&self) -> f64 {
        self.mpu.total_um2() + self.sram_um2 + self.vpu_um2
    }

    /// Total in mm².
    pub fn total_mm2(&self) -> f64 {
        self.total_um2() / 1e6
    }
}

/// Full engine area including buffers and VPU.
pub fn engine_area(tech: &Tech, spec: &EngineSpec) -> EngineArea {
    let mpu = mpu_area(tech, spec);
    EngineArea {
        mpu,
        sram_um2: crate::memory::buffer_bits(spec) as f64 * tech.sram_um2_per_bit,
        vpu_um2: 64.0 * (tech.fp_mul_area(FpFormat::Fp32) + tech.fp_add_area(FpFormat::Fp32)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tech {
        Tech::cmos28()
    }

    #[test]
    fn throughput_normalized_across_engines() {
        // Paper: all engines are designed for identical Q4 throughput.
        for e in SimEngine::ALL {
            let spec = EngineSpec::paper(e, FpFormat::Fp16);
            let g = geometry(&spec);
            let w = g.weights_per_cycle(e, 4.0);
            assert!((w - 4096.0).abs() < 1e-9, "{}: {w}", e.name());
        }
    }

    #[test]
    fn bit_serial_speeds_up_at_low_precision() {
        let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
        let g = geometry(&spec);
        assert_eq!(g.weights_per_cycle(SimEngine::FiglutI, 2.0), 8192.0);
        assert_eq!(g.weights_per_cycle(SimEngine::FiglutI, 8.0), 2048.0);
        // Fixed engines cannot exploit sub-designed precision.
        let f = EngineSpec::paper(SimEngine::Figna, FpFormat::Fp16);
        assert_eq!(
            geometry(&f).weights_per_cycle(SimEngine::Figna, 2.0),
            4096.0
        );
    }

    #[test]
    fn figlut_fill_stages_are_15_vs_63() {
        let lut = geometry(&EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16));
        let fpe = geometry(&EngineSpec::paper(SimEngine::Fpe, FpFormat::Fp16));
        assert_eq!(lut.fill_stages, 15);
        assert_eq!(fpe.fill_stages, 63);
    }

    #[test]
    fn fig14_fpe_is_arithmetic_dominated_and_largest() {
        let tech = t();
        let a_fpe = mpu_area(&tech, &EngineSpec::paper(SimEngine::Fpe, FpFormat::Fp16));
        assert!(a_fpe.arithmetic_um2 > a_fpe.flipflop_um2);
        for e in [SimEngine::Figna, SimEngine::Ifpu, SimEngine::FiglutI] {
            let a = mpu_area(&tech, &EngineSpec::paper(e, FpFormat::Fp16));
            assert!(
                a.total_um2() < a_fpe.total_um2(),
                "{} not smaller than FPE",
                e.name()
            );
        }
    }

    #[test]
    fn fig14_ifpu_has_more_ff_than_fpe() {
        // Paper: "iFPUs … employ a greater number of flip-flops than FPEs".
        let tech = t();
        let fpe = mpu_area(&tech, &EngineSpec::paper(SimEngine::Fpe, FpFormat::Fp16));
        let ifpu = mpu_area(&tech, &EngineSpec::paper(SimEngine::Ifpu, FpFormat::Fp16));
        assert!(ifpu.flipflop_um2 > fpe.flipflop_um2);
    }

    #[test]
    fn fig14_figlut_reduces_flipflop_area() {
        // Paper: "the introduction of LUT-based operations reduces the
        // overall flip-flop area compared to other hardware architectures".
        let tech = t();
        let lut = mpu_area(
            &tech,
            &EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16),
        );
        for e in [SimEngine::Fpe, SimEngine::Ifpu, SimEngine::Figna] {
            let a = mpu_area(&tech, &EngineSpec::paper(e, FpFormat::Fp16));
            assert!(
                lut.flipflop_um2 < a.flipflop_um2,
                "FIGLUT FF {} !< {} FF {}",
                lut.flipflop_um2,
                e.name(),
                a.flipflop_um2
            );
        }
    }

    #[test]
    fn fig14_q8_hits_figna_harder_than_fpe() {
        // Paper: FIGNA's arithmetic scales with weight bits; FPE only grows
        // its dequantizer.
        let tech = t();
        let figna4 = mpu_area(&tech, &EngineSpec::paper(SimEngine::Figna, FpFormat::Fp16));
        let figna8 = mpu_area(
            &tech,
            &EngineSpec::paper(SimEngine::Figna, FpFormat::Fp16).q8_variant(),
        );
        let fpe4 = mpu_area(&tech, &EngineSpec::paper(SimEngine::Fpe, FpFormat::Fp16));
        let fpe8 = mpu_area(
            &tech,
            &EngineSpec::paper(SimEngine::Fpe, FpFormat::Fp16).q8_variant(),
        );
        let growth_figna = figna8.arithmetic_um2 / figna4.arithmetic_um2;
        let growth_fpe = fpe8.arithmetic_um2 / fpe4.arithmetic_um2;
        assert!(
            growth_figna > growth_fpe,
            "FIGNA growth {growth_figna} !> FPE growth {growth_fpe}"
        );
    }

    #[test]
    fn figlut_i_smaller_than_figna_mpu() {
        // Paper Fig. 13/14: FIGLUT-I is at least as dense as FIGNA.
        let tech = t();
        let lut = mpu_area(
            &tech,
            &EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16),
        );
        let figna = mpu_area(&tech, &EngineSpec::paper(SimEngine::Figna, FpFormat::Fp16));
        assert!(
            lut.total_um2() < figna.total_um2() * 1.05,
            "FIGLUT {} vs FIGNA {}",
            lut.total_um2(),
            figna.total_um2()
        );
    }
}
