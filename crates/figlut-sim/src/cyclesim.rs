//! Cycle-level simulation of one FIGLUT PE (paper Figs. 4–5).
//!
//! The analytic model in [`crate::dataflow`] prices GEMMs with closed-form
//! cycle counts. This module *executes* the weight-stationary, bit-plane-
//! inner dataflow of one PE — generator → hFFLUT → k RACs → edge scaling —
//! one cycle at a time, so two things can be checked against it:
//!
//! 1. **Functional correctness through the timing**: the simulated PE's
//!    outputs must equal `figlut_gemm::figlut::gemm_i` *bit-for-bit* (same
//!    pre-alignment, same integer LUT reads, same FP32 scaling order).
//! 2. **The closed-form cycle count**: steady-state cycles must match
//!    `m·n·B·q / (k·µ)` up to the per-tile/plane switch bubbles the
//!    analytic model charges.
//!
//! One PE is `1/128` of the paper's MPU; its dataflow (Fig. 5(b)): hold a
//! tile of k output rows stationary, then for each bit plane, stream every
//! input group of every batch row through the shared LUT while the k RACs
//! read-accumulate their pattern keys. Plane partials are scaled by `αᵢ`
//! (and the offset by `z·Σx`, read through the all-ones key) at the array
//! edge.

use figlut_gemm::common::EngineConfig;
use figlut_lut::key::Key;
use figlut_lut::table::{HalfLut, LutRead};
use figlut_num::align::AlignedVector;
use figlut_num::fp::FpFormat;
use figlut_num::Mat;
use figlut_quant::BcqWeight;

/// Event counters accumulated by the simulation — the quantities the
/// energy model prices per occurrence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeCounters {
    /// Cycles the PE was active.
    pub cycles: u64,
    /// Half-table (re)generations (one per streamed input group).
    pub lut_generations: u64,
    /// RAC read-accumulate operations.
    pub rac_reads: u64,
    /// Bit-plane switches (key-register reloads).
    pub plane_switches: u64,
    /// Weight-tile switches (new k output rows made stationary).
    pub tile_switches: u64,
    /// Edge scaling operations (α·partial and z·Σx folds).
    pub edge_scalings: u64,
}

/// Result of simulating one PE over a whole GEMM.
#[derive(Clone, Debug)]
pub struct PeSimResult {
    /// `B × m` outputs.
    pub outputs: Mat<f64>,
    /// Event counts.
    pub counters: PeCounters,
}

/// Cycle-step one FIGLUT-I PE through `y = x·Wᵀ`.
///
/// `cfg.mu` is the LUT group size; `k` RACs (output rows) share the LUT.
/// Activations are pre-aligned per batch row exactly as the functional
/// engine does.
///
/// # Panics
///
/// Panics on shape mismatch, `µ ∉ 1..=8`, or `k == 0`, or if a LUT entry
/// overflows `i64` — as in [`figlut_gemm::figlut::gemm_i`], only possible
/// with `p + guard_bits = 61` and `µ ≥ 5`.
pub fn simulate_pe_gemm_i(
    x: &Mat<f64>,
    w: &BcqWeight,
    cfg: &EngineConfig,
    k: usize,
) -> PeSimResult {
    assert!((1..=8).contains(&cfg.mu), "µ = {} unsupported", cfg.mu);
    assert!(k > 0, "k must be positive");
    let (batch, n) = x.shape();
    let (m, wn) = w.shape();
    assert_eq!(n, wn, "activation/weight width mismatch");
    let q = w.bits() as usize;
    let gs = w.group_size();
    let groups = w.groups();
    let mu = cfg.mu as usize;

    let mut counters = PeCounters::default();
    // Integer plane partials per (batch, row, scale-group, plane) plus the
    // offset partial (index q). The cycle loop fills these; the edge stage
    // folds them in the canonical (group-outer, plane-inner) order so the
    // result is bit-identical to the functional engine.
    let mut partials = vec![0i128; batch * m * groups * (q + 1)];
    let idx = |b: usize, r: usize, g: usize, i: usize| ((b * m + r) * groups + g) * (q + 1) + i;

    // Pre-align every batch row once (the aligner sits at the array input).
    let xa = x.map(|&v| cfg.act.quantize(v));
    let aligned: Vec<AlignedVector> = (0..batch)
        .map(|b| AlignedVector::align(xa.row(b), cfg.act, cfg.guard_bits, cfg.align))
        .collect();

    // --- weight-stationary tile loop: k output rows at a time -----------
    for tile_r0 in (0..m).step_by(k) {
        let rows = &(tile_r0..(tile_r0 + k).min(m)).collect::<Vec<_>>();
        counters.tile_switches += 1;
        // Fig. 5(b): bit planes inner — the next plane of the SAME tile is
        // processed before moving to the next tile. The offset pass rides
        // as a synthetic plane reading the all-ones key.
        for plane in 0..=q {
            let is_offset_pass = plane == q;
            if is_offset_pass && !w.has_offset() {
                continue;
            }
            counters.plane_switches += 1;
            for (b, av) in aligned.iter().enumerate() {
                let mant = av.mantissas();
                for g in 0..groups {
                    let c0 = g * gs;
                    let mut win_start = c0;
                    while win_start < c0 + gs {
                        let width = mu.min(c0 + gs - win_start);
                        // One cycle: generator rebuilds the half table for
                        // this window, k RACs read concurrently.
                        counters.cycles += 1;
                        counters.lut_generations += 1;
                        let lut = HalfLut::build(&mant[win_start..win_start + width], |a, c| {
                            // audit: allow(panic) — `# Panics` bound: ≤ µ mantissas below 2^(p+g) fit i64 unless p + g = 61 and µ ≥ 5
                            a.checked_add(c).expect("LUT entry overflow")
                        });
                        for &r in rows.iter() {
                            counters.rac_reads += 1;
                            let key = if is_offset_pass {
                                Key::new(((1u32 << width) - 1) as u16, width as u32)
                            } else {
                                Key::new(w.plane(plane).key(r, win_start, width), width as u32)
                            };
                            partials[idx(b, r, g, plane)] += lut.read(key) as i128;
                        }
                        win_start += width;
                    }
                }
            }
        }
    }

    // --- edge stage: fold partials in the functional engine's order -----
    let mut outputs = Mat::zeros(batch, m);
    for (b, av) in aligned.iter().enumerate() {
        let lambda = av.scale();
        for r in 0..m {
            let mut acc = 0.0;
            for g in 0..groups {
                let c0 = g * gs;
                for i in 0..q {
                    counters.edge_scalings += 1;
                    acc = fold32(acc, w.alpha(i, r, c0), partials[idx(b, r, g, i)], lambda);
                }
                if w.has_offset() {
                    counters.edge_scalings += 1;
                    acc = fold32(acc, w.offset(r, c0), partials[idx(b, r, g, q)], lambda);
                }
            }
            outputs[(b, r)] = acc;
        }
    }
    PeSimResult { outputs, counters }
}

/// FP32-rounded `acc + α·(p·λ)` — the edge datapath, identical to
/// `figlut_gemm::ifpu::fold_partial`.
fn fold32(acc: f64, alpha: f64, p: i128, lambda: f64) -> f64 {
    let fp32 = |v: f64| FpFormat::Fp32.quantize(v);
    let real = fp32(p as f64 * lambda);
    fp32(acc + fp32(alpha * real))
}

/// Cycle-step one FIGLUT-F PE (floating-point LUT entries, FP32 RACs)
/// through `y = x·Wᵀ`. Same dataflow as [`simulate_pe_gemm_i`], FP
/// datapath; bit-identical to `figlut_gemm::figlut::gemm_f`.
///
/// # Panics
///
/// Panics on shape mismatch, `µ ∉ 1..=8`, or `k == 0`.
pub fn simulate_pe_gemm_f(
    x: &Mat<f64>,
    w: &BcqWeight,
    cfg: &EngineConfig,
    k: usize,
) -> PeSimResult {
    assert!((1..=8).contains(&cfg.mu), "µ = {} unsupported", cfg.mu);
    assert!(k > 0, "k must be positive");
    let (batch, n) = x.shape();
    let (m, wn) = w.shape();
    assert_eq!(n, wn, "activation/weight width mismatch");
    let q = w.bits() as usize;
    let gs = w.group_size();
    let groups = w.groups();
    let mu = cfg.mu as usize;
    let fp32 = |v: f64| FpFormat::Fp32.quantize(v);
    let add32 = |a: f64, b: f64| fp32(a + b);

    let mut counters = PeCounters::default();
    // FP32 plane partials, accumulated window-by-window in stream order —
    // the same association the functional engine uses.
    let mut partials = vec![0.0f64; batch * m * groups * (q + 1)];
    let idx = |b: usize, r: usize, g: usize, i: usize| ((b * m + r) * groups + g) * (q + 1) + i;
    let xa = x.map(|&v| cfg.act.quantize(v));

    for tile_r0 in (0..m).step_by(k) {
        let rows = &(tile_r0..(tile_r0 + k).min(m)).collect::<Vec<_>>();
        counters.tile_switches += 1;
        for plane in 0..=q {
            let is_offset_pass = plane == q;
            if is_offset_pass && !w.has_offset() {
                continue;
            }
            counters.plane_switches += 1;
            for b in 0..batch {
                let xrow = xa.row(b);
                for g in 0..groups {
                    let c0 = g * gs;
                    let mut win_start = c0;
                    while win_start < c0 + gs {
                        let width = mu.min(c0 + gs - win_start);
                        counters.cycles += 1;
                        counters.lut_generations += 1;
                        let lut = HalfLut::build(&xrow[win_start..win_start + width], add32);
                        for &r in rows.iter() {
                            counters.rac_reads += 1;
                            let key = if is_offset_pass {
                                Key::new(((1u32 << width) - 1) as u16, width as u32)
                            } else {
                                Key::new(w.plane(plane).key(r, win_start, width), width as u32)
                            };
                            let slot = &mut partials[idx(b, r, g, plane)];
                            *slot = add32(*slot, lut.read(key));
                        }
                        win_start += width;
                    }
                }
            }
        }
    }

    let mut outputs = Mat::zeros(batch, m);
    for b in 0..batch {
        for r in 0..m {
            let mut acc = 0.0;
            for g in 0..groups {
                let c0 = g * gs;
                for i in 0..q {
                    counters.edge_scalings += 1;
                    acc = add32(acc, fp32(w.alpha(i, r, c0) * partials[idx(b, r, g, i)]));
                }
                if w.has_offset() {
                    counters.edge_scalings += 1;
                    acc = add32(acc, fp32(w.offset(r, c0) * partials[idx(b, r, g, q)]));
                }
            }
            outputs[(b, r)] = acc;
        }
    }
    PeSimResult { outputs, counters }
}

/// Inputs of the closed-form PE cycle prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeCyclesQuery {
    /// Output rows.
    pub m: usize,
    /// Reduction width.
    pub n: usize,
    /// Batch rows.
    pub batch: usize,
    /// Bit planes.
    pub q: u32,
    /// LUT group size.
    pub mu: u32,
    /// RACs per LUT.
    pub k: usize,
    /// Columns per scale group (`0` = per row).
    pub group_size: usize,
    /// Whether an offset pass rides along.
    pub has_offset: bool,
}

/// Closed-form steady-state cycles the analytic model predicts for one PE:
/// `ceil(m/k) · passes · B · Σ windows`, where passes counts bit planes
/// plus the offset pass.
pub fn predicted_pe_cycles(qy: &PeCyclesQuery) -> u64 {
    let gs = if qy.group_size == 0 {
        qy.n
    } else {
        qy.group_size
    };
    let groups = qy.n / gs;
    let windows_per_group = gs.div_ceil(qy.mu as usize);
    let passes = qy.q as u64 + qy.has_offset as u64;
    (qy.m.div_ceil(qy.k) as u64) * passes * qy.batch as u64 * (groups * windows_per_group) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_gemm::figlut::gemm_i;
    use figlut_quant::bcq::BcqParams;
    use figlut_quant::uniform::{rtn, RtnParams};

    fn problem(m: usize, n: usize, batch: usize, bits: u32) -> (Mat<f64>, BcqWeight) {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.219).sin() * 0.4);
        let b = BcqWeight::quantize(&w, BcqParams::per_row(bits));
        let x = Mat::from_fn(batch, n, |bb, c| ((bb * n + c) as f64 * 0.057).cos());
        (x, b)
    }

    #[test]
    fn cycle_sim_matches_functional_engine_bitexact() {
        for (m, n, batch, bits, k) in [
            (8usize, 32usize, 2usize, 3u32, 4usize),
            (6, 24, 3, 2, 8),
            (5, 40, 1, 4, 2),
        ] {
            let (x, w) = problem(m, n, batch, bits);
            let cfg = EngineConfig::paper_default();
            let sim = simulate_pe_gemm_i(&x, &w, &cfg, k);
            let func = gemm_i(&x, &w, &cfg);
            assert_eq!(
                sim.outputs.as_slice(),
                func.as_slice(),
                "m={m} n={n} B={batch} q={bits} k={k}"
            );
        }
    }

    #[test]
    fn fp_cycle_sim_matches_functional_engine_bitexact() {
        use figlut_gemm::figlut::gemm_f;
        for (m, n, batch, bits, k) in [(8usize, 32usize, 2usize, 3u32, 4usize), (5, 24, 2, 2, 8)] {
            let (x, w) = problem(m, n, batch, bits);
            let cfg = EngineConfig::paper_default();
            let sim = simulate_pe_gemm_f(&x, &w, &cfg, k);
            let func = gemm_f(&x, &w, &cfg);
            assert_eq!(
                sim.outputs.as_slice(),
                func.as_slice(),
                "m={m} n={n} B={batch} q={bits} k={k}"
            );
        }
    }

    #[test]
    fn f_and_i_variants_count_identical_events() {
        let (x, w) = problem(6, 24, 2, 3);
        let cfg = EngineConfig::paper_default();
        let f = simulate_pe_gemm_f(&x, &w, &cfg, 4).counters;
        let i = simulate_pe_gemm_i(&x, &w, &cfg, 4).counters;
        assert_eq!(f, i, "datapath choice must not change the schedule");
    }

    #[test]
    fn cycle_count_matches_closed_form() {
        let (x, w) = problem(8, 32, 2, 3);
        let cfg = EngineConfig::paper_default();
        let sim = simulate_pe_gemm_i(&x, &w, &cfg, 4);
        let want = predicted_pe_cycles(&PeCyclesQuery {
            m: 8,
            n: 32,
            batch: 2,
            q: 3,
            mu: 4,
            k: 4,
            group_size: w.group_size(),
            has_offset: w.has_offset(),
        });
        assert_eq!(sim.counters.cycles, want);
    }

    #[test]
    fn event_counts_are_consistent() {
        let (x, w) = problem(6, 24, 2, 2);
        let cfg = EngineConfig::paper_default();
        let sim = simulate_pe_gemm_i(&x, &w, &cfg, 3);
        let c = &sim.counters;
        // One generation per cycle (the generator runs every streamed
        // window), and ≤ k reads per cycle.
        assert_eq!(c.lut_generations, c.cycles);
        assert!(c.rac_reads <= c.cycles * 3);
        // Tiles: ceil(6/3) = 2; planes per tile: q + offset = 3.
        assert_eq!(c.tile_switches, 2);
        assert_eq!(c.plane_switches, 2 * 3);
        // Edge folds: per (batch, row, group, plane+offset).
        assert_eq!(c.edge_scalings, 2 * 6 * (2 + 1) as u64);
    }

    #[test]
    fn rac_reads_follow_complexity_formula() {
        // Table I: FIGLUT performs m·n·B·q/µ reads (+ offset pass).
        let (x, w) = problem(8, 32, 2, 4);
        let cfg = EngineConfig::paper_default();
        let sim = simulate_pe_gemm_i(&x, &w, &cfg, 4);
        let expect = (8 * 32 * 2 * (4 + 1)) as u64 / 4;
        assert_eq!(sim.counters.rac_reads, expect);
    }

    #[test]
    fn bigger_k_fewer_cycles() {
        let (x, w) = problem(16, 32, 2, 3);
        let cfg = EngineConfig::paper_default();
        let c1 = simulate_pe_gemm_i(&x, &w, &cfg, 1).counters.cycles;
        let c4 = simulate_pe_gemm_i(&x, &w, &cfg, 4).counters.cycles;
        let c16 = simulate_pe_gemm_i(&x, &w, &cfg, 16).counters.cycles;
        assert_eq!(c1, 4 * c4);
        assert_eq!(c4, 4 * c16);
    }

    #[test]
    fn uniform_model_runs_through_cycle_sim() {
        // The Eq. 3 rewrite executes losslessly through the timed PE too.
        let wmat = Mat::from_fn(4, 16, |r, c| ((r * 16 + c) as f64 * 0.157).sin());
        let u = rtn(&wmat, RtnParams::per_row(4));
        let w = BcqWeight::from_uniform(&u);
        let x = Mat::from_fn(2, 16, |b, c| ((b + c) as f64 * 0.091).cos());
        let cfg = EngineConfig::paper_default();
        let sim = simulate_pe_gemm_i(&x, &w, &cfg, 4);
        let func = gemm_i(&x, &w, &cfg);
        assert_eq!(sim.outputs.as_slice(), func.as_slice());
    }

    #[test]
    fn grouped_scales_supported() {
        let wmat = Mat::from_fn(4, 32, |r, c| ((r * 32 + c) as f64 * 0.143).sin());
        let w = BcqWeight::quantize(&wmat, BcqParams::grouped(3, 8));
        let x = Mat::from_fn(2, 32, |b, c| ((b + c) as f64 * 0.081).cos());
        let cfg = EngineConfig::paper_default();
        let sim = simulate_pe_gemm_i(&x, &w, &cfg, 4);
        let func = gemm_i(&x, &w, &cfg);
        assert_eq!(sim.outputs.as_slice(), func.as_slice());
    }
}
