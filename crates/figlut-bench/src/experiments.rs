//! One function per paper table/figure (see DESIGN.md §4).
//!
//! Synthetic-model experiments (Tables IV/VI, Fig. 17) run on scaled-down
//! OPT-proportioned teachers (DESIGN.md §2 documents the substitution);
//! hardware experiments (Figs. 6–16, Table V) run the cost simulator on the
//! *real* OPT shape inventories.

use crate::fmt::{f3, ratio, Table};
use figlut_gemm::{Engine, EngineConfig};
use figlut_lut::bank::{banked_read_phase, fflut_read_phase, GPU_BANKS};
use figlut_lut::generator::GenSchedule;
use figlut_lut::table::symbolic_table;
use figlut_model::calibrate::{quantize_model, to_bcq, to_packed, Method};
use figlut_model::config::{by_name, OptConfig, OPT_FAMILY};
use figlut_model::corpus::{generate, Corpus};
use figlut_model::ppl::perplexity;
use figlut_model::transformer::{Backend, ModelConfig, Transformer};
use figlut_model::workload::decode_workload;
use figlut_num::fp::FpFormat;
use figlut_num::Mat;
use figlut_quant::bcq::{BcqParams, BcqWeight};
use figlut_quant::uniform::{rtn, RtnParams};
use figlut_sim::complexity::TABLE1;
use figlut_sim::engine::evaluate;
use figlut_sim::gpu::TABLE5_GPUS;
use figlut_sim::lutcost::{
    lut_power, optimal_k, pe_power, per_weight_read_power, system_power_per_weight, LutKind,
    PeParams,
};
use figlut_sim::mpu::{mpu_area, EngineSpec, SimEngine};
use figlut_sim::tech::Tech;
use std::path::Path;

/// An experiment body: its rendered tables, each named by its CSV stem.
type Experiment = fn() -> Vec<(String, Table)>;

/// The experiment table — every id with the function that runs it, in
/// paper order, then the reproduction's extensions (`ablation`,
/// `ext-node`, `ext-prefill`, … are not in the paper). The one source of
/// [`EXPERIMENTS`] and of [`run`]'s dispatch (`figlut-audit` reads the ids
/// from here too, as the first string literal of each row).
const EXPERIMENTS_TABLE: [(&str, Experiment); 26] = [
    ("table1", table1),
    ("fig1", fig1),
    ("fig2", fig2),
    ("table2", table2),
    ("fig6", fig6),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table3", table3),
    ("fig11", fig11),
    ("table4", table4),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("table5", table5),
    ("table6", table6),
    ("ablation", ablation),
    ("ext-node", ext_node),
    ("ext-prefill", ext_prefill),
    ("ext-quant", ext_quant),
    ("ext-serving", ext_serving),
    ("ext-chunked-prefill", ext_chunked_prefill),
    ("ext-paged-kv", ext_paged_kv),
    ("ext-overload", ext_overload),
    ("ext-resilience", ext_resilience),
];

/// All experiment ids, in [`run`] order.
pub const EXPERIMENTS: [&str; 26] = {
    let mut ids = [""; 26];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS_TABLE[i].0;
        i += 1;
    }
    ids
};

/// Look up a model from the static [`OPT_FAMILY`] table by a name that is
/// literally present in it. Keeping the one infallible-lookup panic here
/// keeps the experiment bodies free of `unwrap`.
fn opt_config(name: &str) -> &'static OptConfig {
    // audit: allow(panic) — literal name, present in the static OPT_FAMILY table
    by_name(name).unwrap_or_else(|| panic!("{name} missing from OPT_FAMILY"))
}

/// Error returned by [`run`] for an experiment id it does not know.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown experiment '{}' (try one of {EXPERIMENTS:?} or 'all')",
            self.0
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Run one experiment (or `"all"`), printing tables and writing CSVs to
/// `results_dir`.
///
/// # Errors
///
/// Returns [`UnknownExperiment`] for an id outside [`EXPERIMENTS`],
/// `"all"`, and `"calibration"`; nothing is printed or written in that
/// case.
pub fn run(id: &str, results_dir: &Path) -> Result<(), UnknownExperiment> {
    let tables = match id {
        "all" => EXPERIMENTS_TABLE.iter().flat_map(|(_, f)| f()).collect(),
        "calibration" => calibration(),
        other => match EXPERIMENTS_TABLE.iter().find(|(e, _)| *e == other) {
            Some((_, f)) => f(),
            None => return Err(UnknownExperiment(other.to_string())),
        },
    };
    for (name, t) in &tables {
        print!("{}", t.render());
        if let Err(e) = t.write_csv(results_dir, name) {
            eprintln!("warning: could not write {name}.csv: {e}");
        }
    }
    Ok(())
}

// --------------------------------------------------------------------------
// Shared synthetic-model setup
// --------------------------------------------------------------------------

/// Scaled-down stand-ins for the OPT sizes used in the accuracy tables.
fn synth_family() -> Vec<(&'static str, Transformer)> {
    vec![
        (
            "OPT-350M-synth",
            Transformer::teacher(ModelConfig::scaled(2, 32, 4), 101),
        ),
        (
            "OPT-1.3B-synth",
            Transformer::teacher(ModelConfig::scaled(2, 48, 4), 102),
        ),
        (
            "OPT-6.7B-synth",
            Transformer::teacher(ModelConfig::scaled(3, 64, 4), 103),
        ),
    ]
}

fn corpora(teacher: &Transformer, seed: u64) -> (Corpus, Corpus) {
    // Large enough that quantization orderings are clear of sampling noise
    // (180 evaluated positions per model).
    let calib = generate(teacher, 4, 14, seed);
    let eval = generate(teacher, 10, 18, seed + 1000);
    (calib, eval)
}

// --------------------------------------------------------------------------
// Experiments
// --------------------------------------------------------------------------

fn table1() -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Table I — comparison of hardware accelerators",
        &[
            "Platform",
            "FP-INT op",
            "Mixed-precision",
            "BCQ",
            "Complexity",
        ],
    );
    let b = |v: bool| if v { "yes" } else { "no" }.to_string();
    for row in TABLE1 {
        t.row(vec![
            row.name.into(),
            b(row.fp_int),
            b(row.mixed_precision),
            b(row.bcq),
            row.complexity.into(),
        ]);
    }
    vec![("table1".into(), t)]
}

fn fig1() -> Vec<(String, Table)> {
    // A 3-bit uniform grid expressed exactly as BCQ + offset (Eq. 3), next
    // to a conventional (offset-free) BCQ fit of the same values.
    let grid: Vec<f64> = (0..8).map(|v| -0.7 + 0.2 * v as f64).collect();
    let w = Mat::from_vec(1, 8, grid.clone());
    let u = rtn(&w, RtnParams::per_row(3));
    let with_offset = BcqWeight::from_uniform(&u);
    let no_offset = BcqWeight::quantize(
        &w,
        BcqParams {
            bits: 3,
            group_size: 0,
            with_offset: false,
            refine_iters: 20,
        },
    );
    let mut t = Table::new(
        "Fig. 1 — BCQ with offset represents the uniform grid exactly (q = 3)",
        &["grid value", "BCQ+offset", "BCQ (no offset)"],
    );
    for (c, &g) in grid.iter().enumerate() {
        t.row(vec![
            f3(g),
            f3(with_offset.value(0, c)),
            f3(no_offset.value(0, c)),
        ]);
    }
    t.note(format!(
        "offset-BCQ scales α = [{}], z = {} (α_i = s·2^(i-1), z = s(2^q−1)/2 + base)",
        (0..3)
            .map(|i| f3(with_offset.alpha(i, 0, 0)))
            .collect::<Vec<_>>()
            .join(", "),
        f3(with_offset.offset(0, 0)),
    ));
    vec![("fig1".into(), t)]
}

fn fig2() -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Fig. 2 — shared-memory bank conflicts: LUT-GEMM read phase vs FFLUT (32 threads)",
        &["structure", "mu", "serialization (cycles per ideal cycle)"],
    );
    for mu in [2u32, 4, 8] {
        let s = banked_read_phase(mu, 32, 2000, GPU_BANKS, 12345);
        t.row(vec![
            "GPU shared memory".into(),
            mu.to_string(),
            format!("{:.2}", s.serialization()),
        ]);
    }
    let f = fflut_read_phase(2000);
    t.row(vec![
        "FFLUT (conflict-free)".into(),
        "any".into(),
        format!("{:.2}", f.serialization()),
    ]);
    t.note("random weight keys serialize banked reads; dedicated FFLUT muxes never stall");
    vec![("fig2".into(), t)]
}

fn table2() -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Table II — LUT contents for mu = 3",
        &["binary pattern {b1,b2,b3}", "key", "value"],
    );
    for (k, expr) in symbolic_table(3) {
        let pat: Vec<&str> = (0..3)
            .map(|i| if (k >> (2 - i)) & 1 == 1 { "+1" } else { "-1" })
            .collect();
        t.row(vec![
            format!("{{{}}}", pat.join(", ")),
            format!("{k} (b'{k:03b})"),
            expr,
        ]);
    }
    vec![("table2".into(), t)]
}

fn fig6() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let mut t = Table::new(
        "Fig. 6 — LUT power per weight vs FP16-adder baseline (= 1.0)",
        &["structure", "mu", "relative power"],
    );
    for mu in [4u32, 8] {
        t.row(vec![
            "RFLUT".into(),
            mu.to_string(),
            f3(per_weight_read_power(
                &tech,
                LutKind::Rflut,
                mu,
                FpFormat::Fp16,
                1,
            )),
        ]);
    }
    for mu in [2u32, 4, 8] {
        t.row(vec![
            "FFLUT".into(),
            mu.to_string(),
            f3(per_weight_read_power(
                &tech,
                LutKind::Fflut,
                mu,
                FpFormat::Fp16,
                1,
            )),
        ]);
    }
    for mu in [2u32, 4, 8] {
        t.row(vec![
            "hFFLUT".into(),
            mu.to_string(),
            f3(per_weight_read_power(
                &tech,
                LutKind::Hfflut,
                mu,
                FpFormat::Fp16,
                1,
            )),
        ]);
    }
    t.note("RFLUT mu=2 is below the memory compiler's minimum macro (paper skips it too)");
    t.note("FFLUT mu=8 power excludes it from consideration, as in the paper");
    vec![("fig6".into(), t)]
}

fn fig8() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let mut t = Table::new(
        "Fig. 8 — relative PE power per weight vs k (baseline FP16 adders = 1.0)",
        &["k", "mu=2", "mu=4"],
    );
    for k in [1u32, 2, 4, 8, 16, 32, 64] {
        let p = |mu| {
            let params = PeParams {
                mu,
                k,
                ..PeParams::paper_default(FpFormat::Fp16)
            };
            system_power_per_weight(&tech, &params)
        };
        t.row(vec![k.to_string(), f3(p(2)), f3(p(4))]);
    }
    t.note("mu=4 starts worse (bigger LUT) and wins once the LUT is shared — paper §III-C");
    vec![("fig8".into(), t)]
}

fn fig9() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let base = pe_power(
        &tech,
        &PeParams {
            k: 1,
            ..PeParams::paper_default(FpFormat::Fp16)
        },
    );
    let mut t = Table::new(
        "Fig. 9 — P_PE and P_RAC vs k, normalized to k = 1 (mu = 4)",
        &["k", "P_PE (norm)", "P_RAC (norm)"],
    );
    for k in [1u32, 2, 4, 8, 16, 24, 32, 40, 48, 64] {
        let p = pe_power(
            &tech,
            &PeParams {
                k,
                ..PeParams::paper_default(FpFormat::Fp16)
            },
        );
        t.row(vec![
            k.to_string(),
            f3(p.total_pj() / base.total_pj()),
            f3(p.per_rac_pj(k) / base.per_rac_pj(1)),
        ]);
    }
    let kstar = optimal_k(&tech, 4, FpFormat::Fp16, 64);
    t.note(format!(
        "P_RAC minimum at k = {kstar} (paper selects k = 32)"
    ));
    vec![("fig9".into(), t)]
}

fn table3() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let full = lut_power(&tech, LutKind::Fflut, 4, 16, 32);
    let half = lut_power(&tech, LutKind::Hfflut, 4, 16, 32);
    let base = full.hold_pj_per_cycle;
    let mut t = Table::new(
        "Table III — relative power of LUT vs MUX vs decoder (FFLUT LUT = 1.000)",
        &["structure", "LUT", "MUX", "decoder", "MUX+decoder"],
    );
    t.row(vec![
        "FFLUT".into(),
        f3(full.hold_pj_per_cycle / base),
        f3(full.mux_pj_per_read / base),
        f3(0.0),
        f3(full.mux_pj_per_read / base),
    ]);
    t.row(vec![
        "hFFLUT".into(),
        f3(half.hold_pj_per_cycle / base),
        f3(half.mux_pj_per_read / base),
        f3(half.decoder_pj_per_read / base),
        f3((half.mux_pj_per_read + half.decoder_pj_per_read) / base),
    ]);
    t.note("paper reports 1.000 / 0.494 for the LUT column; decode overhead is trivial");
    vec![("table3".into(), t)]
}

fn fig11() -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Fig. 11 — LUT generator adder counts (half table)",
        &[
            "mu",
            "straightforward",
            "optimized",
            "saving",
            "depth (opt)",
        ],
    );
    for mu in 2u32..=6 {
        let s = GenSchedule::straightforward(mu, true);
        let o = GenSchedule::optimized(mu, true);
        t.row(vec![
            mu.to_string(),
            s.adds().to_string(),
            o.adds().to_string(),
            format!("{:.0}%", 100.0 * (1.0 - o.adds() as f64 / s.adds() as f64)),
            o.depth().to_string(),
        ]);
    }
    t.note("paper: 14 adds at mu = 4, a 42% reduction over 24");
    vec![("fig11".into(), t)]
}

fn table4() -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Table IV — perplexity parity of GEMM engines (RTN Q4, FP16 act, FP32 accum)",
        &["model", "GPU (exact)", "FIGLUT-F", "FIGLUT-I"],
    );
    for (name, teacher) in synth_family() {
        let (calib, eval) = corpora(&teacher, 7);
        let (q, _) = quantize_model(&teacher, &calib, Method::Rtn { bits: 4 });
        let qb = to_bcq(&q);
        let cfg = EngineConfig::paper_default();
        let gpu = perplexity(&q, &eval, &Backend::Exact);
        let ff = perplexity(&qb, &eval, &Backend::Engine(Engine::FiglutF, cfg));
        let fi = perplexity(&qb, &eval, &Backend::Engine(Engine::FiglutI, cfg));
        t.row(vec![name.into(), f3(gpu), f3(ff), f3(fi)]);
    }
    t.note("identical to ~3 decimals: FP32 accumulation preserves accuracy (paper Table IV)");
    vec![("table4".into(), t)]
}

fn accel_engines() -> [SimEngine; 4] {
    [
        SimEngine::Fpe,
        SimEngine::Ifpu,
        SimEngine::Figna,
        SimEngine::FiglutI,
    ]
}

fn fig13() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let mut out = Vec::new();
    for fmt in FpFormat::ALL {
        for q in [4.0f64, 8.0] {
            let mut t = Table::new(
                format!(
                    "Fig. 13 — TOPS/mm² normalized to FPE ({} activations, Q{})",
                    fmt, q as u32
                ),
                &[
                    "engine", "125M", "350M", "1.3B", "2.7B", "6.7B", "13B", "30B",
                ],
            );
            let spec_of = |e: SimEngine| {
                let s = EngineSpec::paper(e, fmt);
                if q > 4.0 && !e.is_bit_serial() {
                    s.q8_variant()
                } else {
                    s
                }
            };
            let base: Vec<f64> = OPT_FAMILY
                .iter()
                .map(|cfg| {
                    evaluate(
                        &tech,
                        &spec_of(SimEngine::Fpe),
                        &decode_workload(cfg, 32),
                        q,
                    )
                    .tops_per_mm2()
                })
                .collect();
            for e in accel_engines() {
                let mut row = vec![e.name().to_string()];
                for (i, cfg) in OPT_FAMILY.iter().enumerate() {
                    let r = evaluate(&tech, &spec_of(e), &decode_workload(cfg, 32), q);
                    row.push(f3(r.tops_per_mm2() / base[i]));
                }
                t.row(row);
            }
            let tag = format!("fig13_{}_q{}", fmt.name(), q as u32);
            out.push((tag, t));
        }
    }
    out
}

fn fig14() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let mut t = Table::new(
        "Fig. 14 — MPU area breakdown, normalized to FPE total (same format/precision)",
        &["variant", "engine", "arithmetic", "flip-flop", "total"],
    );
    for fmt in FpFormat::ALL {
        for q8 in [false, true] {
            let variant = format!("{}-Q{}", fmt, if q8 { 8 } else { 4 });
            let spec_of = |e: SimEngine| {
                let s = EngineSpec::paper(e, fmt);
                if q8 && !e.is_bit_serial() {
                    s.q8_variant()
                } else {
                    s
                }
            };
            let fpe = mpu_area(&tech, &spec_of(SimEngine::Fpe)).total_um2();
            for e in accel_engines() {
                let a = mpu_area(&tech, &spec_of(e));
                t.row(vec![
                    variant.clone(),
                    e.name().into(),
                    f3(a.arithmetic_um2 / fpe),
                    f3(a.flipflop_um2 / fpe),
                    f3(a.total_um2() / fpe),
                ]);
            }
        }
    }
    vec![("fig14".into(), t)]
}

fn fig15() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let cfg = opt_config("OPT-6.7B");
    let wl = decode_workload(cfg, 32);
    let mut t = Table::new(
        "Fig. 15 — energy breakdown on OPT-6.7B, normalized to FPE at each precision",
        &["precision", "engine", "MPU", "SRAM", "DRAM", "VPU", "total"],
    );
    for q in [1.0f64, 2.0, 3.0, 4.0, 8.0] {
        let spec_of = |e: SimEngine| {
            let s = EngineSpec::paper(e, FpFormat::Fp16);
            if q > 4.0 && !e.is_bit_serial() {
                s.q8_variant()
            } else {
                s
            }
        };
        let fpe_total = evaluate(&tech, &spec_of(SimEngine::Fpe), &wl, q)
            .energy
            .total_pj();
        for e in accel_engines() {
            let r = evaluate(&tech, &spec_of(e), &wl, q);
            t.row(vec![
                format!("Q{}", q as u32),
                e.name().into(),
                f3(r.energy.mpu_pj / fpe_total),
                f3(r.energy.sram_pj / fpe_total),
                f3(r.energy.dram_pj / fpe_total),
                f3(r.energy.vpu_pj / fpe_total),
                f3(r.energy.total_pj() / fpe_total),
            ]);
        }
    }
    t.note("bit-serial engines shrink with precision; FPE/FIGNA pad sub-4-bit to Q4");
    vec![("fig15".into(), t)]
}

fn fig16() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let mut out = Vec::new();
    for q in [2.0f64, 3.0, 4.0] {
        let mut t = Table::new(
            format!("Fig. 16 — TOPS/W normalized to FPE (FP16, Q{})", q as u32),
            &[
                "engine", "125M", "350M", "1.3B", "2.7B", "6.7B", "13B", "30B",
            ],
        );
        let base: Vec<f64> = OPT_FAMILY
            .iter()
            .map(|cfg| {
                evaluate(
                    &tech,
                    &EngineSpec::paper(SimEngine::Fpe, FpFormat::Fp16),
                    &decode_workload(cfg, 32),
                    q,
                )
                .tops_per_w()
            })
            .collect();
        for e in [SimEngine::Ifpu, SimEngine::Figna, SimEngine::FiglutI] {
            let mut row = vec![e.name().to_string()];
            for (i, cfg) in OPT_FAMILY.iter().enumerate() {
                let r = evaluate(
                    &tech,
                    &EngineSpec::paper(e, FpFormat::Fp16),
                    &decode_workload(cfg, 32),
                    q,
                );
                row.push(f3(r.tops_per_w() / base[i]));
            }
            t.row(row);
        }
        out.push((format!("fig16_q{}", q as u32), t));
    }
    out
}

fn fig17() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let opt = opt_config("OPT-6.7B");
    let wl = decode_workload(opt, 32);
    let teacher = Transformer::teacher(ModelConfig::scaled(3, 64, 4), 103);
    let (calib, eval) = corpora(&teacher, 7);
    let fp16_ppl = perplexity(&teacher, &eval, &Backend::Exact);

    let mut t = Table::new(
        "Fig. 17 — TOPS/W vs perplexity, OPT-6.7B(-synth): FIGNA+OPTQ vs FIGLUT+ShiftAddLLM",
        &[
            "config",
            "avg bits",
            "perplexity",
            "TOPS/W",
            "rel. model size",
        ],
    );
    t.note(format!("FP16 baseline perplexity: {}", f3(fp16_ppl)));
    let figna = EngineSpec::paper(SimEngine::Figna, FpFormat::Fp16);
    for bits in [2u32, 3, 4] {
        let (q, _) = quantize_model(&teacher, &calib, Method::Gptq { bits });
        let p = perplexity(&q, &eval, &Backend::Exact);
        let r = evaluate(&tech, &figna, &wl, bits as f64);
        t.row(vec![
            format!("FIGNA OPTQ-Q{bits}"),
            format!("{bits}"),
            f3(p),
            f3(r.tops_per_w()),
            f3(bits as f64 / 4.0),
        ]);
    }
    let figlut = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    let mut methods: Vec<(String, Method)> = vec![
        ("FIGLUT ShiftAdd-Q2".into(), Method::ShiftAdd { bits: 2 }),
        (
            "FIGLUT ShiftAdd-Q2.4".into(),
            Method::ShiftAddMixed { avg_bits: 2.4 },
        ),
        ("FIGLUT ShiftAdd-Q3".into(), Method::ShiftAdd { bits: 3 }),
        ("FIGLUT ShiftAdd-Q4".into(), Method::ShiftAdd { bits: 4 }),
    ];
    for (label, m) in methods.drain(..) {
        let (q, _) = quantize_model(&teacher, &calib, m);
        let avg = q.average_bits();
        let p = perplexity(&q, &eval, &Backend::Exact);
        let r = evaluate(&tech, &figlut, &wl, avg);
        t.row(vec![
            label,
            format!("{avg:.2}"),
            f3(p),
            f3(r.tops_per_w()),
            f3(avg / 4.0),
        ]);
    }
    vec![("fig17".into(), t)]
}

fn table5() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let cfg = opt_config("OPT-6.7B");
    let wl = decode_workload(cfg, 32);
    let mut t = Table::new(
        "Table V — cross-platform comparison (OPT-6.7B, batch 32, Q4 weights)",
        &["hardware", "format", "TOPS", "power (W)", "TOPS/W"],
    );
    for g in TABLE5_GPUS {
        t.row(vec![
            g.name.into(),
            g.format.into(),
            f3(g.tops),
            f3(g.power_w),
            f3(g.tops_per_w()),
        ]);
    }
    for e in [SimEngine::Ifpu, SimEngine::Figna, SimEngine::FiglutI] {
        let r = evaluate(&tech, &EngineSpec::paper(e, FpFormat::Fp16), &wl, 4.0);
        t.row(vec![
            e.name().into(),
            "FP16-Q4".into(),
            f3(r.tops()),
            f3(r.power_w()),
            f3(r.tops_per_w()),
        ]);
    }
    t.note("GPU rows are the paper's measured operating points (simulated constants;");
    t.note("see figlut-sim::gpu for the roofline cross-check). Accelerator rows are");
    t.note("computed by the cost model at 28nm/100MHz with LPDDR-class DRAM.");
    vec![("table5".into(), t)]
}

fn table6() -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Table VI — perplexity, FP16 vs ShiftAddLLM BCQ4 / BCQ3",
        &["model", "FP16", "BCQ4", "BCQ3"],
    );
    for (name, teacher) in synth_family() {
        let (calib, eval) = corpora(&teacher, 13);
        let base = perplexity(&teacher, &eval, &Backend::Exact);
        let mut cells = vec![name.to_string(), f3(base)];
        for bits in [4u32, 3] {
            let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits });
            cells.push(f3(perplexity(&q, &eval, &Backend::Exact)));
        }
        t.row(cells);
    }
    t.note("expected shape: FP16 ≤ BCQ4 ≤ BCQ3, with BCQ4 close to FP16 (paper Table VI)");
    vec![("table6".into(), t)]
}

fn ablation() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let opt = opt_config("OPT-6.7B");
    let wl = decode_workload(opt, 32);
    let mut t = Table::new(
        "Ablation — FIGLUT design choices on OPT-6.7B (Q4 unless noted)",
        &["configuration", "TOPS/W", "TOPS/mm2", "vs paper point"],
    );
    let base_spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    let base = evaluate(&tech, &base_spec, &wl, 4.0);
    let mut row = |label: &str, spec: EngineSpec, q: f64| {
        let r = evaluate(&tech, &spec, &wl, q);
        t.row(vec![
            label.into(),
            f3(r.tops_per_w()),
            f3(r.tops_per_mm2()),
            ratio(r.tops_per_w() / base.tops_per_w()),
        ]);
    };
    row("paper point: mu=4, k=32, hFFLUT, INT", base_spec, 4.0);
    for (mu, k) in [(2u32, 16u32), (2, 32), (4, 8), (4, 64), (8, 32)] {
        let mut s = base_spec;
        s.mu = mu;
        s.k = k;
        row(&format!("mu={mu}, k={k}"), s, 4.0);
    }
    let mut full = base_spec;
    full.lut_kind = LutKind::Fflut;
    row("full FFLUT (no halving)", full, 4.0);
    row(
        "FP RAC datapath (FIGLUT-F)",
        EngineSpec::paper(SimEngine::FiglutF, FpFormat::Fp16),
        4.0,
    );
    t.note("mu/hFFLUT/INT choices all confirm the paper's §III-C/D conclusions;");
    t.note("k=64 is marginally ahead at the whole-engine level (tile-reuse effects");
    t.note("the paper's PE-level P_RAC analysis excludes) but within noise of k=32");

    // Alignment-mode accuracy ablation (functional, on the synthetic model).
    let teacher = Transformer::teacher(ModelConfig::scaled(2, 48, 4), 102);
    let (calib, eval) = corpora(&teacher, 31);
    let (q, _) = quantize_model(&teacher, &calib, Method::Rtn { bits: 4 });
    let qb = to_bcq(&q);
    let mut t2 = Table::new(
        "Ablation — pre-alignment mode and guard bits (FIGLUT-I, RTN-Q4)",
        &["alignment", "guard bits", "perplexity"],
    );
    let exact = perplexity(&q, &eval, &Backend::Exact);
    t2.row(vec!["exact reference".into(), "-".into(), f3(exact)]);
    for (mode, name) in [
        (figlut_num::align::AlignMode::RoundNearestEven, "RNE"),
        (figlut_num::align::AlignMode::Truncate, "truncate"),
    ] {
        for guard in [0u32, 4] {
            let cfg = EngineConfig {
                guard_bits: guard,
                align: mode,
                ..EngineConfig::paper_default()
            };
            let p = perplexity(&qb, &eval, &Backend::Engine(Engine::FiglutI, cfg));
            t2.row(vec![name.into(), guard.to_string(), f3(p)]);
        }
    }
    t2.note("RNE alignment with guard bits reproduces the exact perplexity (FIGNA's");
    t2.note("'preserving numerical accuracy' claim); bare truncation drifts slightly");
    vec![("ablation_hw".into(), t), ("ablation_align".into(), t2)]
}

fn ext_node() -> Vec<(String, Table)> {
    // Extension: the paper's closing remark — "the efficiency of FIGLUT
    // would be even more prominent if evaluated under comparable
    // fabrication technologies" (A100 = 7nm, H100 = 4nm).
    let opt = opt_config("OPT-6.7B");
    let wl = decode_workload(opt, 32);
    let mut t = Table::new(
        "Extension — FIGLUT-I vs GPU efficiency across fabrication nodes",
        &["node (nm)", "TOPS/W", "vs A100 (0.21)", "vs H100 (0.22)"],
    );
    for node in [28.0f64, 16.0, 7.0, 4.0] {
        let tech = Tech::cmos28().scaled_to_node(node);
        let r = evaluate(
            &tech,
            &EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16),
            &wl,
            4.0,
        );
        t.row(vec![
            format!("{node}"),
            f3(r.tops_per_w()),
            ratio(r.tops_per_w() / 0.21),
            ratio(r.tops_per_w() / 0.22),
        ]);
    }
    t.note("first-order node scaling (DRAM energy held constant); quantifies the");
    t.note("paper's remark that 28nm FIGLUT already beats 7nm/4nm GPUs");
    vec![("ext_node".into(), t)]
}

fn ext_prefill() -> Vec<(String, Table)> {
    // Extension: decode vs prefill operating points (the paper evaluates
    // the decode/generation phase; prefill shows where the compute-bound
    // regime moves).
    use figlut_model::workload::prefill_workload;
    let tech = Tech::cmos28();
    let opt = opt_config("OPT-6.7B");
    let mut t = Table::new(
        "Extension — decode vs prefill on FIGLUT-I (OPT-6.7B, batch 32, Q4)",
        &["phase", "TOPS", "TOPS/W", "memory-bound?"],
    );
    let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    for (label, wl, batch_rows) in [
        ("decode (batch 32)", decode_workload(opt, 32), 32usize),
        ("decode (batch 1)", decode_workload(opt, 1), 1),
        (
            "prefill (batch 4 x 128 tokens)",
            prefill_workload(opt, 4, 128),
            512,
        ),
    ] {
        let r = evaluate(&tech, &spec, &wl, 4.0);
        let c = figlut_sim::dataflow::gemm_cycles(
            &tech,
            &spec,
            opt.d_model,
            opt.d_model,
            batch_rows,
            4.0,
        );
        t.row(vec![
            label.into(),
            f3(r.tops()),
            f3(r.tops_per_w()),
            if c.memory_bound() { "yes" } else { "no" }.into(),
        ]);
    }
    t.note("batch-1 decode is DRAM-bound (the paper's LLM-serving motivation);");
    t.note("prefill saturates compute and pushes efficiency toward the peak");
    vec![("ext_prefill".into(), t)]
}

fn ext_quant() -> Vec<(String, Table)> {
    // Extension: all four quantization stacks head-to-head on one model —
    // the quantizer landscape the paper's related-work section surveys
    // (RTN, AWQ [25], OPTQ [10], ShiftAddLLM [36]).
    let teacher = Transformer::teacher(ModelConfig::scaled(3, 64, 4), 103);
    let (calib, eval) = corpora(&teacher, 7);
    let base = perplexity(&teacher, &eval, &Backend::Exact);
    let mut t = Table::new(
        "Extension — quantizer comparison on OPT-6.7B-synth (perplexity)",
        &["method", "Q2", "Q3", "Q4"],
    );
    t.note(format!("FP16 baseline perplexity: {}", f3(base)));
    for (name, mk) in [
        ("RTN", (|b| Method::Rtn { bits: b }) as fn(u32) -> Method),
        ("AWQ", |b| Method::Awq { bits: b }),
        ("OPTQ", |b| Method::Gptq { bits: b }),
        ("ShiftAddLLM (BCQ)", |b| Method::ShiftAdd { bits: b }),
    ] {
        let mut cells = vec![name.to_string()];
        for bits in [2u32, 3, 4] {
            let (q, _) = quantize_model(&teacher, &calib, mk(bits));
            cells.push(f3(perplexity(&q, &eval, &Backend::Exact)));
        }
        t.row(cells);
    }
    t.note("expected: calibrated methods beat RTN; BCQ's non-uniform grid is the");
    t.note("most robust at 2 bits (why the paper pairs FIGLUT with ShiftAddLLM)");
    vec![("ext_quant".into(), t)]
}

fn ext_serving() -> Vec<(String, Table)> {
    // Extension: the paper's motivating scenario run end to end — an LLM
    // *serving* workload (seeded arrival trace, continuous batching) on the
    // packed exec backend, with the executed step sequence priced through
    // the cost model at the real OPT-1.3B shape. Before any number is
    // reported, every session's token stream is asserted bit-identical to
    // its solo batch-1 run: scheduling may move tokens in time, never
    // change them.
    use figlut_serve::{
        serve, synthetic_trace, BatchEngine, Policy, Sampling, ServeConfig, TraceParams,
    };

    let teacher = Transformer::teacher(ModelConfig::scaled(2, 48, 4), 102);
    let (calib, _) = corpora(&teacher, 7);
    let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
    let model = to_packed(&q);
    let engine = BatchEngine::new(&model, Backend::Exec(EngineConfig::paper_default()));

    let params = TraceParams {
        requests: 16,
        mean_interarrival: 12.0,
        prompt_len: (4, 10),
        new_tokens: (6, 14),
        sampling: Sampling::Greedy,
    };
    let trace = synthetic_trace(&model.cfg, &params, 4242);
    let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();

    let tech = Tech::cmos28();
    let opt = opt_config("OPT-1.3B");
    let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    let avg_bits = model.average_bits();

    let mut t = Table::new(
        format!(
            "Extension — continuous-batching serving of a {}-request trace \
             (OPT-1.3B-synth, ShiftAdd-Q3, exec backend, {} threads)",
            trace.len(),
            figlut_exec::parallel::thread_count(),
        ),
        &[
            "policy",
            "max_batch",
            "tok/ktick",
            "mean TTFT",
            "p50 lat",
            "p99 lat",
            "occupancy",
            "nJ/token",
        ],
    );
    let mut last = None;
    for (policy, max_batch) in [
        (Policy::Fcfs, 8usize),
        (Policy::DecodePriority, 8),
        (Policy::PrefillPriority, 1),
        (Policy::PrefillPriority, 4),
        (Policy::PrefillPriority, 8),
    ] {
        let report = serve(&engine, &trace, &ServeConfig::new(max_batch, policy));
        // The batch-invariance gate: no throughput number is reported
        // unless the tokens are exactly the solo batch-1 tokens.
        for r in &report.requests {
            assert_eq!(
                r.generated, solo[r.id],
                "{policy:?} max_batch={max_batch}: request {} diverged from its solo run",
                r.id
            );
        }
        t.row(vec![
            policy.name().into(),
            max_batch.to_string(),
            f3(report.tokens_per_kilotick()),
            f3(report.mean_ttft()),
            report.latency_percentile(50.0).to_string(),
            report.latency_percentile(99.0).to_string(),
            f3(report.mean_decode_occupancy()),
            f3(report.energy_per_token_pj(&tech, &spec, opt, avg_bits) / 1e3),
        ]);
        last = Some(report);
    }
    // The per-run rollup figlut-serve exposes as `ServeReport: Display`
    // (rendered through the same table helpers), for the last
    // configuration above (prefill-priority, max_batch 8).
    if let Some(report) = &last {
        print!("{report}");
    }
    t.note("per-session tokens asserted bit-identical to solo batch-1 runs before any");
    t.note("rate is reported (the batch-invariance property figlut-serve's tests pin)");
    t.note("virtual clock: each step costs 1 + token-rows ticks; latencies in ticks");
    t.note("nJ/token prices the executed step sequence (exact per-step batch sizes)");
    t.note("through figlut-sim at the real OPT-1.3B shape on FIGLUT-I at 28nm;");
    t.note("prefill steps carry prefill_workload's quadratic attention term (earlier");
    t.note("reports priced every step as a decode batch and understated prefill)");
    vec![("ext_serving".into(), t)]
}

fn ext_chunked_prefill() -> Vec<(String, Table)> {
    // Extension: chunked prefill vs head-of-line blocking, measured on the
    // serving stack. A decode-heavy load (four short-prompt sessions with
    // staggered budgets) is hit by two 30-token prompts mid-stream; the
    // monolithic prefill stalls every running decode for the full prompt,
    // while a chunk budget `c` bounds each step — and therefore every
    // running session's inter-token stall — by
    // `step_overhead + c + max_batch` ticks. Before any number is
    // reported, every emitted token stream is asserted bit-identical to
    // its solo batch-1 run, and the chunked rows are asserted to respect
    // the stall bound.
    use figlut_serve::{serve, BatchEngine, Policy, Request, Sampling, ServeConfig, Trace};

    let teacher = Transformer::teacher(ModelConfig::scaled(2, 48, 4), 102);
    let (calib, _) = corpora(&teacher, 7);
    let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
    let model = to_packed(&q);
    let engine = BatchEngine::new(&model, Backend::Exec(EngineConfig::paper_default()));

    let long_prompt = 30usize;
    let mk = |id: usize, arrival: u64, prompt_len: usize, max_new: usize| Request {
        id,
        arrival,
        prompt: (0..prompt_len)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    (7 * i + 3) % model.cfg.vocab
                }
            })
            .collect(),
        max_new,
        sampling: Sampling::Greedy,
        seed: 9000 + id as u64,
    };
    let trace = Trace {
        requests: vec![
            mk(0, 0, 3, 10),
            mk(1, 0, 3, 14),
            mk(2, 0, 3, 18),
            mk(3, 0, 3, 22),
            mk(4, 40, long_prompt, 4),
            mk(5, 80, long_prompt, 4),
        ],
    };
    let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();

    let tech = Tech::cmos28();
    let opt = opt_config("OPT-1.3B");
    let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    let avg_bits = model.average_bits();
    let max_batch = 4usize;

    let mut t = Table::new(
        format!(
            "Extension — chunked prefill vs head-of-line blocking \
             (4 decode-heavy sessions + 2 x {long_prompt}-token prompts, \
             prefill-priority, max_batch {max_batch}, exec backend)"
        ),
        &[
            "prefill_chunk",
            "tok/ktick",
            "mean TTFT",
            "p99 lat",
            "max stall",
            "p99 stall",
            "mixed steps",
            "nJ/token",
        ],
    );
    for chunk in [None, Some(64usize), Some(16), Some(8)] {
        let mut cfg = ServeConfig::new(max_batch, Policy::PrefillPriority);
        cfg.prefill_chunk = chunk;
        let report = serve(&engine, &trace, &cfg);
        // The batch-invariance gate: chunking must move stalls, not tokens.
        for r in &report.requests {
            assert_eq!(
                r.generated, solo[r.id],
                "chunk {chunk:?}: request {} diverged from its solo run",
                r.id
            );
        }
        if let Some(c) = chunk {
            // The tentpole's latency guarantee, asserted before reporting:
            // stalls are bounded by the chunk, not the foreign prompt.
            let bound = cfg.step_overhead + (c.min(long_prompt) + max_batch) as u64;
            assert!(
                report.max_inter_token_stall() <= bound,
                "chunk {c}: stall {} exceeds bound {bound}",
                report.max_inter_token_stall()
            );
        }
        let mixed = report
            .steps
            .iter()
            .filter(|s| s.prefill_rows > 0 && s.decode_rows > 0)
            .count();
        t.row(vec![
            chunk.map_or("none".into(), |c| c.to_string()),
            f3(report.tokens_per_kilotick()),
            f3(report.mean_ttft()),
            report.latency_percentile(99.0).to_string(),
            report.max_inter_token_stall().to_string(),
            report.stall_percentile(99.0).to_string(),
            mixed.to_string(),
            f3(report.energy_per_token_pj(&tech, &spec, opt, avg_bits) / 1e3),
        ]);
    }
    t.note("tokens asserted bit-identical to solo batch-1 runs for every chunk budget");
    t.note("before any number is reported; chunked rows additionally asserted to meet");
    t.note("the stall bound step_overhead + chunk + max_batch (chunk 64 > prompt 30,");
    t.note("so it degenerates to one whole-prompt chunk and only caps, not splits)");
    t.note("stalls are gaps between consecutive tokens of one session, in ticks; the");
    t.note("monolithic row shows the head-of-line blocking: a running session waits");
    t.note("the whole foreign prompt; energy barely moves because chunk pricing");
    t.note("telescopes (quadratic attention increments sum to the whole-prompt term)");
    vec![("ext_chunked_prefill".into(), t)]
}

fn ext_paged_kv() -> Vec<(String, Table)> {
    // Extension: paged KV with copy-on-write prefix sharing and
    // preempt-to-host, measured on the serving stack. Eight sessions share
    // a 64-token prompt prefix (a system prompt) and diverge in 4-token
    // tails; contiguous per-session KV stores the prefix eight times while
    // the paged layouts keep one refcounted copy and copy-on-write only on
    // divergence. The last row caps the block pool at the legal minimum
    // (one full-context session), forcing preempt/restore cycles whose
    // swap traffic is priced as non-GEMM DRAM work. Before any number is
    // reported, every token stream is asserted bit-identical to its solo
    // batch-1 run — paging and preemption move bytes, never tokens — and
    // the unbounded paged rows are asserted to cut resident KV below half
    // of contiguous at energy within 5% (sharing is storage-only, so the
    // executed step sequence is identical and energy is *exactly* equal).
    use figlut_serve::{serve, BatchEngine, Policy, Request, Sampling, ServeConfig, Trace};

    let teacher = Transformer::teacher(
        ModelConfig {
            max_seq: 96,
            ..ModelConfig::tiny()
        },
        103,
    );
    let (calib, _) = corpora(&teacher, 7);
    let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
    let model = to_packed(&q);
    let engine = BatchEngine::new(&model, Backend::Exec(EngineConfig::paper_default()));

    let sessions = 8usize;
    let prefix_len = 64usize;
    let prefix: Vec<usize> = (0..prefix_len)
        .map(|i| {
            if i == 0 {
                0
            } else {
                (5 * i + 11) % model.cfg.vocab
            }
        })
        .collect();
    let trace = Trace {
        requests: (0..sessions)
            .map(|id| {
                let mut prompt = prefix.clone();
                prompt.extend((0..4).map(|i| (13 * id + 29 * i + 1) % model.cfg.vocab));
                Request {
                    id,
                    arrival: 0,
                    prompt,
                    max_new: 8,
                    sampling: Sampling::Greedy,
                    seed: 7000 + id as u64,
                }
            })
            .collect(),
    };
    let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();

    let tech = Tech::cmos28();
    let opt = opt_config("OPT-1.3B");
    let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    let avg_bits = model.average_bits();
    let max_batch = sessions;
    // Contiguous resident KV uses the same per-row storage a block holds.
    let row_bytes = 2 * model.cfg.layers * model.cfg.d_model * std::mem::size_of::<f64>();

    let mut t = Table::new(
        format!(
            "Extension — paged KV, prefix sharing, preempt/restore \
             ({sessions} sessions x {prefix_len}-token shared prefix, \
             prefill-priority, max_batch {max_batch}, exec backend)"
        ),
        &[
            "kv layout",
            "pool",
            "peak KV KiB",
            "vs contig",
            "shared rows",
            "swaps o/i",
            "tok/ktick",
            "nJ/token",
        ],
    );

    let base = ServeConfig::new(max_batch, Policy::PrefillPriority);
    let contiguous = serve(&engine, &trace, &base);
    for r in &contiguous.requests {
        assert_eq!(
            r.generated, solo[r.id],
            "contiguous: request {} diverged from its solo run",
            r.id
        );
    }
    let contig_bytes = contiguous.peak_kv_rows * row_bytes;
    let contig_energy = contiguous.energy_per_token_pj(&tech, &spec, opt, avg_bits);
    t.row(vec![
        "contiguous".into(),
        "-".into(),
        f3(contig_bytes as f64 / 1024.0),
        ratio(1.0),
        "0".into(),
        "0/0".into(),
        f3(contiguous.tokens_per_kilotick()),
        f3(contig_energy / 1e3),
    ]);

    let min_cap = model.cfg.max_seq.div_ceil(8);
    for (bs, pool) in [(4usize, None), (8, None), (16, None), (8, Some(min_cap))] {
        let mut cfg = base.with_block_size(bs);
        cfg.pool_blocks = pool;
        let report = serve(&engine, &trace, &cfg);
        // The batch-invariance gate, now over memory layout: paging and
        // preemption may move bytes, never tokens.
        for r in &report.requests {
            assert_eq!(
                r.generated, solo[r.id],
                "bs {bs} pool {pool:?}: request {} diverged from its solo run",
                r.id
            );
        }
        // audit: allow(panic) — the run above was constructed with a paged KV config
        let stats = report.paging.expect("paged run must report paging stats");
        assert_eq!(stats.final_live_blocks, 0, "bs {bs}: leaked KV blocks");
        assert_eq!(stats.swaps_out, stats.swaps_in, "bs {bs}: swap asymmetry");
        let paged_bytes = stats.peak_live_blocks * stats.bytes_per_block;
        let frac = paged_bytes as f64 / contig_bytes as f64;
        let energy = report.energy_per_token_pj(&tech, &spec, opt, avg_bits);
        match pool {
            None => {
                // The issue's acceptance gates: the shared prefix halves
                // resident KV (and then some) at energy within 5%.
                assert!(
                    frac < 0.5,
                    "bs {bs}: resident KV {frac:.2}x of contiguous, expected < 0.5x"
                );
                assert!(
                    (energy - contig_energy).abs() <= 0.05 * contig_energy,
                    "bs {bs}: energy/token {energy} drifted from contiguous {contig_energy}"
                );
                assert_eq!(stats.swaps_out, 0, "bs {bs}: preempted without a pool cap");
            }
            Some(cap) => {
                assert!(stats.swaps_out > 0, "capped pool never preempted");
                assert!(
                    stats.peak_live_blocks <= cap,
                    "peak {} blocks over cap {cap}",
                    stats.peak_live_blocks
                );
            }
        }
        t.row(vec![
            format!("paged bs={bs}"),
            pool.map_or("inf".into(), |c| c.to_string()),
            f3(paged_bytes as f64 / 1024.0),
            ratio(frac),
            stats.shared_rows.to_string(),
            format!("{}/{}", stats.swaps_out, stats.swaps_in),
            f3(report.tokens_per_kilotick()),
            f3(energy / 1e3),
        ]);
    }
    t.note("tokens asserted bit-identical to solo batch-1 runs for every layout and");
    t.note("pool cap before any number is reported; unbounded paged rows additionally");
    t.note("asserted to hold resident KV < 0.5x contiguous at energy within 5%");
    t.note("peak KV: contiguous prices peak_kv_rows x one row's K+V bytes; paged");
    t.note("prices peak_live_blocks x bytes_per_block (same f64 host storage)");
    t.note("sharing is storage-only (adopters still compute all prefill rows), so the");
    t.note("unbounded step sequences match contiguous exactly and energy is equal;");
    t.note("the capped row swaps blocks to host and back (priced as non-GEMM DRAM");
    t.note("traffic in nJ/token) yet still emits the same tokens");
    vec![("ext_paged_kv".into(), t)]
}

fn ext_overload() -> Vec<(String, Table)> {
    // Extension: goodput vs raw throughput under overload, across the
    // scenario library. Each arrival scenario (steady Poisson, bursty
    // on-off, heavy-tailed lengths, flash crowd on a shared prefix) runs
    // at 1x, 3x, and 10x load — the load dial divides the mean
    // inter-arrival gaps only, so request *contents* are byte-identical
    // across loads and the solo batch-1 reference runs once per scenario.
    // Before any number is reported every session's token stream is
    // asserted bit-identical to its solo run and every stall is asserted
    // to respect the chunked-prefill bound; only then do we report how
    // goodput (tokens from sessions meeting the TTFT + stall SLO) falls
    // away from raw throughput as queueing delay blows TTFT past the SLO.
    use figlut_serve::{serve, BatchEngine, Policy, Scenario, ServeConfig, Slo};

    let teacher = Transformer::teacher(ModelConfig::scaled(2, 48, 4), 102);
    let (calib, _) = corpora(&teacher, 7);
    let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
    let model = to_packed(&q);
    let engine = BatchEngine::new(&model, Backend::Exec(EngineConfig::paper_default()));

    let requests = 12usize;
    let seed = 2025u64;
    let max_batch = 4usize;
    let chunk = 8usize;
    let cfg = ServeConfig::new(max_batch, Policy::PrefillPriority).with_prefill_chunk(chunk);
    let slo = Slo {
        ttft: 100,
        stall: 16,
    };

    let mut t = Table::new(
        format!(
            "Extension — goodput vs throughput under overload \
             ({requests}-request scenarios x 1x/3x/10x load, slo ttft {} \
             stall {}, prefill-priority, max_batch {max_batch}, chunk {chunk})",
            slo.ttft, slo.stall,
        ),
        &[
            "scenario",
            "load",
            "tok/ktick",
            "goodput",
            "met req",
            "mean TTFT",
            "p99 TTFT",
            "queue/prefill/sample",
            "p99 qwait",
            "p99 stall",
        ],
    );
    for sc in Scenario::ALL {
        let base = sc.trace(&model.cfg, requests, 1.0, seed);
        let solo: Vec<Vec<usize>> = base.requests.iter().map(|r| engine.solo_run(r)).collect();
        for load in [1.0, 3.0, 10.0] {
            let trace = sc.trace(&model.cfg, requests, load, seed);
            // The load dial moves arrivals only; pin that here so the solo
            // reference computed at 1x stays valid for every row.
            for (a, b) in trace.requests.iter().zip(&base.requests) {
                assert_eq!(
                    (a.id, &a.prompt, a.max_new, a.seed),
                    (b.id, &b.prompt, b.max_new, b.seed),
                    "{} load {load}: request contents moved with load",
                    sc.name()
                );
            }
            let report = serve(&engine, &trace, &cfg);
            // The batch-invariance gate: overload may delay tokens, never
            // change them.
            for r in &report.requests {
                assert_eq!(
                    r.generated,
                    solo[r.id],
                    "{} load {load}: request {} diverged from its solo run",
                    sc.name(),
                    r.id
                );
            }
            // PR 5's chunked-prefill latency guarantee holds at any load.
            let bound = cfg.step_overhead + (chunk + max_batch) as u64;
            assert!(
                report.max_inter_token_stall() <= bound,
                "{} load {load}: stall {} exceeds bound {bound}",
                sc.name(),
                report.max_inter_token_stall()
            );
            let dists = report.distributions();
            let good = report.goodput(&slo);
            // The headline claim, pinned: at 10x load every scenario has
            // sessions blowing the SLO, so goodput < raw throughput.
            if load >= 10.0 {
                assert!(
                    good.met_requests < report.requests.len(),
                    "{} load {load}: overload failed to push any session past the SLO",
                    sc.name()
                );
            }
            let n = report.requests.len() as f64;
            let (mut qsum, mut psum, mut ssum) = (0u64, 0u64, 0u64);
            for r in &report.requests {
                let sp = r.ttft_split();
                qsum += sp.queue;
                psum += sp.prefill;
                ssum += sp.sample;
            }
            t.row(vec![
                sc.name().into(),
                format!("{load}x"),
                f3(report.tokens_per_kilotick()),
                f3(good.tokens_per_kilotick),
                format!("{}/{}", good.met_requests, report.requests.len()),
                f3(report.mean_ttft()),
                dists.ttft.percentile(99.0).to_string(),
                format!(
                    "{:.1}/{:.1}/{:.1}",
                    qsum as f64 / n,
                    psum as f64 / n,
                    ssum as f64 / n
                ),
                dists.queue_wait.percentile(99.0).to_string(),
                dists.stall.percentile(99.0).to_string(),
            ]);
        }
    }
    t.note("tokens asserted bit-identical to solo batch-1 runs (request contents are");
    t.note("load-invariant, so one solo pass per scenario covers all three loads) and");
    t.note("stalls asserted <= step_overhead + chunk + max_batch before any rate is");
    t.note("reported; goodput counts only tokens from sessions meeting the SLO");
    t.note("(ttft <= slo.ttft and every inter-token stall <= slo.stall)");
    t.note("queue/prefill/sample: mean TTFT decomposition in ticks — time waiting for");
    t.note("admission, the session's own prefill rows, and step overheads plus");
    t.note("co-scheduled foreign rows between admission and the first token");
    t.note("under overload throughput holds (batching keeps the engine busy) while");
    t.note("goodput collapses: queueing delay, not compute, blows the TTFT budget");
    vec![("ext_overload".into(), t)]
}

fn ext_resilience() -> Vec<(String, Table)> {
    // Extension: admission control under a faulty flash crowd. The
    // flash-crowd scenario runs at 10x load — the overload regime where
    // `ext-overload` shows unbounded admission collapsing goodput — with a
    // deterministic fault plan active the whole time: transient step
    // failures, swap-in failures, checksummed KV corruption on restore
    // (detected and re-fetched from the clean host image), and
    // pool-exhaustion spikes that preempt the newest runner. Every
    // admission policy serves the identical trace under the identical
    // fault schedule; before any number is reported every *served*
    // session's token stream is asserted bit-identical to its solo
    // batch-1 run (faults and shedding may move ticks, never tokens) and
    // every shed request is asserted to be an honest zero-token
    // rejection. The headline gate: SLO-aware shedding beats unbounded
    // admission on goodput even while faults are being injected.
    use figlut_serve::{
        serve_with_hooks, AdmissionPolicy, BatchEngine, FaultPlan, FinishReason, Policy, Scenario,
        ServeConfig, ServeHooks, Slo,
    };

    let teacher = Transformer::teacher(ModelConfig::scaled(2, 48, 4), 102);
    let (calib, _) = corpora(&teacher, 7);
    let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
    let model = to_packed(&q);
    let engine = BatchEngine::new(&model, Backend::Exec(EngineConfig::paper_default()));

    let requests = 12usize;
    let seed = 2025u64;
    let load = 10.0;
    let max_batch = 4usize;
    let chunk = 8usize;
    // The pool cap sits just above one full-context session (the
    // `ext-paged-kv` pressure point), so the crowd preempts and restores
    // naturally — giving the swap-in and corruption faults traffic to hit.
    let min_cap = model.cfg.max_seq.div_ceil(8);
    let cfg = ServeConfig::new(max_batch, Policy::PrefillPriority)
        .with_prefill_chunk(chunk)
        .with_block_size(8)
        .with_pool_blocks(min_cap + 2);
    let slo = Slo {
        ttft: 100,
        stall: 16,
    };
    let trace = Scenario::FlashCrowd.trace(&model.cfg, requests, load, seed);
    let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();
    // One seeded plan, replayed identically for every admission policy.
    let plan = FaultPlan::new(7, 40)
        .with_step_failures(60)
        .with_swap_in_failures(250)
        .with_restore_corruption(250)
        .with_pool_spikes(120);

    let mut t = Table::new(
        format!(
            "Extension — admission control under a faulty flash crowd \
             ({requests} requests x {load}x load, fault budget {}, slo ttft {} \
             stall {}, prefill-priority, max_batch {max_batch}, chunk {chunk}, \
             paged bs=8)",
            plan.remaining_budget(),
            slo.ttft,
            slo.stall,
        ),
        &[
            "admission",
            "tok/ktick",
            "goodput",
            "met req",
            "shed",
            "retries s/w/c",
            "spikes",
            "mean TTFT",
            "p99 qwait",
        ],
    );
    let policies = [
        AdmissionPolicy::Unbounded,
        AdmissionPolicy::QueueCap { depth: 4 },
        AdmissionPolicy::TokenBudget { tokens: 64 },
        AdmissionPolicy::SloShed { ttft: slo.ttft },
    ];
    let mut goodput_of = Vec::new();
    for admission in policies {
        let report = serve_with_hooks(
            &engine,
            &trace,
            &cfg.with_admission(admission),
            ServeHooks {
                fault_plan: Some(plan.clone()),
                ..Default::default()
            },
        );
        // The resilience gate: every request accounted for, every served
        // stream bit-identical to its solo run despite the injected
        // faults, every shed an honest zero-token rejection.
        assert_eq!(report.requests.len(), trace.len(), "{admission:?}");
        let mut shed = 0usize;
        for r in &report.requests {
            if r.reason == FinishReason::Shed {
                shed += 1;
                assert_eq!(r.tokens, 0, "{admission:?}: shed request emitted");
            } else {
                assert_eq!(
                    r.generated, solo[r.id],
                    "{admission:?}: request {} diverged from its solo run under faults",
                    r.id
                );
            }
        }
        let res = &report.resilience;
        assert_eq!(res.shed_requests, shed, "{admission:?}");
        // The plan actually fired: this row demonstrates recovery, not a
        // fault-free run wearing a resilience label.
        assert!(
            res.step_retries + res.swap_in_retries + res.pool_spikes > 0,
            "{admission:?}: no fault fired — raise the rates or the budget"
        );
        if admission == AdmissionPolicy::Unbounded {
            assert_eq!(shed, 0, "unbounded admission must not shed");
            // The baseline row keeps every session in flight long enough
            // for the whole fault taxonomy to fire — the seeded plan is
            // deterministic, so this is a pin, not a hope.
            assert!(
                res.step_retries > 0
                    && res.swap_in_retries > 0
                    && res.checksum_faults > 0
                    && res.pool_spikes > 0,
                "unbounded row must exercise every fault class: {res:?}"
            );
        }
        // audit: allow(panic) — the run above was constructed with a paged KV config
        let stats = report.paging.as_ref().expect("paged run reports stats");
        assert_eq!(
            stats.final_live_blocks, 0,
            "{admission:?}: leaked KV blocks"
        );
        let good = report.goodput(&slo);
        goodput_of.push((admission, good.tokens_per_kilotick));
        let dists = report.distributions();
        t.row(vec![
            admission.name().into(),
            f3(report.tokens_per_kilotick()),
            f3(good.tokens_per_kilotick),
            format!("{}/{}", good.met_requests, report.requests.len()),
            shed.to_string(),
            format!(
                "{}/{}/{}",
                res.step_retries, res.swap_in_retries, res.checksum_faults
            ),
            res.pool_spikes.to_string(),
            f3(report.mean_ttft()),
            dists.queue_wait.percentile(99.0).to_string(),
        ]);
    }
    // The headline gate, pinned before the CSV is written: SLO-aware
    // shedding turns the overload collapse of `ext-overload`'s unbounded
    // baseline into goodput — under an active fault schedule.
    let unbounded = goodput_of[0].1;
    let slo_shed = goodput_of
        .iter()
        .find(|(a, _)| matches!(a, AdmissionPolicy::SloShed { .. }))
        // audit: allow(panic) — the shed policy row is pushed unconditionally above
        .expect("slo-shed row present")
        .1;
    assert!(
        slo_shed > unbounded,
        "slo-shed goodput {slo_shed} must beat unbounded {unbounded} at {load}x load"
    );
    t.note("all four rows replay the identical seeded fault plan on the identical");
    t.note("flash-crowd trace; served token streams asserted bit-identical to solo");
    t.note("batch-1 runs and shed requests asserted zero-token before any rate is");
    t.note("reported; the slo-shed row is asserted to beat the unbounded row on");
    t.note("goodput (ext-overload's 10x flash-crowd collapse, recovered by admission");
    t.note("control while faults are live)");
    t.note("retries s/w/c: transient step retries / swap-in retries / checksummed");
    t.note("corruption detections (each re-fetched from the clean host image)");
    vec![("ext_resilience".into(), t)]
}

/// `repro calibration` — the achieved values of every calibration target
/// from DESIGN.md §5, next to the paper's numbers.
fn calibration() -> Vec<(String, Table)> {
    let tech = Tech::cmos28();
    let mut t = Table::new(
        "Calibration — cost-model targets vs paper",
        &["quantity", "paper", "this model"],
    );
    let full = lut_power(&tech, LutKind::Fflut, 4, 16, 32);
    let half = lut_power(&tech, LutKind::Hfflut, 4, 16, 32);
    t.row(vec![
        "hFFLUT / FFLUT storage power".into(),
        "0.494".into(),
        f3(half.hold_pj_per_cycle / full.hold_pj_per_cycle),
    ]);
    t.row(vec![
        "optimal k (mu=4)".into(),
        "32".into(),
        optimal_k(&tech, 4, FpFormat::Fp16, 64).to_string(),
    ]);
    let o = GenSchedule::optimized(4, true).adds();
    let s = GenSchedule::straightforward(4, true).adds();
    t.row(vec![
        "generator adds mu=4 (opt/naive)".into(),
        "14 / 24 (42%)".into(),
        format!("{o} / {s} ({:.0}%)", 100.0 * (1.0 - o as f64 / s as f64)),
    ]);
    let wl = decode_workload(opt_config("OPT-6.7B"), 32);
    let tw = |e: SimEngine, q: f64| {
        evaluate(&tech, &EngineSpec::paper(e, FpFormat::Fp16), &wl, q).tops_per_w()
    };
    t.row(vec![
        "FIGLUT-I / FIGNA TOPS/W at Q4".into(),
        "1.2x (Fig. 17) – 1.4x (Table V)".into(),
        ratio(tw(SimEngine::FiglutI, 4.0) / tw(SimEngine::Figna, 4.0)),
    ]);
    t.row(vec![
        "FIGLUT-I / FIGNA TOPS/W at Q3".into(),
        "1.6x".into(),
        ratio(tw(SimEngine::FiglutI, 3.0) / tw(SimEngine::Figna, 3.0)),
    ]);
    t.row(vec![
        "FIGLUT-I(Q2.4) / FIGNA(Q3) TOPS/W".into(),
        "1.98x".into(),
        ratio(tw(SimEngine::FiglutI, 2.4) / tw(SimEngine::Figna, 3.0)),
    ]);
    t.row(vec![
        "FIGLUT-I(Q2) / FIGNA(Q2) TOPS/W".into(),
        "up to 2.4x".into(),
        ratio(tw(SimEngine::FiglutI, 2.0) / tw(SimEngine::Figna, 2.0)),
    ]);
    vec![("calibration".into(), t)]
}
