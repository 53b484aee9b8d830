//! Whole-model quantization pipelines.
//!
//! The paper's accuracy points come from three quantization stacks:
//! RTN (Table IV), OPTQ/GPTQ (the FIGNA points of Fig. 17) and
//! ShiftAddLLM-style BCQ with optional mixed precision (the FIGLUT points
//! of Fig. 17 and Table VI). This module drives all three over a
//! [`Transformer`], using activation capture on a calibration corpus for
//! the second-order methods.

use crate::corpus::Corpus;
use crate::transformer::{Backend, LinearWeights, Transformer};
use figlut_num::Mat;
use figlut_quant::awq::{awq_quantize, AwqParams};
use figlut_quant::bcq::BcqWeight;
use figlut_quant::gptq::{gptq_quantize, GptqParams};
use figlut_quant::shiftadd::{
    allocate_mixed_precision, quantize_layer, LayerInput, ShiftAddParams,
};
use figlut_quant::uniform::{rtn, RtnParams};

/// Quantization method selector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Round-to-nearest uniform (the paper's Table IV setting).
    Rtn {
        /// Weight bits.
        bits: u32,
    },
    /// GPTQ/OPTQ-style second-order uniform quantization.
    Gptq {
        /// Weight bits.
        bits: u32,
    },
    /// AWQ-style activation-aware channel scaling + RTN (extension).
    ///
    /// The quantized model stores the *effective* (descaled) weights, which
    /// is numerically exactly what a deployed AWQ model computes after the
    /// scales are folded into the preceding operation.
    Awq {
        /// Weight bits.
        bits: u32,
    },
    /// ShiftAddLLM-style activation-aware BCQ.
    ShiftAdd {
        /// Binary planes.
        bits: u32,
    },
    /// ShiftAddLLM with sensitivity-based mixed precision.
    ShiftAddMixed {
        /// Parameter-weighted average plane budget (e.g. 2.4).
        avg_bits: f64,
    },
}

impl Method {
    /// Human-readable label, e.g. `"RTN-Q4"`.
    pub fn label(&self) -> String {
        match self {
            Method::Rtn { bits } => format!("RTN-Q{bits}"),
            Method::Gptq { bits } => format!("OPTQ-Q{bits}"),
            Method::Awq { bits } => format!("AWQ-Q{bits}"),
            Method::ShiftAdd { bits } => format!("ShiftAdd-Q{bits}"),
            Method::ShiftAddMixed { avg_bits } => format!("ShiftAdd-Q{avg_bits}"),
        }
    }
}

/// Capture each linear layer's input activations on the calibration
/// corpus, as `in_features × samples` matrices (the orientation the
/// quantizers expect).
pub fn capture_activations(model: &Transformer, calib: &Corpus) -> Vec<Mat<f64>> {
    let slots = model.blocks.len() * 6;
    let mut raw: Vec<Vec<Mat<f64>>> = vec![Vec::new(); slots];
    for seq in &calib.sequences {
        let _ = model.logits_with_capture(&seq[..seq.len() - 1], &Backend::Exact, &mut raw);
    }
    raw.into_iter()
        .map(|mats| {
            let cols = mats.iter().map(|m| m.rows()).sum::<usize>();
            let n = mats[0].cols();
            let mut out = Mat::zeros(n, cols);
            let mut c0 = 0;
            for m in &mats {
                for t in 0..m.rows() {
                    for f in 0..n {
                        out[(f, c0 + t)] = m[(t, f)];
                    }
                }
                c0 += m.rows();
            }
            out
        })
        .collect()
}

/// Quantize every linear layer of `model` with `method`, calibrating on
/// `calib` where the method needs activations. Returns the quantized model
/// (the input is untouched) and the per-layer bit allocation.
///
/// Each quantized linear is computed from the teacher's borrowed FP
/// weights straight into the output, so above the teacher this holds only
/// the quantized model and one layer's quantizer scratch — never a second
/// FP copy (DESIGN.md §1, "One FP copy").
///
/// # Panics
///
/// Panics if any linear of `model` is not FP (an already quantized or
/// packed model is not a teacher).
pub fn quantize_model(
    model: &Transformer,
    calib: &Corpus,
    method: Method,
) -> (Transformer, Vec<u32>) {
    // One activation matrix per linear; RTN needs none and leaves it empty.
    let acts = match method {
        Method::Rtn { .. } => Vec::new(),
        _ => capture_activations(model, calib),
    };
    let fp_weights: Vec<&Mat<f64>> = model
        .linear_weights()
        .into_iter()
        .map(|w| match w {
            LinearWeights::Fp(m) => m,
            // audit: allow(panic) — documented `# Panics` precondition: the teacher is FP
            _ => panic!("quantize_model expects an FP teacher"),
        })
        .collect();

    let bits_per_layer: Vec<u32> = match method {
        Method::Rtn { bits }
        | Method::Gptq { bits }
        | Method::Awq { bits }
        | Method::ShiftAdd { bits } => {
            vec![bits; fp_weights.len()]
        }
        Method::ShiftAddMixed { avg_bits } => {
            let layers: Vec<LayerInput<'_>> = fp_weights
                .iter()
                .zip(&acts)
                .map(|(&w, x)| LayerInput {
                    name: "linear",
                    weights: w,
                    calibration: Some(x),
                })
                .collect();
            allocate_mixed_precision(&layers, &[2, 3, 4], avg_bits, 6).bits
        }
    };

    let out = model.with_linears(|idx, _| {
        let w = fp_weights[idx];
        let bits = bits_per_layer[idx];
        match method {
            Method::Rtn { .. } => LinearWeights::Uniform(rtn(w, RtnParams::per_row(bits))),
            Method::Gptq { .. } => {
                LinearWeights::Uniform(gptq_quantize(w, &acts[idx], GptqParams::per_row(bits)))
            }
            Method::Awq { .. } => {
                let a = awq_quantize(w, &acts[idx], AwqParams::per_row(bits));
                LinearWeights::Fp(a.dequantize_effective())
            }
            Method::ShiftAdd { .. } | Method::ShiftAddMixed { .. } => LinearWeights::Bcq(
                quantize_layer(w, Some(&acts[idx]), ShiftAddParams::per_row(bits)),
            ),
        }
    });
    (out, bits_per_layer)
}

/// Convert every uniform-quantized linear to BCQ-with-offset (paper Eq. 3),
/// so uniform models can run on the BCQ-format engines (iFPU / FIGLUT)
/// without any value change. Each BCQ linear is converted from the borrowed
/// uniform one; only the other linears' weights are copied.
pub fn to_bcq(model: &Transformer) -> Transformer {
    model.with_linears(|_, lin| match &lin.weights {
        LinearWeights::Uniform(u) => LinearWeights::Bcq(BcqWeight::from_uniform(u)),
        w => w.clone(),
    })
}

/// Re-pack every quantized linear for the `figlut-exec` fast kernels
/// (`Backend::Exec`): BCQ layers are packed directly, uniform layers go
/// through the lossless Eq. 3 conversion first, and each packed layer
/// gets its [`figlut_exec::ExecPlan`] built once here — so repeated
/// forward passes reuse the cached window plan and kernel scratch instead
/// of recomputing them per token per layer. Values are unchanged, so
/// perplexity under `Backend::Exec` is bit-identical to
/// `Backend::Engine(Engine::FiglutI, cfg)` on the source model. A plan
/// serves every µ, so `Backend::Exec` may run the model under any config.
///
/// Each packed linear is built from the borrowed quantized one (a uniform
/// layer's Eq. 3 BCQ lives only while it is packed); FP and already
/// packed linears are copied.
pub fn to_packed_with(model: &Transformer, cfg: &figlut_gemm::EngineConfig) -> Transformer {
    use figlut_exec::{ExecPlan, PackedBcq};
    let pack = |b: &BcqWeight| {
        let p = PackedBcq::pack(b);
        let plan = ExecPlan::new(&p, cfg);
        LinearWeights::Packed(p, plan)
    };
    model.with_linears(|_, lin| match &lin.weights {
        LinearWeights::Bcq(b) => pack(b),
        LinearWeights::Uniform(u) => pack(&BcqWeight::from_uniform(u)),
        w @ (LinearWeights::Fp(_) | LinearWeights::Packed(..)) => w.clone(),
    })
}

/// [`to_packed_with`] at the paper's default operating point (the config
/// every experiment and test in this repo executes `Backend::Exec` with).
pub fn to_packed(model: &Transformer) -> Transformer {
    to_packed_with(model, &figlut_gemm::EngineConfig::paper_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::generate;
    use crate::ppl::perplexity;
    use crate::transformer::ModelConfig;

    fn setup() -> (Transformer, Corpus, Corpus) {
        let t = Transformer::teacher(ModelConfig::tiny(), 21);
        let calib = generate(&t, 2, 10, 100);
        let eval = generate(&t, 3, 10, 200);
        (t, calib, eval)
    }

    #[test]
    fn rtn_q4_ppl_close_to_fp() {
        let (t, calib, eval) = setup();
        let base = perplexity(&t, &eval, &Backend::Exact);
        let (q, bits) = quantize_model(&t, &calib, Method::Rtn { bits: 4 });
        assert!(bits.iter().all(|&b| b == 4));
        let qp = perplexity(&q, &eval, &Backend::Exact);
        assert!(qp >= base * 0.99, "quantized {qp} below FP {base}?");
        assert!(qp < base * 1.6, "Q4 RTN ppl {qp} blew up vs {base}");
    }

    #[test]
    fn lower_bits_higher_ppl() {
        // Table VI ordering: FP < Q4 < Q3 < Q2 for the same method.
        let (t, calib, eval) = setup();
        let base = perplexity(&t, &eval, &Backend::Exact);
        let mut last = base;
        for bits in [4u32, 3, 2] {
            let (q, _) = quantize_model(&t, &calib, Method::ShiftAdd { bits });
            let p = perplexity(&q, &eval, &Backend::Exact);
            assert!(p >= last * 0.98, "bits={bits}: {p} < previous {last}");
            last = p;
        }
        assert!(last > base, "Q2 should be measurably worse than FP");
    }

    #[test]
    fn shiftadd_beats_rtn_at_2_bits() {
        // Non-uniform, activation-aware BCQ holds up much better at 2 bits
        // (the Fig. 17 story).
        let (t, calib, eval) = setup();
        let (q_rtn, _) = quantize_model(&t, &calib, Method::Rtn { bits: 2 });
        let (q_sa, _) = quantize_model(&t, &calib, Method::ShiftAdd { bits: 2 });
        let p_rtn = perplexity(&q_rtn, &eval, &Backend::Exact);
        let p_sa = perplexity(&q_sa, &eval, &Backend::Exact);
        assert!(p_sa < p_rtn, "ShiftAdd {p_sa} !< RTN {p_rtn}");
    }

    #[test]
    fn awq_not_worse_than_rtn_at_low_bits() {
        let (t, calib, eval) = setup();
        let (q_rtn, _) = quantize_model(&t, &calib, Method::Rtn { bits: 3 });
        let (q_awq, bits) = quantize_model(&t, &calib, Method::Awq { bits: 3 });
        assert!(bits.iter().all(|&b| b == 3));
        let p_rtn = perplexity(&q_rtn, &eval, &Backend::Exact);
        let p_awq = perplexity(&q_awq, &eval, &Backend::Exact);
        assert!(
            p_awq < p_rtn * 1.05,
            "AWQ {p_awq} much worse than RTN {p_rtn}"
        );
        assert_eq!(Method::Awq { bits: 3 }.label(), "AWQ-Q3");
    }

    #[test]
    fn gptq_not_worse_than_rtn() {
        let (t, calib, eval) = setup();
        let (q_rtn, _) = quantize_model(&t, &calib, Method::Rtn { bits: 3 });
        let (q_gptq, _) = quantize_model(&t, &calib, Method::Gptq { bits: 3 });
        let p_rtn = perplexity(&q_rtn, &eval, &Backend::Exact);
        let p_gptq = perplexity(&q_gptq, &eval, &Backend::Exact);
        assert!(
            p_gptq < p_rtn * 1.10,
            "GPTQ {p_gptq} much worse than RTN {p_rtn}"
        );
    }

    #[test]
    fn mixed_precision_budget_honored() {
        let (t, calib, _) = setup();
        let (q, bits) = quantize_model(&t, &calib, Method::ShiftAddMixed { avg_bits: 2.5 });
        assert!(q.average_bits() <= 2.5 + 1e-9, "avg {}", q.average_bits());
        assert!(bits.iter().any(|&b| b > 2), "budget unused: {bits:?}");
    }

    #[test]
    fn to_bcq_preserves_values() {
        let (t, calib, eval) = setup();
        let (q, _) = quantize_model(&t, &calib, Method::Rtn { bits: 3 });
        let b = to_bcq(&q);
        let pq = perplexity(&q, &eval, &Backend::Exact);
        let pb = perplexity(&b, &eval, &Backend::Exact);
        assert!((pq - pb).abs() < 1e-9, "{pq} vs {pb}");
    }

    #[test]
    fn capture_orientation() {
        let (t, calib, _) = setup();
        let acts = capture_activations(&t, &calib);
        assert_eq!(acts.len(), 12);
        // wq input: d × samples.
        assert_eq!(acts[0].rows(), 48);
        assert_eq!(acts[0].cols(), 2 * 10);
        // fc2 input: ffn × samples.
        assert_eq!(acts[5].rows(), 192);
    }
}
