//! Backend-consistency tests: the transformer must produce equivalent
//! results whichever execution backend carries its linear layers.

use figlut_gemm::{Engine, EngineConfig};
use figlut_model::calibrate::{quantize_model, to_bcq, to_packed, Method};
use figlut_model::corpus::generate;
use figlut_model::ppl::perplexity;
use figlut_model::transformer::{Backend, LinearWeights, ModelConfig, Transformer};
use figlut_quant::bcq::{BcqParams, BcqWeight};
use figlut_trace::{install, snapshot, CollectSink};

fn setup() -> (
    Transformer,
    figlut_model::corpus::Corpus,
    figlut_model::corpus::Corpus,
) {
    let t = Transformer::teacher(ModelConfig::tiny(), 55);
    let calib = generate(&t, 2, 10, 3);
    let eval = generate(&t, 3, 12, 4);
    (t, calib, eval)
}

#[test]
fn reference_engine_backend_equals_exact() {
    // Backend::Engine(Reference) rounds activations to the format but does
    // exact math — with FP32 activations it must match Backend::Exact to
    // fp32-rounding precision.
    let (t, calib, eval) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::Rtn { bits: 4 });
    let cfg = EngineConfig::with_act(figlut_num::fp::FpFormat::Fp32);
    let exact = perplexity(&q, &eval, &Backend::Exact);
    let via_engine = perplexity(&q, &eval, &Backend::Engine(Engine::Reference, cfg));
    assert!(
        (via_engine / exact - 1.0).abs() < 1e-4,
        "{via_engine} vs {exact}"
    );
}

#[test]
fn all_bcq_engines_agree_on_quantized_model() {
    let (t, calib, eval) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::ShiftAdd { bits: 3 });
    let cfg = EngineConfig::paper_default();
    let ppls: Vec<f64> = [Engine::Ifpu, Engine::FiglutF, Engine::FiglutI]
        .iter()
        .map(|&e| perplexity(&q, &eval, &Backend::Engine(e, cfg)))
        .collect();
    let exact = perplexity(&q, &eval, &Backend::Exact);
    for (i, p) in ppls.iter().enumerate() {
        assert!(
            (p / exact - 1.0).abs() < 5e-3,
            "engine {i}: ppl {p} vs exact {exact}"
        );
    }
    // iFPU and FIGLUT-I are bit-identical, so their perplexities are equal
    // to the last bit.
    assert_eq!(ppls[0], ppls[2], "iFPU vs FIGLUT-I perplexity");
}

#[test]
fn uniform_engines_agree_on_rtn_model() {
    let (t, calib, eval) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::Rtn { bits: 4 });
    let qb = to_bcq(&q);
    let cfg = EngineConfig::paper_default();
    let p_fpe = perplexity(&q, &eval, &Backend::Engine(Engine::Fpe, cfg));
    let p_figna = perplexity(&q, &eval, &Backend::Engine(Engine::Figna, cfg));
    let p_lut = perplexity(&qb, &eval, &Backend::Engine(Engine::FiglutI, cfg));
    let exact = perplexity(&q, &eval, &Backend::Exact);
    for (name, p) in [("FPE", p_fpe), ("FIGNA", p_figna), ("FIGLUT-I", p_lut)] {
        assert!(
            (p / exact - 1.0).abs() < 5e-3,
            "{name}: {p} vs exact {exact}"
        );
    }
}

#[test]
fn kv_cache_decoding_with_engine_backend() {
    // Incremental decoding must also hold under a hardware-engine backend
    // (the serving path FIGLUT actually runs).
    let (t, calib, _) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::Rtn { bits: 4 });
    let qb = to_bcq(&q);
    let backend = Backend::Engine(Engine::FiglutI, EngineConfig::paper_default());
    let toks = [0usize, 9, 33, 5];
    let full = qb.logits(&toks, &backend);
    let mut cache = qb.new_cache();
    for (pos, &tok) in toks.iter().enumerate() {
        let step = qb.decode_step(tok, &mut cache, &backend);
        for v in 0..step.len() {
            assert!((step[v] - full[(pos, v)]).abs() < 1e-6, "pos={pos} v={v}");
        }
    }
}

#[test]
fn exec_backend_bit_matches_figlut_i_engine() {
    // The packed fast path is the same datapath: perplexity under
    // Backend::Exec equals Backend::Engine(FiglutI) to the last bit, both
    // on a pre-packed model and when packing on the fly.
    let (t, calib, eval) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::ShiftAdd { bits: 3 });
    let cfg = EngineConfig::paper_default();
    let p_model = perplexity(&q, &eval, &Backend::Engine(Engine::FiglutI, cfg));
    let p_exec_fly = perplexity(&q, &eval, &Backend::Exec(cfg));
    let p_exec_packed = perplexity(&to_packed(&q), &eval, &Backend::Exec(cfg));
    assert_eq!(p_model, p_exec_fly, "on-the-fly packing diverged");
    assert_eq!(p_model, p_exec_packed, "pre-packed model diverged");
}

#[test]
fn exec_backend_runs_uniform_models_via_eq3() {
    // Uniform layers go through the lossless Eq. 3 conversion, exactly as
    // to_bcq + FIGLUT-I would.
    let (t, calib, eval) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::Rtn { bits: 4 });
    let cfg = EngineConfig::paper_default();
    let p_engine = perplexity(&to_bcq(&q), &eval, &Backend::Engine(Engine::FiglutI, cfg));
    let p_exec = perplexity(&to_packed(&q), &eval, &Backend::Exec(cfg));
    assert_eq!(p_engine, p_exec);
}

#[test]
fn packed_model_still_serves_every_backend() {
    // A packed model remains usable under Exact (dequantize) and under the
    // datapath models (unpack): same values everywhere.
    let (t, calib, eval) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::ShiftAdd { bits: 3 });
    let qp = to_packed(&q);
    let cfg = EngineConfig::paper_default();
    let exact = perplexity(&q, &eval, &Backend::Exact);
    let exact_packed = perplexity(&qp, &eval, &Backend::Exact);
    assert!((exact_packed / exact - 1.0).abs() < 1e-12);
    let via_model = perplexity(&qp, &eval, &Backend::Engine(Engine::FiglutI, cfg));
    let via_exec = perplexity(&qp, &eval, &Backend::Exec(cfg));
    assert_eq!(via_model, via_exec, "unpacked engine diverged from exec");
}

#[test]
fn exec_backend_decodes_with_kv_cache() {
    let (t, calib, _) = setup();
    let (q, _) = quantize_model(&t, &calib, Method::ShiftAdd { bits: 3 });
    let qp = to_packed(&q);
    let cfg = EngineConfig::paper_default();
    let toks = [0usize, 9, 33, 5];
    let full = qp.logits(&toks, &Backend::Exec(cfg));
    let mut cache = qp.new_cache();
    for (pos, &tok) in toks.iter().enumerate() {
        let step = qp.decode_step(tok, &mut cache, &Backend::Exec(cfg));
        for v in 0..step.len() {
            assert!((step[v] - full[(pos, v)]).abs() < 1e-6, "pos={pos} v={v}");
        }
    }
}

#[test]
fn mixed_precision_model_serves_on_figlut() {
    let (t, calib, eval) = setup();
    let (q, bits) = quantize_model(&t, &calib, Method::ShiftAddMixed { avg_bits: 2.5 });
    assert!(bits.iter().any(|&b| b != bits[0]) || bits[0] != 4);
    let backend = Backend::Engine(Engine::FiglutI, EngineConfig::paper_default());
    let p = perplexity(&q, &eval, &backend);
    assert!(p.is_finite() && p > 1.0);
    // FIGNA cannot serve this model at all: its layers are BCQ.
    let err = std::panic::catch_unwind(|| {
        perplexity(
            &q,
            &eval,
            &Backend::Engine(Engine::Figna, EngineConfig::paper_default()),
        )
    });
    assert!(err.is_err(), "FIGNA must reject BCQ layers (Table I)");
}

/// The teacher with linear `i` (layer-major, `wq wk wv wo fc1 fc2`)
/// quantized to BCQ under `params(i)`.
fn quantized(params: impl Fn(usize) -> BcqParams) -> Transformer {
    let mut m = Transformer::teacher(ModelConfig::tiny(), 55);
    m.map_linears(|i, lin| {
        if let LinearWeights::Fp(w) = &lin.weights {
            lin.weights = LinearWeights::Bcq(BcqWeight::quantize(w, params(i)));
        }
    });
    m
}

#[test]
fn qkv_share_one_stage_and_a_mismatched_block_falls_back() {
    let cfg = EngineConfig::paper_default();
    let layers = ModelConfig::tiny().layers as u64;
    // Every projection Q3 per-row; then Q/K/V of mixed widths (tables do
    // not depend on the plane count, so they still share); then layer 0's
    // `wq` alone at group size 24 — its windows differ, so that block must
    // take three plain forwards.
    let uniform = quantized(|_| BcqParams::per_row(3));
    let mixed_bits = quantized(|i| BcqParams::per_row(if i % 6 == 0 { 3 } else { 4 }));
    let mixed_groups = quantized(|i| match i {
        0 => BcqParams::grouped(3, 24),
        _ => BcqParams::per_row(4),
    });
    let chunks: [&[usize]; 2] = [&[0, 9, 33], &[5]];
    for (name, model, builds) in [
        ("uniform", &uniform, 4 * layers),
        ("mixed bits", &mixed_bits, 4 * layers),
        ("mixed groups", &mixed_groups, 4 * layers + 2),
    ] {
        let packed = to_packed(model);
        let mut caches = [packed.new_cache(), packed.new_cache()];
        let guard = install(Box::new(CollectSink::default()));
        let before = snapshot();
        let fast = packed.forward_batch(&chunks, &mut caches, &Backend::Exec(cfg));
        let d = snapshot().since(&before);
        guard.finish().unwrap();
        assert_eq!(d.exec_calls, 6 * layers, "{name}: one call per projection");
        assert_eq!(
            d.exec_lut_builds, builds,
            "{name}: one build per distinct input"
        );

        let mut caches = [model.new_cache(), model.new_cache()];
        let engine = Backend::Engine(Engine::FiglutI, cfg);
        let slow = model.forward_batch(&chunks, &mut caches, &engine);
        assert_eq!(fast.as_slice(), slow.as_slice(), "{name}: logits moved");
        let toks = [0usize, 9, 33, 5];
        assert_eq!(
            packed.logits(&toks, &Backend::Exec(cfg)).as_slice(),
            model.logits(&toks, &engine).as_slice(),
            "{name}: full-sequence logits moved"
        );
    }
}
