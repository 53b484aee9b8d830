//! Q, K and V read one staged table set (`Block::qkv`): counted under a
//! trace session, and bit-compared against the datapath model.
//!
//! Trace state is process-global, so a sibling `#[test]` running an exec
//! call while this session is installed would bump its counters. Keep
//! this file at exactly one test.

use figlut_gemm::{Engine, EngineConfig};
use figlut_model::calibrate::to_packed;
use figlut_model::transformer::{Backend, LinearWeights, ModelConfig, Transformer};
use figlut_quant::bcq::{BcqParams, BcqWeight};
use figlut_trace::{install, snapshot, CollectSink};

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
