//! Property tests for the serving execution paths: incremental decoding
//! with a KV cache, chunked prefill, and multi-session batched decode must
//! all be **bit-identical** to the teacher-forced full forward pass, for
//! the quantized backends the serving layer actually runs
//! (`Backend::Exec` and `Backend::Engine(FiglutI)`).
//!
//! These equalities are what make `figlut-serve`'s batch-invariance
//! argument a proof rather than a hope: every path below computes each
//! output row with the same per-row operation sequence, so scheduling and
//! batching cannot change a single bit of any session's logits.

use figlut_gemm::{Engine, EngineConfig};
use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::generate;
use figlut_model::transformer::KvCache;
use figlut_model::{Backend, ModelConfig, Transformer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One quantized + packed tiny model, shared across cases (quantization is
/// the expensive part; the properties only need a fixed model).
fn packed_model() -> &'static Transformer {
    static MODEL: OnceLock<Transformer> = OnceLock::new();
    MODEL.get_or_init(|| {
        let teacher = Transformer::teacher(ModelConfig::tiny(), 55);
        let calib = generate(&teacher, 2, 10, 3);
        let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
        to_packed(&q)
    })
}

fn prompt_strategy(max_len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..96, 1..=max_len)
}

/// Step through `tokens` with a KV cache and assert every logits row is
/// bit-equal to the full teacher-forced forward pass.
fn assert_steps_match_full(model: &Transformer, tokens: &[usize], backend: &Backend) {
    let full = model.logits(tokens, backend);
    let mut cache = model.new_cache();
    for (t, &tok) in tokens.iter().enumerate() {
        let step = model.decode_step(tok, &mut cache, backend);
        assert_eq!(
            step,
            full.row(t),
            "position {t} of {tokens:?} diverged from the full forward"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `decode_step` ≡ full `logits` recompute, bit for bit, on the packed
    /// exec backend — over arbitrary prompts, not the fixed spot-checks of
    /// `tests/backends.rs`.
    #[test]
    fn decode_step_bit_matches_full_logits_exec(prompt in prompt_strategy(10)) {
        let model = packed_model();
        assert_steps_match_full(model, &prompt, &Backend::Exec(EngineConfig::paper_default()));
    }

    /// Any chunking of a prompt through `prefill` produces the same bits
    /// as token-by-token decoding (prefill/decode interleaving is
    /// invisible to the output).
    #[test]
    fn prefill_chunking_bit_invariant(
        prompt in prompt_strategy(10),
        split in 1usize..=10,
    ) {
        let model = packed_model();
        let backend = Backend::Exec(EngineConfig::paper_default());
        let full = model.logits(&prompt, &backend);
        let mut cache = model.new_cache();
        let mut row = 0usize;
        for chunk in prompt.chunks(split) {
            let l = model.prefill(chunk, &mut cache, &backend);
            for t in 0..l.rows() {
                prop_assert_eq!(l.row(t), full.row(row), "row {}", row);
                row += 1;
            }
        }
        prop_assert_eq!(cache.len(), prompt.len());
    }

    /// Arbitrary **mixed-step compositions**: sessions at different
    /// positions each contribute a chunk of arbitrary size to one fused
    /// `forward_batch` call, repeatedly, until every prompt is consumed —
    /// and every returned row is bit-equal to the session's teacher-forced
    /// full forward pass. This is the exact shape `figlut-serve`'s chunked
    /// prefill schedules (decode rows are chunks of 1).
    #[test]
    fn forward_batch_mixed_compositions_bit_match_full_exec(
        prompts in prop::collection::vec(prompt_strategy(8), 1..=3),
        schedule in any::<u64>(),
    ) {
        let model = packed_model();
        let backend = Backend::Exec(EngineConfig::paper_default());
        let full: Vec<_> = prompts.iter().map(|p| model.logits(p, &backend)).collect();
        let mut caches: Vec<KvCache> = prompts.iter().map(|_| model.new_cache()).collect();
        let mut consumed = vec![0usize; prompts.len()];
        let mut mix = schedule;
        while consumed.iter().zip(&prompts).any(|(&c, p)| c < p.len()) {
            // Sessions with tokens left contribute a pseudo-random chunk of
            // 1..=3 rows each; order and sizes vary with `schedule`.
            let mut live: Vec<usize> = Vec::new();
            let mut chunks: Vec<&[usize]> = Vec::new();
            let mut takes: Vec<usize> = Vec::new();
            for (i, p) in prompts.iter().enumerate() {
                if consumed[i] < p.len() {
                    mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let take = (1 + (mix >> 33) as usize % 3).min(p.len() - consumed[i]);
                    live.push(i);
                    takes.push(take);
                    chunks.push(&p[consumed[i]..consumed[i] + take]);
                }
            }
            let mut live_caches: Vec<&mut KvCache> = caches
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| live.contains(&i).then_some(c))
                .collect();
            let logits = model.forward_batch(&chunks, &mut live_caches, &backend);
            let mut row = 0usize;
            for (&i, &take) in live.iter().zip(&takes) {
                for t in 0..take {
                    prop_assert_eq!(
                        logits.row(row),
                        full[i].row(consumed[i] + t),
                        "session {} position {}",
                        i,
                        consumed[i] + t
                    );
                    row += 1;
                }
                consumed[i] += take;
            }
        }
        for (cache, p) in caches.iter().zip(&prompts) {
            prop_assert_eq!(cache.len(), p.len());
        }
    }

    /// Multi-session `decode_batch` rows are bit-equal to each session's
    /// solo `decode_step`, with sessions at *different* positions.
    #[test]
    fn decode_batch_rows_bit_match_solo_exec(
        prompts in prop::collection::vec(prompt_strategy(8), 1..=3),
        next in 0usize..96,
    ) {
        let model = packed_model();
        let backend = Backend::Exec(EngineConfig::paper_default());
        // Solo: prefill each prompt, then decode `next` alone.
        let mut solo_rows: Vec<Vec<f64>> = Vec::new();
        let mut caches: Vec<KvCache> = Vec::new();
        for p in &prompts {
            let mut cache = model.new_cache();
            let _ = model.prefill(p, &mut cache, &backend);
            let mut solo_cache = cache.clone();
            solo_rows.push(model.decode_step(next, &mut solo_cache, &backend));
            caches.push(cache);
        }
        // Batched: the same decode across all sessions in one step.
        let tokens = vec![next; prompts.len()];
        let logits = model.decode_batch(&tokens, &mut caches, &backend);
        for (i, want) in solo_rows.iter().enumerate() {
            prop_assert_eq!(logits.row(i), &want[..], "session {}", i);
        }
    }
}

proptest! {
    // The scalar datapath model is orders of magnitude slower than the
    // packed kernels; fewer cases keep the suite quick while still
    // covering arbitrary prompts.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `decode_step` ≡ full `logits`, bit for bit, on the FIGLUT-I datapath
    /// model backend (the second serving-capable backend).
    #[test]
    fn decode_step_bit_matches_full_logits_figlut_i(prompt in prompt_strategy(6)) {
        let model = packed_model();
        let backend = Backend::Engine(Engine::FiglutI, EngineConfig::paper_default());
        assert_steps_match_full(model, &prompt, &backend);
    }
}
