//! Golden bit pin of the forward pass: FNV-1a over `f64::to_bits` of what
//! the model computes, recorded at PR 24 — before `hidden` was folded into
//! `forward_batch` and the LM head and attention loops were restructured.
//! Every one of those rewrites keeps each floating-point sum in its order,
//! so these digests must never move; a change here is a numerics change,
//! not a refactor.
//!
//! Covered per model: full-sequence `logits` under `Backend::Exact` (FP
//! teacher) and `Backend::Exec` (packed Q3 model); every
//! `logits_with_capture` slot; and one mixed `forward_batch` step — a
//! decode row, a mid-prompt chunk and a fresh prompt — on a paged cache
//! with block size 4, logits and cache contents. Two models: `tiny()`
//! (vocab 96, a multiple of the LM head's 8-row pass) and vocab 101, so the
//! head's scalar tail runs too.
//!
//! A third pin, recorded at one thread before forward steps ran on worker
//! crews, covers a d-256 packed model whose mixed step is wide enough to
//! open a crew: the same digest must come out at 1, 2 and 8 threads.

use figlut_exec::parallel::{crew_size, THREADS_ENV};
use figlut_gemm::EngineConfig;
use figlut_model::calibrate::to_packed;
use figlut_model::transformer::LinearWeights;
use figlut_model::{Backend, BlockPool, KvCache, ModelConfig, Transformer};
use figlut_num::Mat;
use figlut_quant::bcq::{BcqParams, BcqWeight};
use figlut_quant::uniform::{rtn, RtnParams};

fn fnv1a(h: &mut u64, vals: &[f64]) {
    for v in vals {
        for byte in v.to_bits().to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest<'a>(mats: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in mats {
        fnv1a(&mut h, m);
    }
    h
}

fn cache_rows(cache: &KvCache) -> Vec<f64> {
    let (k, v) = cache.snapshot();
    k.into_iter().chain(v).flatten().flatten().collect()
}

/// `[exact logits, exec logits, capture slots, mixed paged step]`.
fn digests(cfg: ModelConfig, seed: u64) -> [u64; 4] {
    let teacher = Transformer::teacher(cfg, seed);
    let mut q = teacher.clone();
    q.map_linears(|_, lin| {
        if let LinearWeights::Fp(w) = &lin.weights {
            lin.weights = LinearWeights::Bcq(BcqWeight::quantize(w, BcqParams::per_row(3)));
        }
    });
    let packed = to_packed(&q);
    let exec = Backend::Exec(EngineConfig::paper_default());
    let toks = [0usize, 7, 19, 3, 88, 42, 11, 5, 60, 2, 95];

    let exact = teacher.logits(&toks, &Backend::Exact);
    let fast = packed.logits(&toks, &exec);

    let mut cap: Vec<Vec<Mat<f64>>> = vec![Vec::new(); cfg.layers * 6];
    let captured = teacher.logits_with_capture(&toks[..7], &Backend::Exact, &mut cap);
    assert_eq!(captured.as_slice(), &exact.as_slice()[..7 * cfg.vocab]);
    let slots = cap.iter().flatten().map(Mat::as_slice);

    let pool = BlockPool::for_model(&packed.cfg, 4, None);
    let mut caches: Vec<KvCache> = (0..3).map(|_| packed.new_paged_cache(&pool)).collect();
    let _ = packed.prefill(&toks[..5], &mut caches[0], &exec);
    let _ = packed.prefill(&toks[3..5], &mut caches[1], &exec);
    let chunks: [&[usize]; 3] = [&toks[5..6], &toks[5..8], &toks[..6]];
    let step = packed.forward_batch(&chunks, &mut caches, &exec);
    let rows: Vec<Vec<f64>> = caches.iter().map(cache_rows).collect();

    [
        digest([exact.as_slice()]),
        digest([fast.as_slice()]),
        digest(slots),
        digest(std::iter::once(step.as_slice()).chain(rows.iter().map(Vec::as_slice))),
    ]
}

#[test]
fn tiny_model_bits_are_pinned() {
    let got = digests(ModelConfig::tiny(), 17);
    assert_eq!(
        got,
        [
            0xcd38_faef_f9d2_f02b,
            0x075b_c9cf_d05b_2c2f,
            0xd137_9699_8775_6add,
            0x3523_4478_9c5f_d3f6,
        ],
        "{got:#018x?}"
    );
}

/// The digest of one mixed `forward_batch` step of 1 + 5 + 8 rows on a
/// packed RTN-Q3 d-256 model (logits and every session's cache contents), at each
/// of `threads`.
fn wide_step_digests<const N: usize>(threads: [&str; N]) -> [u64; N] {
    let cfg = ModelConfig {
        d_model: 256,
        ffn: 1024,
        ..ModelConfig::tiny()
    };
    let mut q = Transformer::teacher(cfg, 23);
    q.map_linears(|_, lin| {
        if let LinearWeights::Fp(w) = &lin.weights {
            lin.weights = LinearWeights::Uniform(rtn(w, RtnParams::per_row(3)));
        }
    });
    let packed = to_packed(&q);
    let exec = Backend::Exec(EngineConfig::paper_default());
    // The step is wide enough for a crew of two, and of four at 8 threads.
    let lookups = packed.step_lookups(14, &exec);
    assert_eq!([2, 8].map(|t| crew_size(lookups, t)), [2, 4], "{lookups}");

    let toks = [0usize, 7, 19, 3, 88, 42, 11, 5, 60, 2, 95];
    let digests = threads.map(|t| {
        std::env::set_var(THREADS_ENV, t);
        let mut caches: Vec<KvCache> = (0..3).map(|_| packed.new_cache()).collect();
        let _ = packed.prefill(&toks[..5], &mut caches[0], &exec);
        let _ = packed.prefill(&toks[..3], &mut caches[1], &exec);
        let chunks: [&[usize]; 3] = [&toks[5..6], &toks[3..8], &toks[..8]];
        let step = packed.forward_batch(&chunks, &mut caches, &exec);
        let rows: Vec<Vec<f64>> = caches.iter().map(cache_rows).collect();
        digest(std::iter::once(step.as_slice()).chain(rows.iter().map(Vec::as_slice)))
    });
    std::env::remove_var(THREADS_ENV);
    digests
}

#[test]
fn wide_step_bits_are_pinned() {
    // The other tests here stay below the crew rule, so the thread
    // override this one sets cannot change what they run.
    let got = wide_step_digests(["1", "2", "8"]);
    assert_eq!(got, [0x16b7_7202_d468_3d77; 3], "{got:#018x?}");
}

#[test]
fn odd_vocab_model_bits_are_pinned() {
    let cfg = ModelConfig {
        vocab: 101,
        ..ModelConfig::tiny()
    };
    let got = digests(cfg, 19);
    assert_eq!(
        got,
        [
            0x7dac_67c9_5450_6f89,
            0xc6d8_0718_243b_b529,
            0x41f2_9d93_3d41_7fd4,
            0x3ed5_42d9_8ebe_c273,
        ],
        "{got:#018x?}"
    );
}
