//! The serving layer's batch-invariance property: for **arbitrary** traces,
//! policies, batch limits, chunked-prefill budgets, and paged-KV layouts,
//! every session's emitted token stream is bit-identical to its solo
//! batch-1 run — scheduling decides *when* tokens appear, never *which*
//! tokens. The quantified space includes mixed prefill+decode steps (any
//! `prefill_chunk` from 1 row up, plus the monolithic `None` path), paged
//! KV over `block_size ∈ {1, 2, 7, 16, 64}` with unbounded and tight block
//! pools (memory-pressure preemption), and scheduler-injected forced
//! preemption points (`ServeHooks::force_preempt`) — with block-refcount
//! conservation and swap-traffic pricing checked on every run. A second
//! property serves flash-crowd traces, whose prompts share a prefix, and
//! checks that adopted prefix rows are skipped exactly, never recomputed.
//!
//! Runs on the packed `Backend::Exec` path (the backend `ext-serving`
//! measures); a slimmer companion property covers the FIGLUT-I datapath
//! model. Thread-count invariance of the same pipeline is pinned by
//! `tests/determinism.rs` (it must mutate the process environment).

use figlut_gemm::{Engine, EngineConfig};
use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::generate;
use figlut_model::{Backend, ModelConfig, Transformer};
use figlut_serve::{
    flash_crowd_trace, serve, serve_with_hooks, synthetic_trace, BatchEngine, FlashCrowdParams,
    Policy, Sampling, ServeConfig, ServeHooks, ServeReport, StepKind, Trace, TraceParams,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn packed_model() -> &'static Transformer {
    static MODEL: OnceLock<Transformer> = OnceLock::new();
    MODEL.get_or_init(|| {
        let teacher = Transformer::teacher(ModelConfig::tiny(), 55);
        let calib = generate(&teacher, 2, 10, 3);
        let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
        to_packed(&q)
    })
}

#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    requests: usize,
    mean_interarrival: f64,
    max_batch: usize,
    policy: Policy,
    sampling: Sampling,
    prefill_chunk: Option<usize>,
    block_size: Option<usize>,
    /// 0 = unbounded pool, 1 = the legal minimum (one full-context
    /// session), 2 = minimum + 2 — both caps force memory-pressure
    /// preemption under load. Ignored when `block_size` is `None`.
    pool_mode: usize,
    /// When set (and paging is on), drives a seeded forced-preemption
    /// schedule through `ServeHooks::force_preempt`.
    preempt_seed: Option<u64>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            any::<u64>(),
            1usize..=5,  // requests
            0usize..=30, // mean inter-arrival (0 = burst)
            1usize..=4,  // max_batch
            0usize..3,   // policy index
            0usize..3,   // sampling choice
            0usize..5,   // chunked-prefill budget choice
        ),
        (
            0usize..6,    // paged-KV block size choice
            0usize..3,    // pool tightness
            any::<u64>(), // forced-preemption seed (odd = on, even = off)
        ),
    )
        .prop_map(
            |((seed, requests, gap, max_batch, pix, six, cix), (bix, pool_mode, praw))| {
                let preempt_seed = (praw % 2 == 1).then_some(praw >> 1);
                Scenario {
                    seed,
                    requests,
                    mean_interarrival: gap as f64,
                    max_batch,
                    policy: Policy::ALL[pix],
                    sampling: [
                        Sampling::Greedy,
                        Sampling::Temperature(1.0),
                        Sampling::Temperature(0.7),
                    ][six],
                    prefill_chunk: [None, Some(1), Some(2), Some(3), Some(8)][cix],
                    block_size: [None, Some(1), Some(2), Some(7), Some(16), Some(64)][bix],
                    pool_mode,
                    preempt_seed,
                }
            },
        )
}

fn run_scenario(model: &Transformer, backend: Backend, sc: &Scenario) {
    let params = TraceParams {
        requests: sc.requests,
        mean_interarrival: sc.mean_interarrival,
        prompt_len: (1, 6),
        new_tokens: (1, 7),
        sampling: sc.sampling,
    };
    let trace = synthetic_trace(&model.cfg, &params, sc.seed);
    let engine = BatchEngine::new(model, backend);
    let mut cfg = ServeConfig::new(sc.max_batch, sc.policy);
    cfg.prefill_chunk = sc.prefill_chunk;
    if let Some(bs) = sc.block_size {
        cfg = cfg.with_block_size(bs);
        let min_cap = model.cfg.max_seq.div_ceil(bs);
        cfg.pool_blocks = match sc.pool_mode {
            0 => None,
            1 => Some(min_cap),
            _ => Some(min_cap + 2),
        };
    }
    let hooks = ServeHooks {
        force_preempt: match (sc.block_size, sc.preempt_seed) {
            (Some(_), Some(ps)) => Some(Box::new(move |step, ids: &[usize]| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        (ps ^ (step as u64).wrapping_mul(31) ^ (id as u64).wrapping_mul(7))
                            .is_multiple_of(3)
                    })
                    .collect()
            })),
            _ => None,
        },
        ..Default::default()
    };
    let report = serve_with_hooks(&engine, &trace, &cfg, hooks);

    // Everyone was served, exactly once.
    assert_eq!(report.requests.len(), trace.len(), "{sc:?}");
    for (r, req) in report.requests.iter().zip(&trace.requests) {
        assert_eq!(r.id, req.id);
        // The signature property: tokens identical to the solo batch-1 run,
        // whatever step mixes the scheduler assembled.
        let solo = engine.solo_run(req);
        assert_eq!(r.generated, solo, "{sc:?} request {}", r.id);
        assert_eq!(r.tokens, r.generated.len());
        assert!(r.tokens <= req.max_new);
        assert!(
            r.first_token >= req.arrival && r.finish >= r.first_token,
            "{sc:?}"
        );
        // Emission ticks line up with the tokens and never decrease.
        assert_eq!(r.token_ticks.len(), r.tokens, "{sc:?}");
        assert!(r.token_ticks.windows(2).all(|w| w[0] <= w[1]), "{sc:?}");
    }
    // Structural sanity of the step log.
    for s in &report.steps {
        match s.kind() {
            StepKind::Prefill => assert!(s.prefill_rows >= 1),
            StepKind::Decode => {
                assert!(
                    s.decode_rows >= 1 && s.decode_rows <= sc.max_batch,
                    "{sc:?}"
                )
            }
            StepKind::Mixed => {
                // Mixed steps exist only under a chunk budget, within budget
                // and batch bounds (the prefilling session holds a slot).
                let chunk = sc.prefill_chunk.expect("mixed step without chunking");
                assert!(s.prefill_rows >= 1 && s.prefill_rows <= chunk, "{sc:?}");
                assert!(s.decode_rows >= 1 && s.decode_rows < sc.max_batch, "{sc:?}");
            }
        }
        if let Some(chunk) = sc.prefill_chunk {
            assert!(s.prefill_rows <= chunk, "{sc:?}");
        }
        assert!(s.cost > s.rows() as u64 - 1);
    }
    let work: u64 = report.steps.iter().map(|s| s.cost).sum();
    assert!(report.ticks >= work, "{sc:?}");
    // Paging bookkeeping: refcount conservation (every block returned),
    // swap symmetry (everything preempted was restored), priced traffic
    // (every swapped row shows up in exactly one step record), and the
    // pool cap honored at the peak.
    let step_swap_rows: usize = report.steps.iter().map(|s| s.swapped_rows).sum();
    match (&report.paging, sc.block_size) {
        (Some(stats), Some(bs)) => {
            assert_eq!(stats.block_size, bs, "{sc:?}");
            assert_eq!(stats.final_live_blocks, 0, "{sc:?}: leaked KV blocks");
            assert_eq!(stats.swaps_out, stats.swaps_in, "{sc:?}");
            assert_eq!(step_swap_rows, stats.swapped_rows, "{sc:?}");
            if let Some(cap) = stats.pool_blocks {
                assert!(
                    stats.peak_live_blocks <= cap,
                    "{sc:?}: peak {} over cap {cap}",
                    stats.peak_live_blocks
                );
            }
        }
        (None, None) => {
            assert_eq!(step_swap_rows, 0, "{sc:?}: swap traffic without paging");
        }
        (paging, _) => panic!("{sc:?}: paging report mismatch: {paging:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch-invariance on the packed exec backend, over arbitrary traces,
    /// policies, batch limits, and sampling rules.
    #[test]
    fn tokens_invariant_under_scheduling_exec(sc in scenario()) {
        run_scenario(
            packed_model(),
            Backend::Exec(EngineConfig::paper_default()),
            &sc,
        );
    }
}

proptest! {
    // The datapath model is slow; a few cases suffice for the second
    // backend (the per-row argument is backend-generic).
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same invariance through the bit-accurate FIGLUT-I datapath
    /// model (which `Backend::Exec` reproduces bit-exactly).
    #[test]
    fn tokens_invariant_under_scheduling_figlut_i(sc in scenario()) {
        let slim = Scenario { requests: sc.requests.min(3), ..sc.clone() };
        run_scenario(
            packed_model(),
            Backend::Engine(Engine::FiglutI, EngineConfig::paper_default()),
            &slim,
        );
    }
}

#[derive(Clone, Debug)]
struct CrowdScenario {
    seed: u64,
    requests: usize,
    mean_interarrival: f64,
    max_batch: usize,
    policy: Policy,
    prefill_chunk: Option<usize>,
    prefix_len: usize,
    /// Longest divergent tail; tails start at 0, so some prompts are
    /// wholly shared.
    tail_max: usize,
    block_size: usize,
    /// As [`Scenario::pool_mode`].
    pool_mode: usize,
}

fn crowd_scenario() -> impl Strategy<Value = CrowdScenario> {
    (
        (
            any::<u64>(),
            2usize..=6,  // requests
            0usize..=6,  // mean inter-arrival (0 = burst)
            1usize..=4,  // max_batch
            0usize..3,   // policy index
            0usize..4,   // chunked-prefill budget choice
            1usize..=16, // shared prefix length
            0usize..=4,  // longest tail
        ),
        (
            0usize..5, // block size choice
            0usize..3, // pool tightness
        ),
    )
        .prop_map(
            |(
                (seed, requests, gap, max_batch, pix, cix, prefix_len, tail_max),
                (bix, pool_mode),
            )| {
                CrowdScenario {
                    seed,
                    requests,
                    mean_interarrival: gap as f64,
                    max_batch,
                    policy: Policy::ALL[pix],
                    prefill_chunk: [None, Some(1), Some(3), Some(8)][cix],
                    prefix_len,
                    tail_max,
                    block_size: [1, 2, 4, 7, 16][bix],
                    pool_mode,
                }
            },
        )
}

/// The adoption a request's admission sees, modelled independently of the
/// registry: every session admitted earlier registered the whole-block
/// prefix of its prompt when its prefill ended (one prefill runs at a
/// time), and a request adopts its longest common prefix with any of
/// them. Exact on an unbounded pool; a capped pool may evict entries
/// first, so there it is an upper bound.
fn modelled_adoption(report: &ServeReport, trace: &Trace, bs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..trace.len()).collect();
    order.sort_by_key(|&i| report.requests[i].admitted);
    let mut registered: Vec<&[usize]> = Vec::new();
    let mut adopted = vec![0; trace.len()];
    for i in order {
        let prompt = &trace.requests[i].prompt;
        adopted[i] = registered
            .iter()
            .map(|e| e.iter().zip(prompt).take_while(|(a, b)| a == b).count())
            .max()
            .unwrap_or(0);
        registered.push(&prompt[..prompt.len() / bs * bs]);
    }
    adopted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prefix adoption skips compute without moving a token: flash-crowd
    /// traces (one shared prefix, short divergent tails, some wholly
    /// shared prompts) across block sizes, pool caps, policies and chunk
    /// budgets. Every request skips `min(adopted, prompt_len − 1)` rows,
    /// the steps carry exactly the prompt rows nobody skipped, tokens equal
    /// the solo runs, and every block comes back.
    #[test]
    fn adopted_prefixes_skip_their_rows_and_keep_solo_tokens(sc in crowd_scenario()) {
        let model = packed_model();
        let engine = BatchEngine::new(model, Backend::Exec(EngineConfig::paper_default()));
        let params = FlashCrowdParams {
            requests: sc.requests,
            mean_interarrival: sc.mean_interarrival,
            prefix_len: sc.prefix_len,
            tail_len: (0, sc.tail_max),
            new_tokens: (1, 6),
            sampling: Sampling::Greedy,
        };
        let trace = flash_crowd_trace(&model.cfg, &params, sc.seed);
        let mut cfg = ServeConfig::new(sc.max_batch, sc.policy).with_block_size(sc.block_size);
        cfg.prefill_chunk = sc.prefill_chunk;
        let min_cap = model.cfg.max_seq.div_ceil(sc.block_size);
        cfg.pool_blocks = [None, Some(min_cap), Some(min_cap + 2)][sc.pool_mode];
        let report = serve(&engine, &trace, &cfg);

        let stats = report.paging.expect("paging stats");
        assert_eq!(stats.final_live_blocks, 0, "{sc:?}: leaked KV blocks");
        let modelled = modelled_adoption(&report, &trace, sc.block_size);
        let mut computed = 0;
        for (r, req) in report.requests.iter().zip(&trace.requests) {
            assert_eq!(r.generated, engine.solo_run(req), "{sc:?} request {}", r.id);
            let bound = modelled[r.id].min(r.prompt_len - 1);
            if cfg.pool_blocks.is_none() {
                assert_eq!(r.skipped, bound, "{sc:?} request {}", r.id);
            } else {
                assert!(r.skipped <= bound, "{sc:?} request {}", r.id);
            }
            computed += r.prompt_len - r.skipped;
        }
        if cfg.pool_blocks.is_none() {
            assert_eq!(stats.shared_rows, modelled.iter().sum::<usize>(), "{sc:?}");
        }
        let prefill_rows: usize = report.steps.iter().map(|s| s.prefill_rows).sum();
        assert_eq!(prefill_rows, computed, "{sc:?}: steps ran skipped rows");
    }
}

/// Reports themselves are deterministic: the same scenario twice gives the
/// same report (tokens, ticks, steps — everything).
#[test]
fn serving_reports_are_reproducible() {
    let model = packed_model();
    let engine = BatchEngine::new(model, Backend::Exec(EngineConfig::paper_default()));
    let trace = synthetic_trace(&model.cfg, &TraceParams::light(5), 99);
    let cfg = ServeConfig::new(3, Policy::PrefillPriority);
    let a = serve(&engine, &trace, &cfg);
    let b = serve(&engine, &trace, &cfg);
    assert_eq!(a, b);
}

/// The two prefill modes are one loop. Wherever a step cannot mix prefill
/// with decode rows — decode-priority at any `max_batch` (it admits only
/// into an idle engine) and every policy at `max_batch == 1` — a chunk
/// budget of the whole context and the monolithic `None` must give equal
/// reports, field for field: `None` differs from a budget only in the
/// decode set of a prefill-carrying step, and here that set is empty either
/// way. Fails if the composition rule ever leaks into anything else
/// (admission, paging, the clock, retire order).
#[test]
fn unmixable_schedules_ignore_the_prefill_mode() {
    let model = packed_model();
    let engine = BatchEngine::new(model, Backend::Exec(EngineConfig::paper_default()));
    let max_seq = model.cfg.max_seq;
    let shapes: Vec<(Policy, usize)> = (1..=4)
        .map(|max_batch| (Policy::DecodePriority, max_batch))
        .chain([(Policy::Fcfs, 1), (Policy::PrefillPriority, 1)])
        .collect();
    for (seed, gap) in [(3u64, 0.0), (11, 2.0), (29, 6.0), (71, 15.0)] {
        let params = TraceParams {
            requests: 4,
            mean_interarrival: gap,
            prompt_len: (1, 7),
            new_tokens: (1, 5),
            sampling: Sampling::Temperature(0.7),
        };
        let trace = synthetic_trace(&model.cfg, &params, seed);
        for &(policy, max_batch) in &shapes {
            let contiguous = ServeConfig::new(max_batch, policy);
            // Paged at the minimum legal pool: one full-context session.
            let paged = contiguous
                .with_block_size(4)
                .with_pool_blocks(max_seq.div_ceil(4));
            for monolithic in [contiguous, paged] {
                assert_eq!(monolithic.prefill_chunk, None);
                let whole_context = monolithic.with_prefill_chunk(max_seq);
                assert_eq!(
                    serve(&engine, &trace, &whole_context),
                    serve(&engine, &trace, &monolithic),
                    "seed {seed} {monolithic:?}"
                );
            }
        }
    }
}
