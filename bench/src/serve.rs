//! The two serving workloads: one *pass* is a whole-trace `serve()` call.
//!
//! * `serve-wide` — the default serving configuration (monolithic prefill,
//!   contiguous KV: the `serve_monolithic` loop) on a model wide enough
//!   (d 512) that the GEMMs and the model's non-GEMM work dominate and
//!   scheduler, paging and thread dispatch are negligible.
//! * `serve-tiny-paged` — a flash crowd sharing a prompt prefix, on the
//!   `ext-serving` stack (d 48) with chunked prefill on a capped paged pool
//!   (the `serve_chunked` loop, copy-on-write prefix sharing, preempt and
//!   restore). The kernel inner loop does little here; call dispatch, table
//!   builds, KV paging and scheduler bookkeeping do most of the work, so a
//!   kernel-only gain must predict *no change* on it.
//!
//! The traffic *shape* (arrival ticks, prompt lengths, generation budgets)
//! is part of the workload definition and is drawn once, at `SHAPE_SEED`;
//! `--seed` draws the *content* (every prompt token and sampling seed). At
//! these trace sizes the arrival draw alone moves rows per step by 30-40 %
//! between seeds (measured), which would drown any 10 % bound; and with the
//! shape fixed every tick metric and counter repeats exactly across seeds.
//! It is an open loop: requests arrive on the trace's virtual-clock
//! schedule whether or not earlier ones have finished.

use crate::probe;
use crate::report::{Gate, Metrics, Spans};
use crate::wallsink::{WallLog, WallSink};
use crate::{host, stats, Outcome, RunCfg};
use figlut::exec::PackedBcq;
use figlut::gemm::EngineConfig;
use figlut::model::calibrate::{quantize_model, to_packed, Method};
use figlut::model::config::by_name;
use figlut::model::corpus::{generate, Corpus};
use figlut::model::rng::Rng;
use figlut::model::transformer::LinearWeights;
use figlut::model::{Backend, BlockPool, KvCache, ModelConfig, Transformer};
use figlut::num::fp::FpFormat;
use figlut::serve::{
    serve, BatchEngine, FinishReason, Policy, Scenario, ServeConfig, ServeReport, SessionState,
    Slo, Trace,
};
use figlut::sim::{EngineSpec, SimEngine, Tech};
use std::time::Instant;

/// Seed of the synthetic teacher (the repo's `OPT-1.3B-synth` stand-in).
const TEACHER_SEED: u64 = 102;
/// Seed the traffic shape is drawn at (see the module docs).
const SHAPE_SEED: u64 = 4242;
/// The latency contract goodput and `serve.max_load_at_slo` are judged by.
const SLO: Slo = Slo {
    ttft: 100,
    stall: 25,
};

/// One serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeDef {
    pub model: ModelConfig,
    pub method: Method,
    pub scenario: Scenario,
    pub requests: usize,
    /// Arrival-rate multiplier of the measured trace.
    pub load: f64,
    pub config: ServeConfig,
    /// Loads swept for `serve.max_load_at_slo`, ascending.
    pub sweep: [f64; 5],
}

impl ServeDef {
    pub fn wide() -> Self {
        Self {
            model: ModelConfig {
                vocab: 96,
                d_model: 512,
                layers: 2,
                heads: 8,
                ffn: 2048,
                max_seq: 40,
            },
            method: Method::Rtn { bits: 4 },
            scenario: Scenario::Steady,
            requests: 16,
            load: 0.6,
            config: ServeConfig::new(8, Policy::PrefillPriority),
            sweep: [0.4, 0.5, 0.6, 0.7, 0.8],
        }
    }

    pub fn tiny_paged() -> Self {
        Self {
            model: ModelConfig::scaled(2, 48, 4),
            method: Method::ShiftAdd { bits: 3 },
            scenario: Scenario::FlashCrowd,
            requests: 128,
            load: 0.1,
            config: ServeConfig::new(8, Policy::PrefillPriority)
                .with_prefill_chunk(8)
                .with_block_size(4)
                .with_pool_blocks(13),
            sweep: [0.06, 0.08, 0.10, 0.12, 0.14],
        }
    }

    /// The trace at `load`: shape from `SHAPE_SEED`, content from `seed`.
    fn trace(&self, load: f64, seed: u64) -> Trace {
        let mut trace = self
            .scenario
            .trace(&self.model, self.requests, load, SHAPE_SEED);
        reseed_content(&mut trace, self.model.vocab, seed);
        trace
    }
}

/// Redraw every prompt token and sampling seed of `trace` from `seed`,
/// keeping arrivals, lengths, budgets and the prefix all prompts share.
fn reseed_content(trace: &mut Trace, vocab: usize, seed: u64) {
    let Some(first) = trace.requests.first().map(|r| r.prompt.clone()) else {
        return;
    };
    let shared = trace
        .requests
        .iter()
        .map(|r| {
            r.prompt
                .iter()
                .zip(&first)
                .take_while(|(a, b)| a == b)
                .count()
        })
        .min()
        .unwrap_or(0);
    let mut rng = Rng::new(seed);
    // Position 0 stays the BOS token every scenario starts prompts with.
    let prefix: Vec<usize> = (0..shared)
        .map(|i| if i == 0 { first[0] } else { rng.below(vocab) })
        .collect();
    for r in &mut trace.requests {
        for (i, t) in r.prompt.iter_mut().enumerate() {
            *t = if i < shared {
                prefix[i]
            } else {
                rng.below(vocab)
            };
        }
        r.seed = rng.next_u64();
    }
}

/// The packed model and the trace it serves.
pub struct ServeSetup {
    pub model: Transformer,
    pub trace: Trace,
    /// Seconds spent quantizing, and packing (plans included).
    pub quantize_s: f64,
    pub pack_s: f64,
}

/// Build the workload's inputs: teacher → quantize → pack (+ plans) →
/// trace.
pub fn setup(def: &ServeDef, seed: u64) -> ServeSetup {
    let teacher = Transformer::teacher(def.model, TEACHER_SEED);
    let t = Instant::now();
    // RTN needs no calibration text; the activation-aware methods do.
    let calib = match def.method {
        Method::Rtn { .. } => Corpus {
            sequences: Vec::new(),
        },
        _ => generate(&teacher, 4, 14, 7),
    };
    let (quantized, _) = quantize_model(&teacher, &calib, def.method);
    let quantize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = to_packed(&quantized);
    let pack_s = t.elapsed().as_secs_f64();
    ServeSetup {
        model,
        trace: def.trace(def.load, seed),
        quantize_s,
        pack_s,
    }
}

fn exec_backend() -> Backend {
    Backend::Exec(EngineConfig::paper_default())
}

/// Tokens of every eighth request run alone at batch 1: the reference the
/// served streams must equal bit for bit.
pub fn solo_refs(engine: &BatchEngine<'_>, trace: &Trace) -> Vec<(usize, Vec<usize>)> {
    trace
        .requests
        .iter()
        .step_by(8)
        .map(|r| (r.id, engine.solo_run(r)))
        .collect()
}

/// The correctness gate on the first report of a run.
pub fn gate(def: &ServeDef, first: &ServeReport, refs: &[(usize, Vec<usize>)], g: &mut Gate) {
    for (id, want) in refs {
        let got = first.requests.iter().find(|r| r.id == *id);
        g.check(got.is_some_and(|r| r.generated == *want), || {
            format!("request {id}: served tokens differ from its solo run")
        });
    }
    g.check(
        first
            .requests
            .iter()
            .all(|r| r.reason != FinishReason::Shed),
        || "a request was shed".into(),
    );
    match (def.config.block_size, first.paging) {
        (Some(_), Some(p)) => {
            g.check(p.swaps_out > 0, || {
                "no preemption on the capped pool".into()
            });
            g.check(p.shared_rows > 0, || "no prefix rows were shared".into());
            g.check(p.final_live_blocks == 0, || {
                format!("{} KV blocks leaked", p.final_live_blocks)
            });
        }
        (None, None) => g.check(first.steps.iter().all(|s| s.swapped_rows == 0), || {
            "KV rows swapped with paging off".into()
        }),
        _ => g.check(false, || "paging stats disagree with the config".into()),
    }
}

/// Serve the trace for `seconds` (at least `min` times); every report must
/// equal `first`. Returns the seconds of each repetition.
fn timed(
    engine: &BatchEngine<'_>,
    s: &ServeSetup,
    config: &ServeConfig,
    first: &ServeReport,
    (seconds, min): (f64, usize),
    g: &mut Gate,
) -> Vec<f64> {
    let mut secs = Vec::new();
    let started = Instant::now();
    while secs.len() < min || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let report = serve(engine, &s.trace, config);
        secs.push(t.elapsed().as_secs_f64());
        g.check(report == *first, || {
            format!("repetition {}: report differs from the first", secs.len())
        });
    }
    secs
}

fn median_of(values: impl Iterator<Item = usize>) -> usize {
    stats::median(&values.map(|v| v as f64).collect::<Vec<_>>()).round() as usize
}

/// Run one serving workload.
pub fn run(def: &ServeDef, cfg: &RunCfg) -> Outcome {
    let mut m = Metrics::default();
    let mut g = Gate::default();
    // Set up repeatedly (at least 5 times and for 2 s, at most 25 times):
    // the tiny model sets up in tens of milliseconds, and a median of a
    // handful of those is not steady.
    let mut setups = Vec::new();
    let mut s = None;
    let started = Instant::now();
    while s.is_none()
        || (!cfg.trace
            && setups.len() < 25
            && (setups.len() < 5 || started.elapsed().as_secs_f64() < 2.0))
    {
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(def, cfg.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("set up at least once");
    let engine = BatchEngine::new(&s.model, exec_backend());
    let first = serve(&engine, &s.trace, &def.config);
    gate(def, &first, &solo_refs(&engine, &s.trace), &mut g);
    let tokens = first.total_tokens() as f64;

    if !cfg.trace {
        let secs = timed(&engine, &s, &def.config, &first, (cfg.seconds, 3), &mut g);
        let rep = stats::median(&secs);
        m.set("setup_s", stats::median(&setups));
        m.set("tok_per_s", tokens / rep);
        m.set("pass_ms_p50", rep * 1e3);
        m.set("peak_rss_mib", host::peak_rss_mib());
        println!(
            "# {} set-ups; {} repetitions of {} requests, {tokens} tokens each",
            setups.len(),
            secs.len(),
            s.trace.len()
        );
        return Outcome {
            metrics: m,
            gate: g,
            chrome: None,
        };
    }

    let mut spans = Spans::new(cfg.lane);
    m.set("quant.quantize_ms", s.quantize_s * 1e3);
    m.set("exec.pack_ms", s.pack_s * 1e3);
    // Untraced and traced repetitions in pairs, so drift cancels. Each
    // traced one is its own session (the counters are one run's); the step
    // stamps of the last give the wall time per step.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while traced.len() < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
        plain.extend(timed(&engine, &s, &def.config, &first, (0.0, 1), &mut g));
        let (sink, log) = WallSink::new(spans.base());
        let guard = figlut::trace::install(Box::new(sink));
        let id = spans.open("serve", None);
        let report = serve(&engine, &s.trace, &def.config);
        traced.push(spans.close(id));
        let counters = figlut::trace::snapshot();
        guard.finish().expect("an in-memory sink cannot fail");
        g.check(report == first, || "traced report differs".into());
        last = Some((id, log, counters));
    }
    println!("# {} untraced/traced repetition pairs", traced.len());
    let (serve_span, log, c) = last.expect("at least three traced repetitions");
    let log = log.lock().expect("single-threaded");
    m.set(
        "trace.overhead_share",
        stats::median(&traced) / stats::median(&plain) - 1.0,
    );
    m.set("trace.events", log.events as f64);
    step_metrics(&mut m, &mut spans, serve_span, &log, &first, &mut g);
    drop(log);

    probe::exec_counters(&mut m, &c);
    m.set("model.forward_calls", c.model_forward_calls as f64);
    m.set("model.prefill_rows", c.model_prefill_rows as f64);
    m.set("model.decode_rows", c.model_decode_rows as f64);
    m.set("model.kv_cow_copies", c.kv_cow_copies as f64);
    m.set("model.kv_swap_out_rows", c.kv_swap_out_rows as f64);
    m.set("model.kv_swap_in_rows", c.kv_swap_in_rows as f64);
    m.set("serve.steps", c.serve_steps as f64);
    m.set("serve.admissions", c.serve_admissions as f64);
    m.set("serve.preemptions", c.serve_preemptions as f64);
    m.set("serve.restores", c.serve_restores as f64);
    m.set("serve.sheds", c.serve_sheds as f64);

    report_metrics(&mut m, &mut spans, &first, &s.model, cfg.samples);
    scheduler_metrics(&mut m, &mut spans, def, &s, &first, cfg, &mut g);

    // Layer probes at the row count of the workload's median step.
    let rows = median_of(first.steps.iter().map(|st| st.rows())).max(1);
    let block = &s.model.blocks[0];
    let linears = [&block.wq, &block.fc1, &block.fc2].map(|l| match &l.weights {
        LinearWeights::Packed(w, plan) => (w, plan),
        _ => unreachable!("to_packed packs every quantized linear"),
    });
    let all: Vec<&PackedBcq> = s
        .model
        .linear_weights()
        .into_iter()
        .filter_map(|w| match w {
            LinearWeights::Packed(p, _) => Some(p),
            _ => None,
        })
        .collect();
    let mut rng = Rng::new(cfg.seed ^ 0x7072_6f62);
    probe::exec_layer(
        &mut m,
        &mut spans,
        linears,
        &all,
        rows,
        cfg.samples,
        &mut rng,
    );
    model_metrics(
        &mut m, &mut spans, def, &s, &first, linears, rows, cfg, &mut rng,
    );

    let lut = probe::lut_bytes(linears[0].0, &EngineConfig::paper_default(), rows);
    probe::host_ceilings(&mut m, &mut spans, lut);
    crate::zero_absent(
        &mut m,
        &[
            "gemm.model_rows_per_s",
            "exec.b8_amortization_x",
            "exec.pass_ms_tail",
        ],
    );
    Outcome {
        metrics: m,
        gate: g,
        chrome: Some(spans.chrome()),
    }
}

/// Wall time per scheduler step from the `WallSink` stamps: the gap
/// between consecutive step spans is one iteration of the serving loop.
fn step_metrics(
    m: &mut Metrics,
    spans: &mut Spans,
    serve_span: usize,
    log: &WallLog,
    first: &ServeReport,
    g: &mut Gate,
) {
    g.check(log.steps.len() == first.steps.len(), || {
        format!(
            "{} step spans for {} step records",
            log.steps.len(),
            first.steps.len()
        )
    });
    let mut prev = spans.spans[serve_span].start_ns;
    let mut gaps: Vec<(&'static str, f64)> = Vec::with_capacity(log.steps.len());
    for st in &log.steps {
        g.check(st.t_ns >= prev, || "step stamps went backwards".into());
        spans.push(st.kind, prev, st.t_ns, Some(serve_span));
        gaps.push((st.kind, st.t_ns.saturating_sub(prev) as f64 / 1e6));
        prev = st.t_ns;
    }
    let of = |kind: Option<&str>| {
        stats::sorted(
            gaps.iter()
                .filter(|(k, _)| kind.is_none_or(|want| *k == want))
                .map(|&(_, ms)| ms)
                .collect(),
        )
    };
    let all = of(None);
    m.set("serve.step_ms_p50", stats::median(&all));
    m.set("serve.step_ms_p99", stats::percentile(&all, 99.0));
    m.set(
        "serve.step_ms_p50.prefill",
        stats::median(&of(Some("Prefill"))),
    );
    m.set(
        "serve.step_ms_p50.decode",
        stats::median(&of(Some("Decode"))),
    );
    m.set("serve.step_ms_p50.mixed", stats::median(&of(Some("Mixed"))));
}

/// Everything read off the `ServeReport`: exact tick metrics, and the
/// trace priced on the paper's cost model.
fn report_metrics(
    m: &mut Metrics,
    spans: &mut Spans,
    first: &ServeReport,
    model: &Transformer,
    samples: usize,
) {
    let rows: usize = first.steps.iter().map(|s| s.rows()).sum();
    m.set(
        "serve.rows_per_step_mean",
        rows as f64 / first.steps.len().max(1) as f64,
    );
    m.set("serve.occupancy_mean", first.mean_decode_occupancy());
    m.set("serve.tok_per_ktick", first.tokens_per_kilotick());
    let dists = first.distributions();
    m.set("serve.ttft_ticks_p99", dists.ttft.percentile(99.0) as f64);
    m.set(
        "serve.goodput_tok_per_ktick",
        first.goodput(&SLO).tokens_per_kilotick,
    );
    m.set(
        "serve.queue_wait_ticks_p50",
        dists.queue_wait.percentile(50.0) as f64,
    );
    m.set(
        "serve.queue_wait_ticks_p99",
        dists.queue_wait.percentile(99.0) as f64,
    );
    m.set(
        "serve.shared_rows",
        first.paging.map_or(0, |p| p.shared_rows) as f64,
    );
    m.set(
        "serve.peak_live_blocks",
        first.paging.map_or(0, |p| p.peak_live_blocks) as f64,
    );

    // The paper's currency: energy per token on FIGLUT-I / FP16 at 28 nm,
    // the executed step sequence scaled up to the real OPT-1.3B shape.
    let tech = Tech::cmos28();
    let engine = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    let opt = by_name("OPT-1.3B").expect("OPT-1.3B is in the static family table");
    let bits = model.average_bits();
    let mut pj = 0.0;
    let secs = spans.sample("sim.price", samples, || {
        pj = first.energy_per_token_pj(&tech, &engine, opt, bits)
    });
    m.set("sim.nj_per_token", pj / 1e3);
    m.set("sim.price_ms", secs * 1e3);
}

/// A model so small the forward is negligible: what is left of a `serve()`
/// call on it is scheduler bookkeeping. Tick results do not depend on the
/// model (no end-of-sequence token; budgets and the context cap decide).
fn nano(def: &ServeDef) -> Transformer {
    Transformer::teacher(
        ModelConfig {
            d_model: 8,
            layers: 1,
            heads: 1,
            ffn: 32,
            ..def.model
        },
        TEACHER_SEED,
    )
}

/// `true` if at least 90 % of the requests met the SLO and the backlog is
/// not growing (the last quarter of arrivals still waits no longer than
/// the TTFT limit on average).
fn meets_slo(report: &ServeReport) -> bool {
    let n = report.requests.len();
    let met = report.goodput(&SLO).met_requests;
    let mut by_arrival: Vec<_> = report.requests.iter().collect();
    by_arrival.sort_by_key(|r| (r.arrival, r.id));
    let late = &by_arrival[n - n.div_ceil(4)..];
    let wait = late.iter().map(|r| r.queue_wait() as f64).sum::<f64>() / late.len() as f64;
    met * 10 >= n * 9 && wait <= SLO.ttft as f64
}

/// Scheduler bookkeeping time and the load sweep, both on the nano model.
fn scheduler_metrics(
    m: &mut Metrics,
    spans: &mut Spans,
    def: &ServeDef,
    s: &ServeSetup,
    first: &ServeReport,
    cfg: &RunCfg,
    g: &mut Gate,
) {
    let model = nano(def);
    let engine = BatchEngine::new(&model, Backend::Exact);
    let report = serve(&engine, &s.trace, &def.config);
    g.check(
        report.ticks == first.ticks && report.steps == first.steps,
        || "tick results depend on the model".into(),
    );
    let secs = spans.sample("serve.sched", cfg.samples, || {
        std::hint::black_box(serve(&engine, &s.trace, &def.config));
    });
    m.set(
        "serve.sched_us_per_step",
        secs * 1e6 / first.steps.len().max(1) as f64,
    );
    let best = def
        .sweep
        .iter()
        .filter(|&&load| meets_slo(&serve(&engine, &def.trace(load, cfg.seed), &def.config)))
        .fold(0.0, |best: f64, &load| best.max(load));
    m.set("serve.max_load_at_slo", best);
}

/// `forward_batch`, `BatchEngine::step` and KV swap, timed from outside at
/// the workload's median step width and median positions. The decode-side
/// numbers are sampled together — engine step, then the forward it wraps,
/// then the linear calls that forward makes — and the self-times are
/// medians of the per-sample differences, so drift between samples cancels.
#[allow(clippy::too_many_arguments)]
fn model_metrics(
    m: &mut Metrics,
    spans: &mut Spans,
    def: &ServeDef,
    s: &ServeSetup,
    first: &ServeReport,
    linears: [probe::Linear<'_>; 3],
    rows: usize,
    cfg: &RunCfg,
    rng: &mut Rng,
) {
    let backend = exec_backend();
    let engine = BatchEngine::new(&s.model, backend);
    let max_seq = def.model.max_seq;
    let pool = def
        .config
        .block_size
        .map(|bs| BlockPool::for_model(&def.model, bs, None));
    let fresh = || match &pool {
        Some(p) => s.model.new_paged_cache(p),
        None => s.model.new_cache(),
    };
    let depth =
        median_of(first.requests.iter().map(|r| r.prompt_len + r.tokens / 2)).clamp(1, max_seq - 2);

    // `rows` sessions advanced to the median depth, cloned per sample.
    let base: Vec<SessionState> = (0..rows)
        .map(|i| {
            let mut req = s.trace.requests[i % s.trace.len()].clone();
            req.max_new = max_seq;
            let mut st = engine.start_with_cache(req, fresh());
            let _ = engine.prefill(&mut st);
            while st.positions() < depth {
                engine.decode(&mut [&mut st]);
            }
            st
        })
        .collect();
    let tokens: Vec<usize> = base
        .iter()
        .map(|st| {
            *st.generated
                .last()
                .expect("prefilled sessions hold a token")
        })
        .collect();
    let chunks: Vec<&[usize]> = tokens.chunks(1).collect();
    // The linear calls one forward makes: per layer four attention
    // projections, the up- and the down-projection, at the library's
    // default worker count.
    let ecfg = EngineConfig::paper_default();
    let threads = figlut::exec::parallel::thread_count();
    let xs = linears.map(|(w, _)| probe::activations(rows, w.cols(), rng));
    let mut outs = linears.map(|(w, _)| figlut::num::Mat::zeros(rows, w.rows()));

    let parent = spans.open("model.decode_probe", None);
    let (mut forwards, mut selfs, mut rests, mut shares) = (vec![], vec![], vec![], vec![]);
    for i in 0..cfg.samples {
        let mut sessions = base.clone();
        let mut caches: Vec<KvCache> = base.iter().map(|st| st.cache().clone()).collect();
        let mut run_step = |spans: &mut Spans| {
            spans
                .time("serve.engine_step", Some(parent), || {
                    let mut refs: Vec<&mut SessionState> = sessions.iter_mut().collect();
                    engine.decode(&mut refs);
                })
                .1
        };
        let mut run_forward = |spans: &mut Spans| {
            spans
                .time("model.forward.decode", Some(parent), || {
                    std::hint::black_box(s.model.forward_batch(&chunks, &mut caches, &backend));
                })
                .1
        };
        // Alternate which goes first, so neither always runs on the
        // colder cache.
        let (step, forward) = if i % 2 == 0 {
            let step = run_step(spans);
            (step, run_forward(spans))
        } else {
            let forward = run_forward(spans);
            (run_step(spans), forward)
        };
        let ((), gemm) = spans.time("exec.forward_linears", Some(parent), || {
            for _ in 0..def.model.layers {
                for (i, calls) in [(0, 4), (1, 1), (2, 1)] {
                    for _ in 0..calls {
                        let (w, plan) = linears[i];
                        plan.exec_i_into(&xs[i], w, &ecfg, threads, &mut outs[i]);
                    }
                }
            }
        });
        forwards.push(forward);
        selfs.push(step - forward);
        rests.push(forward - gemm);
        shares.push(gemm / forward);
    }
    spans.close(parent);
    m.set("model.forward_us.decode", stats::median(&forwards) * 1e6);
    m.set("serve.engine_self_us", stats::median(&selfs) * 1e6);
    m.set("model.gemm_share", stats::median(&shares));
    m.set("model.non_gemm_us", stats::median(&rests) * 1e6);

    // One prefill chunk of the median size at the median chunk offset.
    let prefills = || first.steps.iter().filter(|st| st.prefill_rows > 0);
    let chunk = median_of(prefills().map(|st| st.prefill_rows)).max(1);
    let at = median_of(prefills().map(|st| st.prefill_pos)).min(max_seq - chunk);
    let prompt: Vec<usize> = (0..at + chunk)
        .map(|_| rng.below(def.model.vocab))
        .collect();
    let mut warm = fresh();
    if at > 0 {
        let _ = s.model.prefill(&prompt[..at], &mut warm, &backend);
    }
    let prefill = spans.sample_with(
        "model.forward.prefill",
        cfg.samples,
        || warm.clone(),
        |mut cache| {
            std::hint::black_box(s.model.prefill(&prompt[at..], &mut cache, &backend));
        },
    );
    m.set("model.forward_us.prefill", prefill * 1e6);

    let swap = if pool.is_some() {
        spans.sample_with(
            "model.kv_swap",
            cfg.samples,
            || base[0].cache().clone(),
            |mut cache| {
                cache.swap_out();
                cache.restore();
            },
        )
    } else {
        0.0
    };
    m.set("model.kv_swap_us", swap * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Trace sessions are process-wide: tests that serve take this lock so
    /// a sibling's untraced `serve` cannot bump a traced test's counters.
    static SERVING: Mutex<()> = Mutex::new(());

    fn small() -> ServeDef {
        // Fewer requests, arriving faster: still preempts and shares.
        ServeDef {
            requests: 32,
            load: 1.0,
            ..ServeDef::tiny_paged()
        }
    }

    #[test]
    fn seed_changes_content_but_not_shape() {
        let def = small();
        let (a, b, c) = (def.trace(1.0, 1), def.trace(1.0, 1), def.trace(1.0, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (x, y) in a.requests.iter().zip(&c.requests) {
            assert_eq!(
                (x.arrival, x.prompt.len(), x.max_new),
                (y.arrival, y.prompt.len(), y.max_new)
            );
        }
        // The flash crowd's shared prefix survives the redraw.
        let shared = |t: &Trace| {
            t.requests
                .iter()
                .all(|r| r.prompt[..12] == t.requests[0].prompt[..12])
        };
        assert!(shared(&a) && shared(&c));
        assert_ne!(a.requests[0].prompt[..12], c.requests[0].prompt[..12]);
    }

    #[test]
    fn tick_metrics_repeat_and_do_not_depend_on_the_model() {
        let _serving = SERVING.lock().unwrap();
        let def = small();
        let s = setup(&def, 5);
        let engine = BatchEngine::new(&s.model, exec_backend());
        let (a, b) = (
            serve(&engine, &s.trace, &def.config),
            serve(&engine, &s.trace, &def.config),
        );
        assert_eq!(a, b);
        let model = nano(&def);
        let n = serve(
            &BatchEngine::new(&model, Backend::Exact),
            &s.trace,
            &def.config,
        );
        assert_eq!((n.ticks, &n.steps), (a.ticks, &a.steps));
        assert_eq!(n.goodput(&SLO), a.goodput(&SLO));
        assert_eq!(
            n.distributions().ttft.percentile(99.0),
            a.distributions().ttft.percentile(99.0)
        );
        // A different content seed leaves every tick result in place.
        let other = serve(&engine, &def.trace(def.load, 6), &def.config);
        assert_eq!((other.ticks, &other.steps), (a.ticks, &a.steps));
    }

    #[test]
    fn gate_passes_and_a_corrupted_reference_token_fails_it() {
        let _serving = SERVING.lock().unwrap();
        let def = small();
        let s = setup(&def, 5);
        let engine = BatchEngine::new(&s.model, exec_backend());
        let first = serve(&engine, &s.trace, &def.config);
        let mut refs = solo_refs(&engine, &s.trace);
        assert_eq!(refs.len(), 4);
        let mut g = Gate::default();
        gate(&def, &first, &refs, &mut g);
        assert!(g.correct(), "{:?}", g.notes);
        assert_eq!(g.attempted, 4 + 1 + 3);

        refs[1].1[0] ^= 1;
        let mut g = Gate::default();
        gate(&def, &first, &refs, &mut g);
        assert_eq!(g.failed, 1);
        assert!(g.fail_share() > 0.0);
        assert_ne!(crate::exit_code(&g), 0);
    }

    #[test]
    fn wall_sink_stamps_once_per_step_in_order() {
        let _serving = SERVING.lock().unwrap();
        let def = small();
        let s = setup(&def, 5);
        let engine = BatchEngine::new(&s.model, exec_backend());
        let mut spans = Spans::new(0);
        let (sink, log) = WallSink::new(spans.base());
        let guard = figlut::trace::install(Box::new(sink));
        let id = spans.open("serve", None);
        let report = serve(&engine, &s.trace, &def.config);
        spans.close(id);
        let counters = figlut::trace::snapshot();
        guard.finish().unwrap();
        let log = log.lock().unwrap();
        assert_eq!(log.steps.len(), report.steps.len());
        assert_eq!(counters.serve_steps as usize, report.steps.len());
        assert!(log.steps.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(log.events as usize > log.steps.len());
        for (stamp, rec) in log.steps.iter().zip(&report.steps) {
            assert_eq!(stamp.kind, rec.kind().name());
        }
        let (mut m, mut g) = (Metrics::default(), Gate::default());
        step_metrics(&mut m, &mut spans, id, &log, &report, &mut g);
        assert!(g.correct());
        assert!(m.get("serve.step_ms_p99") >= m.get("serve.step_ms_p50"));
        assert!(figlut::trace::validate_chrome_trace(&spans.chrome()).is_ok());
    }
}
