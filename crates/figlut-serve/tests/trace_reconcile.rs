//! Reconciles the serving-layer trace against the report the scheduler
//! already commits to, and proves tracing is a pure observer:
//!
//! * **Golden identity** — serving the same trace with a session installed
//!   returns a `ServeReport` equal (full struct, tokens and step log
//!   included) to the untraced run.
//! * **Span reconciliation** — one span per `StepRecord`, in order, with
//!   matching kind names, durations summing to the step costs, and
//!   globally monotone timestamps (across multiple runs in one session).
//! * **Counter reconciliation** — admissions = requests, steps = step
//!   records, forward calls = steps, model rows = `Σ StepRecord::rows()`,
//!   preempt/restore counts and swap rows = `PagingStats`.
//!
//! * **Session isolation** — two sessions tracing different scenarios at
//!   the same time, beside untraced serving, each reconcile against their
//!   own report.
//! * **Workers inside the session** — a model wide enough that steps run
//!   on a worker crew counts at 2 threads exactly what it counts at one.
//!
//! Quantified over backends (datapath-exact and packed exec), block sizes,
//! pool pressure, chunked prefill, and a forced-preemption schedule.

use figlut_exec::parallel::THREADS_ENV;
use figlut_gemm::EngineConfig;
use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::{generate, Corpus};
use figlut_model::{Backend, ModelConfig, Transformer};
use figlut_serve::{
    serve_with_hooks, synthetic_trace, BatchEngine, Policy, Sampling, ServeConfig, ServeHooks,
    ServeReport, TraceParams,
};
use figlut_trace::{install, snapshot, CollectSink, Counters, OwnedEvent};
use std::sync::{Barrier, OnceLock};

fn packed_model() -> &'static Transformer {
    static MODEL: OnceLock<Transformer> = OnceLock::new();
    MODEL.get_or_init(|| {
        let teacher = Transformer::teacher(ModelConfig::tiny(), 55);
        let calib = generate(&teacher, 2, 10, 3);
        let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
        to_packed(&q)
    })
}

struct Scenario {
    name: &'static str,
    backend: Backend,
    cfg: ServeConfig,
    force_preempt: bool,
}

fn scenarios() -> Vec<Scenario> {
    let model = packed_model();
    let min_cap = |bs: usize| model.cfg.max_seq.div_ceil(bs);
    vec![
        Scenario {
            name: "contiguous-exact",
            backend: Backend::Exact,
            cfg: ServeConfig::new(3, Policy::PrefillPriority),
            force_preempt: false,
        },
        Scenario {
            name: "contiguous-exec-fcfs",
            backend: Backend::Exec(EngineConfig::paper_default()),
            cfg: ServeConfig::new(2, Policy::Fcfs),
            force_preempt: false,
        },
        Scenario {
            name: "paged-unbounded",
            backend: Backend::Exec(EngineConfig::paper_default()),
            cfg: ServeConfig::new(3, Policy::PrefillPriority).with_block_size(2),
            force_preempt: false,
        },
        Scenario {
            name: "paged-tight-forced-preempt",
            backend: Backend::Exec(EngineConfig::paper_default()),
            cfg: ServeConfig::new(3, Policy::PrefillPriority)
                .with_block_size(4)
                .with_pool_blocks(min_cap(4) + 2),
            force_preempt: true,
        },
        Scenario {
            name: "chunked-paged-forced-preempt",
            backend: Backend::Exec(EngineConfig::paper_default()),
            cfg: ServeConfig::new(3, Policy::Fcfs)
                .with_prefill_chunk(2)
                .with_block_size(2)
                .with_pool_blocks(min_cap(2) + 2),
            force_preempt: true,
        },
    ]
}

fn run(sc: &Scenario) -> ServeReport {
    let model = packed_model();
    let params = TraceParams {
        requests: 5,
        mean_interarrival: 6.0,
        prompt_len: (1, 6),
        new_tokens: (2, 7),
        sampling: Sampling::Greedy,
    };
    let trace = synthetic_trace(&model.cfg, &params, 97);
    let engine = BatchEngine::new(model, sc.backend);
    let hooks = ServeHooks {
        force_preempt: sc.force_preempt.then(|| {
            Box::new(move |step: usize, ids: &[usize]| {
                ids.iter()
                    .copied()
                    .filter(|&id| (step as u64 * 31 + id as u64 * 7).is_multiple_of(3))
                    .collect::<Vec<usize>>()
            }) as Box<dyn FnMut(usize, &[usize]) -> Vec<usize>>
        }),
        ..Default::default()
    };
    serve_with_hooks(&engine, &trace, &sc.cfg, hooks)
}

/// Check one scenario's events and counter deltas against its report.
fn reconcile(sc: &Scenario, report: &ServeReport, events: &[OwnedEvent], d: &Counters) {
    let name = sc.name;
    let spans: Vec<&OwnedEvent> = events
        .iter()
        .filter(|e| matches!(e, OwnedEvent::Span { .. }))
        .collect();
    assert_eq!(spans.len(), report.steps.len(), "{name}: one span per step");
    let mut dur_sum = 0;
    for (span, step) in spans.iter().zip(&report.steps) {
        let OwnedEvent::Span { ts, dur, .. } = span else {
            unreachable!()
        };
        assert_eq!(span.name(), step.kind().name(), "{name}: span kind");
        assert_eq!(*dur, step.cost, "{name}: span duration");
        assert_eq!(
            span.arg("prefill_rows"),
            Some(step.prefill_rows as u64),
            "{name}"
        );
        assert_eq!(
            span.arg("decode_rows"),
            Some(step.decode_rows as u64),
            "{name}"
        );
        assert_eq!(
            span.arg("swapped_rows"),
            Some(step.swapped_rows as u64),
            "{name}"
        );
        assert!(ts + dur <= report.ticks, "{name}: span past the clock");
        dur_sum += dur;
    }
    let cost_sum: u64 = report.steps.iter().map(|s| s.cost).sum();
    assert_eq!(dur_sum, cost_sum, "{name}: Σ dur == Σ cost");
    // Timestamps never go backwards, in emission order, any event type.
    assert!(
        events.windows(2).all(|w| w[0].ts() <= w[1].ts()),
        "{name}: non-monotone trace timestamps"
    );
    // Admission instants carry every request id exactly once.
    let mut admitted: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e, OwnedEvent::Instant { .. }) && e.name() == "admit")
        .map(|e| e.arg("id").expect("admit instant without id"))
        .collect();
    admitted.sort_unstable();
    let ids: Vec<u64> = report.requests.iter().map(|r| r.id as u64).collect();
    assert_eq!(admitted, ids, "{name}: admit instants");

    // Counters against the report's own accounting.
    assert_eq!(d.serve_steps, report.steps.len() as u64, "{name}");
    assert_eq!(d.serve_admissions, report.requests.len() as u64, "{name}");
    assert_eq!(
        d.model_forward_calls, d.serve_steps,
        "{name}: one fused forward per step"
    );
    let step_rows: u64 = report.steps.iter().map(|s| s.rows() as u64).sum();
    assert_eq!(
        d.model_prefill_rows + d.model_decode_rows,
        step_rows,
        "{name}: traced model rows == step log rows"
    );
    let step_swap_rows: u64 = report.steps.iter().map(|s| s.swapped_rows as u64).sum();
    assert_eq!(
        d.kv_swap_out_rows + d.kv_swap_in_rows,
        step_swap_rows,
        "{name}: traced swap rows == priced swap rows"
    );
    match &report.paging {
        Some(p) => {
            assert_eq!(d.serve_preemptions, p.swaps_out as u64, "{name}");
            assert_eq!(d.serve_restores, p.swaps_in as u64, "{name}");
            assert_eq!(
                d.kv_swap_out_rows + d.kv_swap_in_rows,
                p.swapped_rows as u64,
                "{name}"
            );
        }
        None => {
            assert_eq!(d.serve_preemptions, 0, "{name}");
            assert_eq!(d.kv_cow_copies, 0, "{name}");
        }
    }
    if matches!(sc.backend, Backend::Exec(_)) {
        assert!(d.exec_calls > 0, "{name}: exec backend traced no calls");
        assert!(d.exec_streamed_words > 0, "{name}");
    }
}

#[test]
fn tracing_is_a_pure_observer_and_reconciles() {
    for sc in scenarios() {
        // Untraced baseline first: the golden identity below compares the
        // full report struct, token streams and step log included.
        let baseline = run(&sc);

        let sink = CollectSink::default();
        let events = sink.events();
        let guard = install(Box::new(sink));
        let before = snapshot();
        let traced = run(&sc);
        let d = snapshot().since(&before);
        guard.finish().unwrap();

        assert_eq!(traced, baseline, "{}: tracing changed the report", sc.name);
        let events = events.lock().unwrap();
        reconcile(&sc, &traced, &events, &d);
    }
}

/// The TTFT decomposition's reconciliation argument, tick-exact: the
/// scheduler runs one prefill anchor at a time and its steps run
/// consecutively from admission, so for every request the spans ending in
/// `(admitted, first_token]` (its prefill-carrying steps) cost exactly
/// `first_token − admitted` ticks and carry exactly `prompt_len` prefill
/// rows. That is precisely `TtftSplit`'s claim: `prefill` is the
/// session's own rows, `sample` is the step overheads plus co-scheduled
/// foreign rows in the same window, `queue` is everything before it.
#[test]
fn ttft_decomposition_reconciles_against_the_step_log() {
    for sc in scenarios() {
        let sink = CollectSink::default();
        let events = sink.events();
        let guard = install(Box::new(sink));
        let report = run(&sc);
        guard.finish().unwrap();
        let events = events.lock().unwrap();
        let name = sc.name;
        // One run in this session, so span timestamps are local ticks.
        for r in &report.requests {
            let split = r.ttft_split();
            assert_eq!(
                split.queue + split.prefill + split.sample,
                r.ttft(),
                "{name}: request {} split does not sum to TTFT",
                r.id
            );
            assert_eq!(split.queue, r.admitted - r.arrival, "{name}: queue share");
            assert_eq!(
                split.prefill, r.prompt_len as u64,
                "{name}: prefill share must be the prompt length"
            );
            let (mut window_cost, mut window_prefill_rows) = (0u64, 0u64);
            for e in events.iter() {
                if let OwnedEvent::Span { ts, dur, .. } = e {
                    let end = ts + dur;
                    if end > r.admitted && end <= r.first_token {
                        window_cost += dur;
                        window_prefill_rows +=
                            e.arg("prefill_rows").expect("span without prefill_rows");
                    }
                }
            }
            assert_eq!(
                window_cost,
                r.first_token - r.admitted,
                "{name}: request {}'s admission→first-token window is not \
                 exactly covered by its prefill-carrying steps",
                r.id
            );
            assert_eq!(
                window_prefill_rows, r.prompt_len as u64,
                "{name}: request {}'s window carries foreign prefill rows",
                r.id
            );
            assert_eq!(
                split.prefill + split.sample,
                window_cost,
                "{name}: request {} compute share != window cost",
                r.id
            );
        }
    }
}

#[test]
fn timestamps_stay_monotone_across_runs_in_one_session() {
    let scs = scenarios();
    let sink = CollectSink::default();
    let events = sink.events();
    let guard = install(Box::new(sink));
    let first = run(&scs[0]);
    let second = run(&scs[1]);
    guard.finish().unwrap();

    let events = events.lock().unwrap();
    assert!(
        events.windows(2).all(|w| w[0].ts() <= w[1].ts()),
        "timestamps regressed across serve runs"
    );
    // Run 1's events all start at or after run 0's closing tick.
    let runs: Vec<u64> = events.iter().map(OwnedEvent::run).collect();
    assert!(runs.contains(&0) && runs.contains(&1), "run tags missing");
    for e in events.iter().filter(|e| e.run() == 1) {
        assert!(e.ts() >= first.ticks, "run 1 event before run 0 ended");
    }
    // And tids (run + 1) give each run its own Chrome-trace lane, so the
    // second run's span count still matches its own step log.
    let run1_spans = events
        .iter()
        .filter(|e| e.run() == 1 && matches!(e, OwnedEvent::Span { .. }))
        .count();
    assert_eq!(run1_spans, second.steps.len());
}

/// A session records what its own thread does and nothing else: two
/// threads trace different scenarios at the same time (the barrier holds
/// both sessions open before either serves) while a third serves untraced
/// throughout, and each trace reconciles against its own report.
#[test]
fn concurrent_sessions_reconcile_against_their_own_reports() {
    let scs = scenarios();
    let installed = Barrier::new(3);
    std::thread::scope(|s| {
        for sc in [&scs[1], &scs[4]] {
            let installed = &installed;
            s.spawn(move || {
                let sink = CollectSink::default();
                let events = sink.events();
                let guard = install(Box::new(sink));
                installed.wait();
                let report = run(sc);
                let counters = snapshot();
                guard.finish().unwrap();
                reconcile(sc, &report, &events.lock().unwrap(), &counters);
            });
        }
        s.spawn(|| {
            installed.wait();
            for sc in &scs {
                run(sc);
            }
            assert_eq!(snapshot(), Counters::default(), "untraced thread recorded");
        });
    });
}

/// The crew's workers sweep inside the caller's session: serving a d-256
/// packed model at 2 threads — steps of three rows and up open a crew —
/// records every exec counter exactly as one thread does, the crews aside,
/// and reconciles against its report. (The override cannot reach the other
/// tests here: no `tiny()` step is worth a worker.)
#[test]
fn crewed_steps_count_what_one_thread_counts() {
    let cfg = ModelConfig {
        d_model: 256,
        ffn: 1024,
        ..ModelConfig::tiny()
    };
    let no_calibration = Corpus {
        sequences: Vec::new(),
    };
    let teacher = Transformer::teacher(cfg, 56);
    let model = to_packed(&quantize_model(&teacher, &no_calibration, Method::Rtn { bits: 4 }).0);
    let sc = Scenario {
        name: "wide-exec-crewed",
        backend: Backend::Exec(EngineConfig::paper_default()),
        cfg: ServeConfig::new(3, Policy::PrefillPriority),
        force_preempt: false,
    };
    let engine = BatchEngine::new(&model, sc.backend);
    let trace = synthetic_trace(&model.cfg, &TraceParams::light(4), 11);
    let [(alone, one), (crewed, two)] = ["1", "2"].map(|threads| {
        std::env::set_var(THREADS_ENV, threads);
        let sink = CollectSink::default();
        let events = sink.events();
        let guard = install(Box::new(sink));
        let report = serve_with_hooks(&engine, &trace, &sc.cfg, ServeHooks::default());
        let counters = snapshot();
        guard.finish().unwrap();
        reconcile(&sc, &report, &events.lock().unwrap(), &counters);
        (report, counters)
    });
    std::env::remove_var(THREADS_ENV);

    assert_eq!(crewed, alone, "the crew changed the report");
    assert_eq!(one.exec_crews, 0);
    assert!(two.exec_crews > 0, "no step opened a crew at 2 threads");
    // Calls, builds, streamed words, k-tiles, tiers — and every other
    // counter — as at one thread.
    let rest = |c: &Counters| Counters {
        exec_crews: 0,
        ..*c
    };
    assert_eq!(rest(&two), rest(&one), "a counter moved with the crew");
}
