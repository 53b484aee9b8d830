//! Thread-count invariance of the whole serving pipeline: the
//! `FIGLUT_EXEC_THREADS` override changes how many threads a forward
//! step's crew sweeps on, and must change nothing about a served trace —
//! not one token, not one tick.
//!
//! Two models. `tiny()` is `serve-tiny-paged`'s shape (d 48): none of its
//! steps is worth a worker, so the override must open no crew at all. A
//! d-256 packed model with a trace whose steps the crew rule does pick: at
//! 2 threads those steps must really run on a crew, and every report must
//! still be the 1-thread one.
//!
//! Lives in its own integration-test binary (own process) because it
//! mutates the process environment, mirroring `figlut-exec`'s
//! `tests/determinism.rs`.

use figlut_exec::parallel::{crew_size, THREADS_ENV};
use figlut_gemm::EngineConfig;
use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::{generate, Corpus};
use figlut_model::{Backend, ModelConfig, Transformer};
use figlut_serve::{
    serve, synthetic_trace, BatchEngine, Policy, ServeConfig, ServeReport, Trace, TraceParams,
};

/// Serve `trace` under each of `policies` at each thread override,
/// traced: per override, the reports and the crews the steps opened.
fn serve_at(
    model: &Transformer,
    trace: &Trace,
    policies: &[Policy],
    threads: &[&str],
) -> Vec<(Vec<ServeReport>, u64)> {
    let engine = BatchEngine::new(model, Backend::Exec(EngineConfig::paper_default()));
    let runs = threads.iter().map(|t| {
        std::env::set_var(THREADS_ENV, t);
        let guard = figlut_trace::install(Box::new(figlut_trace::CollectSink::new()));
        let serve_under = |&p| serve(&engine, trace, &ServeConfig::new(3, p));
        let reports = policies.iter().map(serve_under).collect();
        let crews = figlut_trace::snapshot().exec_crews;
        guard.finish().unwrap();
        (reports, crews)
    });
    let runs = runs.collect();
    std::env::remove_var(THREADS_ENV);
    runs
}

#[test]
fn served_trace_is_invariant_under_thread_override() {
    let backend = Backend::Exec(EngineConfig::paper_default());
    let crews_at = |model: &Transformer, report: &ServeReport, threads| {
        let crewed = report.steps.iter().filter(|s| {
            let lookups = model.step_lookups(s.rows(), &backend);
            crew_size(lookups, threads) > 1
        });
        crewed.count() as u64
    };

    let teacher = Transformer::teacher(ModelConfig::tiny(), 55);
    let calib = generate(&teacher, 2, 10, 3);
    let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
    let tiny = to_packed(&q);
    // `serve-tiny-paged` steps carry at most 16 rows (8 decode + an
    // 8-row prefill chunk): below the rule however many threads.
    let lookups = tiny.step_lookups(16, &backend);
    assert_eq!(crew_size(lookups, usize::MAX), 1, "{lookups} look-ups");

    let cfg = ModelConfig {
        d_model: 256,
        ffn: 1024,
        ..ModelConfig::tiny()
    };
    let no_calibration = Corpus {
        sequences: Vec::new(),
    };
    let (q, _) = quantize_model(
        &Transformer::teacher(cfg, 56),
        &no_calibration,
        Method::Rtn { bits: 4 },
    );
    let wide = to_packed(&q);

    let cases = [
        ("tiny", &tiny, &Policy::ALL[..]),
        ("wide", &wide, &[Policy::PrefillPriority][..]),
    ];
    for (name, model, policies) in cases {
        let trace = synthetic_trace(&model.cfg, &TraceParams::light(4), 7);
        let runs = serve_at(model, &trace, policies, &["1", "2", "5"]);
        let (alone, crews) = &runs[0];
        assert_eq!(*crews, 0, "{name}: a crew at one thread");
        // The rule's own prediction of the crews at 2 threads, step by step.
        let want: u64 = alone.iter().map(|r| crews_at(model, r, 2)).sum();
        assert_eq!(want > 0, name == "wide", "{name}: {want} crewed steps");
        assert_eq!(runs[1].1, want, "{name}: crews opened at 2 threads");
        for (t, (reports, _)) in runs.iter().enumerate().skip(1) {
            // Each policy's report identical in full — tokens, TTFT,
            // ticks, the step log, everything.
            for (p, (got, want)) in reports.iter().zip(alone).enumerate() {
                assert_eq!(got, want, "{name}: policy {p} diverged at thread set {t}");
            }
        }
    }
}
