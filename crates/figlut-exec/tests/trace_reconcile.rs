//! Reconciles the exec-layer trace counters against the analytical models
//! the workspace already commits to: traced streamed words must equal
//! `ExecPlan::streamed_words` and traced k-tile visits their closed form
//! exactly, call/build/tier counters must match
//! the call pattern (one build per staged input, one call and one tier pick
//! per reader), and enabling tracing must not change a single output
//! bit. Each test installs its own session on its own thread, so the
//! tests run side by side without seeing each other; a crew's workers
//! enter the session of the thread that opened it.

use figlut_exec::parallel::{crew_size, Crew};
use figlut_exec::{exec_i, ExecPlan, PackedBcq};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;
use figlut_quant::bcq::{BcqParams, BcqWeight};
use figlut_trace::{install, snapshot, CollectSink};

fn packed(m: usize, k: usize, gs: usize, bits: u32, seed: u64) -> PackedBcq {
    let w = Mat::from_fn(m, k, |r, c| {
        (((r * k + c) as f64 + seed as f64) * 0.13).sin()
    });
    PackedBcq::pack(&BcqWeight::quantize(&w, BcqParams::grouped(bits, gs)))
}

fn acts(batch: usize, k: usize) -> Mat<f64> {
    Mat::from_fn(batch, k, |b, c| ((b * k + c) as f64 * 0.07).cos())
}

#[test]
fn streamed_words_match_the_plan_formula() {
    // Lane-pass (µ 8, groups ending on word boundaries: packed in k-tiles
    // of 256 columns) and generic shapes (gs 32: groups split a word;
    // gs 15, µ 4: ragged windows — one tile per row), at batches of one
    // column block, of two (12 = 8 + 4 lanes) and of three (17 = 8 + 8 +
    // 1). A sweep streams every packed word of every (row, plane) once
    // per column block and visits every k-tile once per row. The last row
    // is the one that fans out (2 × 2^21 look-ups): it runs on a crew whose
    // worker's counts reach this session only through the hand-off in
    // `parallel.rs`.
    let cases = [
        (16, 128, 64, 3, 4usize, 1usize, 1usize),
        (16, 576, 64, 3, 12, 3, 1),
        (8, 256, 32, 2, 1, 1, 1),
        (8, 60, 15, 3, 5, 1, 1),
        (4, 90, 15, 2, 17, 1, 1),
        (128, 2048, 64, 4, 32, 8, 2),
    ];
    for (m, k, gs, bits, batch, tiles, fan) in cases {
        let w = packed(m, k, gs, bits, 7);
        let cfg = EngineConfig::paper_default();
        let plan = ExecPlan::new(&w, &cfg);
        assert_eq!(plan.fan_out(batch, 2), fan, "{m}x{k} batch {batch}");
        assert_eq!(w.tiles(), tiles, "{m}x{k} gs {gs}");
        let row_sweeps = (batch.div_ceil(8) * m) as u64;
        assert_eq!(
            plan.streamed_words(batch),
            row_sweeps * (bits as usize * k.div_ceil(64)) as u64,
            "{m}x{k} gs {gs} batch {batch}"
        );
        let x = acts(batch, k);

        for threads in [1, 2] {
            let case = format!("{m}x{k} gs {gs} bits {bits} batch {batch} threads {threads}");
            let guard = install(Box::new(CollectSink::default()));
            let before = snapshot();
            let calls = 3;
            for _ in 0..calls {
                plan.exec_i_threads(&x, &w, &cfg, threads);
            }
            let d = snapshot().since(&before);
            guard.finish().unwrap();

            assert_eq!(d.exec_calls, calls, "{case}");
            assert_eq!(d.exec_lut_builds, calls, "one LUT build per call: {case}");
            assert_eq!(
                d.exec_tier_i32_i32 + d.exec_tier_i32_i64 + d.exec_tier_i64_i64,
                calls,
                "exactly one tier per call: {case}"
            );
            assert_eq!(
                d.exec_streamed_words,
                calls * plan.streamed_words(batch),
                "traced words != formula for {case}"
            );
            assert_eq!(
                d.exec_ktiles,
                calls * row_sweeps * tiles as u64,
                "one visit per k-tile, row and column block: {case}"
            );
        }
    }

    // One lane-pass shape on both sides of every lane-width and
    // column-block boundary: a call sweeps every packed word once per
    // column block (one session, a snapshot per call).
    let (m, k, bits) = (4usize, 64usize, 2u32);
    let w = packed(m, k, 64, bits, 7);
    let cfg = EngineConfig::paper_default();
    let plan = ExecPlan::new(&w, &cfg);
    let batches = [1usize, 4, 8, 9, 16];
    let xs = batches.map(|b| acts(b, k));
    let guard = install(Box::new(CollectSink::default()));
    let mut marks = vec![snapshot()];
    for x in &xs {
        plan.exec_i(x, &w, &cfg);
        marks.push(snapshot());
    }
    guard.finish().unwrap();
    for (pair, batch) in marks.windows(2).zip(batches) {
        let d = pair[1].since(&pair[0]);
        assert_eq!(
            d.exec_streamed_words,
            plan.streamed_words(batch),
            "B={batch}"
        );
        let sweep = (m * bits as usize * k.div_ceil(64)) as u64;
        assert_eq!(
            d.exec_streamed_words,
            batch.div_ceil(8) as u64 * sweep,
            "B={batch}"
        );
    }
}

#[test]
fn plan_reuse_and_float_path_are_counted() {
    let w = packed(8, 128, 64, 3, 11);
    let cfg = EngineConfig::paper_default();
    let x = acts(2, 128);

    let guard = install(Box::new(CollectSink::default()));
    let before = snapshot();
    let plan = ExecPlan::new(&w, &cfg);
    plan.exec_i(&x, &w, &cfg);
    plan.exec_i(&x, &w, &cfg);
    plan.exec_f(&x, &w, &cfg);
    // The free function builds (and discards) a plan per call.
    exec_i(&x, &w, &cfg);
    let d = snapshot().since(&before);
    guard.finish().unwrap();

    assert_eq!(d.exec_plan_builds, 2, "one held plan + one throwaway");
    assert_eq!(d.exec_calls, 3);
    assert_eq!(d.exec_f_calls, 1);
    assert_eq!(d.exec_lut_builds, 4, "every non-empty call rebuilds once");
    // The float path streams the same packed words as the integer path.
    assert_eq!(d.exec_streamed_words, 4 * plan.streamed_words(2));
}

#[test]
fn a_shared_call_builds_once_and_counts_every_reader() {
    // Three weight matrices of different row counts over one staged table
    // set: one LUT build, but a call, a tier pick and the streamed words /
    // k-tile visits of every reader — the sum of their closed forms.
    let (k, batch) = (576usize, 12usize); // three k-tiles, 8 + 4 lanes
    let ws = [16usize, 5, 9].map(|m| packed(m, k, 64, 3, m as u64));
    let cfg = EngineConfig::paper_default();
    let x = acts(batch, k);
    let mut ys = ws.each_ref().map(|w| Mat::zeros(batch, w.rows()));

    let plans = ws.each_ref().map(|w| ExecPlan::new(w, &cfg));
    let want = ws.each_ref().map(|w| exec_i(&x, w, &cfg));
    let guard = install(Box::new(CollectSink::default()));
    let before = snapshot();
    {
        let [y0, y1, y2] = &mut ys;
        let readers = &mut [
            (&plans[0], &ws[0], y0),
            (&plans[1], &ws[1], y1),
            (&plans[2], &ws[2], y2),
        ];
        ExecPlan::exec_i_shared(&x, &cfg, 1, readers);
    }
    let d = snapshot().since(&before);
    guard.finish().unwrap();

    assert_eq!(d.exec_lut_builds, 1, "one build per staged input");
    assert_eq!(d.exec_calls, 3, "one call per reader");
    assert_eq!(d.exec_tier_i32_i32, 3, "one tier pick per reader (FP16)");
    assert_eq!(d.exec_tier_i32_i64 + d.exec_tier_i64_i64, 0);
    let words: u64 = plans.iter().map(|p| p.streamed_words(batch)).sum();
    assert_eq!(d.exec_streamed_words, words);
    let ktiles: u64 = ws
        .iter()
        .map(|w| (batch.div_ceil(8) * w.rows() * w.tiles()) as u64)
        .sum();
    assert_eq!(d.exec_ktiles, ktiles);
    for (y, want) in ys.iter().zip(&want) {
        assert_eq!(y.as_slice(), want.as_slice());
    }
}

#[test]
fn a_crewed_step_counts_what_one_thread_counts() {
    // A two-phase step — three readers over one stage, then one reader
    // over another input — worth a crew of two: the worker sweeps inside
    // this session, so every counter but the crews, and every output bit,
    // equals the 1-thread step's.
    let (k, batch) = (512usize, 8usize);
    let ws = [256usize, 256, 256, 512].map(|m| packed(m, k, 64, 4, m as u64 + 1));
    let cfg = EngineConfig::paper_default();
    let plans = ws.each_ref().map(|w| ExecPlan::new(w, &cfg));
    let (x, x2) = (acts(batch, k), acts(batch, k).map(|v| v * 0.5));
    let lookups: usize = plans.iter().map(|p| p.lookups(batch)).sum();
    let step = |threads: usize| {
        let mut ys = ws.each_ref().map(|w| Mat::zeros(batch, w.rows()));
        let guard = install(Box::new(CollectSink::default()));
        Crew::run(crew_size(lookups, threads), |crew| {
            let [y0, y1, y2, y3] = &mut ys;
            let qkv = &mut [
                (&plans[0], &ws[0], y0),
                (&plans[1], &ws[1], y1),
                (&plans[2], &ws[2], y2),
            ];
            ExecPlan::exec_i_crew(crew, &x, &cfg, qkv);
            ExecPlan::exec_i_crew(crew, &x2, &cfg, &mut [(&plans[3], &ws[3], y3)]);
        });
        let counters = snapshot();
        guard.finish().unwrap();
        (ys, counters)
    };
    let ((alone, one), (crewed, two)) = (step(1), step(2));
    assert_eq!((one.exec_crews, two.exec_crews), (0, 1));
    assert_eq!((two.exec_calls, two.exec_lut_builds), (4, 2));
    assert_eq!(
        two.exec_streamed_words,
        plans.iter().map(|p| p.streamed_words(batch)).sum::<u64>()
    );
    let rest = |c: &figlut_trace::Counters| figlut_trace::Counters {
        exec_crews: 0,
        ..*c
    };
    assert_eq!(rest(&two), rest(&one), "a counter moved with the crew");
    assert_eq!(crewed, alone, "the crew changed an output");
}

#[test]
fn tracing_does_not_change_results_and_empty_calls_are_free() {
    let w = packed(8, 64, 32, 3, 3);
    let cfg = EngineConfig::paper_default();
    let plan = ExecPlan::new(&w, &cfg);
    let x = acts(4, 64);
    let quiet = plan.exec_i(&x, &w, &cfg);

    let guard = install(Box::new(CollectSink::default()));
    let before = snapshot();
    let traced = plan.exec_i(&x, &w, &cfg);
    let empty = plan.exec_i(&Mat::zeros(0, 64), &w, &cfg);
    let d = snapshot().since(&before);
    guard.finish().unwrap();

    assert_eq!(traced.as_slice(), quiet.as_slice(), "tracing changed bits");
    assert_eq!(empty.shape(), (0, 8));
    assert_eq!(d.exec_calls, 1, "batch-0 call must not count");
}
