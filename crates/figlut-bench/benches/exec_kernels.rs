//! Packed execution backend benchmarks: the `figlut-exec` kernels against
//! the bit-accurate FIGLUT-I datapath model, plus packing, thread
//! scaling, small-call dispatch, batch-column amortization (the inner-loop
//! view of what the benchmark reports as `tok_per_s` on `gemm-b1` /
//! `gemm-b8` and `exec.b8_amortization_x`), and the generator path:
//! staging an activation matrix, and what sharing one stage between the
//! Q/K/V projections saves.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use figlut_exec::lut::{windows, FlatLuts};
use figlut_exec::parallel::thread_count;
use figlut_exec::{exec_f_threads, exec_i_threads, ExecPlan, PackedBcq};
use figlut_gemm::{figlut, EngineConfig};
use figlut_num::align::AlignedVector;
use figlut_num::Mat;
use figlut_quant::bcq::BcqWeight;
use figlut_quant::uniform::{rtn, RtnParams};
use std::time::Instant;

fn problem(m: usize, n: usize, batch: usize) -> (Mat<f64>, BcqWeight) {
    let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.173).sin() * 0.2);
    let u = rtn(&w, RtnParams::grouped(4, 128));
    let x = Mat::from_fn(batch, n, |b, c| ((b * n + c) as f64 * 0.059).cos());
    (x, BcqWeight::from_uniform(&u))
}

fn bench_exec_vs_model(c: &mut Criterion) {
    let (x, bcq) = problem(256, 512, 4);
    let packed = PackedBcq::pack(&bcq);
    let cfg = EngineConfig::paper_default();
    let mut g = c.benchmark_group("gemm_256x512_q4_b4");
    g.bench_function("model_gemm_i", |b| {
        b.iter(|| black_box(figlut::gemm_i(&x, &bcq, &cfg)))
    });
    g.bench_function("exec_i_1t", |b| {
        b.iter(|| black_box(exec_i_threads(&x, &packed, &cfg, 1)))
    });
    g.bench_function("exec_f_1t", |b| {
        b.iter(|| black_box(exec_f_threads(&x, &packed, &cfg, 1)))
    });
    g.finish();
}

fn bench_exec_thread_scaling(c: &mut Criterion) {
    let (x, bcq) = problem(1024, 1024, 8);
    let packed = PackedBcq::pack(&bcq);
    let cfg = EngineConfig::paper_default();
    let mut g = c.benchmark_group("exec_i_1024x1024_threads");
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(exec_i_threads(&x, &packed, &cfg, t)))
        });
    }
    g.finish();
}

fn bench_small_calls(c: &mut Criterion) {
    // The dispatch cliff: warm plan calls at the `ext-serving` decode
    // shapes (d_model 48: attention 48×48, FFN up 192×48, Q3, B=6) do
    // tens of µs of work, less than spawning a second thread costs. `1t`
    // and `default` must read the same — such a call opens no crew and
    // stays on the calling thread whatever `threads` allows (DESIGN.md §6,
    // "The step crew").
    let cfg = EngineConfig::paper_default();
    let mut g = c.benchmark_group("small_call_q3_b6");
    for (m, n) in [(48usize, 48usize), (192, 48)] {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.173).sin() * 0.2);
        let packed = PackedBcq::pack(&BcqWeight::from_uniform(&rtn(&w, RtnParams::grouped(3, n))));
        let plan = ExecPlan::new(&packed, &cfg);
        let x = Mat::from_fn(6, n, |b, c| ((b * n + c) as f64 * 0.059).cos());
        let mut y = Mat::zeros(6, m);
        for (label, threads) in [("1t", 1), ("default", thread_count())] {
            g.bench_function(BenchmarkId::new(format!("{m}x{n}"), label), |b| {
                b.iter(|| plan.exec_i_into(black_box(&x), &packed, &cfg, threads, &mut y))
            });
        }
    }
    g.finish();
}

fn bench_exec_batch_scaling(c: &mut Criterion) {
    // Batch-column amortization at an OPT-1.3B decode shape (the QKV/out
    // projection, 2048 × 2048 Q4 group 128) and at `serve-wide`'s FFN-down
    // shape (2048 × 512, one scale group per row: a multi-tile run). A
    // call is swept once per lane block (1, 2, 4 or 8 columns wide,
    // 8-column blocks beyond batch 8), so time per call should be flat
    // inside a block — 3 ≈ 4, 5 ≈ 8 — and step only at block boundaries
    // (1 | 2 | 3, 4 | 5, 8 | 9). Single worker thread — this isolates the
    // blocking, not the thread scaling. The criterion number is time per
    // *call*; the per-column cost is printed alongside.
    let cfg = EngineConfig::paper_default();
    for (name, m, n, gs) in [
        (
            "exec_i_2048x2048_q4_batch_1t",
            2048usize,
            2048usize,
            128usize,
        ),
        ("exec_i_2048x512_q4_rowscale_batch_1t", 2048, 512, 512),
    ] {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.173).sin() * 0.2);
        let packed = PackedBcq::pack(&BcqWeight::from_uniform(&rtn(
            &w,
            RtnParams::grouped(4, gs),
        )));
        let x16 = Mat::from_fn(16, n, |b, c| ((b * n + c) as f64 * 0.059).cos());
        let plan = ExecPlan::new(&packed, &cfg);
        let mut g = c.benchmark_group(name);
        for batch in [1usize, 2, 3, 4, 5, 8, 9, 16] {
            let x = Mat::from_fn(batch, n, |b, cc| x16[(b, cc)]);
            g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, _| {
                b.iter(|| black_box(plan.exec_i_threads(&x, &packed, &cfg, 1)))
            });
            // Per-column cost, so the amortization is visible in the output.
            let started = Instant::now();
            let reps = 3;
            for _ in 0..reps {
                black_box(plan.exec_i_threads(&x, &packed, &cfg, 1));
            }
            let per_call = started.elapsed().as_secs_f64() / reps as f64;
            println!(
                "    B={batch}: {:.1} tok/s, {:.0} µs per column",
                batch as f64 / per_call,
                per_call * 1e6 / batch as f64
            );
        }
        g.finish();
    }
}

fn bench_serving_shapes(c: &mut Criterion) {
    // `serve-wide`'s three linear shapes (d 512, ffn 2048; Q4, one scale
    // group per row, so every row's group stays open across its k-tiles)
    // and one shape on the generic descriptor walk (gs 32 splits a word),
    // at a decode row, a pair, and a full 8-lane block — warm plan calls
    // into a caller-owned output, one worker thread.
    let cfg = EngineConfig::paper_default();
    for (m, n, gs) in [
        (512usize, 512usize, 512usize),
        (2048, 512, 512),
        (512, 2048, 2048),
        (2048, 2048, 32),
    ] {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.173).sin() * 0.2);
        let packed = PackedBcq::pack(&BcqWeight::from_uniform(&rtn(
            &w,
            RtnParams::grouped(4, gs),
        )));
        let plan = ExecPlan::new(&packed, &cfg);
        let scale = if gs == n {
            "rowscale".into()
        } else {
            format!("gs{gs}")
        };
        let mut g = c.benchmark_group(format!("exec_i_{m}x{n}_q4_{scale}_1t"));
        for batch in [1usize, 2, 8] {
            let x = Mat::from_fn(batch, n, |b, cc| ((b * n + cc) as f64 * 0.059).cos());
            let mut y = Mat::zeros(batch, m);
            g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, _| {
                b.iter(|| plan.exec_i_into(black_box(&x), &packed, &cfg, 1, &mut y))
            });
        }
        g.finish();
    }
}

fn bench_stage(c: &mut Criterion) {
    // The generator path of one call, phase by phase: FP16-round and align
    // `lanes` activation rows of `n` columns, then build their lane-blocked
    // i32 tables (µ 8, one scale group per row) — at the reduction dims of
    // `serve-tiny-paged` (48), `serve-wide` (512) and OPT-1.3B (2048), for
    // a decode row, a pair and a full 8-lane block.
    let cfg = EngineConfig::paper_default();
    let mut g = c.benchmark_group("stage");
    for n in [48usize, 512, 2048] {
        let wins = windows(n, n, 8);
        for lanes in [1usize, 2, 8] {
            let x: Vec<f64> = (0..lanes * n).map(|i| (i as f64 * 0.059).cos()).collect();
            let (mut xa, mut mant, mut m32) = (Vec::new(), Vec::new(), Vec::<i32>::new());
            let mut quantize_align = |x: &[f64], m32: &mut Vec<i32>| {
                xa.clear();
                xa.extend(x.iter().map(|&v| cfg.act.quantize(v)));
                mant.clear();
                for row in xa.chunks_exact(n) {
                    AlignedVector::align_into(row, cfg.act, cfg.guard_bits, cfg.align, &mut mant);
                }
                m32.clear();
                m32.extend(mant.iter().map(|&v| v as i32));
            };
            quantize_align(&x, &mut m32); // the rebuild bench reads `m32` even if this one is filtered out
            g.bench_function(
                BenchmarkId::new(format!("quantize_align_n{n}"), lanes),
                |b| b.iter(|| quantize_align(black_box(&x), &mut m32)),
            );
            let mut luts = FlatLuts::default();
            g.bench_function(BenchmarkId::new(format!("rebuild_n{n}"), lanes), |b| {
                b.iter(|| luts.rebuild(black_box(&m32), n, &wins, 8, lanes))
            });
        }
    }
    g.finish();
}

fn bench_qkv(c: &mut Criterion) {
    // Q, K and V read the same input: three warm calls, each staging it
    // again, against one shared call over the three weight matrices — at
    // the `serve-tiny-paged` (48 × 48, B 6) and `serve-wide` (512 × 512,
    // B 2) attention shapes, one worker thread.
    let cfg = EngineConfig::paper_default();
    let mut g = c.benchmark_group("qkv");
    for (d, batch) in [(48usize, 6usize), (512, 2)] {
        let ws = [0.0f64, 1.0, 2.0].map(|phase| {
            let w = Mat::from_fn(d, d, |r, c| {
                ((r * d + c) as f64 * 0.173 + phase).sin() * 0.2
            });
            PackedBcq::pack(&BcqWeight::from_uniform(&rtn(&w, RtnParams::grouped(4, d))))
        });
        let plans = ws.each_ref().map(|w| ExecPlan::new(w, &cfg));
        let x = Mat::from_fn(batch, d, |b, c| ((b * d + c) as f64 * 0.059).cos());
        let mut ys = [(); 3].map(|()| Mat::zeros(batch, d));
        g.bench_function(
            BenchmarkId::new(format!("{d}x{d}_b{batch}"), "three_calls"),
            |b| {
                b.iter(|| {
                    for ((plan, w), y) in plans.iter().zip(&ws).zip(&mut ys) {
                        plan.exec_i_into(black_box(&x), w, &cfg, 1, y);
                    }
                })
            },
        );
        g.bench_function(
            BenchmarkId::new(format!("{d}x{d}_b{batch}"), "one_shared_call"),
            |b| {
                b.iter(|| {
                    let [y0, y1, y2] = &mut ys;
                    let readers = &mut [
                        (&plans[0], &ws[0], y0),
                        (&plans[1], &ws[1], y1),
                        (&plans[2], &ws[2], y2),
                    ];
                    ExecPlan::exec_i_shared(black_box(&x), &cfg, 1, readers);
                })
            },
        );
    }
    g.finish();
}

fn bench_packing(c: &mut Criterion) {
    let (_, bcq) = problem(1024, 1024, 1);
    let mut g = c.benchmark_group("pack_1024x1024_q4");
    g.bench_function("pack", |b| b.iter(|| black_box(PackedBcq::pack(&bcq))));
    g.finish();
}

criterion_group!(
    benches,
    bench_exec_vs_model,
    bench_exec_thread_scaling,
    bench_small_calls,
    bench_exec_batch_scaling,
    bench_serving_shapes,
    bench_stage,
    bench_qkv,
    bench_packing
);
criterion_main!(benches);
