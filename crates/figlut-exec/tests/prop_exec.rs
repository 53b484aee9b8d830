//! Differential property tests: the packed execution backend against the
//! bit-accurate datapath models, over arbitrary shapes, µ, group sizes,
//! thread counts, and ragged tails (m, n, k not multiples of the
//! tile/word/µ sizes).
//!
//! Every shape `problem()` draws is far too small to be worth a second
//! thread, so a direct call runs it on the calling thread alone whatever
//! `threads` says (DESIGN.md §6, "The step crew"); the thread-invariance
//! proof over calls that really open a crew is
//! `fanned_out_calls_never_change_bits`.

use figlut_exec::{exec_f_threads, exec_i_threads, ExecPlan, PackedBcq};
use figlut_gemm::figlut::{gemm_f, gemm_i};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;
use figlut_quant::bcq::{BcqParams, BcqWeight};
use figlut_quant::uniform::{rtn, RtnParams};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Problem {
    x: Mat<f64>,
    w: Mat<f64>,
    bits: u32,
    group_size: usize,
    mu: u32,
    threads: usize,
}

/// Shapes deliberately include ragged everything: n = groups·gs with gs
/// coprime to µ, m often not a multiple of the panel split, n spanning a
/// `u64` word boundary when gs·groups > 64.
fn problem() -> impl Strategy<Value = Problem> {
    (
        1usize..=9,  // batch (every lane width, and 9 = a second column block)
        1usize..=12, // m
        1usize..=5,  // groups
        1usize..=17, // group size
        1u32..=4,    // bits (binary planes)
        1u32..=4,    // µ
        0usize..4,   // thread-count choice index
    )
        .prop_flat_map(|(batch, m, groups, gs, bits, mu, tix)| {
            let threads = [1usize, 2, 3, 8][tix];
            let n = groups * gs;
            (
                prop::collection::vec(-4.0f64..4.0, batch * n),
                prop::collection::vec(-1.0f64..1.0, m * n),
            )
                .prop_map(move |(xv, wv)| Problem {
                    x: Mat::from_vec(batch, n, xv),
                    w: Mat::from_vec(m, n, wv),
                    bits,
                    group_size: gs,
                    mu,
                    threads,
                })
        })
}

fn quantize(p: &Problem) -> BcqWeight {
    BcqWeight::quantize(
        &p.w,
        BcqParams {
            bits: p.bits,
            group_size: p.group_size,
            with_offset: true,
            refine_iters: 2,
        },
    )
}

fn cfg(mu: u32) -> EngineConfig {
    EngineConfig {
        mu,
        ..EngineConfig::paper_default()
    }
}

/// `exec_f` against `gemm_f`, scale-aware: FP32 accumulation in the model
/// drifts by O(n·2⁻²⁴) of Σ|x|·max|w|; 1e-4 is ~4 decades of margin at
/// these sizes. `Err` names the first element outside it.
fn check_exec_f_tolerance(
    fast: &Mat<f64>,
    model: &Mat<f64>,
    x: &Mat<f64>,
    b: &BcqWeight,
) -> Result<(), String> {
    let wd = b.dequantize();
    for bb in 0..x.rows() {
        let xs: f64 = x.row(bb).iter().map(|v| v.abs()).sum();
        for r in 0..wd.rows() {
            let wmax = wd.row(r).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let (f, m) = (fast[(bb, r)], model[(bb, r)]);
            let err = (f - m).abs() / (xs * wmax).max(1e-6);
            if err.is_nan() || err >= 1e-4 {
                return Err(format!("({bb},{r}): exec {f} vs model {m} rel {err}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exec_i_bit_exact_against_gemm_i(p in problem()) {
        let b = quantize(&p);
        let packed = PackedBcq::pack(&b);
        let c = cfg(p.mu);
        let fast = exec_i_threads(&p.x, &packed, &c, p.threads);
        let model = gemm_i(&p.x, &b, &c);
        prop_assert_eq!(fast.as_slice(), model.as_slice(), "p={:?}", p);
    }

    #[test]
    fn exec_i_bit_exact_on_uniform_grids(p in problem()) {
        // The offset-heavy Eq. 3 path (uniform → BCQ) as the models run it.
        let u = rtn(&p.w, RtnParams::grouped(p.bits, p.group_size));
        let b = BcqWeight::from_uniform(&u);
        let packed = PackedBcq::pack(&b);
        let c = cfg(p.mu);
        let fast = exec_i_threads(&p.x, &packed, &c, p.threads);
        let model = gemm_i(&p.x, &b, &c);
        prop_assert_eq!(fast.as_slice(), model.as_slice());
    }

    #[test]
    fn exec_f_within_scale_aware_tolerance_of_gemm_f(p in problem()) {
        let b = quantize(&p);
        let packed = PackedBcq::pack(&b);
        let c = cfg(p.mu);
        let fast = exec_f_threads(&p.x, &packed, &c, p.threads);
        let model = gemm_f(&p.x, &b, &c);
        if let Err(e) = check_exec_f_tolerance(&fast, &model, &p.x, &b) {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn batched_exec_i_bit_matches_per_column_runs_and_model(p in problem()) {
        // The batch-blocking invariant figlut-serve stands on: one batched
        // call over a B-row activation matrix is bit-identical to B
        // independent 1-row calls AND to the datapath model — for
        // arbitrary shapes, µ, group sizes, offsets, and thread counts,
        // including ragged generic-path shapes. Run through a reused
        // ExecPlan so the cached-plan path (what Backend::Exec executes in
        // steady state) is the thing being pinned.
        let b = quantize(&p);
        let packed = PackedBcq::pack(&b);
        let c = cfg(p.mu);
        let plan = ExecPlan::new(&packed, &c);
        let batched = plan.exec_i_threads(&p.x, &packed, &c, p.threads);
        let model = gemm_i(&p.x, &b, &c);
        prop_assert_eq!(batched.as_slice(), model.as_slice(), "batched != model");
        let n = p.x.cols();
        for bb in 0..p.x.rows() {
            let row = Mat::from_fn(1, n, |_, cc| p.x[(bb, cc)]);
            // Same plan serves the batch-1 shape (pool reuse across batch
            // sizes), and a fresh throwaway plan must agree too.
            let solo_plan = plan.exec_i_threads(&row, &packed, &c, 1);
            let solo_free = exec_i_threads(&row, &packed, &c, p.threads);
            prop_assert_eq!(batched.row(bb), solo_plan.row(0), "plan row {}", bb);
            prop_assert_eq!(batched.row(bb), solo_free.row(0), "free row {}", bb);
        }
    }

    #[test]
    fn thread_count_never_changes_bits(p in problem()) {
        let b = quantize(&p);
        let packed = PackedBcq::pack(&b);
        let c = cfg(p.mu);
        let i1 = exec_i_threads(&p.x, &packed, &c, 1);
        let f1 = exec_f_threads(&p.x, &packed, &c, 1);
        for t in [2usize, 3, 8] {
            let it = exec_i_threads(&p.x, &packed, &c, t);
            let ft = exec_f_threads(&p.x, &packed, &c, t);
            prop_assert_eq!(it.as_slice(), i1.as_slice(), "exec_i t={}", t);
            prop_assert_eq!(ft.as_slice(), f1.as_slice(), "exec_f t={}", t);
        }
    }

    #[test]
    fn unpack_is_transparent_to_the_models(p in problem()) {
        // pack → unpack hands the models identical weights: gemm_i on the
        // unpacked container matches gemm_i on the original, bit for bit.
        let b = quantize(&p);
        let back = PackedBcq::pack(&b).unpack();
        let c = cfg(p.mu);
        let y_back = gemm_i(&p.x, &back, &c);
        let y_orig = gemm_i(&p.x, &b, &c);
        prop_assert_eq!(y_back.as_slice(), y_orig.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fanned_out_calls_never_change_bits(
        m in 512usize..=1040,  // 4 to 8 panels' worth of look-ups at batch 64
        layout in 0usize..4,
        phase in 0.0f64..6.0,
    ) {
        // Shapes big enough that the plan really runs several row panels:
        // ~512 columns as Q4 at batch 64 (eight 8-lane column blocks), on
        // the lane pass (gs 64 / 128 → 64 windows of µ 8; one 512-column
        // group, which every panel carries open across two k-tiles) and on
        // the generic descriptor walk (gs 73, µ 4 → 133 ragged windows).
        let (groups, gs) = [(8usize, 64usize), (4, 128), (1, 512), (7, 73)][layout];
        let (n, batch) = (groups * gs, 64usize);
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.173 + phase).sin() * 0.3);
        let x = Mat::from_fn(batch, n, |b, c| ((b * n + c) as f64 * 0.059 + phase).cos() * 3.0);
        let packed = PackedBcq::pack(&BcqWeight::from_uniform(&rtn(&w, RtnParams::grouped(4, gs))));
        let c = cfg(4);
        let plan = ExecPlan::new(&packed, &c);
        let i1 = plan.exec_i_threads(&x, &packed, &c, 1);
        let f1 = plan.exec_f_threads(&x, &packed, &c, 1);
        for t in [2usize, 3, 8] {
            // The gate must not hollow this test out: these calls fan out.
            let panels = plan.fan_out(batch, t);
            prop_assert!((2..=t).contains(&panels), "m={} t={}: {} panels", m, t, panels);
            let it = plan.exec_i_threads(&x, &packed, &c, t);
            let ft = plan.exec_f_threads(&x, &packed, &c, t);
            prop_assert_eq!(it.as_slice(), i1.as_slice(), "exec_i m={} t={}", m, t);
            prop_assert_eq!(ft.as_slice(), f1.as_slice(), "exec_f m={} t={}", m, t);
        }
        // Below the threshold the same plan keeps the call on one thread.
        prop_assert_eq!(plan.fan_out(1, 8), 1);
    }
}

/// Weights for the lane-pass sweeps: `gs` = 0 is one scale group per row.
fn lane_weights(m: usize, k: usize, gs: usize) -> BcqWeight {
    let w = Mat::from_fn(m, k, |r, c| ((r * k + c) as f64 * 0.211).sin() * 0.4);
    if gs == 0 {
        BcqWeight::quantize(&w, BcqParams::per_row(3))
    } else {
        BcqWeight::from_uniform(&rtn(&w, RtnParams::grouped(4, gs)))
    }
}

#[test]
fn lane_pass_is_bit_exact_at_every_lane_width_and_block_boundary() {
    // Every shape here takes the lane pass (µ 8, word-aligned groups),
    // and between them they put a scale group everywhere it can lie
    // against the 256-column k-tiles: four and two groups per tile (gs 64,
    // 128; the last tile ragged), one (gs 256), a group open across two
    // and three tiles (gs 512, 768), groups narrower than a tile that
    // still straddle its boundary (gs 192: two groups over 1.5 tiles,
    // three over 2.25), and per-row scales whose single group
    // is a ragged word (K 48), a word plus a ragged one (72), three words
    // (192) and two / four full tiles plus one ragged byte window (520,
    // 1032). Batches 1..=17 cross every lane width (1, 2, 4, 8) and
    // column-block boundary (8 | 9, 16 | 17); odd and even row counts run
    // a lone last row and whole pairs.
    let c = cfg(4);
    for (k, gs) in [
        (320usize, 64usize),
        (384, 128),
        (768, 256),
        (1024, 512),
        (1536, 768),
        (384, 192),
        (576, 192),
        (48, 0),
        (72, 0),
        (192, 0),
        (520, 0),
        (1032, 0),
    ] {
        for m in [5usize, 6] {
            let b = lane_weights(m, k, gs);
            let packed = PackedBcq::pack(&b);
            let plan = ExecPlan::new(&packed, &c);
            let x = Mat::from_fn(17, k, |bb, cc| ((bb * k + cc) as f64 * 0.077).cos() * 2.5);
            // The model treats batch rows independently, so one 17-row
            // run is the reference for every batch prefix.
            let model = gemm_i(&x, &b, &c);
            for batch in 1..=17usize {
                let xb = Mat::from_fn(batch, k, |bb, cc| x[(bb, cc)]);
                for threads in [1usize, 3] {
                    let y = plan.exec_i_threads(&xb, &packed, &c, threads);
                    for bb in 0..batch {
                        assert_eq!(
                            y.row(bb),
                            model.row(bb),
                            "K={k} gs={gs} m={m} B={batch} t={threads} row {bb}"
                        );
                    }
                }
            }
            // Batch 1 alone (the 1-lane block) is the same bits again —
            // for `exec_f` too, whose open groups carry `f64`.
            let yf = plan.exec_f_threads(&x, &packed, &c, 3);
            for bb in 0..17 {
                let row = Mat::from_fn(1, k, |_, cc| x[(bb, cc)]);
                let solo = plan.exec_i_threads(&row, &packed, &c, 1);
                assert_eq!(solo.row(0), model.row(bb), "K={k} gs={gs} m={m} solo {bb}");
                let solo_f = plan.exec_f_threads(&row, &packed, &c, 1);
                assert_eq!(
                    solo_f.row(0),
                    yf.row(bb),
                    "exec_f K={k} gs={gs} m={m} solo {bb}"
                );
            }
        }
    }
}

#[test]
fn lane_pass_is_bit_exact_at_every_narrowing_tier() {
    // The narrowing tier follows the aligned mantissa width (format
    // precision + guard bits), whatever the activations' magnitude: FP16
    // is i32 tables into i32 accumulators; FP32 + 2 guard bits overflows
    // i32 over a 64-column group but not over an 8-column window (i32
    // tables, i64 accumulators); FP32 + 6 overflows i32 in a window (i64
    // both). Batch 8 on two lane-path shapes, so `lane_pass` runs at 8
    // lanes at every `(E, A)` — gs 64 folds every run as it ends, the
    // 520-column per-row group is carried open across three k-tiles in
    // each tier's own accumulator type; `exec_f` (f64 lanes) is held to
    // its tolerance.
    use figlut_num::align::AlignedVector;
    use figlut_num::fp::FpFormat;
    let (m, batch) = (7usize, 8usize);
    let fits = |terms: usize, maxm: u64| terms as u64 * maxm <= i32::MAX as u64;
    for (k, gs, act, guard_bits, tier) in [
        (256usize, 64usize, FpFormat::Fp16, 4, "i32/i32"),
        (256, 64, FpFormat::Fp32, 2, "i32/i64"),
        (256, 64, FpFormat::Fp32, 6, "i64/i64"),
        (520, 0, FpFormat::Fp16, 4, "i32/i32"),
        (520, 0, FpFormat::Fp32, 2, "i32/i64"),
        (520, 0, FpFormat::Fp32, 6, "i64/i64"),
    ] {
        let b = lane_weights(m, k, gs);
        let packed = PackedBcq::pack(&b);
        let x = Mat::from_fn(batch, k, |bb, cc| {
            ((bb * k + cc) as f64 * 0.083).sin() * 9.0e3
        });
        let c = EngineConfig {
            act,
            guard_bits,
            ..cfg(4)
        };
        let mut mant = Vec::new();
        for bb in 0..batch {
            let xa: Vec<f64> = x.row(bb).iter().map(|&v| act.quantize(v)).collect();
            AlignedVector::align_into(&xa, act, guard_bits, c.align, &mut mant);
        }
        let maxm = mant.iter().map(|v| v.unsigned_abs()).max().unwrap();
        let got = match (fits(8, maxm), fits(b.group_size(), maxm)) {
            (_, true) => "i32/i32",
            (true, false) => "i32/i64",
            (false, false) => "i64/i64",
        };
        assert_eq!(
            got, tier,
            "{act:?} + {guard_bits} guard bits: max |mantissa| {maxm}"
        );
        for threads in [1usize, 3] {
            let y = exec_i_threads(&x, &packed, &c, threads);
            assert_eq!(
                y.as_slice(),
                gemm_i(&x, &b, &c).as_slice(),
                "K={k} {tier} t={threads}"
            );
        }
        let (yf, mf) = (exec_f_threads(&x, &packed, &c, 1), gemm_f(&x, &b, &c));
        check_exec_f_tolerance(&yf, &mf, &x, &b)
            .unwrap_or_else(|e| panic!("K={k} {tier} exec_f {e}"));
    }
}

/// `rows[i] × k` weight matrices under one grouping (`gs` = 0: per-row
/// scales) — the readers of one shared call.
fn reader_weights(rows: &[usize], k: usize, gs: usize) -> Vec<(BcqWeight, PackedBcq)> {
    let weights = rows.iter().enumerate().map(|(i, &m)| {
        let w = Mat::from_fn(m, k, |r, c| {
            ((r * k + c) as f64 * 0.211 + i as f64).sin() * 0.4
        });
        let b = match gs {
            0 => BcqWeight::quantize(&w, BcqParams::per_row(3)),
            _ => BcqWeight::from_uniform(&rtn(&w, RtnParams::grouped(4, gs))),
        };
        let packed = PackedBcq::pack(&b);
        (b, packed)
    });
    weights.collect()
}

#[test]
fn shared_call_is_bit_identical_to_single_calls_and_the_model() {
    // One staged table set read by 2–4 weight matrices of different row
    // counts ≡ the same readers called one by one ≡ the datapath model:
    // per-row scales, the two lane-pass group sizes and the generic walk
    // (gs 15), at every narrowing tier (the activation formats of
    // `lane_pass_is_bit_exact_at_every_narrowing_tier`, which pins the
    // tier each selects on the 256 × gs 64 shape), batches 1..=17 across
    // every lane width and column-block boundary, 1 and 3 threads.
    use figlut_num::fp::FpFormat;
    let rows = [5usize, 1, 8, 3];
    let shapes = [(72usize, 0usize), (256, 64), (384, 128), (45, 15)];
    let tiers = [
        (FpFormat::Fp16, 4),
        (FpFormat::Fp32, 2),
        (FpFormat::Fp32, 6),
    ];
    for (si, (k, gs)) in shapes.into_iter().enumerate() {
        for (ti, (act, guard_bits)) in tiers.into_iter().enumerate() {
            let c = EngineConfig {
                act,
                guard_bits,
                ..cfg(4)
            };
            let weights = reader_weights(&rows[..2 + (si + ti) % 3], k, gs);
            let plans: Vec<ExecPlan> = weights.iter().map(|(_, p)| ExecPlan::new(p, &c)).collect();
            let x = Mat::from_fn(17, k, |bb, cc| ((bb * k + cc) as f64 * 0.083).sin() * 9.0e3);
            let models: Vec<Mat<f64>> = weights.iter().map(|(b, _)| gemm_i(&x, b, &c)).collect();
            for batch in 1..=17usize {
                let xb = Mat::from_fn(batch, k, |bb, cc| x[(bb, cc)]);
                for threads in [1usize, 3] {
                    let mut outs: Vec<Mat<f64>> = weights
                        .iter()
                        .map(|(_, p)| Mat::from_fn(batch, p.rows(), |_, _| f64::NAN))
                        .collect();
                    let mut readers: Vec<_> = plans
                        .iter()
                        .zip(&weights)
                        .zip(&mut outs)
                        .map(|((plan, (_, p)), out)| (plan, p, out))
                        .collect();
                    ExecPlan::exec_i_shared(&xb, &c, threads, &mut readers);
                    for (i, ((plan, (_, p)), out)) in
                        plans.iter().zip(&weights).zip(&outs).enumerate()
                    {
                        let solo = plan.exec_i_threads(&xb, p, &c, threads);
                        let what = format!(
                            "K={k} gs={gs} {act:?}+{guard_bits} B={batch} t={threads} reader {i}"
                        );
                        assert_eq!(out.as_slice(), solo.as_slice(), "shared != single: {what}");
                        for bb in 0..batch {
                            assert_eq!(
                                out.row(bb),
                                models[i].row(bb),
                                "shared != model: {what} row {bb}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A two-reader shared call staged for a `k × gs` first reader under µ 4,
/// whose second reader was packed and planned as `(k, gs, µ)`.
fn shared_call_over((k, gs): (usize, usize), second: (usize, usize, u32)) {
    let w0 = reader_weights(&[4], k, gs).remove(0).1;
    let w1 = reader_weights(&[6], second.0, second.1).remove(0).1;
    let plans = (
        ExecPlan::new(&w0, &cfg(4)),
        ExecPlan::new(&w1, &cfg(second.2)),
    );
    let x = Mat::from_fn(2, k, |bb, cc| ((bb * k + cc) as f64 * 0.05).cos());
    let (mut y0, mut y1) = (Mat::zeros(2, 4), Mat::zeros(2, 6));
    let readers = &mut [(&plans.0, &w0, &mut y0), (&plans.1, &w1, &mut y1)];
    ExecPlan::exec_i_shared(&x, &cfg(4), 1, readers);
}

#[test]
#[should_panic(expected = "shared exec readers disagree")]
fn shared_call_rejects_a_reader_with_another_reduction_dim() {
    shared_call_over((64, 16), (128, 16, 4));
}

#[test]
#[should_panic(expected = "shared exec readers disagree")]
fn shared_call_rejects_a_reader_with_another_group_size() {
    shared_call_over((64, 16), (64, 32, 4));
}

#[test]
#[should_panic(expected = "shared exec readers disagree")]
fn shared_call_rejects_a_reader_with_another_effective_mu() {
    // gs 15 has no even divisor, so the configured µ is the executed one:
    // planned under µ 3, a reader cannot use tables staged for µ 4.
    shared_call_over((45, 15), (45, 15, 3));
}
