//! Differential property tests: the packed execution backend against the
//! bit-accurate datapath models, over arbitrary shapes, µ, group sizes,
//! thread counts, and ragged tails (m, n, k not multiples of the
//! tile/word/µ sizes).
//!
//! Every shape `problem()` draws is far too small to be worth a second
//! thread, so `ExecPlan` runs it as one panel whatever `threads` says
//! (DESIGN.md §6, "fan-out rule"); the thread-invariance proof over shapes
//! that really fan out is `fanned_out_calls_never_change_bits`.

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
        1usize..=9, // batch (spans both column engines: register blocks and, from 8, the wide pass)
        1usize..=12, // m
        1usize..=5, // groups
        1usize..=17, // group size
        1u32..=4,   // bits (binary planes)
        1u32..=4,   // µ
        0usize..4,  // thread-count choice index
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
        let wd = b.dequantize();
        for bb in 0..p.x.rows() {
            let xs: f64 = p.x.row(bb).iter().map(|v| v.abs()).sum();
            for r in 0..wd.rows() {
                // Scale-aware: FP32 accumulation in the model drifts by
                // O(n·2⁻²⁴) of Σ|x|·max|w|; 1e-4 is ~4 decades of margin
                // at these sizes.
                let wmax = wd.row(r).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                let denom = (xs * wmax).max(1e-6);
                let err = (fast[(bb, r)] - model[(bb, r)]).abs() / denom;
                prop_assert!(
                    err < 1e-4,
                    "({bb},{r}): exec {} vs model {} rel {err}",
                    fast[(bb, r)],
                    model[(bb, r)]
                );
            }
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
        m in 256usize..=520,  // 2 to 4 panels' worth of look-ups at batch 8
        layout in 0usize..3,
        phase in 0.0f64..6.0,
    ) {
        // Shapes big enough that the plan really runs several row panels:
        // ~512 columns as Q4 at batch 8 (the wide column engine), on the
        // fast path (gs 64 / 128 → 64 windows of µ 8) and on the generic
        // descriptor walk (gs 73, µ 4 → 133 ragged windows).
        let (groups, gs) = [(8usize, 64usize), (4, 128), (7, 73)][layout];
        let (n, batch) = (groups * gs, 8usize);
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
