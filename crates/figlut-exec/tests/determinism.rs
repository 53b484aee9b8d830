//! The `FIGLUT_EXEC_THREADS` override must never change output bits: the
//! kernels' reduction order is fixed per output element regardless of how
//! rows are split into parts (pins the contract of `parallel.rs`).
//!
//! This lives in its own integration-test binary (own process) because it
//! mutates the process environment; the property tests use the explicit
//! `*_threads` API instead.

use figlut_exec::parallel::{thread_count, THREADS_ENV};
use figlut_exec::{exec_f, exec_i, ExecPlan, PackedBcq};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;
use figlut_quant::bcq::{BcqParams, BcqWeight};
use figlut_quant::uniform::{rtn, RtnParams};

#[test]
fn env_thread_override_is_bit_invariant() {
    let cfg = EngineConfig::paper_default();
    // A small ragged shape the plan keeps on one thread whatever the
    // override says, and one with enough look-ups that it really opens a
    // crew (DESIGN.md §6, "The step crew") — asserted, so this test cannot
    // quietly stop exercising more than one panel.
    let small = Mat::from_fn(37, 150, |r, c| ((r * 150 + c) as f64 * 0.137).sin());
    let small = BcqWeight::quantize(&small, BcqParams::grouped(3, 30));
    let big = Mat::from_fn(520, 512, |r, c| ((r * 512 + c) as f64 * 0.137).sin());
    let big = BcqWeight::from_uniform(&rtn(&big, RtnParams::grouped(4, 64)));
    for (b, batch, fans_out) in [(small, 4usize, false), (big, 64, true)] {
        let p = PackedBcq::pack(&b);
        let n = p.cols();
        let x = Mat::from_fn(batch, n, |bb, c| ((bb * n + c) as f64 * 0.071).cos());
        assert_eq!(ExecPlan::new(&p, &cfg).fan_out(batch, 2) > 1, fans_out);

        let mut runs_i: Vec<Vec<f64>> = Vec::new();
        let mut runs_f: Vec<Vec<f64>> = Vec::new();
        for t in ["1", "2", "8"] {
            std::env::set_var(THREADS_ENV, t);
            assert_eq!(thread_count(), t.parse::<usize>().unwrap());
            runs_i.push(exec_i(&x, &p, &cfg).into_vec());
            runs_f.push(exec_f(&x, &p, &cfg).into_vec());
        }
        std::env::remove_var(THREADS_ENV);

        for t in 1..runs_i.len() {
            assert_eq!(runs_i[0], runs_i[t], "exec_i diverged at thread set {t}");
            assert_eq!(runs_f[0], runs_f[t], "exec_f diverged at thread set {t}");
        }
    }

    // The host's parallelism is read once per process, the override on
    // every call: unset falls back to the cached host value, garbage falls
    // back to the same value, and a later override is still honoured.
    // Kept in the same #[test] because tests in one binary share the
    // environment.
    let host = thread_count();
    assert!(host >= 1);
    for garbage in ["not-a-number", "0", "-3", ""] {
        std::env::set_var(THREADS_ENV, garbage);
        assert_eq!(thread_count(), host, "override {garbage:?}");
    }
    std::env::set_var(THREADS_ENV, " 5 ");
    assert_eq!(
        thread_count(),
        5,
        "override set after the host value was cached"
    );
    std::env::remove_var(THREADS_ENV);
    assert_eq!(thread_count(), host);
}
