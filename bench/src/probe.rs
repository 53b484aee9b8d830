//! Layer probes on `figlut-num`, `figlut-quant` and `figlut-exec`, shared
//! by the GEMM and the serving workloads: the harness times its own direct
//! calls into each layer's public functions (in-program spans are a later
//! change) and derives the computed-work ratios from them.

use crate::report::{Metrics, Spans};
use figlut::exec::lut::{windows, FlatLuts};
use figlut::exec::{ExecPlan, PackedBcq};
use figlut::gemm::EngineConfig;
use figlut::model::rng::Rng;
use figlut::num::align::AlignedVector;
use figlut::num::Mat;
use figlut::quant::bcq::BcqWeight;
use figlut::quant::uniform::{rtn, RtnParams};

/// One packed linear with its cached plan.
pub type Linear<'a> = (&'a PackedBcq, &'a ExecPlan);

/// Seeded activations in `[-1, 1)`.
pub fn activations(rows: usize, cols: usize, rng: &mut Rng) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| rng.uniform() * 2.0 - 1.0)
}

/// The window width `figlut-exec` executes for a scale group of `gs`
/// columns. Mirrors the crate-private `kernel::effective_mu` (widest of
/// 8/4/2 dividing the group, else the configured µ); used only to *compute*
/// look-up counts and table footprints, never to drive the kernel.
pub fn exec_mu(gs: usize, cfg_mu: u32) -> usize {
    [8usize, 4, 2]
        .into_iter()
        .find(|e| gs.is_multiple_of(*e))
        .unwrap_or(cfg_mu as usize)
}

/// Windows per activation row of `w`.
fn window_count(w: &PackedBcq, cfg: &EngineConfig) -> usize {
    // Windows never straddle a scale group.
    w.groups() * w.group_size().div_ceil(exec_mu(w.group_size(), cfg.mu))
}

/// Table reads one call at `batch` rows performs (computed, not counted):
/// one per (output row, bit-plane, window, batch column).
pub fn lookups(w: &PackedBcq, cfg: &EngineConfig, batch: usize) -> f64 {
    (w.rows() * w.bits() * window_count(w, cfg) * batch) as f64
}

/// Bytes of the narrowed (`i32`) batch-stacked tables one call builds and
/// then reads at random: the footprint `host.gather_mps` is measured over.
pub fn lut_bytes(w: &PackedBcq, cfg: &EngineConfig, batch: usize) -> usize {
    (window_count(w, cfg) << exec_mu(w.group_size(), cfg.mu)) * 4 * batch
}

/// Median seconds of one warm `exec_i_into` call.
fn call_secs(
    spans: &mut Spans,
    name: &'static str,
    (w, plan): Linear<'_>,
    x: &Mat<f64>,
    threads: usize,
    n: usize,
) -> f64 {
    let cfg = EngineConfig::paper_default();
    let mut out = Mat::zeros(x.rows(), w.rows());
    plan.exec_i_into(x, w, &cfg, threads, &mut out);
    spans.sample(name, n, || plan.exec_i_into(x, w, &cfg, threads, &mut out))
}

/// Probe `figlut-num` and `figlut-exec` on the workload's three linear
/// shapes (`[attn, up, down]`) at `rows` activation rows; `all` lists every
/// packed linear of the workload (for the plan-build time). Sets
/// `num.align_us` and every timed/derived `exec.*` metric except
/// `exec.b8_amortization_x`, `exec.pack_ms` and `exec.pass_ms_tail`.
pub fn exec_layer(
    m: &mut Metrics,
    spans: &mut Spans,
    shapes: [Linear<'_>; 3],
    all: &[&PackedBcq],
    rows: usize,
    n: usize,
    rng: &mut Rng,
) {
    let cfg = EngineConfig::paper_default();
    let threads = figlut::exec::parallel::thread_count();
    let xs = shapes.map(|(w, _)| activations(rows, w.cols(), rng));

    const ONE: [&str; 3] = ["exec.call_us.attn", "exec.call_us.up", "exec.call_us.down"];
    const ALL: [&str; 3] = ["exec.call_nt.attn", "exec.call_nt.up", "exec.call_nt.down"];
    let mut one = [0.0; 3];
    let mut nt = [0.0; 3];
    for i in 0..3 {
        one[i] = call_secs(spans, ONE[i], shapes[i], &xs[i], 1, n);
        m.set(ONE[i], one[i] * 1e6);
        nt[i] = if threads == 1 {
            one[i]
        } else {
            call_secs(spans, ALL[i], shapes[i], &xs[i], threads, n)
        };
    }
    let secs: f64 = one.iter().sum();
    let looked: f64 = shapes.iter().map(|(w, _)| lookups(w, &cfg, rows)).sum();
    let words: f64 = shapes
        .iter()
        .map(|(_, p)| p.streamed_words(rows) as f64)
        .sum();
    m.set("exec.ns_per_lookup", secs * 1e9 / looked);
    m.set("exec.words_per_s", words / secs);
    m.set("exec.mt_speedup", secs / nt.iter().sum::<f64>());

    // Per-call preamble on the attention shape: align, then build tables.
    let (w, _) = shapes[0];
    let (cols, mu) = (w.cols(), exec_mu(w.group_size(), cfg.mu));
    let xa: Vec<f64> = xs[0]
        .as_slice()
        .iter()
        .map(|&v| cfg.act.quantize(v))
        .collect();
    let mut mant: Vec<i64> = Vec::with_capacity(xa.len());
    let align = |mant: &mut Vec<i64>| {
        mant.clear();
        for row in xa.chunks(cols) {
            AlignedVector::align_into(row, cfg.act, cfg.guard_bits, cfg.align, mant);
        }
    };
    let secs = spans.sample("num.align_us", n, || align(&mut mant));
    m.set("num.align_us", secs * 1e6);
    let m32: Vec<i32> = mant.iter().map(|&v| v as i32).collect();
    let wins = windows(cols, w.group_size(), mu);
    let mut luts = FlatLuts::<i32>::default();
    let secs = spans.sample("exec.lut_build_us", n, || {
        luts.rebuild(&m32, cols, &wins, mu as u32, rows)
    });
    m.set("exec.lut_build_us", secs * 1e6);

    let secs = spans.sample("exec.plan_build_ms", n, || {
        for w in all {
            std::hint::black_box(ExecPlan::new(w, &cfg));
        }
    });
    m.set("exec.plan_build_ms", secs * 1e3);

    // Thread dispatch: a call too small to gain from workers, at the
    // default worker count minus at one worker.
    let small = Mat::from_fn(64, 64, |_, _| rng.uniform() - 0.5);
    let small = PackedBcq::pack(&BcqWeight::from_uniform(&rtn(
        &small,
        RtnParams::grouped(4, 64),
    )));
    let plan = ExecPlan::new(&small, &cfg);
    let x = activations(1, 64, rng);
    let mut out = Mat::zeros(1, 64);
    let mut burst = |name: &'static str, t: usize| {
        spans.sample(name, n, || {
            for _ in 0..64 {
                plan.exec_i_into(&x, &small, &cfg, t, &mut out);
            }
        }) / 64.0
    };
    let wide = burst("exec.dispatch.default_threads", threads);
    let narrow = burst("exec.dispatch.one_thread", 1);
    m.set("exec.dispatch_us", (wide - narrow) * 1e6);
}

/// The `figlut-exec` counters of one traced run.
pub fn exec_counters(m: &mut Metrics, c: &figlut::trace::Counters) {
    m.set("exec.calls", c.exec_calls as f64);
    m.set("exec.lut_builds", c.exec_lut_builds as f64);
    m.set("exec.plan_builds", c.exec_plan_builds as f64);
    m.set("exec.streamed_words", c.exec_streamed_words as f64);
    m.set("exec.k_tiles", c.exec_ktiles as f64);
    m.set("exec.tier_i32_i32", c.exec_tier_i32_i32 as f64);
    m.set("exec.tier_i32_i64", c.exec_tier_i32_i64 as f64);
    m.set("exec.tier_i64_i64", c.exec_tier_i64_i64 as f64);
}

/// Measure the host's ceilings (`gather_bytes` = the workload's table
/// footprint), then `exec.gather_ceiling_frac`: the kernel's computed
/// look-up rate as a share of the measured independent-gather rate.
pub fn host_ceilings(m: &mut Metrics, spans: &mut Spans, gather_bytes: usize) {
    crate::host::ceilings(m, spans, gather_bytes);
    let per_s = 1e9 / m.get("exec.ns_per_lookup").unwrap_or(f64::INFINITY);
    let ceiling = m.get("host.gather_mps").unwrap_or(0.0) * 1e6;
    m.set(
        "exec.gather_ceiling_frac",
        if ceiling > 0.0 { per_s / ceiling } else { 0.0 },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_work_matches_the_window_plan() {
        let cfg = EngineConfig::paper_default();
        let mut rng = Rng::new(3);
        let w = Mat::from_fn(8, 256, |_, _| rng.uniform() - 0.5);
        let p = PackedBcq::pack(&BcqWeight::from_uniform(&rtn(
            &w,
            RtnParams::grouped(4, 128),
        )));
        // Group 128 runs 8-wide windows: 32 per row, 256-entry i32 tables.
        assert_eq!(exec_mu(128, 4), 8);
        assert_eq!(exec_mu(6, 4), 2);
        assert_eq!(exec_mu(7, 4), 4);
        assert_eq!(
            window_count(&p, &cfg),
            windows(256, 128, exec_mu(128, cfg.mu)).len()
        );
        assert_eq!(lookups(&p, &cfg, 2), (8 * 4 * 32 * 2) as f64);
        assert_eq!(lut_bytes(&p, &cfg, 2), 32 * 256 * 4 * 2);
        // The plan accepts exactly the configs whose effective µ equals its
        // own, so `matches` cross-checks the mirrored rule.
        assert!(ExecPlan::new(&p, &cfg).matches(&p, &EngineConfig { mu: 2, ..cfg }));
    }
}
