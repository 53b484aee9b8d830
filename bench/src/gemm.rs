//! The two kernel workloads: one *pass* is a decoder layer's six GEMMs
//! (four `d × d` attention projections, the `ffn × d` up- and the `d × ffn`
//! down-projection) through warm `ExecPlan::exec_i_into` calls on one
//! thread. `gemm-b1` runs it at batch 1 — the lookup-latency-bound decode
//! case on the register-blocked column engine — and `gemm-b8` at batch 8,
//! the memory-backed wide accumulator path with an 8x larger table build.
//! Same layer, used differently: a gain on one path that costs the other
//! shows as one workload up and the other down.

use crate::probe::{self, activations};
use crate::report::{Gate, Metrics, Spans};
use crate::wallsink::WallSink;
use crate::{host, stats, Outcome, RunCfg};
use figlut::exec::{ExecPlan, PackedBcq};
use figlut::gemm::EngineConfig;
use figlut::model::rng::Rng;
use figlut::num::Mat;
use figlut::quant::bcq::BcqWeight;
use figlut::quant::uniform::{rtn, RtnParams};
use figlut::trace::Counters;
use std::time::Instant;

/// Shape of the layer and the batch it is run at.
#[derive(Clone, Copy, Debug)]
pub struct GemmDef {
    pub d: usize,
    pub ffn: usize,
    pub batch: usize,
}

/// Indices of the three distinct shapes within a pass.
const ATTN: usize = 0;
const UP: usize = 4;
const DOWN: usize = 5;
/// Rows of the activation block the gate checks batch invariance on.
const GATE_ROWS: usize = 8;

impl GemmDef {
    /// The OPT-1.3B decoder layer (d 2048, ffn 8192).
    pub fn opt_1_3b(batch: usize) -> Self {
        Self {
            d: 2048,
            ffn: 8192,
            batch,
        }
    }

    /// `(out, in)` of the six GEMMs of a pass.
    fn shapes(&self) -> [(usize, usize); 6] {
        let (d, f) = (self.d, self.ffn);
        [(d, d), (d, d), (d, d), (d, d), (f, d), (d, f)]
    }
}

/// Seconds each set-up phase took (summed over the six matrices).
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub quantize: f64,
    pub pack: f64,
}

/// Everything a pass needs: the packed layer and seeded activations.
pub struct GemmSetup {
    pub layers: Vec<(PackedBcq, ExecPlan)>,
    /// `GATE_ROWS × in` activations per GEMM; a pass uses the first `batch`.
    x8: Vec<Mat<f64>>,
    pub phases: Phases,
}

/// Build the workload's inputs from `seed`: uniform weights → RTN-Q4,
/// group 128 → Eq. 3 BCQ → `PackedBcq` → `ExecPlan`, plus activations.
pub fn setup(def: &GemmDef, seed: u64) -> GemmSetup {
    let cfg = EngineConfig::paper_default();
    let mut rng = Rng::new(seed);
    let mut phases = Phases::default();
    let mut layers = Vec::with_capacity(6);
    for (m, n) in def.shapes() {
        let w = Mat::from_fn(m, n, |_, _| (rng.uniform() - 0.5) * 0.1);
        let t = Instant::now();
        let bcq = BcqWeight::from_uniform(&rtn(&w, RtnParams::grouped(4, 128)));
        phases.quantize += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let packed = PackedBcq::pack(&bcq);
        phases.pack += t.elapsed().as_secs_f64();
        let plan = ExecPlan::new(&packed, &cfg);
        layers.push((packed, plan));
    }
    let x8 = def
        .shapes()
        .iter()
        .map(|&(_, n)| activations(GATE_ROWS, n, &mut rng))
        .collect();
    GemmSetup { layers, x8, phases }
}

fn first_rows(x: &Mat<f64>, rows: usize) -> Mat<f64> {
    Mat::from_fn(rows, x.cols(), |r, c| x[(r, c)])
}

/// The pass: inputs at the workload's batch and caller-owned outputs, so
/// the timed region is the six warm calls and nothing else.
struct Pass<'a> {
    s: &'a GemmSetup,
    xs: Vec<Mat<f64>>,
    outs: Vec<Mat<f64>>,
}

impl<'a> Pass<'a> {
    fn new(s: &'a GemmSetup, batch: usize) -> Self {
        Self {
            s,
            xs: s.x8.iter().map(|x| first_rows(x, batch)).collect(),
            outs: s
                .layers
                .iter()
                .map(|(w, _)| Mat::zeros(batch, w.rows()))
                .collect(),
        }
    }

    fn run(&mut self, threads: usize) {
        let cfg = EngineConfig::paper_default();
        for (((w, plan), x), out) in self.s.layers.iter().zip(&self.xs).zip(&mut self.outs) {
            plan.exec_i_into(x, w, &cfg, threads, out);
        }
    }

    /// Order-sensitive hash of every output bit of the last pass.
    fn checksum(&self) -> u64 {
        self.outs
            .iter()
            .flat_map(|o| o.as_slice())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Run passes for `seconds` (at least `min` of them), each verified
    /// against the first pass's checksum; returns the per-pass seconds and
    /// the wall time of the whole loop.
    fn timed(&mut self, seconds: f64, min: usize, gate: &mut Gate) -> (Vec<f64>, f64) {
        self.run(1);
        let want = self.checksum();
        self.run(1);
        let mut secs = Vec::new();
        let started = Instant::now();
        while secs.len() < min || started.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            self.run(1);
            secs.push(t.elapsed().as_secs_f64());
            let got = self.checksum();
            gate.check(got == want, || {
                format!("pass {}: output checksum changed", secs.len())
            });
        }
        (secs, started.elapsed().as_secs_f64())
    }
}

/// The correctness gate before any timing: every row of a batched call
/// equals its batch-1 run, the multi-threaded output equals the
/// one-threaded one, and two rows equal the `figlut-gemm` datapath model.
pub fn gate(s: &GemmSetup, gate: &mut Gate) {
    let cfg = EngineConfig::paper_default();
    let threads = figlut::exec::parallel::thread_count();
    for (i, ((w, plan), x)) in s.layers.iter().zip(&s.x8).enumerate() {
        let y = plan.exec_i_threads(x, w, &cfg, 1);
        for b in 0..x.rows() {
            let row = Mat::from_fn(1, x.cols(), |_, c| x[(b, c)]);
            let solo = plan.exec_i_threads(&row, w, &cfg, 1);
            gate.check(solo.row(0) == y.row(b), || {
                format!("gemm {i}: batched row {b} differs from its batch-1 run")
            });
        }
        let yn = plan.exec_i_threads(x, w, &cfg, threads);
        gate.check(yn.as_slice() == y.as_slice(), || {
            format!("gemm {i}: {threads}-thread output differs from 1-thread")
        });
        if [ATTN, UP, DOWN].contains(&i) {
            let x2 = first_rows(x, 2);
            let model = figlut::gemm::figlut::gemm_i(&x2, &w.unpack(), &cfg);
            gate.check(model.row(0) == y.row(0) && model.row(1) == y.row(1), || {
                format!("gemm {i}: exec differs from figlut::gemm::figlut::gemm_i")
            });
        }
    }
}

fn shapes_of(s: &GemmSetup) -> [probe::Linear<'_>; 3] {
    [ATTN, UP, DOWN].map(|i| (&s.layers[i].0, &s.layers[i].1))
}

/// Run one kernel workload.
pub fn run(def: &GemmDef, cfg: &RunCfg) -> Outcome {
    let mut m = Metrics::default();
    let mut g = Gate::default();
    if !cfg.trace {
        let mut setups = Vec::new();
        let mut s = None;
        for _ in 0..3 {
            drop(s.take());
            let t = Instant::now();
            s = Some(setup(def, cfg.seed));
            setups.push(t.elapsed().as_secs_f64());
        }
        let s = s.expect("set up three times");
        gate(&s, &mut g);
        let mut pass = Pass::new(&s, def.batch);
        let (secs, wall) = pass.timed(cfg.seconds, 5, &mut g);
        m.set("setup_s", stats::median(&setups));
        m.set("tok_per_s", (def.batch * secs.len()) as f64 / wall);
        m.set("pass_ms_p50", stats::median(&secs) * 1e3);
        m.set("peak_rss_mib", host::peak_rss_mib());
        println!("# {} passes timed", secs.len());
        return Outcome {
            metrics: m,
            gate: g,
            chrome: None,
        };
    }

    let mut spans = Spans::new(cfg.lane);
    let (s, _) = spans.time("setup", None, || setup(def, cfg.seed));
    m.set("quant.quantize_ms", s.phases.quantize * 1e3);
    m.set("exec.pack_ms", s.phases.pack * 1e3);
    gate(&s, &mut g);

    // Untraced passes: the tail the end-to-end median leaves out.
    let mut pass = Pass::new(&s, def.batch);
    let (secs, _) = pass.timed(cfg.seconds / 2.0, 5, &mut g);
    let sorted = stats::sorted(secs);
    let (pct, tail) = stats::tail(&sorted).unwrap_or((100.0, sorted[sorted.len() - 1]));
    println!(
        "# exec.pass_ms_tail is p{pct:.1} of {} passes",
        sorted.len()
    );
    m.set("exec.pass_ms_tail", tail * 1e3);

    // Traced passes, each in its own session and paired with an untraced
    // one so drift cancels: the cost of tracing, and the counter registry
    // (the counts of one pass).
    let run = spans.open("traced", None);
    let (mut plain, mut traced, mut events) = (Vec::new(), Vec::new(), 0u64);
    let mut c = Counters::default();
    for _ in 0..cfg.samples + 5 {
        let t = Instant::now();
        pass.run(1);
        plain.push(t.elapsed().as_secs_f64());
        let (sink, log) = WallSink::new(spans.base());
        let guard = figlut::trace::install(Box::new(sink));
        let ((), t) = spans.time("pass", Some(run), || pass.run(1));
        traced.push(t);
        c = figlut::trace::snapshot();
        guard.finish().expect("an in-memory sink cannot fail");
        events = log.lock().expect("single-threaded").events;
    }
    spans.close(run);
    m.set(
        "trace.overhead_share",
        stats::median(&traced) / stats::median(&plain) - 1.0,
    );
    m.set("trace.events", events as f64);
    probe::exec_counters(&mut m, &c);

    let mut rng = Rng::new(cfg.seed ^ 0x7072_6f62);
    let all: Vec<&PackedBcq> = s.layers.iter().map(|(w, _)| w).collect();
    probe::exec_layer(
        &mut m,
        &mut spans,
        shapes_of(&s),
        &all,
        def.batch,
        cfg.samples,
        &mut rng,
    );

    // Weight-stream amortization: `batch` batch-1 passes over one pass at
    // `batch` (not applicable at batch 1, where it reads 0).
    let amortization = if def.batch == 1 {
        0.0
    } else {
        let mut solo = Pass::new(&s, 1);
        solo.run(1);
        let each = spans.sample("exec.b8.batch1_passes", cfg.samples, || {
            for _ in 0..def.batch {
                solo.run(1);
            }
        });
        let fused = spans.sample("exec.b8.batched_pass", cfg.samples, || pass.run(1));
        each / fused
    };
    m.set("exec.b8_amortization_x", amortization);

    // The differential reference's own speed (batch-1 workload only: it
    // is a property of the model, not of the batch).
    let model_rate = if def.batch == 1 {
        let (w, _) = &s.layers[ATTN];
        let (bcq, x2) = (w.unpack(), first_rows(&s.x8[ATTN], 2));
        let ecfg = EngineConfig::paper_default();
        let secs = spans.sample("gemm.model", cfg.samples, || {
            std::hint::black_box(figlut::gemm::figlut::gemm_i(&x2, &bcq, &ecfg));
        });
        2.0 / secs
    } else {
        0.0
    };
    m.set("gemm.model_rows_per_s", model_rate);

    let ecfg = EngineConfig::paper_default();
    let lut = probe::lut_bytes(&s.layers[ATTN].0, &ecfg, def.batch);
    probe::host_ceilings(&mut m, &mut spans, lut);
    crate::zero_absent(&mut m, &["model.", "serve.", "sim."]);
    Outcome {
        metrics: m,
        gate: g,
        chrome: Some(spans.chrome()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GemmDef {
        GemmDef {
            d: 128,
            ffn: 256,
            batch: 2,
        }
    }

    #[test]
    fn seed_changes_inputs_and_gate_passes() {
        let (a, b, c) = (setup(&small(), 1), setup(&small(), 1), setup(&small(), 2));
        assert_eq!(a.x8[0].as_slice(), b.x8[0].as_slice());
        assert_ne!(a.x8[0].as_slice(), c.x8[0].as_slice());
        let mut pa = Pass::new(&a, 2);
        let mut pc = Pass::new(&c, 2);
        pa.run(1);
        pc.run(1);
        assert_ne!(pa.checksum(), pc.checksum());
        let mut g = Gate::default();
        gate(&a, &mut g);
        assert!(g.correct(), "{:?}", g.notes);
        // 6 GEMMs x (8 rows + threads) + 3 model checks.
        assert_eq!(g.attempted, 6 * 9 + 3);
    }

    #[test]
    fn a_changed_output_fails_the_gate() {
        let s = setup(&small(), 1);
        let mut pass = Pass::new(&s, 2);
        pass.run(1);
        let want = pass.checksum();
        pass.outs[3].row_mut(1)[5] += 1.0;
        assert_ne!(pass.checksum(), want);
    }
}
