//! Resilience properties of the serving stack: deterministic injected
//! faults (transient step failures, swap-in failures, checksummed restore
//! corruption, pool-exhaustion spikes) recover **exactly** — every served
//! token stream bit-identical to its solo batch-1 run, across fault
//! schedules × admission policies × paged-KV layouts — and a run killed
//! by an injected crash, resumed from its last checkpoint, reconciles
//! byte-identically (tokens, steps, ticks) with the uninterrupted run.
//!
//! Shed requests are the one sanctioned deviation: an admission policy
//! may finish a request with `FinishReason::Shed`, zero tokens, and
//! `admitted == first_token == finish` — an honest rejection, never a
//! corrupted stream.

use figlut_gemm::EngineConfig;
use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::generate;
use figlut_model::{Backend, ModelConfig, Transformer};
use figlut_serve::{
    resume, serve, serve_with_hooks, synthetic_trace, AdmissionPolicy, BatchEngine, Checkpoint,
    CheckpointHook, FaultPlan, FinishReason, Policy, Sampling, ServeConfig, ServeHooks, Slo,
    TraceParams,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

fn packed_model() -> &'static Transformer {
    static MODEL: OnceLock<Transformer> = OnceLock::new();
    MODEL.get_or_init(|| {
        let teacher = Transformer::teacher(ModelConfig::tiny(), 55);
        let calib = generate(&teacher, 2, 10, 3);
        let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
        to_packed(&q)
    })
}

fn packed_engine() -> BatchEngine<'static> {
    BatchEngine::new(packed_model(), Backend::Exec(EngineConfig::paper_default()))
}

#[derive(Clone, Debug)]
struct FaultScenario {
    seed: u64,
    requests: usize,
    mean_interarrival: f64,
    max_batch: usize,
    policy: Policy,
    prefill_chunk: Option<usize>,
    block_size: Option<usize>,
    /// 0 = unbounded pool, 1 = the legal minimum cap (memory pressure).
    pool_mode: usize,
    admission: AdmissionPolicy,
    fault_seed: u64,
    budget: usize,
}

fn fault_scenario() -> impl Strategy<Value = FaultScenario> {
    (
        (
            any::<u64>(),
            1usize..=5,  // requests
            0usize..=20, // mean inter-arrival (0 = burst)
            1usize..=4,  // max_batch
            0usize..3,   // policy index
            0usize..4,   // chunked-prefill budget choice
        ),
        (
            0usize..4,    // paged-KV block size choice
            0usize..2,    // pool tightness
            0usize..4,    // admission policy choice
            any::<u64>(), // fault-plan seed
            0usize..=8,   // fault budget (0 = plan present but quiet)
        ),
    )
        .prop_map(
            |((seed, requests, gap, max_batch, pix, cix), (bix, pool_mode, aix, fseed, budget))| {
                FaultScenario {
                    seed,
                    requests,
                    mean_interarrival: gap as f64,
                    max_batch,
                    policy: Policy::ALL[pix],
                    prefill_chunk: [None, Some(1), Some(3), Some(8)][cix],
                    block_size: [None, Some(1), Some(4), Some(16)][bix],
                    pool_mode,
                    admission: [
                        AdmissionPolicy::Unbounded,
                        AdmissionPolicy::QueueCap { depth: 2 },
                        AdmissionPolicy::TokenBudget { tokens: 16 },
                        AdmissionPolicy::SloShed { ttft: 40 },
                    ][aix],
                    fault_seed: fseed,
                    budget,
                }
            },
        )
}

fn config_of(sc: &FaultScenario) -> ServeConfig {
    let model = packed_model();
    let mut cfg = ServeConfig::new(sc.max_batch, sc.policy).with_admission(sc.admission);
    cfg.prefill_chunk = sc.prefill_chunk;
    if let Some(bs) = sc.block_size {
        cfg = cfg.with_block_size(bs);
        if sc.pool_mode == 1 {
            cfg = cfg.with_pool_blocks(model.cfg.max_seq.div_ceil(bs));
        }
    }
    cfg
}

fn run_faulted(sc: &FaultScenario) {
    let model = packed_model();
    let engine = packed_engine();
    let params = TraceParams {
        requests: sc.requests,
        mean_interarrival: sc.mean_interarrival,
        prompt_len: (1, 6),
        new_tokens: (1, 7),
        sampling: Sampling::Greedy,
    };
    let trace = synthetic_trace(&model.cfg, &params, sc.seed);
    let cfg = config_of(sc);
    let plan = FaultPlan::new(sc.fault_seed, sc.budget)
        .with_step_failures(200)
        .with_swap_in_failures(200)
        .with_restore_corruption(200)
        .with_pool_spikes(150);
    let run = |plan: FaultPlan| {
        serve_with_hooks(
            &engine,
            &trace,
            &cfg,
            ServeHooks {
                fault_plan: Some(plan),
                ..Default::default()
            },
        )
    };
    let report = run(plan.clone());

    // Exact recovery: every request finished, and every *served* stream is
    // bit-identical to its solo run — faults moved ticks, never tokens.
    assert_eq!(report.requests.len(), trace.len(), "{sc:?}");
    let mut shed = 0usize;
    for (r, req) in report.requests.iter().zip(&trace.requests) {
        assert_eq!(r.id, req.id);
        if r.reason == FinishReason::Shed {
            shed += 1;
            assert_eq!(r.tokens, 0, "{sc:?}: shed request emitted");
            assert!(r.generated.is_empty() && r.token_ticks.is_empty(), "{sc:?}");
            assert_eq!(r.admitted, r.first_token, "{sc:?}");
            assert_eq!(r.first_token, r.finish, "{sc:?}");
            assert!(r.finish >= r.arrival, "{sc:?}");
        } else {
            assert_eq!(r.generated, engine.solo_run(req), "{sc:?} request {}", r.id);
        }
    }
    let res = &report.resilience;
    assert_eq!(res.shed_requests, shed, "{sc:?}");
    if sc.admission == AdmissionPolicy::Unbounded {
        assert_eq!(shed, 0, "{sc:?}: unbounded admission shed someone");
    }
    // Every injected fault consumed budget; detected corruption is a
    // subset of the swap-in retries it forces.
    assert!(
        res.step_retries + res.swap_in_retries + res.pool_spikes <= sc.budget,
        "{sc:?}: {res:?} over budget"
    );
    assert!(res.checksum_faults <= res.swap_in_retries, "{sc:?}");
    if sc.block_size.is_none() {
        assert_eq!(res.swap_in_retries, 0, "{sc:?}: swap faults without paging");
        assert_eq!(res.pool_spikes, 0, "{sc:?}: pool spikes without paging");
    }
    // Paging bookkeeping holds under faults: no leaks, swap traffic priced
    // into steps, and each detected corruption shows up as exactly one
    // extra swap-in (the re-transfer of the clean host image).
    if let Some(stats) = &report.paging {
        assert_eq!(stats.final_live_blocks, 0, "{sc:?}: leaked KV blocks");
        assert_eq!(
            stats.swaps_in,
            stats.swaps_out + res.checksum_faults,
            "{sc:?}"
        );
        let step_rows: usize = report.steps.iter().map(|s| s.swapped_rows).sum();
        assert_eq!(step_rows, stats.swapped_rows, "{sc:?}");
    }
    // Goodput never counts shed requests, even under an SLO no request
    // could miss.
    let loose = report.goodput(&Slo {
        ttft: u64::MAX,
        stall: u64::MAX,
    });
    assert_eq!(loose.met_requests, trace.len() - shed, "{sc:?}");

    // The fault schedule is deterministic: the identical plan replays the
    // identical run — report, counters, and all.
    let replay = run(plan);
    assert_eq!(replay, report, "{sc:?}: fault injection not deterministic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact fault recovery across fault schedules × admission policies ×
    /// paged-KV layouts, on the packed exec backend.
    #[test]
    fn faulted_runs_recover_exactly(sc in fault_scenario()) {
        run_faulted(&sc);
    }
}

#[derive(Clone, Debug)]
struct CrashScenario {
    seed: u64,
    requests: usize,
    mean_interarrival: f64,
    max_batch: usize,
    policy: Policy,
    prefill_chunk: Option<usize>,
    /// Paged (unbounded pool) or contiguous — bounded pools are covered by
    /// the fault property; resume reconciliation is asserted on layouts
    /// whose step schedule cannot depend on pool history.
    paged: bool,
    every_steps: usize,
    crash_step: usize,
}

fn crash_scenario() -> impl Strategy<Value = CrashScenario> {
    (
        (
            any::<u64>(),
            2usize..=5,  // requests
            0usize..=10, // mean inter-arrival
            1usize..=4,  // max_batch
            0usize..3,   // policy index
            0usize..3,   // chunked-prefill budget choice
        ),
        (
            any::<bool>(),
            1usize..=4,  // checkpoint cadence
            0usize..=24, // injected crash step
        ),
    )
        .prop_map(
            |((seed, requests, gap, max_batch, pix, cix), (paged, every_steps, crash_step))| {
                CrashScenario {
                    seed,
                    requests,
                    mean_interarrival: gap as f64,
                    max_batch,
                    policy: Policy::ALL[pix],
                    prefill_chunk: [None, Some(2), Some(5)][cix],
                    paged,
                    every_steps,
                    crash_step,
                }
            },
        )
}

fn run_crash(sc: &CrashScenario) {
    let model = packed_model();
    let engine = packed_engine();
    let params = TraceParams {
        requests: sc.requests,
        mean_interarrival: sc.mean_interarrival,
        prompt_len: (1, 6),
        new_tokens: (1, 7),
        sampling: Sampling::Greedy,
    };
    let trace = synthetic_trace(&model.cfg, &params, sc.seed);
    let mut cfg = ServeConfig::new(sc.max_batch, sc.policy);
    cfg.prefill_chunk = sc.prefill_chunk;
    if sc.paged {
        cfg = cfg.with_block_size(8);
    }
    let clean = serve(&engine, &trace, &cfg);

    // Kill the run with an injected panic, checkpointing as it goes.
    let checkpoints: RefCell<Vec<Checkpoint>> = RefCell::new(Vec::new());
    let hooks = ServeHooks {
        fault_plan: Some(FaultPlan::new(0, 0).with_crash_at_step(sc.crash_step)),
        checkpoint: Some(CheckpointHook {
            every_steps: sc.every_steps,
            sink: Box::new(|ck| checkpoints.borrow_mut().push(ck)),
        }),
        ..Default::default()
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        serve_with_hooks(&engine, &trace, &cfg, hooks)
    }));
    let Err(_) = crashed else {
        // The crash step lay beyond the schedule: the run completed, and
        // checkpointing alongside it must not have perturbed a single step.
        let full = crashed.expect("checked Ok");
        assert_eq!(full.requests, clean.requests, "{sc:?}");
        assert_eq!(full.steps, clean.steps, "{sc:?}");
        assert_eq!(full.ticks, clean.ticks, "{sc:?}");
        return;
    };
    let Some(last) = checkpoints.borrow_mut().pop() else {
        // Crashed before the first capture — nothing to resume from.
        return;
    };
    // Captures happen at the loop bottom; the injected crash fires at the
    // next loop top, so the freshest capture holds at most `crash_step`
    // executed steps.
    assert!(
        last.steps.len() <= sc.crash_step,
        "{sc:?}: capture after crash"
    );

    // Resume from the last checkpoint: byte-identical tokens and a
    // reconciled report (requests, steps, ticks, KV peak).
    let resumed = resume(&engine, last, &cfg, ServeHooks::default());
    assert_eq!(resumed.requests, clean.requests, "{sc:?}");
    assert_eq!(resumed.steps, clean.steps, "{sc:?}");
    assert_eq!(resumed.ticks, clean.ticks, "{sc:?}");
    assert_eq!(resumed.peak_kv_rows, clean.peak_kv_rows, "{sc:?}");
    assert!(resumed.resilience.checkpoints >= 1, "{sc:?}");
    for (r, req) in resumed.requests.iter().zip(&trace.requests) {
        assert_eq!(r.generated, engine.solo_run(req), "{sc:?} request {}", r.id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-consistent checkpoint/resume: kill the run at an arbitrary
    /// step, resume from the last checkpoint, and reconcile against the
    /// uninterrupted run — across policies, chunking, paging, cadences,
    /// and crash points.
    #[test]
    fn killed_runs_resume_byte_identically(sc in crash_scenario()) {
        run_crash(&sc);
    }
}

/// A zero generation budget finishes at its admission tick with
/// well-defined metrics — zero tokens, `first_token == finish` — in both
/// prefill modes and every policy, and never panics `metrics_of`.
#[test]
fn zero_budget_requests_finish_without_tokens_on_both_loops() {
    let model = packed_model();
    let engine = packed_engine();
    let mut trace = synthetic_trace(&model.cfg, &TraceParams::light(4), 17);
    trace.requests[1].max_new = 0;
    for chunk in [None, Some(2)] {
        for policy in Policy::ALL {
            let mut cfg = ServeConfig::new(2, policy);
            cfg.prefill_chunk = chunk;
            let report = serve(&engine, &trace, &cfg);
            assert_eq!(report.requests.len(), trace.len(), "{policy:?} {chunk:?}");
            let z = &report.requests[1];
            assert_eq!(z.reason, FinishReason::Completed, "{policy:?} {chunk:?}");
            assert_eq!(z.tokens, 0, "{policy:?} {chunk:?}");
            assert!(z.generated.is_empty() && z.token_ticks.is_empty());
            assert_eq!(z.admitted, z.first_token, "{policy:?} {chunk:?}");
            assert_eq!(z.first_token, z.finish, "{policy:?} {chunk:?}");
            assert!(z.finish >= z.arrival, "{policy:?} {chunk:?}");
            // Everyone else is untouched by the degenerate neighbor.
            for r in report.requests.iter().filter(|r| r.id != 1) {
                assert_eq!(
                    r.generated,
                    engine.solo_run(&trace.requests[r.id]),
                    "{policy:?} {chunk:?} request {}",
                    r.id
                );
            }
        }
    }
}

/// Admission policies shed honestly under a burst: shed requests carry
/// `FinishReason::Shed` and zero tokens, served requests keep their solo
/// streams, and the default unbounded policy sheds no one.
#[test]
fn admission_policies_shed_honestly_and_keep_served_tokens_solo() {
    let model = packed_model();
    let engine = packed_engine();
    let params = TraceParams {
        requests: 8,
        mean_interarrival: 0.0, // tick-0 burst: the queue is deepest
        prompt_len: (2, 6),
        new_tokens: (2, 7),
        sampling: Sampling::Greedy,
    };
    let trace = synthetic_trace(&model.cfg, &params, 29);
    let base = ServeConfig::new(2, Policy::PrefillPriority);

    let unbounded = serve(&engine, &trace, &base);
    assert_eq!(unbounded.resilience.shed_requests, 0);
    assert!(unbounded
        .requests
        .iter()
        .all(|r| r.reason != FinishReason::Shed));

    for admission in [
        AdmissionPolicy::QueueCap { depth: 2 },
        AdmissionPolicy::TokenBudget { tokens: 14 },
        AdmissionPolicy::SloShed { ttft: 25 },
    ] {
        let report = serve(&engine, &trace, &base.with_admission(admission));
        assert_eq!(report.requests.len(), trace.len(), "{admission:?}");
        let shed: Vec<_> = report
            .requests
            .iter()
            .filter(|r| r.reason == FinishReason::Shed)
            .collect();
        assert!(!shed.is_empty(), "{admission:?}: burst shed no one");
        assert_eq!(report.resilience.shed_requests, shed.len(), "{admission:?}");
        for r in &shed {
            assert_eq!(r.tokens, 0, "{admission:?}");
            assert_eq!(r.admitted, r.finish, "{admission:?}");
        }
        for r in report
            .requests
            .iter()
            .filter(|r| r.reason != FinishReason::Shed)
        {
            assert_eq!(
                r.generated,
                engine.solo_run(&trace.requests[r.id]),
                "{admission:?} request {}",
                r.id
            );
        }
        // Shed requests never count toward goodput, even under an SLO no
        // served request could miss.
        let loose = report.goodput(&Slo {
            ttft: u64::MAX,
            stall: u64::MAX,
        });
        assert_eq!(
            loose.met_requests,
            trace.len() - shed.len(),
            "{admission:?}"
        );
        // Shedding relieved the queue for the survivors.
        assert!(
            report.mean_queue_wait() < unbounded.mean_queue_wait(),
            "{admission:?}: {} !< {}",
            report.mean_queue_wait(),
            unbounded.mean_queue_wait()
        );
    }
}
