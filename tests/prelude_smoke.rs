//! Facade smoke test: `figlut::prelude::*` must keep re-exporting every name
//! the rustdoc quickstart uses, and the quickstart's numerical claim must
//! hold exactly as written.

use figlut::prelude::*;

/// Every prelude name resolves and is usable. This is a compile-time
/// guarantee for most of the list; the `let` bindings below pin the handful
/// whose construction is part of the documented API.
#[test]
fn prelude_reexports_resolve() {
    // figlut-num
    let _: FpFormat = FpFormat::Fp16;
    let _: AlignMode = AlignMode::RoundNearestEven;
    let _ = Fp16::from_f64(1.0);
    let _ = Bf16::from_f64(1.0);
    let _ = Fp32::from_f64(1.0);
    let _: AlignedVector = AlignedVector::align(&[1.0], FpFormat::Fp16, 0, AlignMode::Truncate);
    let m: Mat<f64> = Mat::from_fn(2, 2, |r, c| (r + c) as f64);

    // figlut-quant
    let bcq = BcqWeight::quantize(&m, BcqParams::per_row(2));
    let _: BitMatrix = bcq.plane(0).clone();
    let u: UniformWeight = figlut::quant::uniform::rtn(&m, RtnParams::per_row(2));

    // figlut-lut
    let key = Key::new(1, 2);
    let _ = key.fold();
    let full = FullLut::build(&[1.0, 2.0], |a, b| a + b);
    let half = HalfLut::build(&[1.0, 2.0], |a, b| a + b);
    assert_eq!(full.read(key), half.read(key));
    let _: GenSchedule = GenSchedule::optimized(2, false);
    let _: Rac<f64> = Rac::new(2);

    // figlut-gemm
    let cfg = EngineConfig::paper_default();
    for e in Engine::ALL {
        let w = if e.supports_bcq() {
            Weights::Bcq(&bcq)
        } else {
            Weights::Uniform(&u)
        };
        let y = e.run(&m, &w, &cfg);
        assert_eq!((y.rows(), y.cols()), (2, 2), "{e}");
    }

    // figlut-exec
    let packed: PackedBcq = PackedBcq::pack(&bcq);
    let plan: ExecPlan = ExecPlan::new(&packed, &cfg);
    assert_eq!(
        plan.exec_i_threads(&m, &packed, &cfg, 1).as_slice(),
        exec_i(&m, &packed, &cfg).as_slice()
    );

    // figlut-model
    let opt: &OptConfig = &OPT_FAMILY[0];
    assert!(opt.layers > 0);
    let t = Transformer::teacher(ModelConfig::tiny(), 7);
    let _: &Backend = &Backend::Exact;
    assert!(t.cfg.d_model > 0);

    // figlut-serve
    let trace: Trace = synthetic_trace(&t.cfg, &TraceParams::light(2), 3);
    let _: &Request = &trace.requests[0];
    let _: Sampling = Sampling::Greedy;
    let engine = BatchEngine::new(&t, Backend::Exact);
    let sr: ServeReport = figlut::serve::serve(
        &engine,
        &trace,
        &ServeConfig::new(2, Policy::PrefillPriority),
    );
    assert_eq!(sr.requests.len(), 2);
    for r in &sr.requests {
        assert_eq!(r.generated, engine.solo_run(&trace.requests[r.id]));
    }
    // The README quickstart's chunked-prefill configuration.
    let chunked = figlut::serve::serve(
        &engine,
        &trace,
        &ServeConfig::new(2, Policy::PrefillPriority).with_prefill_chunk(8),
    );
    let _stall: u64 = chunked.distributions().stall.max();
    for r in &chunked.requests {
        assert_eq!(r.generated, engine.solo_run(&trace.requests[r.id]));
    }
    // The README quickstart's paged-KV configuration: block-table paging
    // with prefix sharing keeps the tokens bit-identical and reports
    // PagingStats; BlockPool is the underlying refcounted block store.
    let _pool: BlockPool = BlockPool::new(4, t.cfg.layers, t.cfg.d_model, None);
    let _hooks: ServeHooks = ServeHooks::default();
    let paged = figlut::serve::serve(
        &engine,
        &trace,
        &ServeConfig::new(2, Policy::PrefillPriority).with_block_size(16),
    );
    let stats: &PagingStats = paged.paging.as_ref().expect("paged run reports stats");
    assert_eq!(stats.block_size, 16);
    assert_eq!(stats.final_live_blocks, 0);
    for r in &paged.requests {
        assert_eq!(r.generated, engine.solo_run(&trace.requests[r.id]));
    }

    // figlut-sim
    let tech = Tech::cmos28();
    let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
    let wl = Workload {
        gemms: vec![GemmShape {
            m: 256,
            n: 256,
            batch: 4,
            repeat: 1.0,
        }],
        nongemm_flops: 0.0,
    };
    let report: Report = evaluate(&tech, &spec, &wl, 4.0);
    assert!(report.tops_per_w() > 0.0);
}

/// The exact scenario from the facade rustdoc quickstart (`src/lib.rs`):
/// FIGLUT-F on 3-bit BCQ must stay within 1e-2 of the exact reference.
#[test]
fn quickstart_figlut_f_tracks_reference() {
    let w = Mat::from_fn(8, 64, |r, c| ((r * 64 + c) as f64 * 0.1).sin());
    let bcq = BcqWeight::quantize(&w, BcqParams::per_row(3));
    let x = Mat::from_fn(2, 64, |b, c| ((b + c) as f64 * 0.05).cos());
    let cfg = EngineConfig::paper_default();
    let y = Engine::FiglutF.run(&x, &Weights::Bcq(&bcq), &cfg);
    let oracle = Engine::Reference.run(&x, &Weights::Bcq(&bcq), &cfg);
    assert!(
        y.max_abs_diff(&oracle) < 1e-2,
        "quickstart bound violated: {}",
        y.max_abs_diff(&oracle)
    );
}
