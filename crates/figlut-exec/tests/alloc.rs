//! Steady-state allocation audit of the [`ExecPlan`] hot path.
//!
//! The plan's contract (DESIGN.md §6) is that once its scratch pools are
//! warm, an `exec_i_into` call — and a shared call over several readers —
//! performs **zero** heap allocations: the windows are precomputed, the
//! staging/LUT/partial buffers are recycled, and the caller owns the
//! output. This test pins that with a counting global allocator: warm the
//! plan up, arm the counter, run one decode-like call per shape, and
//! require the count to still be zero.
//!
//! This lives in its own integration-test binary on purpose — a global
//! allocator is per-process, and a sibling `#[test]` allocating on another
//! thread while the counter is armed would make the count meaningless.
//! Keep this file at exactly one test.

use figlut_exec::parallel::thread_count;
use figlut_exec::{exec_i_threads, ExecPlan, PackedBcq};
use figlut_gemm::EngineConfig;
use figlut_num::Mat;
use figlut_quant::bcq::{BcqParams, BcqWeight};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts allocations (alloc / alloc_zeroed / realloc) while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method bumps a lock-free counter and then defers to
// `System` with the caller's layout/pointer arguments unchanged, so
// `System`'s allocator contract is upheld verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's contract to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_exec_plan_calls_are_allocation_free() {
    // One offset-carrying µ-8 shape (the serving operating point) on the
    // shuffle pass — batch 1 and 2 — and on the lane pass — batch 3 (4
    // lanes, one padded), 8 (8 lanes) — and across a column-block boundary
    // (9 = 8 lanes + 1 shuffle column); a per-row-scale shape whose group
    // stays open between k-tiles (the open-group carries); gs 32
    // (one tile per row) at batch 1 and 8; plus a ragged-group shape
    // (gs 15). Single worker thread: spawning a thread
    // allocates by definition, and the zero-alloc contract is about the
    // exec hot path, which is identical on every worker.
    //
    // The last case is the serving decode shape (48×48, B=6) at the
    // default worker count, as `figlut-model` calls it: far too little
    // work to be worth a second thread, so the plan must keep it on the
    // calling thread — no spawn, hence still zero allocations.
    let many = thread_count().max(2);
    let cases: [(usize, usize, usize, u32, usize, usize); 11] = [
        (96, 128, 64, 3, 1, 1), // m, n, gs (8 | gs → shuffle / lane pass), q, batch, threads
        (96, 128, 64, 3, 2, 1),
        (96, 128, 64, 3, 3, 1),
        (96, 128, 64, 3, 8, 1),
        (96, 128, 64, 3, 9, 1),
        (96, 520, 520, 3, 8, 1), // one group open across three k-tiles
        (96, 520, 520, 3, 9, 1), // … its buffer resized between the lane and shuffle blocks
        (96, 256, 32, 3, 1, 1),  // gs 32: one tile per row
        (96, 256, 32, 3, 8, 1),
        (11, 45, 15, 2, 3, 1), // gs 15: a ragged group, its second key byte 7 columns wide
        (48, 48, 48, 3, 6, many),
    ];
    for (m, n, gs, bits, batch, threads) in cases {
        let w = Mat::from_fn(m, n, |r, c| ((r * n + c) as f64 * 0.143).sin() * 0.4);
        let b = BcqWeight::quantize(&w, BcqParams::grouped(bits, gs));
        let packed = PackedBcq::pack(&b);
        let cfg = EngineConfig::paper_default();
        let plan = ExecPlan::new(&packed, &cfg);
        let x = Mat::from_fn(batch, n, |bb, c| ((bb * n + c) as f64 * 0.067).cos());
        let mut y = Mat::zeros(batch, m);

        // Warm-up: first calls grow the pools and buffer capacities.
        plan.exec_i_into(&x, &packed, &cfg, threads, &mut y);
        plan.exec_i_into(&x, &packed, &cfg, threads, &mut y);

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        plan.exec_i_into(&x, &packed, &cfg, threads, &mut y);
        ARMED.store(false, Ordering::SeqCst);
        let allocs = ALLOCS.load(Ordering::SeqCst);

        assert_eq!(
            allocs, 0,
            "steady-state exec_i_into allocated {allocs} times \
             (m={m} n={n} gs={gs} B={batch} threads={threads})"
        );
        // And the allocation-free call still produced the right bits.
        let reference = exec_i_threads(&x, &packed, &cfg, 1);
        assert_eq!(y.as_slice(), reference.as_slice(), "steady-state bits");
    }

    // Shared calls: one stage, three readers of different row counts, at
    // the default worker count. The Q/K/V shape of a served decode step,
    // and per-row scales over 520 columns at batches 8 and 10: three
    // k-tiles, each built once and swept by all three readers, every row's
    // group open across them (each reader's own carries).
    let cfg = EngineConfig::paper_default();
    for (n, batch) in [(48usize, 6usize), (520, 8), (520, 10)] {
        let weights = [48usize, 24, 72].map(|m| {
            let w = Mat::from_fn(m, n, |r, c| {
                ((r * n + c) as f64 * 0.143 + m as f64).sin() * 0.4
            });
            PackedBcq::pack(&BcqWeight::quantize(&w, BcqParams::grouped(3, n)))
        });
        let plans = weights.each_ref().map(|p| ExecPlan::new(p, &cfg));
        let x = Mat::from_fn(batch, n, |bb, c| ((bb * n + c) as f64 * 0.067).cos());
        let mut ys = weights.each_ref().map(|p| Mat::zeros(batch, p.rows()));
        let mut shared_call = |armed: bool| {
            let [y0, y1, y2] = &mut ys;
            let [w0, w1, w2] = &weights;
            let readers = &mut [
                (&plans[0], w0, y0),
                (&plans[1], w1, y1),
                (&plans[2], w2, y2),
            ];
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(armed, Ordering::SeqCst);
            ExecPlan::exec_i_shared(&x, &cfg, many, readers);
            ARMED.store(false, Ordering::SeqCst);
            ALLOCS.load(Ordering::SeqCst)
        };
        shared_call(false);
        shared_call(false);
        let allocs = shared_call(true);
        assert_eq!(
            allocs, 0,
            "steady-state three-reader call allocated {allocs} times (n={n} B={batch})"
        );
        for (y, p) in ys.iter().zip(&weights) {
            let reference = exec_i_threads(&x, p, &cfg, 1);
            assert_eq!(
                y.as_slice(),
                reference.as_slice(),
                "shared steady-state bits (n={n} B={batch})"
            );
        }
        assert_eq!(weights[0].tiles(), n.div_ceil(256), "n={n}");
    }
}
