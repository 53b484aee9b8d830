//! Allocation pin for a serve's crew: a warm step on a crew of two — the
//! crew a serving run opens once, before its first step — allocates no
//! more (count) than the same step on the calling thread alone. No
//! thread, no thread packet, no slot and no panel is created per step:
//! the workers, their phase slot and their panels live as long as the
//! crew, and a warm step finds every buffer grown.
//!
//! This lives in its own integration-test binary on purpose — a global
//! allocator is per-process, so a sibling `#[test]` allocating on another
//! thread while the counter is armed would make the count meaningless,
//! and the test sets `FIGLUT_EXEC_THREADS`. Keep this file at exactly one
//! test.

use figlut_exec::parallel::THREADS_ENV;
use figlut_gemm::EngineConfig;
use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::Corpus;
use figlut_model::{Backend, ModelConfig, Transformer};
use figlut_serve::{BatchEngine, Request, Sampling, SessionState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts allocations (alloc / alloc_zeroed / realloc) while armed, on
/// every thread.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method bumps a lock-free counter and then defers to
// `System` with the caller's layout/pointer arguments unchanged, so
// `System`'s allocator contract is upheld verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwards the caller's contract to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
fn warm_crewed_serve_step_allocates_no_more_than_one_thread() {
    // A packed RTN-Q4 d-256 model: a three-row decode step is worth a
    // second thread, so at two threads it runs on the crew.
    let cfg = ModelConfig {
        d_model: 256,
        ffn: 1024,
        ..ModelConfig::tiny()
    };
    let none = Corpus {
        sequences: Vec::new(),
    };
    let (q, _) = quantize_model(
        &Transformer::teacher(cfg, 56),
        &none,
        Method::Rtn { bits: 4 },
    );
    let model = to_packed(&q);
    let engine = BatchEngine::new(&model, Backend::Exec(EngineConfig::paper_default()));
    let requests: Vec<Request> = (0..3)
        .map(|id| Request {
            id,
            arrival: 0,
            prompt: (0..9).map(|t| (5 * t + 11 * id) % cfg.vocab).collect(),
            max_new: 8,
            sampling: Sampling::Greedy,
            seed: id as u64,
        })
        .collect();
    // At each thread count: prefill three sessions, open the crew, run a
    // warm decode step on it, then count the next one.
    let measure = |threads: &str| {
        std::env::set_var(THREADS_ENV, threads);
        let mut sessions: Vec<SessionState> =
            requests.iter().map(|r| engine.start(r.clone())).collect();
        for s in &mut sessions {
            let _ = engine.prefill(s);
        }
        let counted = engine.open_crew(cfg.max_seq, |crew| {
            let mut step = || {
                let mut refs: Vec<&mut SessionState> = sessions.iter_mut().collect();
                let _ = engine.step_on(crew, &mut refs, None, 0);
            };
            step();
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            step();
            ARMED.store(false, Ordering::SeqCst);
            ALLOCS.load(Ordering::SeqCst)
        });
        let tokens: Vec<Vec<usize>> = sessions.into_iter().map(|s| s.generated).collect();
        (counted, tokens)
    };
    let (alone, want) = measure("1");
    let (crewed, got) = measure("2");
    std::env::remove_var(THREADS_ENV);
    assert_eq!(got, want, "the crew changed a token");
    assert!(
        crewed <= alone,
        "a warm crewed step made {crewed} allocations, the same step alone {alone}"
    );
}
