//! Allocation pin for the KV layout of a warm decode step.
//!
//! Attention reads every cache in place, whatever its block size, and a
//! write into an open block allocates nothing. So a warm `decode_batch`
//! step that opens no block allocates exactly the same — count and bytes —
//! on [`Transformer::new_cache`] caches (one context-sized block each) as
//! on caches of a shared pool with blocks of 4 or 8 positions: what is
//! left is the step's own activations and scores, the same on every side.
//!
//! This lives in its own integration-test binary on purpose — a global
//! allocator is per-process, and a sibling `#[test]` allocating on another
//! thread while the counter is armed would make the count meaningless.
//! Keep this file at exactly one test.

use figlut_model::{Backend, BlockPool, KvCache, ModelConfig, Transformer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts allocations (alloc / alloc_zeroed / realloc) and their bytes
/// while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method bumps lock-free counters and then defers to
// `System` with the caller's layout/pointer arguments unchanged, so
// `System`'s allocator contract is upheld verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwards the caller's contract to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
fn warm_decode_step_allocates_the_same_for_every_block_size() {
    let m = Transformer::teacher(ModelConfig::tiny(), 61);
    // Prefill 29 positions, warm up at position 29, measure at 30: both
    // land inside an open block at block sizes 4 (28..32), 8 (24..32) and
    // `max_seq` = 40, so neither step allocates a block.
    let prompts: Vec<Vec<usize>> = (0..3)
        .map(|s| (0..29).map(|t| (7 * t + 13 * s) % m.cfg.vocab).collect())
        .collect();
    let tokens = [1, 2, 3];
    let measure = |mut caches: Vec<KvCache>| {
        for (cache, prompt) in caches.iter_mut().zip(&prompts) {
            let _ = m.prefill(prompt, cache, &Backend::Exact);
        }
        let _ = m.decode_batch(&tokens, &mut caches, &Backend::Exact);
        ALLOCS.store(0, Ordering::SeqCst);
        BYTES.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let logits = m.decode_batch(&tokens, &mut caches, &Backend::Exact);
        ARMED.store(false, Ordering::SeqCst);
        let counted = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
        (counted, logits.as_slice().to_vec())
    };
    let (want, want_logits) = measure((0..3).map(|_| m.new_cache()).collect());
    for bs in [4, 8] {
        let pool = BlockPool::for_model(&m.cfg, bs, None);
        let (got, logits) = measure((0..3).map(|_| m.new_paged_cache(&pool)).collect());
        assert_eq!(
            got, want,
            "block size {bs}: (allocations, bytes) differ from one-block caches"
        );
        assert_eq!(logits, want_logits, "block size {bs}: logits");
    }
}
