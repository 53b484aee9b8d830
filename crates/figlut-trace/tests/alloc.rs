//! Heap audit of the *disabled* trace path.
//!
//! The layer's contract (DESIGN.md §8) is that on a thread in no session —
//! the default for every production run — each instrumentation site costs
//! one thread-local read and performs **zero** heap allocations. This
//! pins it with a counting global allocator over every disabled entry
//! point an instrumented hot path can reach: the `enabled()` gate, each
//! counter bump, event emission, and run scoping.
//!
//! This lives in its own integration-test binary on purpose — a global
//! allocator is per-process, and a sibling `#[test]` allocating on another
//! thread while the counter is armed would make the count meaningless.
//! Keep this file at exactly one test.

use figlut_trace::{counters, Event};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations (alloc / alloc_zeroed / realloc) while armed.
///
/// The armed flag is thread-local (const-initialized, so reading it never
/// allocates): only the test thread's own allocations count, and a
/// harness thread allocating concurrently cannot fail the audit.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn armed() -> bool {
    // try_with: the allocator can run during TLS teardown.
    ARMED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method bumps a lock-free counter and then defers to
// `System` with the caller's layout/pointer arguments unchanged, so
// `System`'s allocator contract is upheld verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwards the caller's contract to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
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
fn disabled_trace_path_is_allocation_free() {
    assert!(
        !figlut_trace::enabled(),
        "no session installed in this test"
    );

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));

    // Exactly what an instrumented hot path can execute while disabled.
    for i in 0..100u64 {
        if figlut_trace::enabled() {
            unreachable!("tracing must stay disabled here");
        }
        counters::bump_exec_calls(1);
        counters::bump_exec_streamed_words(i);
        counters::bump_exec_ktiles(3);
        counters::bump_model_decode_rows(1);
        counters::bump_kv_swap_out_rows(i);
        counters::bump_serve_steps(1);
        let args = [("rows", i), ("queue", 2)];
        figlut_trace::emit(&Event::Span {
            name: "Decode",
            ts: i,
            dur: 1,
            args: &args,
        });
        figlut_trace::emit(&Event::Instant {
            name: "admit",
            ts: i,
            args: &args[..1],
        });
        figlut_trace::emit(&Event::Counter {
            name: "queue_depth",
            ts: i,
            value: 2,
        });
        let _ = figlut_trace::run_base();
        figlut_trace::end_run(i);
    }

    ARMED.with(|a| a.set(false));
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(allocs, 0, "disabled trace path allocated {allocs} times");

    // And nothing leaked into the registry either.
    assert_eq!(counters::snapshot(), counters::Counters::default());
}
