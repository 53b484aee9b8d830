//! Peak-memory pin of weight preparation: `quantize_model` and `to_packed`
//! hold no second FP copy of the model.
//!
//! Each builds its output linear by linear from borrowed weights, so above
//! what the caller already holds (the FP teacher) RTN Q4 then packing
//! needs only the two models it returns — the quantized one (a byte a
//! weight), the packed one (≈ 0.6 byte a weight), each with its own copy
//! of the embeddings and biases — and one layer's transients: under a
//! quarter of the teacher's FP-linear bytes (eight a weight). Cloning the
//! teacher, or its linears, would alone cost all of them. The model has
//! four d-256 layers: at two, the two copies of the embeddings alone are
//! 4 % of the linears' bytes, and what the returned models must hold reads
//! 0.26 of them.
//!
//! This lives in its own integration-test binary on purpose — a global
//! allocator is per-process, and a sibling `#[test]` allocating on another
//! thread would move the high-water mark. Keep this file at exactly one
//! test.

use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::Corpus;
use figlut_model::{ModelConfig, Transformer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method updates lock-free counters and then defers to
// `System` with the caller's layout/pointer arguments unchanged, so
// `System`'s allocator contract is upheld verbatim.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwards the caller's contract to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[test]
fn quantize_and_pack_hold_no_second_fp_copy() {
    let teacher = Transformer::teacher(ModelConfig::scaled(4, 256, 4), 102);
    let fp_bytes: usize = (teacher.linear_weights().iter())
        .map(|w| w.shape().0 * w.shape().1 * size_of::<f64>())
        .sum();
    let calib = Corpus {
        sequences: Vec::new(),
    };

    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let (quantized, _) = quantize_model(&teacher, &calib, Method::Rtn { bits: 4 });
    let packed = to_packed(&quantized);
    let above = PEAK.load(Ordering::SeqCst) - entry;
    drop((packed, quantized));

    assert!(
        above * 4 <= fp_bytes,
        "preparation peaked {above} B above entry, over a quarter of the \
         teacher's {fp_bytes} FP-linear bytes"
    );
}
