//! Fixture crate violating the unsafe, panic, lock, and marker rules.

// Runtime detection outside an `#[allow(unsafe_code)]` module.
pub mod simd;

use std::sync::Mutex;

pub static A: Mutex<u32> = Mutex::new(0);
pub static B: Mutex<u32> = Mutex::new(0);

pub fn read_both() -> u32 {
    let a = *A.lock().unwrap();
    let b = *B.lock().expect("poisoned");
    a + b
}

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub unsafe fn peek(p: *const u32) -> u32 {
    unsafe { *p }
}

// audit: allow(bogus) — unknown keys must be findings, not silent no-ops
pub fn unknown_key() {}

// audit: allow(panic) — suppresses nothing on the next line
pub fn stale_marker() {}

// audit: allow(lock)
pub fn missing_justification() {}
