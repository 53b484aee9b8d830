//! Fixture crate where every risky construct is justified or handled.

// The crate's one audited module: detection and feature entry points.
#[allow(unsafe_code)]
pub mod simd;

// audit: allow(determinism) — interning map; iteration order is never observed
use std::collections::HashMap;
use std::sync::Mutex;

pub static A: Mutex<u32> = Mutex::new(0);
pub static B: Mutex<u32> = Mutex::new(0);

// audit: allow(determinism) — alias for the justified interning map above
pub type Interner = HashMap<String, u32>;

pub fn intern(m: &mut Interner, k: &str) -> u32 {
    let next = m.len() as u32;
    *m.entry(k.to_string()).or_insert(next)
}

pub fn read_a() -> u32 {
    *A.lock().unwrap_or_else(|e| e.into_inner())
}

pub fn read_both() -> u32 {
    let a = *A.lock().unwrap_or_else(|e| e.into_inner());
    // audit: allow(lock-order) — A then B is the fixed order at every site
    let b = *B.lock().unwrap_or_else(|e| e.into_inner());
    a + b
}

pub fn read_b() -> u32 {
    // audit: allow(lock, panic) — no code path panics while B is held
    *B.lock().unwrap()
}

pub fn head(v: &[u32]) -> u32 {
    // audit: allow(panic) — callers guarantee a non-empty slice
    *v.first().unwrap()
}

// SAFETY: exposes a raw read; the caller upholds pointer validity.
pub unsafe fn peek(p: *const u32) -> u32 {
    // SAFETY: caller contract — `p` is valid for reads.
    unsafe { *p }
}

pub fn tick() {
    bump_live_counter(1);
}

fn bump_live_counter(_n: u64) {}
