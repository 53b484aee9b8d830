//! Deterministic-crate fixture that violates the determinism lint.

use std::collections::HashMap;

pub fn lookup(m: &HashMap<u32, u32>, k: u32) -> Option<u32> {
    m.get(&k).copied()
}

// audit: allow(determinism) — markers are banned in deterministic src, so this is a finding
pub type Clock = std::time::Instant;

pub static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
