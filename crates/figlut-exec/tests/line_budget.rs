//! The kernel's line budget: the five kernel files may not grow past
//! [`BUDGET`] non-test lines, counting every line before a file's unit-test
//! module (`#[cfg(test)]` then `mod tests`), test-only items above it
//! included. A change that grows the kernel raises the constant in its own
//! diff.

/// Non-test lines of `kernel.rs`, `plan.rs`, `packed.rs`, `lut.rs` and
/// `shuffle.rs` together.
const BUDGET: usize = 1812;

const FILES: [(&str, &str); 5] = [
    ("kernel.rs", include_str!("../src/kernel.rs")),
    ("plan.rs", include_str!("../src/plan.rs")),
    ("packed.rs", include_str!("../src/packed.rs")),
    ("lut.rs", include_str!("../src/lut.rs")),
    ("shuffle.rs", include_str!("../src/shuffle.rs")),
];

/// Lines of `src` before its unit-test module.
fn non_test_lines(src: &str) -> usize {
    let lines: Vec<&str> = src.lines().map(str::trim_start).collect();
    lines
        .windows(2)
        .position(|l| l[0].starts_with("#[cfg(test)]") && l[1].starts_with("mod tests"))
        .unwrap_or(lines.len())
}

#[test]
fn kernel_files_stay_within_their_line_budget() {
    let counts = FILES.map(|(name, src)| (name, non_test_lines(src)));
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    assert!(
        total <= BUDGET,
        "the kernel files hold {total} non-test lines, over the budget of {BUDGET}: {counts:?}"
    );
}
