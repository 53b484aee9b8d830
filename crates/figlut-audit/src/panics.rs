//! Panic-path inventory.
//!
//! Library code (`src/`, outside `#[cfg(test)]` modules) may only panic
//! on broken internal invariants or documented `# Panics` preconditions —
//! and each such site must say so. A site is **justified** when it
//! carries an `allow(panic)` marker with the invariant or precondition
//! spelled out. Every other site is a finding: return an error instead,
//! or write the marker.

use crate::markers::{is_test_code, Markers};
use crate::{Finding, Lint, Scope, SourceFile};

/// Call/macro patterns that abort the program when reached.
const PANIC_PATTERNS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    ".unwrap_err(",
    ".expect_err(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Flag every unjustified panic-path site and return the number of sites
/// justified by an `allow(panic)` marker.
pub fn check(files: &[SourceFile], markers: &mut Markers, findings: &mut Vec<Finding>) -> usize {
    let mut justified = 0usize;
    for (fi, file) in files.iter().enumerate() {
        if file.scope != Scope::Src {
            continue;
        }
        for (line, code) in file.scrubbed.code.iter().enumerate() {
            if is_test_code(file, line) {
                continue;
            }
            let hits: usize = PANIC_PATTERNS.iter().map(|p| code.matches(p).count()).sum();
            if hits == 0 {
                continue;
            }
            if markers.take(fi, line, "panic") {
                justified += hits;
                continue;
            }
            findings.push(Finding {
                lint: Lint::PanicPath,
                file: file.rel.clone(),
                line: line + 1,
                message: format!(
                    "{hits} unjustified panic-path site(s) at `{}` — return an error \
                     instead, or justify with `audit: allow(panic) — <invariant>`",
                    excerpt_of(&file.raw, line)
                ),
            });
        }
    }
    justified
}

fn excerpt_of(raw: &str, line: usize) -> String {
    let text = raw.lines().nth(line).unwrap_or("").trim();
    let mut ex: String = text.chars().take(80).collect();
    if ex.len() < text.len() {
        ex.push('…');
    }
    ex
}
