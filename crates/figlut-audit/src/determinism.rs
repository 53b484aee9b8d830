//! Determinism lint: forbid constructs whose behavior varies across
//! processes, hosts, or schedules.
//!
//! The workspace's core guarantee is that every result — kernel output,
//! served token stream, trace, CSV — is a pure function of its inputs
//! and seeds. `std::collections::HashMap`/`HashSet` iterate in
//! random-hasher order, `Instant`/`SystemTime` read wall clocks, and
//! thread-identity reads make logic depend on scheduling; any of them
//! can silently break the bit-identity gates. Hits are findings
//! everywhere the audit looks; outside the deterministic core an
//! `allow(determinism)` marker with a justification suppresses them
//! (e.g. `figlut-bench`'s wall-clock throughput timers, where elapsed
//! time *is* the measurement). Inside the deterministic crates' shipping
//! `src/`, the allowance itself is rejected — those crates must stay
//! clean, full stop.
//!
//! One rule applies *only* there: a `static` whose type names `Atomic*`,
//! `Mutex`, `RwLock`, `Cell` or `RefCell` outside `thread_local!` is
//! process-wide mutable state — whatever one thread writes, a sibling
//! thread's result can read (the trace session and the KV checksum switch
//! were both this). State belongs to a value its user owns, or to the
//! thread. Write-once constants (`OnceLock<usize>`) are not mutable state
//! and pass; tests, benches and the non-deterministic crates are out of
//! the rule's scope.

use crate::markers::{is_test_code, Markers};
use crate::scrub::{braced_regions, in_regions, words};
use crate::{Config, Finding, Lint, SourceFile};

/// Forbidden identifiers and why each is nondeterministic.
const FORBIDDEN: &[(&str, &str)] = &[
    ("HashMap", "random-hasher iteration order"),
    ("HashSet", "random-hasher iteration order"),
    ("DefaultHasher", "randomly keyed hasher"),
    ("RandomState", "randomly keyed hasher"),
    ("ThreadId", "thread-identity-dependent logic"),
];

/// Non-identifier patterns matched on the scrubbed code text. The clock
/// types are matched as paths, not bare words — `Event::Instant` is this
/// workspace's own (virtual-tick) trace variant, while reaching the std
/// clocks requires either the `time::…` import or the `…::now` call.
const FORBIDDEN_PATTERNS: &[(&str, &str)] = &[
    ("thread::current", "thread-identity read"),
    ("Instant::now", "wall-clock read"),
    ("SystemTime::now", "wall-clock read"),
    ("time::Instant", "wall-clock type"),
    ("time::SystemTime", "wall-clock type"),
];

/// Interior-mutable types a deterministic crate's `static` may not hold
/// (any `Atomic*` too — see the module docs).
const SHARED_MUTABLE: &[&str] = &["Mutex", "RwLock", "Cell", "RefCell"];

/// If `code` opens a `static` item, the interior-mutable type word its
/// declaration (up to the `=`) names, if any.
fn shared_mutable_static(code: &str) -> Option<&str> {
    let head = code.trim_start();
    let head = match head.strip_prefix("pub") {
        Some(rest) => rest[rest.find(' ')?..].trim_start(),
        None => head,
    };
    let decl = head.strip_prefix("static ")?.split('=').next()?;
    words(decl).find(|w| w.starts_with("Atomic") || SHARED_MUTABLE.contains(w))
}

/// Run the lint over every audited file.
pub fn check(
    cfg: &Config,
    files: &[SourceFile],
    markers: &mut Markers,
    findings: &mut Vec<Finding>,
) {
    for (fi, file) in files.iter().enumerate() {
        let strict_crate = cfg.deterministic_crates.contains(&file.krate);
        let thread_locals = braced_regions(&file.scrubbed, "thread_local!");
        for (line, code) in file.scrubbed.code.iter().enumerate() {
            let mut hits: Vec<(&str, &str)> = Vec::new();
            let strict = strict_crate && !is_test_code(file, line);
            if strict && !in_regions(&thread_locals, line) {
                if let Some(ty) = shared_mutable_static(code) {
                    hits.push((ty, "in a `static`: process-wide mutable state"));
                }
            }
            for &(word, why) in FORBIDDEN {
                if words(code).any(|w| w == word) {
                    hits.push((word, why));
                }
            }
            for &(pat, why) in FORBIDDEN_PATTERNS {
                if code.contains(pat) {
                    hits.push((pat, why));
                }
            }
            if hits.is_empty() {
                continue;
            }
            let allowed = markers.take(fi, line, "determinism");
            for (what, why) in hits {
                if allowed && !strict {
                    continue;
                }
                let message = if allowed {
                    format!(
                        "`{what}` ({why}) — determinism allowances are not permitted in a \
                         deterministic crate's src/; fix the construct instead"
                    )
                } else {
                    format!(
                        "nondeterministic construct `{what}` ({why}) — use an ordered \
                         structure / virtual clock, or justify with \
                         `audit: allow(determinism) — <why>`"
                    )
                };
                findings.push(Finding {
                    lint: Lint::Determinism,
                    file: file.rel.clone(),
                    line: line + 1,
                    message,
                });
            }
        }
    }
}
