//! Fixture-workspace tests: every lint family is proven to fire on a
//! failing mini-workspace and to stay silent on a passing one, and the
//! audit passes over this repository's own source.

use figlut_audit::{audit, Config, Lint, Report};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(root: PathBuf) -> Report {
    audit(&Config::for_workspace(root)).expect("fixture audit runs")
}

/// `report` has a finding of `lint` whose file contains `file` and whose
/// message contains `msg`.
fn has(report: &Report, lint: Lint, file: &str, msg: &str) -> bool {
    report
        .findings
        .iter()
        .any(|f| f.lint == lint && f.file.contains(file) && f.message.contains(msg))
}

#[test]
fn failing_workspace_fires_every_lint_family() {
    let r = run(fixture("failing"));

    // determinism: HashMap in a deterministic crate, and an allowance
    // marker inside deterministic src is itself rejected.
    assert!(
        has(&r, Lint::Determinism, "figlut-num", "HashMap"),
        "{}",
        r.render()
    );
    assert!(
        has(
            &r,
            Lint::Determinism,
            "figlut-num",
            "allowances are not permitted"
        ),
        "{}",
        r.render()
    );

    // ... and so is a process-wide mutable `static` there.
    assert!(
        has(&r, Lint::Determinism, "figlut-num", "process-wide mutable"),
        "{}",
        r.render()
    );

    // unsafe-discipline: a bare unsafe fn, and an unsafe-free crate
    // whose root lacks #![forbid(unsafe_code)].
    assert!(has(&r, Lint::Unsafety, "tool", "SAFETY"), "{}", r.render());
    // ... and runtime detection and a `#[target_feature]` entry in a module
    // the crate root does not mark `#[allow(unsafe_code)]` (the passing
    // twin marks it).
    for marker in ["#[target_feature", "is_x86_feature_detected!"] {
        assert!(
            has(&r, Lint::Unsafety, "tool/src/simd.rs", marker),
            "{}",
            r.render()
        );
    }
    assert!(
        has(&r, Lint::Unsafety, "figlut-num", "#![forbid(unsafe_code)]"),
        "{}",
        r.render()
    );

    // panic-path: an unwrap with no marker.
    assert!(
        has(&r, Lint::PanicPath, "tool", "unjustified panic-path site"),
        "{}",
        r.render()
    );

    // lock-discipline: .lock().unwrap() and .lock().expect( both get the
    // poison-recovery finding, and the second distinct lock in one
    // function gets the ordering finding.
    let poison = r
        .findings
        .iter()
        .filter(|f| f.lint == Lint::LockDiscipline && f.message.contains("poison recovery"))
        .count();
    assert_eq!(poison, 2, "{}", r.render());
    assert!(
        has(&r, Lint::LockDiscipline, "tool", "second distinct lock"),
        "{}",
        r.render()
    );

    // reconcile: dead + undocumented counter, unknown marker key; plus
    // the marker-grammar findings (stale marker, missing justification).
    assert!(
        has(&r, Lint::Reconcile, "counters.rs", "never called"),
        "{}",
        r.render()
    );
    assert!(
        has(&r, Lint::Reconcile, "counters.rs", "not named"),
        "{}",
        r.render()
    );
    assert!(
        has(&r, Lint::Reconcile, "tool", "unknown allowance key"),
        "{}",
        r.render()
    );
    assert!(
        has(&r, Lint::PanicPath, "tool", "stale allowance"),
        "{}",
        r.render()
    );
    assert!(
        has(&r, Lint::LockDiscipline, "tool", "lacks a justification"),
        "{}",
        r.render()
    );

    // All five families set their exit bit.
    assert_eq!(r.exit_code(), 1 | 2 | 4 | 8 | 16, "{}", r.render());
}

#[test]
fn passing_workspace_is_clean() {
    let r = run(fixture("passing"));
    assert_eq!(r.exit_code(), 0, "{}", r.render());
    assert!(r.findings.is_empty(), "{}", r.render());
    // The justified constructs were actually seen, not skipped: the
    // allow(panic) markers (one standalone, one on the justified lock
    // unwrap) were consumed, and the counter registry reconciled.
    assert_eq!(r.panics_justified, 2, "{}", r.render());
    assert_eq!(r.counters_checked, 1);
}

#[test]
fn self_audit_is_clean_and_registries_are_fully_reconciled() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = audit(&Config::for_workspace(root)).expect("workspace audit");
    assert_eq!(r.exit_code(), 0, "{}", r.render());
    // Pin the reconciliation surface: if a counter is added, it must
    // arrive with a call site and documentation, and this count moves
    // with it.
    assert_eq!(r.counters_checked, 25, "{}", r.render());
    assert!(
        r.files_scanned > 80,
        "only {} files scanned",
        r.files_scanned
    );
}
