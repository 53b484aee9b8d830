//! Fixture-workspace tests: every lint family is proven to fire on a
//! failing mini-workspace and to stay silent on a passing one, the
//! committed baseline workflow is exercised end to end (generate →
//! clean → drift → caught), and the audit passes over this repository's
//! own source.

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
    assert!(
        has(&r, Lint::Unsafety, "figlut-num", "#![forbid(unsafe_code)]"),
        "{}",
        r.render()
    );

    // panic-path: an unwrap with no marker and no baseline.
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

    // reconcile: dead + undocumented counter, unsmoked experiment,
    // unused exemption, unknown marker key; plus the marker-grammar
    // findings (stale marker, missing justification).
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
        has(&r, Lint::Reconcile, "experiments.rs", "no CI smoke"),
        "{}",
        r.render()
    );
    assert!(
        has(&r, Lint::Reconcile, "experiment_exemptions.txt", "unused"),
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
    // unwrap) were consumed, and both registries reconciled.
    assert_eq!(r.panics_justified, 2, "{}", r.render());
    assert_eq!(r.counters_checked, 1);
    assert_eq!(r.experiments_checked, 2);
}

/// Copy a fixture tree into a scratch dir so `--update-baseline` and
/// source edits never touch the repository.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("readdir").flatten() {
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy");
        }
    }
}

#[test]
fn baseline_drift_is_caught() {
    let scratch = std::env::temp_dir().join(format!("figlut-audit-drift-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(&fixture("drift"), &scratch);
    let cfg = Config::for_workspace(&scratch);

    // 1. Ungoverned unwrap, no baseline: flagged.
    let r = audit(&cfg).expect("audit");
    assert!(
        has(&r, Lint::PanicPath, "app", "unjustified"),
        "{}",
        r.render()
    );

    // 2. Grandfather it the way `repro audit --update-baseline` does.
    std::fs::create_dir_all(cfg.baseline.parent().expect("baseline dir")).expect("mkdir");
    std::fs::write(&cfg.baseline, &r.fresh_baseline).expect("write baseline");
    let r = audit(&cfg).expect("audit");
    assert_eq!(r.exit_code(), 0, "{}", r.render());
    assert_eq!(r.panics_baselined, 1, "{}", r.render());

    // 3. Drift: a NEW unjustified unwrap is caught even though the old
    // site stays grandfathered.
    let lib = scratch.join("crates/app/src/lib.rs");
    let mut src = std::fs::read_to_string(&lib).expect("read lib");
    src.push_str("\npub fn last(v: &[u32]) -> u32 {\n    *v.last().unwrap()\n}\n");
    std::fs::write(&lib, src.clone()).expect("write lib");
    let r = audit(&cfg).expect("audit");
    assert!(
        has(&r, Lint::PanicPath, "app", "unjustified"),
        "{}",
        r.render()
    );
    assert_eq!(r.panics_baselined, 1, "{}", r.render());

    // 4. Removing every site makes the baseline entry stale — also a
    // finding, so the inventory can only shrink deliberately.
    let pruned: String = src
        .lines()
        .filter(|l| !l.contains("unwrap"))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&lib, pruned).expect("write lib");
    let r = audit(&cfg).expect("audit");
    assert!(
        has(&r, Lint::PanicPath, "app", "stale panic-baseline entry"),
        "{}",
        r.render()
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn self_audit_is_clean_and_registries_are_fully_reconciled() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = audit(&Config::for_workspace(root)).expect("workspace audit");
    assert_eq!(r.exit_code(), 0, "{}", r.render());
    // Pin the reconciliation surface: if a counter or experiment is
    // added, it must arrive with documentation and a smoke, and these
    // counts move with it.
    assert_eq!(r.counters_checked, 27, "{}", r.render());
    assert_eq!(r.experiments_checked, 26, "{}", r.render());
    assert!(
        r.files_scanned > 80,
        "only {} files scanned",
        r.files_scanned
    );
}
