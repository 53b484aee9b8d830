#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # figlut-audit — workspace-wide static invariant checker
//!
//! The workspace's signature property — every served token stream is
//! bit-identical to a solo run, across threads, policies, paging, and
//! injected faults — is enforced dynamically by the property suites and
//! golden traces. This crate is the *static* sibling of those gates: a
//! dependency-free source-level analyzer (its own lexer, its own JSON
//! writer, nothing from the registry) that walks every workspace crate
//! and turns repo-specific correctness rules into build-time errors.
//! DESIGN.md §11 documents each rule and the allowance grammar.
//!
//! Five lint families (exit-code bit in parentheses):
//!
//! * **determinism (1)** — forbids randomized or wall-clock constructs
//!   (`HashMap`, `HashSet`, `Instant`, `SystemTime`, thread-id reads) in
//!   audited code; in the deterministic core crates' `src/` not even an
//!   allowance can excuse them. In those crates' shipping `src/` — and
//!   only there, not in tests, benches or the harness crates — a `static`
//!   holding `Atomic*`, `Mutex`, `RwLock`, `Cell` or `RefCell` outside
//!   `thread_local!` is a finding too: state one thread writes and a
//!   sibling reads belongs to a value its user owns (write-once
//!   `OnceLock` constants pass).
//! * **unsafe-discipline (2)** — every `unsafe` needs a `SAFETY:`
//!   comment; crates whose `src/` has no `unsafe` must declare
//!   `#![forbid(unsafe_code)]`.
//! * **panic-path (4)** — inventories `unwrap`/`expect`/`panic!`-class
//!   sites in shipping `src/`; each is either justified by an inline
//!   allowance or grandfathered in a committed baseline; new unjustified
//!   sites fail the audit.
//! * **lock-discipline (8)** — `Mutex::lock()` call sites must recover
//!   from poisoning (the `BlockPool` pattern) instead of unwrapping it,
//!   and acquiring two distinct locks in one function is flagged for
//!   ordering review.
//! * **reconciliation (16)** — every counter declared in
//!   `figlut-trace`'s `registry!` block must be incremented somewhere
//!   and named in DESIGN.md; every experiment id registered in
//!   `figlut-bench` must have a CI smoke (directly in the workflow or
//!   via a test that CI runs) or a recorded exemption.
//!
//! Run it as `repro audit` or `cargo run -p figlut-audit`; `--json`
//! emits machine-readable output, `--update-baseline` regenerates the
//! panic-path baseline after an intentional change.
//!
//! ```
//! use figlut_audit::{audit, Config};
//! let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
//! let report = audit(&Config::for_workspace(root)).unwrap();
//! assert_eq!(report.exit_code(), 0, "{}", report.render());
//! ```

pub mod determinism;
pub mod locks;
pub mod markers;
pub mod panics;
pub mod reconcile;
pub mod scrub;
pub mod unsafety;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The five lint families. Each owns one bit of the process exit code so
/// CI logs can be decoded without re-running the tool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Randomized-iteration / wall-clock / thread-id constructs.
    Determinism,
    /// `SAFETY:` comments and `#![forbid(unsafe_code)]` coverage.
    Unsafety,
    /// The `unwrap`/`expect`/`panic!` inventory against its baseline.
    PanicPath,
    /// Mutex poison recovery and nested-acquisition review.
    LockDiscipline,
    /// Counter-registry and experiment-registry reconciliation.
    Reconcile,
}

impl Lint {
    /// Stable lint name used in reports, JSON, and allowance markers.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Determinism => "determinism",
            Lint::Unsafety => "unsafe-discipline",
            Lint::PanicPath => "panic-path",
            Lint::LockDiscipline => "lock-discipline",
            Lint::Reconcile => "reconcile",
        }
    }

    /// Exit-code bit for this family.
    pub fn bit(self) -> i32 {
        match self {
            Lint::Determinism => 1,
            Lint::Unsafety => 2,
            Lint::PanicPath => 4,
            Lint::LockDiscipline => 8,
            Lint::Reconcile => 16,
        }
    }
}

/// One violation, anchored to a workspace-relative file and 1-based line
/// (line 0 means the finding concerns the file or workspace as a whole).
#[derive(Clone, Debug)]
pub struct Finding {
    /// The family that produced the finding.
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line, or 0 for file/workspace-level findings.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// What to audit and where the committed side files live. All paths are
/// resolved relative to [`Config::root`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root (the directory holding `Cargo.toml` and `crates/`).
    pub root: PathBuf,
    /// Crates whose `src/` must stay strictly deterministic: inside
    /// them, `audit: allow(determinism)` markers are themselves
    /// findings (outside `#[cfg(test)]` modules).
    pub deterministic_crates: Vec<String>,
    /// Committed panic-path baseline (grandfathered unjustified sites).
    pub baseline: PathBuf,
    /// Committed experiment-smoke exemptions (`id: reason` lines).
    pub exemptions: PathBuf,
    /// The `registry!` block declaring the trace counters.
    pub counters_file: PathBuf,
    /// The file declaring the `EXPERIMENTS` id array.
    pub experiments_file: PathBuf,
    /// The design document counters must be named in.
    pub design_file: PathBuf,
    /// The CI workflow experiment ids must be smoked from.
    pub ci_file: PathBuf,
    /// Directories (relative to root) scanned for test files that count
    /// as CI smokes (CI runs `cargo test`).
    pub smoke_test_dirs: Vec<PathBuf>,
}

impl Config {
    /// The configuration for this repository's layout.
    pub fn for_workspace(root: impl Into<PathBuf>) -> Config {
        let root = root.into();
        Config {
            deterministic_crates: [
                "figlut-num",
                "figlut-gemm",
                "figlut-lut",
                "figlut-exec",
                "figlut-model",
                "figlut-serve",
                "figlut-trace",
                "figlut-sim",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            baseline: root.join("crates/figlut-audit/panic_baseline.txt"),
            exemptions: root.join("crates/figlut-audit/experiment_exemptions.txt"),
            counters_file: root.join("crates/figlut-trace/src/counters.rs"),
            experiments_file: root.join("crates/figlut-bench/src/experiments.rs"),
            design_file: root.join("DESIGN.md"),
            ci_file: root.join(".github/workflows/ci.yml"),
            smoke_test_dirs: vec![
                PathBuf::from("crates/figlut-bench/tests"),
                PathBuf::from("tests"),
            ],
            root,
        }
    }
}

/// Whether a file ships in the library (`src/`) or only runs under
/// `cargo test` (`tests/`). Benches and examples are not audited: there,
/// wall-clock timing is the deliverable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// A file under some crate's `src/`.
    Src,
    /// A file under some crate's `tests/`.
    Test,
}

/// One audited source file, scrubbed and annotated.
pub struct SourceFile {
    /// Workspace-relative path (display form, `/`-separated).
    pub rel: String,
    /// Crate the file belongs to (directory name, or `figlut` for the
    /// root facade package).
    pub krate: String,
    /// `src/` vs `tests/`.
    pub scope: Scope,
    /// Line-aligned code/comment channels.
    pub scrubbed: scrub::Scrubbed,
    /// `#[cfg(test)] mod` line ranges within the file.
    pub test_regions: Vec<std::ops::Range<usize>>,
    /// Raw text (reconciliation needs literal string contents).
    pub raw: String,
}

/// The result of one audit pass.
pub struct Report {
    /// All findings, sorted by (lint, file, line).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Panic-path sites carrying an `allow(panic)` justification.
    pub panics_justified: usize,
    /// Panic-path sites grandfathered by the baseline.
    pub panics_baselined: usize,
    /// Counters reconciled from the `registry!` block (0 means the
    /// registry source was absent — fixture workspaces).
    pub counters_checked: usize,
    /// Experiment ids reconciled against CI (0 means absent).
    pub experiments_checked: usize,
    /// The baseline content that `--update-baseline` would write.
    pub fresh_baseline: String,
}

impl Report {
    /// Bitwise OR of the [`Lint::bit`]s of every family with findings.
    pub fn exit_code(&self) -> i32 {
        self.findings.iter().fold(0, |acc, f| acc | f.lint.bit())
    }

    /// Human-readable report: one `file:line: [lint] message` per
    /// finding, then a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}",
                f.file,
                f.line,
                f.lint.name(),
                f.message
            );
        }
        let mut per: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.findings {
            *per.entry(f.lint.name()).or_default() += 1;
        }
        let _ = writeln!(
            out,
            "audit: {} finding(s) across {} file(s); {} justified + {} baselined panic site(s); \
             {} counter(s), {} experiment(s) reconciled",
            self.findings.len(),
            self.files_scanned,
            self.panics_justified,
            self.panics_baselined,
            self.counters_checked,
            self.experiments_checked,
        );
        for (name, n) in per {
            let _ = writeln!(out, "  {name}: {n}");
        }
        out
    }

    /// Machine-readable JSON (hand-rolled; the crate is dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                f.lint.name(),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            );
        }
        let _ = write!(
            out,
            "],\"files_scanned\":{},\"panics_justified\":{},\"panics_baselined\":{},\
             \"counters_checked\":{},\"experiments_checked\":{},\"exit_code\":{}}}",
            self.files_scanned,
            self.panics_justified,
            self.panics_baselined,
            self.counters_checked,
            self.experiments_checked,
            self.exit_code()
        );
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Run every lint family over the workspace at `cfg.root`.
///
/// # Errors
///
/// Returns an error string when the root is unreadable or contains no
/// audited sources — never for findings (those land in the [`Report`]).
pub fn audit(cfg: &Config) -> Result<Report, String> {
    let files = collect_sources(cfg)?;
    if files.is_empty() {
        return Err(format!(
            "no audited sources under {} (expected crates/*/src or src/)",
            cfg.root.display()
        ));
    }

    let mut markers = markers::collect(&files);
    let mut findings = Vec::new();

    determinism::check(cfg, &files, &mut markers, &mut findings);
    unsafety::check(cfg, &files, &mut findings);
    let inventory = panics::check(cfg, &files, &mut markers, &mut findings);
    locks::check(&files, &mut markers, &mut findings);
    let recon = reconcile::check(cfg, &files, &mut findings);

    markers.flag_unused(&mut findings);

    findings.sort_by(|a, b| {
        (a.lint, &a.file, a.line, &a.message).cmp(&(b.lint, &b.file, b.line, &b.message))
    });

    Ok(Report {
        findings,
        files_scanned: files.len(),
        panics_justified: inventory.justified,
        panics_baselined: inventory.baselined,
        counters_checked: recon.counters_checked,
        experiments_checked: recon.experiments_checked,
        fresh_baseline: inventory.fresh_baseline,
    })
}

/// CLI driver shared by the `figlut-audit` binary and `repro audit`:
/// audit `root`, print the report (`--json` form when `json`), and
/// return the process exit code — the OR of failing [`Lint::bit`]s, 0
/// when clean, 64 on I/O errors. With `update_baseline`, rewrite the
/// panic-path baseline from the current tree first, then report against
/// it (so the verdict reflects the file just written).
pub fn run_cli(root: &Path, json: bool, update_baseline: bool) -> i32 {
    let cfg = Config::for_workspace(root);
    let report = match audit(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit error: {e}");
            return 64;
        }
    };
    if update_baseline {
        if let Err(e) = std::fs::write(&cfg.baseline, &report.fresh_baseline) {
            eprintln!("audit error: cannot write {}: {e}", cfg.baseline.display());
            return 64;
        }
        eprintln!("wrote {}", cfg.baseline.display());
        return run_cli(root, json, false);
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    report.exit_code()
}

/// Discover and scrub every audited source file: `crates/*/{src,tests}`
/// plus the root package's `src/` and `tests/`. `vendor/` (API shims of
/// external crates), `benches/`, and `examples/` are out of scope.
fn collect_sources(cfg: &Config) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let crates_dir = cfg.root.join("crates");
    let mut crate_dirs: Vec<(String, PathBuf)> = Vec::new();
    if crates_dir.is_dir() {
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() {
                crate_dirs.push((entry.file_name().to_string_lossy().into_owned(), path));
            }
        }
    }
    // The root facade package, when present.
    if cfg.root.join("src").is_dir() {
        crate_dirs.push(("figlut".to_string(), cfg.root.clone()));
    }
    crate_dirs.sort();

    for (krate, dir) in crate_dirs {
        for (sub, scope) in [("src", Scope::Src), ("tests", Scope::Test)] {
            let base = dir.join(sub);
            if !base.is_dir() {
                continue;
            }
            let mut paths = Vec::new();
            walk_rs(&base, &mut paths)?;
            paths.sort();
            for p in paths {
                let raw = std::fs::read_to_string(&p)
                    .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
                let scrubbed = scrub::scrub(&raw);
                let test_regions = scrub::cfg_test_regions(&scrubbed);
                let rel = p
                    .strip_prefix(&cfg.root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile {
                    rel,
                    krate: krate.clone(),
                    scope,
                    scrubbed,
                    test_regions,
                    raw,
                });
            }
        }
    }
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Fixture corpora under tests/ are lint *inputs*, not audited
            // sources of the crate that carries them.
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
