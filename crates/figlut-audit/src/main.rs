#![forbid(unsafe_code)]
//! `figlut-audit` — run the workspace static invariant checker.
//!
//! ```text
//! figlut-audit                       # audit the enclosing workspace
//! figlut-audit --json                # machine-readable findings
//! figlut-audit --root <dir>          # audit another tree
//! ```
//!
//! Exit code: bitwise OR of the failing lint families (determinism 1,
//! unsafe-discipline 2, panic-path 4, lock-discipline 8, reconcile 16);
//! 0 when clean; 64 for usage or I/O errors.

use figlut_audit::run_cli;
use std::path::PathBuf;

fn main() {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => usage_error("--root needs a directory argument"),
            },
            other => usage_error(&format!(
                "unknown argument '{other}' (try --json, --root <dir>)"
            )),
        }
    }
    let Some(root) = root.or_else(discover_root) else {
        usage_error("no workspace root found (no ancestor with Cargo.toml and crates/)");
    };
    std::process::exit(run_cli(&root, json));
}

/// Walk up from the current directory to the first workspace-shaped
/// ancestor (has `Cargo.toml` and a `crates/` directory).
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(64);
}
