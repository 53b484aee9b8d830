//! Unsafe-discipline lint.
//!
//! Three rules:
//!
//! 1. Every line containing the `unsafe` keyword must be covered by a
//!    `SAFETY:` comment — on the same line or within the six lines
//!    above it (the rustc `undocumented_unsafe_blocks` convention,
//!    enforced here without needing the nightly lint).
//! 2. A crate whose `src/` contains no `unsafe` at all must say so in
//!    its entry points: `#![forbid(unsafe_code)]` in `src/lib.rs`,
//!    `src/main.rs`, and any `src/bin/*.rs` — so that introducing the
//!    first unsafe block is a deliberate, reviewed act rather than a
//!    drive-by.
//! 3. Runtime CPU detection (`is_x86_feature_detected!`) and
//!    `#[target_feature]` entry points appear in a `src/` file only if
//!    it is a module its crate root marks `#[allow(unsafe_code)]`: the
//!    code that picks and enters an instruction-set build lives in the
//!    one audited module, beside the `unsafe` that calls it.

use crate::scrub::words;
use crate::{Config, Finding, Lint, Scope, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// How far above an `unsafe` line a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 6;

/// What rule 3 confines to a crate's audited modules (matched with the
/// code's whitespace removed).
const FEATURE_MARKERS: [&str; 2] = ["#[target_feature", "is_x86_feature_detected!"];

/// Run the lint: per-site `SAFETY:` coverage, per-crate
/// `#![forbid(unsafe_code)]` coverage, and feature markers confined to
/// the audited modules.
pub fn check(_cfg: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let audited = audited_modules(files);
    for file in files
        .iter()
        .filter(|f| f.scope == Scope::Src && !audited.contains(&f.rel))
    {
        for (line, code) in file.scrubbed.code.iter().enumerate() {
            let squeezed: String = code.split_whitespace().collect();
            if let Some(marker) = FEATURE_MARKERS.iter().find(|m| squeezed.contains(*m)) {
                findings.push(Finding {
                    lint: Lint::Unsafety,
                    file: file.rel.clone(),
                    line: line + 1,
                    message: format!(
                        "`{marker}` outside the crate's `#[allow(unsafe_code)]` module — \
                         runtime detection and feature entry points belong in the one \
                         audited module"
                    ),
                });
            }
        }
    }

    // crate -> does any src/ file use `unsafe`?
    let mut crate_has_unsafe: BTreeMap<&str, bool> = BTreeMap::new();

    for file in files {
        let mut any = false;
        for (line, code) in file.scrubbed.code.iter().enumerate() {
            if !words(code).any(|w| w == "unsafe") {
                continue;
            }
            any = true;
            let covered = (line.saturating_sub(SAFETY_WINDOW)..=line)
                .any(|l| file.scrubbed.comments[l].contains("SAFETY"));
            if !covered {
                findings.push(Finding {
                    lint: Lint::Unsafety,
                    file: file.rel.clone(),
                    line: line + 1,
                    message: "`unsafe` without a `// SAFETY:` comment (same line or the \
                              few lines above) stating why the contract holds"
                        .into(),
                });
            }
        }
        if file.scope == Scope::Src {
            *crate_has_unsafe.entry(file.krate.as_str()).or_default() |= any;
        }
    }

    for (krate, has_unsafe) in crate_has_unsafe {
        if has_unsafe {
            continue;
        }
        for file in files
            .iter()
            .filter(|f| f.krate == krate && f.scope == Scope::Src)
        {
            if !is_target_root(&file.rel) {
                continue;
            }
            let declared = file.scrubbed.code.iter().any(|c| {
                c.split_whitespace()
                    .collect::<String>()
                    .contains("#![forbid(unsafe_code)]")
            });
            if !declared {
                findings.push(Finding {
                    lint: Lint::Unsafety,
                    file: file.rel.clone(),
                    line: 0,
                    message: format!(
                        "crate `{krate}` has no unsafe code in src/ — declare \
                         `#![forbid(unsafe_code)]` in this target root"
                    ),
                });
            }
        }
    }
}

/// Workspace-relative paths of the modules a crate's target root marks
/// `#[allow(unsafe_code)]`: the `mod name` on the attribute's line or the
/// next two, as `name.rs` or `name/mod.rs` beside the root.
fn audited_modules(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files
        .iter()
        .filter(|f| f.scope == Scope::Src && is_target_root(&f.rel))
    {
        let dir = &file.rel[..file.rel.rfind('/').map_or(0, |i| i + 1)];
        let code = &file.scrubbed.code;
        for (i, line) in code.iter().enumerate() {
            let squeezed: String = line.split_whitespace().collect();
            if !squeezed.contains("#[allow(unsafe_code)]") {
                continue;
            }
            let name = code[i..code.len().min(i + 3)].iter().find_map(|l| {
                let w: Vec<&str> = words(l).collect();
                let at = w.iter().position(|&w| w == "mod")?;
                w.get(at + 1).copied()
            });
            if let Some(name) = name {
                out.insert(format!("{dir}{name}.rs"));
                out.insert(format!("{dir}{name}/mod.rs"));
            }
        }
    }
    out
}

/// Is this src file the root of a compilation target (lib, main, or a
/// `src/bin/*` binary)? Only target roots can carry inner attributes.
fn is_target_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs")
        || rel.ends_with("src/main.rs")
        || (rel.contains("/src/bin/") && rel.ends_with(".rs"))
}
