//! Counter reconciliation lint.
//!
//! Observability that drifts from reality is worse than none, so every
//! counter declared in `figlut-trace`'s `registry!` block must be
//! **live** (its `bump_*` function called somewhere outside the registry)
//! and **documented** (its field name appears in DESIGN.md). A counter
//! failing either check is dead weight that silently reports zero.
//!
//! The check is skipped when the registry source is absent (the fixture
//! workspaces without one); the returned count says whether it ran — the
//! self-audit test pins it for the real workspace.
//!
//! Experiments need no such lint: CI runs `repro`'s whole experiment
//! table and compares every committed `results/` artifact, so neither
//! list can drift from the code.

use crate::{Config, Finding, Lint, Scope, SourceFile};
use std::path::Path;

fn rel_of(cfg: &Config, path: &Path) -> String {
    path.strip_prefix(&cfg.root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Reconcile the counter registry against its call sites and DESIGN.md,
/// returning the number of counters checked (0 when the registry source
/// is absent).
pub fn check(cfg: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) -> usize {
    let Ok(text) = std::fs::read_to_string(&cfg.counters_file) else {
        return 0;
    };
    let rel = rel_of(cfg, &cfg.counters_file);
    let scrubbed = crate::scrub::scrub(&text);
    let entries = registry_entries(&scrubbed);
    if entries.is_empty() {
        findings.push(Finding {
            lint: Lint::Reconcile,
            file: rel.clone(),
            line: 0,
            message: "no `bump_x, field;` entries found in the `registry!` block".into(),
        });
        return 0;
    }
    let design = std::fs::read_to_string(&cfg.design_file).unwrap_or_default();
    for (line, bump, field) in &entries {
        let call = format!("{bump}(");
        let live = files.iter().any(|f| {
            f.scope == Scope::Src
                && f.rel != rel
                && f.scrubbed.code.iter().any(|c| c.contains(&call))
        });
        if !live {
            findings.push(Finding {
                lint: Lint::Reconcile,
                file: rel.clone(),
                line: line + 1,
                message: format!(
                    "counter `{field}` is declared but `{bump}` is never called — \
                     instrument the code path or delete the counter"
                ),
            });
        }
        if !contains_word(&design, field) {
            findings.push(Finding {
                lint: Lint::Reconcile,
                file: rel.clone(),
                line: line + 1,
                message: format!(
                    "counter `{field}` is not named in {} — document what it reconciles \
                     against",
                    rel_of(cfg, &cfg.design_file)
                ),
            });
        }
    }
    entries.len()
}

/// Parse `bump_x, field;` pairs out of the `registry! { … }`
/// invocation, returning `(0-based line, bump, field)`.
fn registry_entries(scrubbed: &crate::scrub::Scrubbed) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    let Some(start) = scrubbed.code.iter().position(|c| c.contains("registry!")) else {
        return out;
    };
    let mut depth = 0i32;
    let mut opened = false;
    for (i, code) in scrubbed.code.iter().enumerate().skip(start) {
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        let line = code.trim();
        if opened && depth > 0 {
            if let Some(body) = line.strip_suffix(';') {
                let parts: Vec<&str> = body.split(',').map(str::trim).collect();
                if let [bump, field] = parts[..] {
                    if is_ident(bump) && is_ident(field) {
                        out.push((i, bump.to_string(), field.to_string()));
                    }
                }
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    out
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// `word` present in `text` with no identifier character on either side.
fn contains_word(text: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let before_ok =
            at == 0 || !text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '-');
        let after = &text[at + word.len()..];
        let after_ok = !after.starts_with(|c: char| c.is_alphanumeric() || c == '_' || c == '-');
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}
