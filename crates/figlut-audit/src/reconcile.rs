//! Counter/experiment reconciliation lint.
//!
//! Observability that drifts from reality is worse than none, so the
//! audit cross-checks the two registries the workspace commits to:
//!
//! * Every counter declared in `figlut-trace`'s `registry!` block must
//!   be **live** (its `bump_*` function called somewhere outside the
//!   registry) and **documented** (its field name appears in
//!   DESIGN.md). A counter failing either check is dead weight that
//!   silently reports zero.
//! * Every experiment id in `figlut-bench`'s `EXPERIMENTS` table must
//!   have a CI smoke — the id appears in the CI workflow, or quoted in
//!   a test file that CI runs via `cargo test` — or a recorded
//!   exemption (`experiment_exemptions.txt`, `id: reason` lines).
//!   Unused exemptions are findings, so the exemption list cannot rot.
//!
//! Both sub-checks are skipped when their source file is absent (the
//! fixture workspaces), and the counts in [`Summary`] say what actually
//! ran — the self-audit test pins them for the real workspace.

use crate::{Config, Finding, Lint, Scope, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// What the reconciliation pass actually covered.
pub struct Summary {
    /// Counters parsed out of the `registry!` block.
    pub counters_checked: usize,
    /// Experiment ids parsed out of the `EXPERIMENTS` array.
    pub experiments_checked: usize,
}

/// Run both reconciliation sub-checks.
pub fn check(cfg: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) -> Summary {
    Summary {
        counters_checked: check_counters(cfg, files, findings),
        experiments_checked: check_experiments(cfg, findings),
    }
}

fn rel_of(cfg: &Config, path: &Path) -> String {
    path.strip_prefix(&cfg.root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn check_counters(cfg: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) -> usize {
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

fn check_experiments(cfg: &Config, findings: &mut Vec<Finding>) -> usize {
    let Ok(text) = std::fs::read_to_string(&cfg.experiments_file) else {
        return 0;
    };
    let rel = rel_of(cfg, &cfg.experiments_file);
    let ids = experiment_ids(&text);
    if ids.is_empty() {
        findings.push(Finding {
            lint: Lint::Reconcile,
            file: rel.clone(),
            line: 0,
            message: "no string literals found in the `EXPERIMENTS` array".into(),
        });
        return 0;
    }
    let ci = std::fs::read_to_string(&cfg.ci_file).unwrap_or_default();
    let mut smoke_texts = Vec::new();
    for dir in &cfg.smoke_test_dirs {
        let dir = cfg.root.join(dir);
        if let Ok(entries) = std::fs::read_dir(&dir) {
            let mut paths: Vec<_> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "rs"))
                .collect();
            paths.sort();
            for p in paths {
                if let Ok(t) = std::fs::read_to_string(&p) {
                    smoke_texts.push(t);
                }
            }
        }
    }
    let mut exemptions = load_exemptions(cfg);
    for id in &ids {
        let quoted = format!("\"{id}\"");
        let covered = contains_word(&ci, id) || smoke_texts.iter().any(|t| t.contains(&quoted));
        if covered {
            continue;
        }
        if let Some(used) = exemptions.get_mut(id.as_str()) {
            *used = true;
            continue;
        }
        findings.push(Finding {
            lint: Lint::Reconcile,
            file: rel.clone(),
            line: 0,
            message: format!(
                "experiment `{id}` has no CI smoke (not in {} or any smoke-test dir) and \
                 no exemption in {}",
                rel_of(cfg, &cfg.ci_file),
                rel_of(cfg, &cfg.exemptions)
            ),
        });
    }
    for (id, used) in exemptions {
        if !used {
            findings.push(Finding {
                lint: Lint::Reconcile,
                file: rel_of(cfg, &cfg.exemptions),
                line: 0,
                message: format!(
                    "exemption for `{id}` is unused (the experiment is smoked or gone) — \
                     remove it"
                ),
            });
        }
    }
    ids.len()
}

/// String literals of the file's first `EXPERIMENTS…` array — the
/// `(id, fn)` table, whose function paths are not literals — read from the
/// *raw* text: scrubbing would blank exactly the contents we need.
fn experiment_ids(text: &str) -> Vec<String> {
    let Some(start) = text.find("EXPERIMENTS") else {
        return Vec::new();
    };
    let Some(end) = text[start..].find("];") else {
        return Vec::new();
    };
    let body = &text[start..start + end];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        out.push(after[..close].to_string());
        rest = &after[close + 1..];
    }
    out
}

fn load_exemptions(cfg: &Config) -> BTreeMap<String, bool> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(&cfg.exemptions) else {
        return out;
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((id, reason)) = line.split_once(':') {
            if !reason.trim().is_empty() {
                out.insert(id.trim().to_string(), false);
            }
        }
    }
    out
}
