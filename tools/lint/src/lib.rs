//! `scissor-lint` — repo-invariant static analysis for the Group
//! Scissor workspace.
//!
//! The workspace's correctness rests on contracts clippy cannot
//! express: condvars notified under their paired lock, atomic orderings
//! justified at the site, `unsafe` confined to one audited file,
//! registered hot paths allocation-free, and serving-tier panics
//! actionable. Each rule in [`rules`] mechanizes one of those contracts
//! over a lightweight lexer ([`lexer`]) — deliberately not a parser; see
//! each rule's documentation for the heuristic it applies and the waiver
//! escape hatch (`// lint: allow(rule-id): reason`).
//!
//! Entry point: [`run`] walks the workspace rooted at a directory and
//! returns sorted findings; the binary turns those into
//! `file:line: rule-id: message` diagnostics (or `--json`).

#![forbid(unsafe_code)]

pub mod annot;
pub mod config;
pub mod lexer;
pub mod rules;

use config::Config;
use std::fs;
use std::path::{Path, PathBuf};

/// One diagnostic: a contract violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier (see [`rules::id`]).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested remedy.
    pub message: String,
}

impl Finding {
    /// The canonical `file:line: rule-id: message` rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Directories (relative to the root) whose `.rs` trees the source
/// rules walk. `vendor/rayon` is the one vendored crate the workspace
/// actually patched (the pool), so its contracts are enforced too; the
/// other vendored stand-ins are frozen upstream API shims and stay out
/// of scope.
const SOURCE_ROOTS: &[&str] = &["src", "crates", "tools", "vendor/rayon"];

/// Runs every rule over the workspace at `root`. Findings come back
/// sorted by file, then line, then rule. `Err` is reserved for
/// environment problems (missing config, unreadable tree) — a finding
/// is never an `Err`.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let cfg = load_config(root)?;
    let mut findings = Vec::new();

    for file in collect_rust_files(root)? {
        let rel = rel_path(root, &file);
        let src = fs::read_to_string(&file)
            .map_err(|e| format!("failed to read {}: {e}", file.display()))?;
        let toks = lexer::strip_cfg_test(lexer::lex(&src));
        // The ordering rule covers everything walked — test files too,
        // so the SeqCst-audit justifications in the counting-allocator
        // and spin-gate tests stay enforced. The remaining rules are
        // production contracts and apply to `src/` trees only: an
        // integration test legitimately implements `GlobalAlloc` with
        // `unsafe` or unwraps a join handle.
        rules::ordering_justification(&rel, &toks, &cfg, &mut findings);
        if is_src(&rel) {
            rules::notify_under_lock(&rel, &toks, &mut findings);
            rules::unsafe_budget(&rel, &toks, &mut findings);
            rules::no_alloc_hot_path(&rel, &toks, &cfg, &mut findings);
            if rel.starts_with("crates/serve/") || rel.starts_with("crates/router/") {
                rules::panic_surface(&rel, &toks, &mut findings);
            }
        }
        if is_first_party_crate_root(&rel) {
            rules::forbid_unsafe_in_root(&rel, &toks, &mut findings);
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn load_config(root: &Path) -> Result<Config, String> {
    let mut cfg = Config::default();
    let hotpaths = root.join("tools/lint/hotpaths.toml");
    let text = fs::read_to_string(&hotpaths)
        .map_err(|e| format!("failed to read {}: {e}", hotpaths.display()))?;
    cfg.parse_hotpaths(&text)?;
    let allow = root.join("tools/lint/ordering.allow");
    let text = fs::read_to_string(&allow)
        .map_err(|e| format!("failed to read {}: {e}", allow.display()))?;
    cfg.parse_ordering_allow(&text)?;
    Ok(cfg)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Whether `rel` is production source (a `src/` tree) as opposed to an
/// integration test, bench, or example.
fn is_src(rel: &str) -> bool {
    rel.starts_with("src/") || rel.contains("/src/")
}

/// Whether `rel` is the root source file of a first-party crate (the
/// files required to carry `#![forbid(unsafe_code)]`). Vendored crates
/// are exempt: `vendor/rayon` deliberately holds the unsafe budget.
fn is_first_party_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    for prefix in ["crates/", "tools/"] {
        if let Some(rest) = rel.strip_prefix(prefix) {
            if let Some((_, tail)) = rest.split_once('/') {
                if tail == "src/lib.rs" {
                    return true;
                }
            }
        }
    }
    false
}

fn collect_rust_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for sub in SOURCE_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_rs(&dir, &mut files)?;
        }
    }
    // `crates/`, `tools/` and `vendor/rayon` are walked whole, which
    // also picks up `tests/`, `benches/` and `examples/` trees — the
    // ordering rule covers those (the SeqCst audit lives partly in test
    // files); `target/` is excluded in the walker.
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("failed to read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders findings as a JSON array (hand-rolled: the lint is
/// dependency-free, so no serde). Shape:
/// `[{"file": "...", "line": N, "rule": "...", "message": "..."}]`.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"file\": ");
        json_string(&f.file, &mut out);
        out.push_str(", \"line\": ");
        out.push_str(&f.line.to_string());
        out.push_str(", \"rule\": ");
        json_string(f.rule, &mut out);
        out.push_str(", \"message\": ");
        json_string(&f.message, &mut out);
        out.push('}');
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_root_detection() {
        assert!(is_first_party_crate_root("src/lib.rs"));
        assert!(is_first_party_crate_root("crates/serve/src/lib.rs"));
        assert!(is_first_party_crate_root("tools/lint/src/lib.rs"));
        assert!(!is_first_party_crate_root("crates/serve/src/stats.rs"));
        assert!(!is_first_party_crate_root("vendor/rayon/src/lib.rs"));
    }

    #[test]
    fn json_escapes() {
        let f = vec![Finding {
            file: "a.rs".into(),
            line: 3,
            rule: "panic-surface",
            message: "say \"why\"\n".into(),
        }];
        let json = to_json(&f);
        assert!(json.contains("\\\"why\\\"\\n"));
        assert!(json.contains("\"line\": 3"));
        assert_eq!(to_json(&[]), "[]\n");
    }
}
