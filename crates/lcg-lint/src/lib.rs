//! `lcg-lint` — workspace static analysis for determinism and CONGEST-model
//! invariants that clippy cannot express.
//!
//! PR 1 made the simulator's headline guarantee *bit-identical results at
//! any thread count*; this crate defends that guarantee statically. One
//! `HashMap` iteration or stray `thread_rng()` in a protocol path silently
//! reintroduces nondeterminism until a golden test happens to notice — the
//! linter blocks it at the source level instead. See DESIGN.md
//! §"Invariants & static analysis" for the rule table and escape-hatch
//! syntax, and `lcg-lint --list-rules` for a quick reference.
//!
//! The implementation is a hand-rolled string/comment-aware line scanner
//! (no `syn`, no dependencies at all), so it lints the whole workspace in
//! milliseconds and never fights the vendored-offline dependency policy.

pub mod model;
pub mod report;
pub mod rules;
pub mod scanner;

use std::path::{Path, PathBuf};

pub use model::{FileFacts, WorkspaceModel};
pub use report::Report;
pub use rules::{
    check_file, check_file_with_model, explain, severity_of, FileCtx, Finding, RuleInfo, Severity,
    DETERMINISTIC_CRATES, RULES,
};

/// Lints one source string as if it lived at workspace-relative `rel`.
/// The workspace model sees only this file, so scope-aware rules (C001,
/// C002, C003, D004) resolve reachability and registrations within it —
/// a self-contained fixture carries its own batch origins and proptests.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    let ctx = FileCtx::from_rel_path(rel);
    let lines = scanner::scan(source);
    rules::check_file(&ctx, &lines)
}

/// Directories under the workspace root that hold lintable first-party code.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path fragments excluded from workspace scans: third-party stand-ins,
/// build output, and the linter's own known-bad test fixtures.
const EXCLUDES: &[&str] = &["vendor/", "target/", "tests/fixtures/"];

/// Collects the workspace `.rs` files to lint, sorted for stable output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    files.retain(|p| {
        let rel = rel_path(root, p);
        !EXCLUDES.iter().any(|e| rel.contains(e))
    });
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints every first-party file under `root`. `restrict` (workspace-relative
/// prefixes) narrows *reporting*, e.g. `["crates/congest"]` — the workspace
/// model is always built from the full scan, so cross-file facts (batch
/// reachability, the C002 proptest registry) do not change with the filter.
pub fn lint_workspace(root: &Path, restrict: &[String]) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = collect_files(root)?;
    // Pass 1: scan everything (the model needs the whole workspace).
    let mut scanned_files: Vec<(FileCtx, Vec<scanner::Line>)> = Vec::with_capacity(files.len());
    for file in &files {
        let rel = rel_path(root, file);
        let source = std::fs::read_to_string(file)?;
        scanned_files.push((FileCtx::from_rel_path(&rel), scanner::scan(&source)));
    }
    // Pass 2: resolve cross-file facts, then check each reported file.
    let model = WorkspaceModel::build(&scanned_files);
    let mut findings = Vec::new();
    let mut scanned = 0;
    for (ctx, lines) in &scanned_files {
        if !restrict.is_empty() && !restrict.iter().any(|p| ctx.rel.starts_with(p.as_str())) {
            continue;
        }
        scanned += 1;
        findings.extend(rules::check_file_with_model(ctx, lines, model.facts(&ctx.rel)));
    }
    Ok((findings, scanned))
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_end_to_end() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        let fs = lint_source("crates/expander/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "D002");
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn workspace_root_discovery() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crate dir");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn fixtures_are_excluded_from_workspace_scans() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crate dir");
        let files = collect_files(&root).expect("scan succeeds");
        assert!(!files.is_empty());
        assert!(files
            .iter()
            .all(|f| !rel_path(&root, f).contains("tests/fixtures/")));
        assert!(files.iter().all(|f| !rel_path(&root, f).contains("vendor/")));
    }
}
