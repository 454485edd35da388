//! The acceptance gate: the deterministic crates (`congest`, `expander`,
//! `graph`, `solvers`, `core`, `trace`) — plus the umbrella `src/` — are
//! lint-clean, and so is the rest of the workspace. Every historical
//! violation is either fixed or carries a justified inline allow — the
//! only way to suppress a finding; anything new fails this test (and the
//! CI `lcg-lint` job) immediately.

use std::path::Path;

use lcg_lint::{find_workspace_root, lint_workspace, Finding};

/// The findings no inline allow covers, one per line.
fn active(findings: &[Finding]) -> Vec<String> {
    findings
        .iter()
        .filter(|f| f.allowed.is_none())
        .map(|f| format!("  [{}] {}:{}:{} {}", f.rule, f.file, f.line, f.col, f.message))
        .collect()
}

fn root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lcg-lint lives inside the workspace")
}

#[test]
fn deterministic_crates_are_clean() {
    let restrict: Vec<String> = ["congest", "expander", "graph", "solvers", "core", "trace"]
        .iter()
        .map(|c| format!("crates/{c}/"))
        .chain(std::iter::once("src/".to_string()))
        .collect();
    let (findings, scanned) = lint_workspace(&root(), &restrict).expect("scan succeeds");
    assert!(scanned > 20, "expected to scan the six deterministic crates, got {scanned} files");
    let fresh = active(&findings);
    assert!(fresh.is_empty(), "deterministic crates must be lint-clean:\n{}", fresh.join("\n"));
}

#[test]
fn whole_workspace_is_clean() {
    let (findings, _) = lint_workspace(&root(), &[]).expect("scan succeeds");
    let fresh = active(&findings);
    assert!(fresh.is_empty(), "workspace has findings without an inline allow:\n{}", fresh.join("\n"));
}

#[test]
fn every_inline_allow_carries_a_reason() {
    // `allowed` findings always have Some(reason) by construction; this
    // asserts the tree-wide A000 count is zero so no ignored allows linger.
    let (findings, _) = lint_workspace(&root(), &[]).expect("scan succeeds");
    let unjustified: Vec<_> = findings.iter().filter(|f| f.rule == "A000").collect();
    assert!(unjustified.is_empty(), "{unjustified:?}");
}
