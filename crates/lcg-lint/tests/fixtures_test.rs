//! Fixture-driven self-tests: every rule (a) fires on its known-bad
//! fixture and (b) is fully suppressed by justified `lcg-lint: allow`
//! comments in the counterpart fixture. Fixtures live under
//! `tests/fixtures/` and are excluded from workspace scans; they are read
//! as text, never compiled.

use std::path::Path;

use lcg_lint::lint_source;

/// Lints a fixture as if it were library code in a deterministic crate.
fn lint_fixture(name: &str) -> Vec<lcg_lint::Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    lint_source(&format!("crates/congest/src/{name}"), &source)
}

fn active(findings: &[lcg_lint::Finding], rule: &str) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.allowed.is_none())
        .count()
}

fn suppressed(findings: &[lcg_lint::Finding], rule: &str) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.allowed.is_some())
        .count()
}

#[test]
fn d001_fires_and_is_suppressible() {
    let bad = lint_fixture("d001_bad.rs");
    assert!(active(&bad, "D001") >= 3, "method iter + keys + for loop + Vec<HashMap>: {bad:?}");
    let ok = lint_fixture("d001_allowed.rs");
    assert_eq!(active(&ok, "D001"), 0, "{ok:?}");
    assert!(suppressed(&ok, "D001") >= 3, "suppressions are recorded: {ok:?}");
}

#[test]
fn d002_fires_and_is_suppressible() {
    let bad = lint_fixture("d002_bad.rs");
    assert!(active(&bad, "D002") >= 2, "thread_rng + from_entropy: {bad:?}");
    let ok = lint_fixture("d002_allowed.rs");
    assert_eq!(active(&ok, "D002"), 0, "{ok:?}");
    assert_eq!(suppressed(&ok, "D002"), 1);
}

#[test]
fn d002_is_waived_in_the_bench_crate() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d002_bad.rs");
    let source = std::fs::read_to_string(path).expect("fixture readable");
    let findings = lint_source("crates/bench/src/d002_bad.rs", &source);
    assert_eq!(active(&findings, "D002"), 0, "bench may use ambient randomness");
}

#[test]
fn d003_fires_and_is_suppressible() {
    let bad = lint_fixture("d003_bad.rs");
    assert!(active(&bad, "D003") >= 2, "Instant + SystemTime: {bad:?}");
    let ok = lint_fixture("d003_allowed.rs");
    assert_eq!(active(&ok, "D003"), 0, "allow + cfg(test) carve-out: {ok:?}");
    assert_eq!(suppressed(&ok, "D003"), 1);
}

#[test]
fn p001_fires_and_is_suppressible() {
    let bad = lint_fixture("p001_bad.rs");
    assert!(active(&bad, "P001") >= 3, "unwrap + panic! + todo!: {bad:?}");
    let ok = lint_fixture("p001_allowed.rs");
    assert_eq!(active(&ok, "P001"), 0, "expect/Result/assert/allow all pass: {ok:?}");
    assert_eq!(suppressed(&ok, "P001"), 1);
}

#[test]
fn u001_fires_and_is_suppressible() {
    let bad = lint_fixture("u001_bad.rs");
    assert_eq!(active(&bad, "U001"), 1, "{bad:?}");
    let ok = lint_fixture("u001_allowed.rs");
    assert_eq!(active(&ok, "U001"), 0, "{ok:?}");
    assert_eq!(suppressed(&ok, "U001"), 1);
}

#[test]
fn c001_fires_and_is_suppressible() {
    let bad = lint_fixture("c001_bad.rs");
    assert!(
        active(&bad, "C001") >= 5,
        "Mutex + RwLock + Atomic + static mut + static OnceLock: {bad:?}"
    );
    assert!(
        bad.iter().any(|f| f.rule == "C001" && f.message.contains("`static` holding `OnceLock`")),
        "the process-global epoch is named: {bad:?}"
    );
    let ok = lint_fixture("c001_allowed.rs");
    assert_eq!(active(&ok, "C001"), 0, "{ok:?}");
    assert!(suppressed(&ok, "C001") >= 3, "suppressions are recorded: {ok:?}");
}

#[test]
fn c002_catches_the_order_sensitive_merge() {
    // the deliberately order-sensitive reduction of the acceptance gate:
    // one finding for the missing annotation, one for the missing proptest
    let bad = lint_fixture("c002_bad.rs");
    assert_eq!(active(&bad, "C002"), 2, "missing annotation AND proptest: {bad:?}");
    let ok = lint_fixture("c002_allowed.rs");
    assert_eq!(active(&ok, "C002"), 0, "annotated + registered is clean: {ok:?}");
    assert!(ok.is_empty(), "no suppression needed, and no other rule fires: {ok:?}");
}

#[test]
fn c003_fires_and_is_suppressible() {
    let bad = lint_fixture("c003_bad.rs");
    assert!(active(&bad, "C003") >= 3, "ExecConfig + .threads() + env::var: {bad:?}");
    let ok = lint_fixture("c003_allowed.rs");
    assert_eq!(active(&ok, "C003"), 0, "{ok:?}");
    assert!(suppressed(&ok, "C003") >= 2);
}

#[test]
fn d004_fires_and_is_suppressible() {
    let bad = lint_fixture("d004_bad.rs");
    assert_eq!(active(&bad, "D004"), 2, "`acc +=` and reachable sum::<f64>: {bad:?}");
    let ok = lint_fixture("d004_allowed.rs");
    assert_eq!(active(&ok, "D004"), 0, "integer accounting + justified exact sum: {ok:?}");
    assert_eq!(suppressed(&ok, "D004"), 1);
}

#[test]
fn o001_fires_and_is_suppressible() {
    let bad = lint_fixture("o001_bad.rs");
    assert!(
        active(&bad, "O001") >= 4,
        "seed + protocol origin + tainted send + merge + registry: {bad:?}"
    );
    let ok = lint_fixture("o001_allowed.rs");
    assert_eq!(active(&ok, "O001"), 0, "observer-only idioms must be clean: {ok:?}");
    assert_eq!(suppressed(&ok, "O001"), 1, "the justified diagnostics flow is recorded: {ok:?}");
}

#[test]
fn s001_fires_and_is_suppressible() {
    let bad = lint_fixture("s001_bad.rs");
    assert_eq!(
        active(&bad, "S001"),
        3,
        "forgotten codec field + forgotten save field + reasonless transient: {bad:?}"
    );
    let ok = lint_fixture("s001_allowed.rs");
    assert_eq!(active(&ok, "S001"), 0, "transient-with-reason and covered fields pass: {ok:?}");
    assert_eq!(suppressed(&ok, "S001"), 1, "the justified allow is recorded: {ok:?}");
}

#[test]
fn metrics_crate_is_under_the_deterministic_regime() {
    // the registry/report/recorder layers are held to the same rules as
    // the simulator ...
    let p001 = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    for path in ["crates/metrics/src/registry.rs", "crates/metrics/src/bin/metrics_report.rs"] {
        let findings = lint_source(path, p001);
        assert_eq!(active(&findings, "P001"), 1, "{path}: {findings:?}");
    }
    // ... while the profiling plane's quarantine file is the one
    // sanctioned home for the clock — but not for shared mutable state:
    // executor samples ride on the run's own recorder
    let profiling = "\
fn sample() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
static SAMPLING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
";
    let findings = lint_source("crates/metrics/src/profile.rs", profiling);
    assert_eq!(active(&findings, "D003"), 0, "quarantine may read the clock: {findings:?}");
    assert_eq!(active(&findings, "C001"), 1, "a process-global sampling flag is banned: {findings:?}");
    let findings = lint_source("crates/metrics/src/registry.rs", profiling);
    assert!(active(&findings, "D003") >= 1, "outside the quarantine the clock is banned");
    assert!(active(&findings, "C001") >= 1, "outside the quarantine atomics are banned");
}

#[test]
fn trace_crate_is_under_the_deterministic_regime() {
    // the trace layer ships in every run's hot path; its library code —
    // including the trace-report binary under src/bin — is held to the
    // same determinism/panic rules as the simulator
    let p001 = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    for path in ["crates/trace/src/tracer.rs", "crates/trace/src/bin/trace_report.rs"] {
        let findings = lint_source(path, p001);
        assert_eq!(active(&findings, "P001"), 1, "{path}: {findings:?}");
    }
    let d003 = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    let findings = lint_source("crates/trace/src/report.rs", d003);
    assert_eq!(active(&findings, "D003"), 1, "wall-clock in trace: {findings:?}");
}

#[test]
fn trace_idiom_fixture_is_clean() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_idiom.rs");
    let source = std::fs::read_to_string(path).expect("fixture readable");
    let findings = lint_source("crates/trace/src/lib.rs", &source);
    assert!(findings.is_empty(), "trace idioms must lint clean: {findings:?}");
}

#[test]
fn fault_rng_idiom_fixture_is_clean() {
    // the fault layer's keyed ChaCha streams are seeded, not ambient:
    // D002 (and every other rule) must stay silent on the idiom
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fault_rng_idiom.rs");
    let source = std::fs::read_to_string(path).expect("fixture readable");
    let findings = lint_source("crates/congest/src/faults.rs", &source);
    assert!(findings.is_empty(), "fault RNG idioms must lint clean: {findings:?}");
}

#[test]
fn msg_ctor_idiom_fixture_is_clean() {
    // the Msg constructors are the innermost hot path of the simulator;
    // they are total by construction (zip-bounded copies, Vec::truncate
    // semantics) and must stay P001-clean — and clean of every other rule
    let findings = lint_fixture("msg_ctor_idiom.rs");
    assert_eq!(active(&findings, "P001"), 0, "Msg constructors must be panic-free: {findings:?}");
    assert!(findings.is_empty(), "Msg constructor idioms must lint clean: {findings:?}");
}

#[test]
fn clean_fixture_is_clean() {
    let findings = lint_fixture("clean.rs");
    assert!(findings.is_empty(), "known-good fixture must be silent: {findings:?}");
}

#[test]
fn allow_without_reason_is_rejected() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lcg-lint: allow(P001)\n";
    let findings = lint_source("crates/graph/src/inline.rs", src);
    assert_eq!(active(&findings, "P001"), 1, "unjustified allow must not suppress");
    assert_eq!(active(&findings, "A000"), 1, "and is itself a finding");
}

#[test]
fn every_rule_has_bad_and_allowed_fixtures() {
    // keeps the fixture set in sync with the rule table as rules are added
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for rule in lcg_lint::RULES.iter().filter(|r| r.id != "A000") {
        let stem = rule.id.to_lowercase();
        for suffix in ["bad", "allowed"] {
            let path = dir.join(format!("{stem}_{suffix}.rs"));
            assert!(path.is_file(), "missing fixture {path:?} for rule {}", rule.id);
        }
    }
}
