//! Shuffle-audit lockdown: the engine under [`AuditMode::Shuffle`] must
//! (a) reproduce the checked-in golden stats byte-for-byte at thread
//! counts 1/2/4 — the auditor observes, it never perturbs — and (b) abort
//! with an `order-sensitive` panic the moment a leader merge actually
//! depends on chunk order.
//!
//! CI also runs the golden and chaos suites with `LCG_AUDIT=shuffle
//! LCG_THREADS=3` in the environment, which flows through
//! `ExecConfig::from_env` into every `Network::new`; this file is the
//! hermetic version that pins the config explicitly.

use std::path::PathBuf;

use locongest::congest::executor::audit;
use locongest::congest::{stats, AuditMode, ChunkCounters, ExecConfig, Model, Network, RoundStats};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::graph::{gen, Graph};

/// Thread counts the acceptance gate names; 1 keeps the sequential path
/// (no audit hooks fire — the fold is trivially ordered) as the control.
const AUDIT_THREADS: [usize; 3] = [1, 2, 4];

/// Forced-parallel audited config: work threshold 1 defeats the adaptive
/// sequential fallback so the batch barriers (and their audit hooks)
/// actually run on these small graphs.
fn audited(threads: usize) -> ExecConfig {
    ExecConfig::with_threads(threads).with_work_threshold(1).with_audit(AuditMode::Shuffle)
}

/// Loads a golden stats file checked in by the `golden_stats` suite.
fn golden(name: &str) -> RoundStats {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); bless via golden_stats"));
    serde_json::from_str(&raw).unwrap()
}

fn assert_matches_golden(name: &str, threads: usize, got: &RoundStats) {
    let expected = golden(name);
    stats::compare(&expected, got).unwrap_or_else(|e| {
        panic!("{name} diverged under LCG_AUDIT=shuffle at {threads} thread(s): {e}")
    });
}

/// BFS flood via `step_state` (one-round batches through the pool round
/// body), identical to the golden_stats workload.
fn flood_stats(g: &Graph, exec: ExecConfig) -> RoundStats {
    let mut net = Network::with_exec(g, Model::congest(), exec);
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    let diam = g.diameter().unwrap_or(0);
    for _ in 0..diam + 1 {
        net.step_state(&mut informed, |me, _v, inbox, out| {
            if inbox.iter().any(Option::is_some) {
                *me = true;
            }
            if *me {
                for p in 0..out.ports() {
                    out.send(p, [1]);
                }
            }
        });
    }
    assert!(informed.iter().all(|&b| b), "flood must reach everyone");
    net.stats()
}

/// The golden flood workloads replay byte-identically with the shuffle
/// auditor cross-checking every pool-round barrier merge.
#[test]
fn golden_floods_are_byte_identical_under_shuffle_audit() {
    let cycle = gen::cycle(64);
    let mut rng = gen::seeded_rng(0x601D);
    let planar = gen::random_planar(200, 0.5, &mut rng);
    let hypercube = gen::hypercube(8);
    for threads in AUDIT_THREADS {
        let exec = audited(threads);
        assert_matches_golden("cycle64_flood", threads, &flood_stats(&cycle, exec));
        assert_matches_golden("planar200_flood", threads, &flood_stats(&planar, exec));
        assert_matches_golden("hypercube8_flood", threads, &flood_stats(&hypercube, exec));
    }
}

/// The full Theorem 2.6 framework (which drives `run_state` batches and
/// `exchange_rounds`, so the pool round body's audit hook fires with and
/// without a consume phase) reproduces its goldens under the auditor.
#[test]
fn golden_frameworks_are_byte_identical_under_shuffle_audit() {
    for threads in AUDIT_THREADS {
        let exec = audited(threads);
        let cases: [(&str, Graph); 3] = [
            ("cycle64_framework", gen::cycle(64)),
            ("planar200_framework", {
                let mut rng = gen::seeded_rng(0x601D);
                gen::random_planar(200, 0.5, &mut rng)
            }),
            ("hypercube8_framework", gen::hypercube(8)),
        ];
        for (name, g) in &cases {
            let cfg = FrameworkConfig { exec, ..FrameworkConfig::planar(0.3, 5) };
            let fw = run_framework(g, &cfg);
            assert_matches_golden(name, threads, &fw.stats);
        }
    }
}

/// `run_state` multi-round batches and `exchange_rounds` (one audit hook,
/// the pool round body's barrier merge) under the auditor match the
/// unaudited sequential baseline exactly.
#[test]
fn batch_engines_match_sequential_baseline_under_shuffle_audit() {
    let g = gen::grid(9, 7);
    let run = |exec: ExecConfig| {
        let mut net = Network::with_exec(&g, Model::congest(), exec);
        let mut informed = vec![false; g.n()];
        informed[0] = true;
        net.run_state(20, &mut informed, |me, _v, inbox, out| {
            if inbox.iter().any(Option::is_some) {
                *me = true;
            }
            if *me {
                for p in 0..out.ports() {
                    out.send(p, [1]);
                }
            }
        });
        let step_stats = net.stats();
        // fresh network: the flood's final sends are still pending, and
        // the exchange path asserts a drained inbox grid
        let mut net = Network::with_exec(&g, Model::congest(), exec);
        let mut best: Vec<u64> = (0..g.n() as u64).collect();
        let executed = net.exchange_rounds(
            50,
            &mut best,
            |me, _round, _v, out| {
                for p in 0..out.ports() {
                    out.send(p, [*me]);
                }
            },
            |me, _round, _v, inbox| {
                for m in inbox.iter().flatten() {
                    *me = (*me).max(m[0]);
                }
            },
            |me| *me == (g.n() - 1) as u64,
        );
        (informed, best, executed, step_stats, net.stats())
    };
    let baseline = run(ExecConfig::sequential());
    for threads in AUDIT_THREADS {
        let got = run(audited(threads));
        assert_eq!(got, baseline, "audited {threads}-thread run diverged from sequential");
    }
}

/// The auditor's positive control: a genuinely commutative merge (the
/// real `ChunkCounters::merge`) passes every audited round.
#[test]
fn chunk_counters_merge_passes_the_auditor() {
    let parts = [
        ChunkCounters { messages: 3, words: 9, max_words: 4, spilled: 0 },
        ChunkCounters { messages: 5, words: 25, max_words: 7, spilled: 1 },
        ChunkCounters { messages: 2, words: 4, max_words: 2, spilled: 0 },
    ];
    let mut canonical = ChunkCounters::default();
    for p in &parts {
        canonical.merge(p);
    }
    for round in 0..64 {
        audit::check_merge_order(
            "test/ChunkCounters",
            round,
            ChunkCounters::default(),
            &parts,
            |a, b| a.merge(b),
            &canonical,
        );
    }
}

/// A deliberately order-sensitive merge (Horner-style `2a + b`, the same
/// shape as the C002 `c002_bad.rs` fixture) is caught by the auditor —
/// the dynamic half of the acceptance gate, the lint rule being the
/// static half.
#[test]
#[should_panic(expected = "order-sensitive")]
fn order_sensitive_merge_is_caught_by_the_auditor() {
    let parts = [3u64, 5, 7, 11];
    let mut canonical = 0u64;
    for p in &parts {
        canonical = canonical.wrapping_mul(2).wrapping_add(*p);
    }
    for round in 0..64 {
        audit::check_merge_order(
            "test/skewed",
            round,
            0u64,
            &parts,
            |a, b| *a = a.wrapping_mul(2).wrapping_add(*b),
            &canonical,
        );
    }
}
