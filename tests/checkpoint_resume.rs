//! The checkpoint acceptance gate, end to end: golden stats and the
//! deterministic-plane metrics JSON are **byte-identical** across
//! {straight-through, checkpoint-every-k, kill-then-resume}, the
//! framework's at 1, 2, and 4 threads, and a corrupted newest snapshot
//! falls back to the previous one without panicking. Neither the round
//! engine nor the round supervisor takes a thread count, so the engine
//! plane has one column; the framework's config carries one, which its
//! decomposition and charged walks run on.
//!
//! Thread counts are set through explicit `ExecConfig`s, as in
//! `parallel_determinism.rs`. Checkpoint directories are per-mode,
//! per-thread-count scratch dirs so the test threads never share files.

use std::path::PathBuf;

use locongest::congest::{ExecConfig, FaultPlan, Inbox, Model, Network, Outbox, RoundStats};
use locongest::core::framework::FrameworkConfig;
use locongest::core::recovery::{run_framework_resilient, RecoveryPolicy};
use locongest::core::supervisor::{
    run_framework_checkpointed, run_state_checkpointed, CheckpointConfig, SNAPSHOT_EXT,
};
use locongest::graph::gen;

const THREADS: [usize; 3] = [1, 2, 4];
const ROUNDS: u64 = 30;
const EVERY: u64 = 7;
const KILL_AT: u64 = 16;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcg-accept-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn flood(me: &mut bool, _v: usize, inbox: &Inbox, out: &mut Outbox) {
    if inbox.iter().any(Option::is_some) {
        *me = true;
    }
    if *me {
        for p in 0..out.ports() {
            out.send(p, [1]);
        }
    }
}

fn init(n: usize) -> Vec<bool> {
    let mut informed = vec![false; n];
    informed[0] = true;
    informed
}

/// Engine plane: per-vertex states and `RoundStats` identical across all
/// modes, and equal to a straight-through run — one golden value for the
/// whole row.
#[test]
fn engine_modes_are_byte_identical_across_thread_counts() {
    let mut rng = gen::seeded_rng(0xACC);
    let g = gen::random_planar(90, 0.5, &mut rng);

    // straight-through, no supervisor anywhere near the engine
    let mut net = Network::new(&g, Model::congest());
    let mut informed = init(g.n());
    net.run_state(ROUNDS as usize, &mut informed, flood);
    let gold = (informed, net.stats());

    for (mode, ckpt) in [
        ("checkpoint-every-k", CheckpointConfig::new(scratch("eng-every")).with_every(EVERY)),
        (
            "kill-then-resume",
            CheckpointConfig::new(scratch("eng-kill")).with_every(EVERY).with_kill_at_round(KILL_AT),
        ),
    ] {
        let out = run_state_checkpointed(&g, Model::congest(), ROUNDS, || init(g.n()), flood, &ckpt)
            .expect("supervised run within budget");
        assert_eq!((out.states, out.stats), gold, "{mode} diverged");
        if ckpt.kill_at_round.is_some() {
            assert_eq!(out.report.crashes, 1, "the injected kill must have fired once");
            assert!(out.report.resumed >= 1, "the crash must resume from a snapshot");
        }
    }
}

/// A corrupted newest snapshot is skipped (typed, counted, no panic) and
/// the run resumes from the previous one, still landing bit-identical.
#[test]
fn corrupted_newest_snapshot_falls_back_to_the_previous_one() {
    let mut rng = gen::seeded_rng(0xACC);
    let g = gen::random_planar(90, 0.5, &mut rng);

    let mut net = Network::new(&g, Model::congest());
    let mut informed = init(g.n());
    net.run_state(ROUNDS as usize, &mut informed, flood);

    // phase 1: a shorter supervised run leaves ≥ 2 rotated snapshots
    let dir = scratch("eng-corrupt");
    let ckpt = CheckpointConfig::new(&dir).with_every(EVERY);
    run_state_checkpointed(&g, Model::congest(), 2 * EVERY, || init(g.n()), flood, &ckpt)
        .expect("prefix run");

    // flip a byte inside the newest file's terminator frame
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == SNAPSHOT_EXT))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "keep-last-2 rotation must leave a fallback");
    let newest = snaps.last().expect("non-empty");
    let mut bytes = std::fs::read(newest).expect("read snapshot");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(newest, bytes).expect("write corrupted snapshot");

    // phase 2: the full-length resume must skip the corrupt file, resume
    // the older one, and still match the straight-through run exactly
    let out = run_state_checkpointed(&g, Model::congest(), ROUNDS, || init(g.n()), flood, &ckpt)
        .expect("resume over a corrupted newest snapshot");
    assert_eq!(out.states, informed);
    assert_eq!(out.stats, net.stats());
    assert_eq!(out.report.corrupt_skipped, 1, "exactly the corrupted file is skipped");
    assert!(out.report.resumed >= 1, "the older snapshot carried the resume");
}

/// Framework plane: outcome stats, the recovery report, and the
/// deterministic-plane metrics JSON — byte for byte — across all modes
/// and thread counts, under a drop schedule that forces retries.
#[test]
fn framework_modes_are_byte_identical_across_thread_counts() {
    let mut rng = gen::seeded_rng(0xACD);
    let g = gen::random_planar(80, 0.5, &mut rng);
    let policy = RecoveryPolicy { max_retries: 2, initial_walk_steps: 2_000 };

    let mut golden: Option<(RoundStats, u32, bool, String)> = None;
    for &threads in &THREADS {
        let cfg = FrameworkConfig {
            metrics: true,
            faults: Some(FaultPlan::drops(0xFA17, 0.15)),
            exec: ExecConfig::with_threads(threads),
            ..FrameworkConfig::planar(0.3, 42)
        };

        let (ref_outcome, ref_recovery) = run_framework_resilient(&g, &cfg, &policy);
        let straight = (
            ref_outcome.stats,
            ref_recovery.attempts,
            ref_recovery.degraded,
            ref_outcome
                .metrics
                .as_ref()
                .expect("metrics: true always yields a report")
                .deterministic_json(),
        );
        let gold = golden.get_or_insert_with(|| straight.clone());
        assert_eq!(&straight, gold, "resilient run diverged at {threads} threads");

        for (mode, ckpt) in [
            (
                "checkpoint-per-attempt",
                CheckpointConfig::new(scratch(&format!("fw-every-{threads}"))),
            ),
            (
                "kill-then-resume",
                CheckpointConfig::new(scratch(&format!("fw-kill-{threads}")))
                    .with_kill_at_attempt(1),
            ),
        ] {
            let (outcome, recovery, sup) =
                run_framework_checkpointed(&g, &cfg, &policy, &ckpt).expect("supervised run");
            let got = (
                outcome.stats,
                recovery.attempts,
                recovery.degraded,
                outcome
                    .metrics
                    .as_ref()
                    .expect("metrics: true always yields a report")
                    .deterministic_json(),
            );
            assert_eq!(&got, gold, "{mode} diverged at {threads} threads");
            if ckpt.kill_at_attempt.is_some() {
                assert_eq!(sup.crashes, 1, "the injected kill must have fired once");
                assert!(sup.resumed >= 1, "the crash must resume from attempt 0's checkpoint");
            }
        }
    }
}
