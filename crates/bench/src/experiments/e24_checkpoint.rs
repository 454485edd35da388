//! **E24** — checkpoint/resume byte-identity: the kill-and-resume
//! supervisor (DESIGN.md §14) against straight-through execution, on both
//! planes it drives.
//!
//! * **Engine plane** — `run_state_checkpointed` (flood program on a
//!   planar instance): straight-through vs checkpoint-every-k vs
//!   kill-at-round-then-resume vs corrupt-the-newest-snapshot fallback.
//!   Final states and `RoundStats` must be bit-identical in every mode.
//! * **Framework plane** — `run_framework_checkpointed` under a seeded
//!   drop schedule that forces retries: straight-through
//!   (`run_framework_resilient`) vs attempt-boundary checkpoints vs
//!   kill-at-attempt-then-resume. Outcome stats, the recovery report,
//!   and the **deterministic-plane metrics JSON** must be byte-identical
//!   — including `recovery.attempts`, which a resume must not
//!   double-count.
//!
//! The table's `identical` column is checked, not assumed: any
//! divergence fails the experiment. Checkpoint traffic lands in the
//! `checkpoint.{saved,resumed,corrupt_skipped,crashes}` columns straight
//! from [`SupervisorReport`]; the CI `checkpoint-resume` lane asserts
//! them.
//!
//! Options read: [`Opts::checkpoint_every`] (`--checkpoint-every`,
//! engine-plane checkpoint cadence in rounds, default 8),
//! [`Opts::kill_at_round`] (`--kill-at-round`, engine-plane injected crash
//! round, default half the run) and [`Opts::fault_seed`] (`--fault-seed`).

use std::path::PathBuf;

use lcg_congest::{ExecConfig, FaultPlan, Inbox, Model, Network, Outbox};
use lcg_core::framework::FrameworkConfig;
use lcg_core::recovery::{run_framework_resilient, RecoveryPolicy, RecoveryReport};
use lcg_core::supervisor::{
    run_framework_checkpointed, run_state_checkpointed, CheckpointConfig, SupervisorReport,
    SNAPSHOT_EXT,
};
use lcg_graph::{gen, Graph};

use crate::{cells, Opts, Scale, Table};

/// Unique scratch directory under the system temp dir (bench crate:
/// ambient process state is fine here, results never depend on it).
fn scratch(mode: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcg-e24-{}-{mode}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flips the last byte of the newest snapshot in `dir` — inside the END
/// terminator frame's checksum, so the file can only fail typed.
fn corrupt_newest(dir: &PathBuf) {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == SNAPSHOT_EXT))
        .collect();
    snaps.sort();
    let newest = snaps.last().expect("at least one snapshot to corrupt");
    let mut bytes = std::fs::read(newest).expect("read snapshot");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(newest, bytes).expect("write corrupted snapshot");
}

/// Runs E24.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let n = scale.pick(60, 300);
    let rounds = scale.pick(24, 64) as u64;
    let every = opts.checkpoint_every;
    let kill_at = opts.kill_at_round.unwrap_or(rounds / 2);
    let mut rng = gen::seeded_rng(0xE24);
    let g = gen::random_planar(n, 0.5, &mut rng);
    vec![engine_table(&g, rounds, every, kill_at), framework_table(&g, scale, opts.fault_seed)]
}

// ------------------------------------------------------------ engine plane

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

fn init_states(n: usize) -> Vec<bool> {
    let mut informed = vec![false; n];
    informed[0] = true;
    informed
}

fn engine_table(g: &Graph, rounds: u64, every: u64, kill_at: u64) -> Table {
    let exec = ExecConfig::from_env();
    let mut t = Table::new(
        "E24a",
        &format!(
            "engine-plane checkpoint/resume on random_planar(n = {}) — flood, {rounds} rounds, \
             checkpoint every {every}, kill at round {kill_at}; `identical` is checked against \
             the straight-through run",
            g.n()
        ),
        &["mode", "informed", "messages", "crashes", "saved", "resumed", "corrupt skipped", "identical"],
    );

    // the reference: no supervisor anywhere near the engine
    let mut net = Network::with_exec(g, Model::congest(), exec);
    let mut reference = init_states(g.n());
    net.run_state(rounds as usize, &mut reference, flood);
    let ref_stats = net.stats();
    t.row(cells!(
        "straight-through",
        reference.iter().filter(|&&b| b).count(),
        ref_stats.messages,
        0,
        0,
        0,
        0,
        "(ref)"
    ));

    let mut supervised = |mode: &str, ckpt: CheckpointConfig| {
        let out = run_state_checkpointed(g, Model::congest(), exec, rounds, || init_states(g.n()), flood, &ckpt)
            .expect("supervised run within budget");
        let same = out.states == reference && out.stats == ref_stats;
        t.row(cells!(
            mode,
            out.states.iter().filter(|&&b| b).count(),
            out.stats.messages,
            out.report.crashes,
            out.report.saved,
            out.report.resumed,
            out.report.corrupt_skipped,
            if same { "yes" } else { "NO" }
        ));
        assert!(same, "{mode} diverged from the straight-through run");
        out.report
    };

    supervised("checkpoint-every-k", CheckpointConfig::new(scratch("every-k")).with_every(every));
    let killed = supervised(
        "kill-then-resume",
        CheckpointConfig::new(scratch("kill")).with_every(every).with_kill_at_round(kill_at),
    );
    assert!(killed.crashes >= 1 && killed.resumed >= 1, "the kill harness must have fired");

    // corrupt-newest fallback: a first (shorter) supervised run leaves
    // snapshots behind, the newest is bit-flipped, and the full-length
    // resume must skip it, fall back to the older file, and still land
    // bit-identical.
    let dir = scratch("corrupt");
    let prefix = (rounds / 2).max(every + 1);
    run_state_checkpointed(g, Model::congest(), exec, prefix, || init_states(g.n()), flood, &CheckpointConfig::new(&dir).with_every(every))
        .expect("prefix run");
    corrupt_newest(&dir);
    let fallback = supervised("corrupt-newest-fallback", CheckpointConfig::new(&dir).with_every(every));
    assert!(fallback.corrupt_skipped >= 1, "the corrupted newest snapshot must have been skipped");
    assert!(fallback.resumed >= 1, "the older snapshot must have carried the resume");

    t
}

// --------------------------------------------------------- framework plane

fn framework_table(g: &Graph, scale: Scale, fault_seed: u64) -> Table {
    let cfg = FrameworkConfig {
        metrics: true,
        // drops aggressive enough to make early attempts fail detection,
        // so the retry accumulators (the checkpointed state) are non-trivial
        faults: Some(FaultPlan::drops(fault_seed, 0.15)),
        ..FrameworkConfig::planar(0.3, 42)
    };
    let policy = RecoveryPolicy { max_retries: 2, initial_walk_steps: scale.pick(2_000, 10_000) };

    let mut t = Table::new(
        "E24b",
        &format!(
            "framework-plane checkpoint/resume on the same instance (drop p = 0.15, seed \
             {fault_seed:#x}, retry budget {}); `identical` covers outcome stats, the recovery \
             report, and the deterministic-plane metrics JSON, byte for byte",
            policy.max_retries
        ),
        &["mode", "attempts", "degraded", "rounds", "crashes", "saved", "resumed", "corrupt skipped", "identical"],
    );

    let (ref_outcome, ref_recovery) = run_framework_resilient(g, &cfg, &policy);
    let ref_json = ref_outcome
        .metrics
        .as_ref()
        .expect("metrics: true always yields a report")
        .deterministic_json();
    t.row(cells!(
        "resilient (straight)",
        ref_recovery.attempts,
        if ref_recovery.degraded { "yes" } else { "no" },
        ref_outcome.stats.rounds,
        0,
        0,
        0,
        0,
        "(ref)"
    ));

    let mut supervised = |mode: &str, ckpt: CheckpointConfig| -> SupervisorReport {
        let (outcome, recovery, sup) =
            run_framework_checkpointed(g, &cfg, &policy, &ckpt).expect("supervised framework run");
        let json = outcome
            .metrics
            .as_ref()
            .expect("metrics: true always yields a report")
            .deterministic_json();
        let same = outcome.stats == ref_outcome.stats
            && recovery_eq(&recovery, &ref_recovery)
            && json == ref_json;
        t.row(cells!(
            mode,
            recovery.attempts,
            if recovery.degraded { "yes" } else { "no" },
            outcome.stats.rounds,
            sup.crashes,
            sup.saved,
            sup.resumed,
            sup.corrupt_skipped,
            if same { "yes" } else { "NO" }
        ));
        assert!(same, "{mode} diverged from run_framework_resilient");
        sup
    };

    supervised("checkpoint-per-attempt", CheckpointConfig::new(scratch("fw-every")));
    // kill at attempt 1: attempt 0's boundary checkpoint exists, so the
    // crash must resume from it rather than start fresh
    let killed = supervised(
        "kill-then-resume",
        CheckpointConfig::new(scratch("fw-kill")).with_kill_at_attempt(1),
    );
    assert!(killed.crashes >= 1, "the kill-at-attempt harness must have fired");
    assert!(killed.resumed >= 1, "the crash must resume from attempt 0's checkpoint");

    t
}

fn recovery_eq(a: &RecoveryReport, b: &RecoveryReport) -> bool {
    a.attempts == b.attempts
        && a.degraded == b.degraded
        && a.failures == b.failures
        && a.detector_rounds == b.detector_rounds
}
