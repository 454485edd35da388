//! Crash-tolerant checkpoint/resume: the kill-and-resume supervisor.
//!
//! The recovery layer ([`crate::recovery`]) survives *protocol* failures —
//! dropped messages, crashed nodes, detectors that veto an execution. This
//! module survives *process* failures: the simulator host dying mid-run.
//! It periodically serializes complete engine state into the versioned
//! snapshot format of [`lcg_congest::snapshot`] (DESIGN.md §14), and when
//! an execution dies — a node program's panic, an injected crash fault, a
//! real SIGKILL between invocations — the next run resumes from the
//! newest snapshot that still parses and continues **bit-identically**:
//! same stats, same messages, same RNG streams, as if the crash never
//! happened.
//!
//! Two drivers, one checkpoint store:
//!
//! * [`run_state_checkpointed`] — the round-level supervisor. Runs a
//!   per-vertex step program in `every`-round batches via
//!   [`Network::run_state`] (`run_state(k)` ≡ k× `step_state`, bitwise),
//!   checkpointing engine sections plus a `NODE` section of per-vertex
//!   [`SnapshotState`] after each batch.
//! * [`run_framework_checkpointed`] — the Theorem 2.6 supervisor. The
//!   framework is one monolithic execution, so the checkpoint unit is the
//!   *attempt boundary* of the PR 4 resilient loop. It wraps recovery's
//!   own attempt step (`recovery::AttemptLog`): `run` is a pure function of
//!   `(graph, decomposition, config, attempt)` — the decomposition itself
//!   a function of graph and config, recomputed by whichever process
//!   resumes, never checkpointed — and goes inside the `catch_unwind`, and
//!   the accumulators `commit` advances (spent stats, failure verdicts,
//!   the folded metrics registry) are exactly the resumable state.
//!
//! A driver contributes its loop, the sections it writes and how it
//! decodes them; everything about *files* is the private `Store`: naming,
//! the atomic write (tmp file + rename), rotation, the newest-first resume
//! that skips — typed and counted — whatever does not load, the check that
//! a file's sequence number is the progress recorded inside it, the crash
//! budget, and the [`SupervisorReport`] counters. A crash *during* a save
//! can cost at most the newest file, which resume then skips, falling
//! back to its predecessor. Crashes are retried under a bounded restart
//! budget; when it is exhausted the framework driver degrades to the PR 4
//! terminal state ([`singleton_outcome`]) rather than panicking, and the
//! round driver returns a typed error.
//!
//! The supervisor's own verdict counters
//! (`checkpoint.{saved,resumed,corrupt_skipped,crashes}`) live in
//! [`SupervisorReport::registry`], deliberately *outside* the run's
//! metrics report: the deterministic plane must stay byte-identical
//! across {straight-through, checkpointed, kill-then-resume} executions,
//! and how often the supervisor saved is a property of the harness, not
//! of the protocol.
//!
//! [`singleton_outcome`]: crate::recovery::singleton_outcome

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use lcg_congest::snapshot::{encode_edges, fnv1a64, Enc};
use lcg_congest::{
    Inbox, Model, Network, Outbox, RoundStats, SnapshotError, SnapshotReader, SnapshotState,
    SnapshotWriter,
};
use lcg_graph::Graph;
use lcg_metrics::{Registry, Report};

use crate::framework::{decompose_timed, FrameworkConfig, FrameworkOutcome};
use crate::recovery::{AttemptLog, RecoveryPolicy, RecoveryReport};

/// File extension of every snapshot the supervisor writes.
pub const SNAPSHOT_EXT: &str = "lcgsnap";

/// Snapshots retained after rotation: the newest two, so a corrupted
/// newest file always has a fallback.
const KEEP: usize = 2;

/// Checkpoint cadence, retention, and restart policy of a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory the snapshot files live in (created if missing).
    pub dir: PathBuf,
    /// Rounds between checkpoints for [`run_state_checkpointed`]
    /// (clamped to ≥ 1). The framework driver checkpoints at every
    /// attempt boundary regardless.
    pub every: u64,
    /// Crashes tolerated before the supervisor gives up: the round driver
    /// returns [`SupervisorError::RestartBudgetExhausted`], the framework
    /// driver degrades to the PR 4 singleton outcome.
    pub restart_budget: u32,
    /// Deterministic kill harness for the round driver: inject a
    /// node-program panic while executing this (0-based, absolute) round.
    /// One-shot — the resumed run does not re-crash.
    pub kill_at_round: Option<u64>,
    /// Deterministic kill harness for the framework driver: panic after
    /// this attempt's framework execution, before any of its work is
    /// committed — the classic lost-progress crash a checkpoint absorbs.
    pub kill_at_attempt: Option<u32>,
}

impl CheckpointConfig {
    /// Checkpoint every 16 rounds into `dir`, keep the last 2 snapshots,
    /// tolerate 3 restarts, no injected kill.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            every: 16,
            restart_budget: 3,
            kill_at_round: None,
            kill_at_attempt: None,
        }
    }

    /// Sets the round-driver checkpoint cadence.
    #[must_use]
    pub fn with_every(mut self, every: u64) -> CheckpointConfig {
        self.every = every;
        self
    }

    /// Sets the restart budget.
    #[must_use]
    pub fn with_restart_budget(mut self, budget: u32) -> CheckpointConfig {
        self.restart_budget = budget;
        self
    }

    /// Arms the round-level kill harness.
    #[must_use]
    pub fn with_kill_at_round(mut self, round: u64) -> CheckpointConfig {
        self.kill_at_round = Some(round);
        self
    }

    /// Arms the attempt-level kill harness.
    #[must_use]
    pub fn with_kill_at_attempt(mut self, attempt: u32) -> CheckpointConfig {
        self.kill_at_attempt = Some(attempt);
        self
    }
}

/// What the supervisor did: saves, resumes, skips, crashes, verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Snapshots written (atomic tmp + rename, after rotation).
    pub saved: u64,
    /// Successful resumes from a snapshot file.
    pub resumed: u64,
    /// Snapshot files skipped because they failed to parse, checksum, or
    /// validate — each one fell back to an older file (or a fresh start).
    pub corrupt_skipped: u64,
    /// Panics caught (node-program panics, injected crash faults).
    pub crashes: u32,
    /// `true` when the framework driver exhausted its budgets and
    /// substituted the PR 4 singleton outcome.
    pub degraded: bool,
}

impl SupervisorReport {
    /// The supervisor's verdict as deterministic metrics counters
    /// (`checkpoint.saved`, `checkpoint.resumed`,
    /// `checkpoint.corrupt_skipped`, `checkpoint.crashes`).
    ///
    /// Kept in its own registry rather than stamped into the run's
    /// report: the run's deterministic plane must not depend on whether a
    /// supervisor was watching.
    #[must_use]
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new();
        r.counter_add("checkpoint.saved", self.saved);
        r.counter_add("checkpoint.resumed", self.resumed);
        r.counter_add("checkpoint.corrupt_skipped", self.corrupt_skipped);
        r.counter_add("checkpoint.crashes", u64::from(self.crashes));
        r
    }
}

/// Why a supervised run could not produce a result.
#[derive(Debug)]
pub enum SupervisorError {
    /// Snapshot I/O or format failure outside the per-file fallback path
    /// (creating the checkpoint directory, writing a checkpoint).
    Snapshot(SnapshotError),
    /// More crashes than the restart budget tolerates; the report carries
    /// everything the supervisor managed before giving up.
    RestartBudgetExhausted {
        /// State of the supervisor at the moment it gave up.
        report: SupervisorReport,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Snapshot(e) => write!(f, "snapshot failure: {e}"),
            SupervisorError::RestartBudgetExhausted { report } => write!(
                f,
                "restart budget exhausted after {} crashes ({} saved, {} resumed, {} corrupt)",
                report.crashes, report.saved, report.resumed, report.corrupt_skipped
            ),
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Snapshot(e) => Some(e),
            SupervisorError::RestartBudgetExhausted { .. } => None,
        }
    }
}

impl From<SnapshotError> for SupervisorError {
    fn from(e: SnapshotError) -> SupervisorError {
        SupervisorError::Snapshot(e)
    }
}

impl From<std::io::Error> for SupervisorError {
    fn from(e: std::io::Error) -> SupervisorError {
        SupervisorError::Snapshot(SnapshotError::Io(e))
    }
}

/// Result of a completed [`run_state_checkpointed`] run.
#[derive(Debug)]
pub struct CheckpointedRun<S> {
    /// Final per-vertex states, bit-identical to a straight-through run.
    pub states: Vec<S>,
    /// Final round accounting, bit-identical to a straight-through run.
    pub stats: RoundStats,
    /// What the supervisor did along the way.
    pub report: SupervisorReport,
}

// --------------------------------------------------------------- the store

/// Snapshot files in `dir`, `(sequence, path)`, ascending by sequence.
/// Non-snapshot files (including orphaned `.tmp` files) are ignored.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, SupervisorError> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|r| r.strip_suffix(&format!(".{SNAPSHOT_EXT}")))
            .and_then(|r| r.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort();
    Ok(found)
}

/// What a driver's loader makes of one parsed file: the progress recorded
/// inside it, and the state to resume from.
type Loaded<T> = Result<(u64, T), SnapshotError>;

/// The checkpoint directory of one supervised run and the bookkeeping
/// both drivers hang on it.
struct Store<'c> {
    ckpt: &'c CheckpointConfig,
    report: SupervisorReport,
}

impl<'c> Store<'c> {
    /// Opens (creating if missing) the checkpoint directory of `ckpt`.
    fn open(ckpt: &'c CheckpointConfig) -> Result<Store<'c>, SupervisorError> {
        fs::create_dir_all(&ckpt.dir)?;
        Ok(Store { ckpt, report: SupervisorReport::default() })
    }

    /// Writes checkpoint `seq` as `dir/ckpt-<seq 8 digits>.lcgsnap`, then
    /// rotates. Sequence numbers (rounds done; next attempt) order
    /// checkpoints within one run only, and the directory may hold files
    /// another run left — skipped at resume, but still numbered — so every
    /// file numbered above `seq` goes first: an earlier run's or this run's
    /// own pre-crash future, it lies on a timeline this run has left, and
    /// ranked by number alone it would evict each checkpoint right after it
    /// was written. Of the rest the newest `KEEP` stay.
    fn save(&mut self, seq: u64, w: &SnapshotWriter) -> Result<(), SupervisorError> {
        // tmp file + atomic rename: a crash mid-write can never leave a
        // half-written file under the real name — the worst case is an
        // orphaned `.tmp` the listing ignores
        let path = self.ckpt.dir.join(format!("ckpt-{seq:08}.{SNAPSHOT_EXT}"));
        let tmp = path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
        fs::write(&tmp, w.to_bytes())?;
        fs::rename(&tmp, &path)?;
        self.report.saved += 1;
        let mut found = list_snapshots(&self.ckpt.dir)?;
        let dead = found.split_off(found.partition_point(|&(s, _)| s <= seq));
        found.truncate(found.len().saturating_sub(KEEP));
        for (_, path) in found.iter().chain(&dead) {
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Resumes from the newest file that parses, that `load` accepts, and
    /// whose sequence number is the progress `load` found recorded inside
    /// it, skipping and counting every other file newest to oldest. `None`
    /// means no usable snapshot — start fresh.
    fn resume<T>(
        &mut self,
        load: impl Fn(&SnapshotReader) -> Loaded<T>,
    ) -> Result<Option<T>, SupervisorError> {
        let mut found = list_snapshots(&self.ckpt.dir)?;
        while let Some((seq, path)) = found.pop() {
            let loaded = fs::File::open(&path)
                .map_err(SnapshotError::Io)
                .and_then(SnapshotReader::read_from)
                .and_then(|r| load(&r));
            match loaded {
                Ok((recorded, value)) if recorded == seq => {
                    self.report.resumed += 1;
                    return Ok(Some(value));
                }
                // unreadable, refused by `load` (each a typed
                // `SnapshotError`), or a file whose sequence number
                // disagrees with recorded progress
                _ => self.report.corrupt_skipped += 1,
            }
        }
        Ok(None)
    }

    /// Books one caught crash; `false` once the restart budget is spent.
    fn crashed_within_budget(&mut self) -> bool {
        self.report.crashes += 1;
        self.report.crashes <= self.ckpt.restart_budget
    }
}

/// Panics with `injected crash at {at}`: the fault of the kill-at-round and
/// kill-at-attempt harnesses, caught by the supervisor's `catch_unwind`.
#[expect(clippy::panic, reason = "the kill harnesses' fault; the supervisor's catch_unwind consumes it")]
fn injected_crash(at: std::fmt::Arguments<'_>) -> ! {
    panic!("injected crash at {at}")
}

// ---------------------------------------------------- round-level driver

/// Runs `rounds` rounds of a per-vertex step program under the
/// checkpointing supervisor, returning states and stats **bit-identical**
/// to `Network::run_state(rounds)` straight through — with any crash
/// cadence, any checkpoint cadence.
///
/// After every `ckpt.every`-round batch the complete engine state
/// (topology fingerprint, in-flight messages, stats, fault progress,
/// tracer, deterministic metrics — see
/// [`Network::write_snapshot_sections`]) plus the per-vertex states
/// (`NODE` section) and supervisor progress (`SUPR`) are written
/// atomically and rotated keep-last-2. A caught panic — a node program's,
/// or the injected `kill_at_round` crash — discards the crashed engine and resumes from the newest snapshot that
/// parses, falling back file by file (counted in `corrupt_skipped`) down
/// to a fresh start, under `ckpt.restart_budget` restarts.
///
/// If a directory already holds snapshots of a previous (killed) run of
/// the same shape, execution resumes from them — that is the cross-process
/// resume path the E24 experiment drives.
pub fn run_state_checkpointed<S, F>(
    g: &Graph,
    model: Model,
    rounds: u64,
    init: impl Fn() -> Vec<S>,
    mut step: F,
    ckpt: &CheckpointConfig,
) -> Result<CheckpointedRun<S>, SupervisorError>
where
    S: SnapshotState,
    F: FnMut(&mut S, usize, &Inbox, &mut Outbox),
{
    let mut store = Store::open(ckpt)?;
    let every = ckpt.every.max(1);
    let mut kill = ckpt.kill_at_round;
    let load = |r: &SnapshotReader| load_state(g, rounds, r);
    let fresh = || (Network::new(g, model), init(), 0);
    let (mut net, mut states, mut done) = store.resume(load)?.unwrap_or_else(fresh);
    if states.len() != g.n() {
        return Err(SupervisorError::Snapshot(SnapshotError::Corrupt {
            detail: format!("init() produced {} states for {} vertices", states.len(), g.n()),
        }));
    }
    while done < rounds {
        let end = rounds.min(done + every);
        let kill_here = kill.filter(|&k| k >= done && k < end);
        let ran = catch_unwind(AssertUnwindSafe(|| match kill_here {
            None => net.run_state((end - done) as usize, &mut states, &mut step),
            Some(k) => {
                net.run_state((k - done) as usize, &mut states, &mut step);
                // the crashed round: vertex 0's program dies mid-round — to
                // the supervisor, exactly what a crashed process looks like
                net.run_state(1, &mut states, |s: &mut S, v: usize, inbox: &Inbox, out: &mut Outbox| {
                    if v == 0 {
                        injected_crash(format_args!("round {k} (kill-at-round harness)"));
                    }
                    step(s, v, inbox, out);
                });
            }
        }));
        match ran {
            Ok(()) => {
                done = end;
                store.save(done, &state_checkpoint(&net, &states, done, rounds))?;
            }
            Err(_) => {
                kill = None; // one-shot: the resumed run must not re-crash
                if !store.crashed_within_budget() {
                    return Err(SupervisorError::RestartBudgetExhausted { report: store.report });
                }
                // the in-memory engine is mid-round; roll back to the
                // newest checkpoint that loads, or to a fresh start
                (net, states, done) = store.resume(load)?.unwrap_or_else(fresh);
            }
        }
    }
    Ok(CheckpointedRun { states, stats: net.stats(), report: store.report })
}

/// One round-driver checkpoint: the engine sections, the `NODE`
/// per-vertex states, and the `SUPR` progress record (done, total).
fn state_checkpoint<S: SnapshotState>(
    net: &Network<'_>,
    states: &Vec<S>,
    done: u64,
    total: u64,
) -> SnapshotWriter {
    let mut w = SnapshotWriter::new();
    net.write_snapshot_sections(&mut w);
    w.state_section("NODE", states);
    w.state_section("SUPR", &(done, total));
    w
}

/// Decodes one round-driver checkpoint of a `rounds`-round run on `g`:
/// the rounds it records as done, and the run state at that point.
fn load_state<'g, S: SnapshotState>(
    g: &'g Graph,
    rounds: u64,
    r: &SnapshotReader,
) -> Loaded<(Network<'g>, Vec<S>, u64)> {
    let net = Network::restore_snapshot_sections(g, r)?;
    let states: Vec<S> = r.state_section("NODE")?;
    let (done, _total): (u64, u64) = r.state_section("SUPR")?;
    if states.len() != g.n() || done > rounds {
        return Err(SnapshotError::Corrupt {
            detail: format!(
                "{} states at round {done}: not a checkpoint of {rounds} rounds on {} vertices",
                states.len(),
                g.n()
            ),
        });
    }
    Ok((done, (net, states, done)))
}

// ------------------------------------------------ framework-level driver

/// Fingerprint binding a framework checkpoint to its graph, config, and
/// policy: resuming under different parameters silently skips the file.
/// It covers every field that changes what an attempt computes or what
/// [`AttemptLog`] accumulates; thread count and tracing stay free to
/// change across a resume.
fn framework_fingerprint(g: &Graph, cfg: &FrameworkConfig, policy: &RecoveryPolicy) -> u64 {
    // exhaustive on purpose: a new field does not compile until it is
    // classified here as bound or free
    let FrameworkConfig {
        epsilon,
        density_bound,
        seed,
        max_walk_steps,
        message_faithful,
        metrics,
        faults,
        exec: _,
        trace: _,
        trace_top_k: _,
    } = cfg;
    let mut enc = Enc::new();
    encode_edges(g, &mut enc);
    enc.u64(*seed);
    enc.f64(*epsilon);
    enc.f64(*density_bound);
    enc.usize(*max_walk_steps);
    // the leading 0 and 1 are two retired flags (`deterministic_routing`,
    // and the adaptive-φ switch `run_framework_on` replaced) at the only
    // values a checkpointed run ever had: their bytes stay, so checkpoints
    // written before their removal still resume
    for flag in [false, true, *message_faithful, *metrics] {
        enc.u8(u8::from(flag));
    }
    faults.encode(&mut enc);
    let RecoveryPolicy { max_retries, initial_walk_steps } = policy;
    enc.u64(u64::from(*max_retries));
    enc.usize(*initial_walk_steps);
    fnv1a64(&enc.into_bytes())
}

/// One attempt-boundary checkpoint of the framework supervisor.
fn framework_checkpoint(fingerprint: u64, acc: &AttemptLog) -> SnapshotWriter {
    let mut w = SnapshotWriter::new();
    w.state_section("SUPR", &(fingerprint, acc.next_attempt, acc.detector_rounds));
    w.state_section("SPNT", &acc.spent);
    w.state_section("FAIL", &acc.failures);
    // only the deterministic plane crosses the crash; the profiling plane
    // is wall-clock state and dies with the process (Report::from_json
    // defaults it)
    w.state_section("METR", &acc.folded.as_ref().map(Report::deterministic_json));
    w
}

/// Decodes one framework-supervisor checkpoint bound to `fingerprint`:
/// the next attempt it records, and the accumulators at that boundary.
fn load_framework(fingerprint: u64, r: &SnapshotReader) -> Loaded<AttemptLog> {
    let (fp, next_attempt, detector_rounds): (u64, u64, u64) = r.state_section("SUPR")?;
    if fp != fingerprint {
        return Err(SnapshotError::TopologyMismatch {
            detail: format!("checkpoint binds #{fp:016x}, run is #{fingerprint:016x}"),
        });
    }
    let spent: RoundStats = r.state_section("SPNT")?;
    let failures: Vec<String> = r.state_section("FAIL")?;
    let folded = r
        .state_section::<Option<String>>("METR")?
        .map(|json| Report::from_json(&json))
        .transpose()
        .map_err(|e| SnapshotError::Corrupt { detail: format!("folded metrics: {e}") })?;
    Ok((next_attempt, AttemptLog { next_attempt, detector_rounds, spent, failures, folded }))
}

/// [`crate::recovery::run_framework_resilient`] under the kill-and-resume
/// supervisor: same retry schedule, same derived seeds, same degradation
/// contract — plus attempt-boundary checkpoints, so a crash (a caught
/// panic, the injected `kill_at_attempt` fault, or a kill
/// between *processes* resuming over the same directory) loses at most
/// the attempt in flight.
///
/// The outcome, recovery report, and folded deterministic metrics are
/// **bit-identical** to an unkilled `run_framework_resilient` run: a
/// crashed attempt commits nothing, a resumed run restores the
/// accumulators exactly as the boundary left them, and the `recovery.*`
/// verdict counters are stamped once at the terminal state — never
/// persisted inside a checkpoint — so resume-after-degradation cannot
/// double-count `recovery.attempts`.
///
/// Crashes beyond `ckpt.restart_budget` degrade to the PR 4 terminal
/// state ([`singleton_outcome`]) instead of erroring: the caller always
/// receives a structurally valid outcome.
///
/// [`singleton_outcome`]: crate::recovery::singleton_outcome
pub fn run_framework_checkpointed(
    g: &Graph,
    cfg: &FrameworkConfig,
    policy: &RecoveryPolicy,
    ckpt: &CheckpointConfig,
) -> Result<(FrameworkOutcome, RecoveryReport, SupervisorReport), SupervisorError> {
    let mut store = Store::open(ckpt)?;
    let fingerprint = framework_fingerprint(g, cfg, policy);
    let mut kill = ckpt.kill_at_attempt;
    let load = |r: &SnapshotReader| load_framework(fingerprint, r);
    let mut acc = store.resume(load)?.unwrap_or_default();
    // seed-independent and never reached by a fault plan: computed once, by
    // the first attempt this process executes (inside its `catch_unwind`)
    let mut decomposed = None;
    while acc.next_attempt <= u64::from(policy.max_retries) {
        let attempt = acc.next_attempt as u32;
        let kill_now = kill == Some(attempt);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let (decomposition, timed) = decomposed.get_or_insert_with(|| decompose_timed(g, cfg));
            let ran = acc.run(g, decomposition, timed.take(), cfg, policy);
            if kill_now {
                // fires after the attempt's work, before any of it is
                // committed — the lost-progress crash checkpoints absorb
                injected_crash(format_args!("attempt {attempt} (kill-at-attempt harness)"));
            }
            ran
        }));
        let ran = match ran {
            Ok(completed) => completed,
            Err(_) => {
                kill = None; // one-shot
                if !store.crashed_within_budget() {
                    // crash loop: give up on the machinery and degrade to
                    // the PR 4 terminal state — never panic
                    store.report.degraded = true;
                    let (outcome, recovery) = acc.degrade(g, cfg, attempt);
                    return Ok((outcome, recovery, store.report));
                }
                acc = store.resume(load)?.unwrap_or_default();
                continue;
            }
        };
        if let Some((outcome, recovery)) = acc.commit(ran) {
            return Ok((outcome, recovery, store.report));
        }
        store.save(acc.next_attempt, &framework_checkpoint(fingerprint, &acc))?;
    }
    // retry budget exhausted: every attempt completed and failed detection
    store.report.degraded = true;
    let (outcome, recovery) = acc.degrade(g, cfg, policy.max_retries + 1);
    Ok((outcome, recovery, store.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::run_framework_resilient;
    use lcg_congest::{ExecConfig, FaultPlan};
    use lcg_graph::gen;

    /// Unique per-test scratch directory under the system temp dir; no
    /// wall clock, no ambient randomness — process id + test name.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcg-supervisor-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn flood_step(me: &mut bool, _v: usize, inbox: &Inbox, out: &mut Outbox) {
        if inbox.iter().any(Option::is_some) {
            *me = true;
        }
        if *me {
            for p in 0..out.ports() {
                out.send(p, [1]);
            }
        }
    }

    fn flood_init(n: usize) -> Vec<bool> {
        let mut informed = vec![false; n];
        informed[0] = true;
        informed
    }

    fn straight_flood(g: &Graph, rounds: u64) -> (Vec<bool>, RoundStats) {
        let mut net = Network::new(g, Model::congest());
        let mut informed = flood_init(g.n());
        net.run_state(rounds as usize, &mut informed, flood_step);
        (informed, net.stats())
    }

    #[test]
    fn checkpointed_run_matches_straight_through() {
        let g = gen::grid(6, 6);
        let dir = scratch("plain");
        let (want_states, want_stats) = straight_flood(&g, 11);
        let ckpt = CheckpointConfig::new(&dir).with_every(3);
        let run = run_state_checkpointed(
            &g,
            Model::congest(),
            11,
            || flood_init(g.n()),
            flood_step,
            &ckpt,
        )
        .expect("checkpointed run");
        assert_eq!(run.states, want_states);
        assert_eq!(run.stats, want_stats);
        assert_eq!(run.report.crashes, 0);
        assert_eq!(run.report.resumed, 0);
        // 11 rounds at cadence 3 → boundaries at 3, 6, 9, 11
        assert_eq!(run.report.saved, 4);
        // rotation kept exactly `KEEP` files
        assert_eq!(list_snapshots(&dir).expect("list").len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_then_resume_is_bit_identical() {
        let g = gen::grid(6, 6);
        let dir = scratch("kill");
        let (want_states, want_stats) = straight_flood(&g, 11);
        let ckpt = CheckpointConfig::new(&dir).with_every(3).with_kill_at_round(7);
        let run = run_state_checkpointed(
            &g,
            Model::congest(),
            11,
            || flood_init(g.n()),
            flood_step,
            &ckpt,
        )
        .expect("killed run must recover");
        assert_eq!(run.states, want_states);
        assert_eq!(run.stats, want_stats);
        assert_eq!(run.report.crashes, 1);
        // round 7 is inside batch 6..9, so the resume point is round 6
        assert_eq!(run.report.resumed, 1);
        assert!(run.report.saved >= 4);
        let reg = run.report.registry();
        assert_eq!(reg.counter("checkpoint.resumed"), 1);
        assert_eq!(reg.counter("checkpoint.crashes"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    fn sequences(dir: &Path) -> Vec<u64> {
        list_snapshots(dir).expect("list").into_iter().map(|(seq, _)| seq).collect()
    }

    /// Sequence numbers order checkpoints within one run only. Ranked by
    /// number alone, the files an earlier, longer run left behind (skipped
    /// at resume, but still numbered 36 and 40) used to out-rank — and so
    /// rotate away — every checkpoint the current run wrote, and its crash
    /// silently restarted from round 0.
    #[test]
    fn stale_directory_cannot_evict_the_current_runs_checkpoints() {
        let g = gen::grid(5, 5);
        let dir = scratch("stale");
        let run = |rounds: u64, ckpt: CheckpointConfig| {
            run_state_checkpointed(
                &g,
                Model::congest(),
                    rounds,
                || flood_init(g.n()),
                flood_step,
                &ckpt,
            )
            .expect("supervised run")
        };
        run(40, CheckpointConfig::new(&dir).with_every(4));
        assert_eq!(sequences(&dir), [36, 40]);
        let (want_states, want_stats) = straight_flood(&g, 10);
        let b = run(10, CheckpointConfig::new(&dir).with_every(2).with_kill_at_round(7));
        assert_eq!(b.states, want_states);
        assert_eq!(b.stats, want_stats);
        assert_eq!(b.report.crashes, 1);
        assert_eq!(b.report.resumed, 1, "the crash must resume from this run's round-6 checkpoint");
        // exactly what the same run reads in a fresh directory, plus the
        // two foreign files skipped once — the first save removed them
        assert_eq!((b.report.saved, b.report.corrupt_skipped), (5, 2));
        assert_eq!(sequences(&dir), [8, 10]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_first_checkpoint_restarts_from_scratch() {
        let g = gen::cycle(16);
        let dir = scratch("early");
        let (want_states, want_stats) = straight_flood(&g, 9);
        let ckpt = CheckpointConfig::new(&dir).with_every(5).with_kill_at_round(2);
        let run = run_state_checkpointed(
            &g,
            Model::congest(),
            9,
            || flood_init(g.n()),
            flood_step,
            &ckpt,
        )
        .expect("recoverable");
        assert_eq!(run.states, want_states);
        assert_eq!(run.stats, want_stats);
        assert_eq!(run.report.crashes, 1);
        assert_eq!(run.report.resumed, 0, "no snapshot existed yet: fresh restart");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let g = gen::grid(6, 6);
        let dir = scratch("corrupt");
        let (want_states, want_stats) = straight_flood(&g, 11);
        let ckpt = CheckpointConfig::new(&dir).with_every(3);
        run_state_checkpointed(
            &g,
            Model::congest(),
            11,
            || flood_init(g.n()),
            flood_step,
            &ckpt,
        )
        .expect("first run");
        // flip one payload byte in the newest snapshot file
        let (_, newest) = list_snapshots(&dir).expect("list").pop().expect("snapshots exist");
        let mut bytes = fs::read(&newest).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, bytes).expect("re-write corrupted");
        // the second invocation resumes over the same directory: the
        // corrupted newest file is skipped, its predecessor replays the
        // tail, and the result is still bit-identical
        let run = run_state_checkpointed(
            &g,
            Model::congest(),
            11,
            || flood_init(g.n()),
            flood_step,
            &ckpt,
        )
        .expect("resume past corruption");
        assert_eq!(run.states, want_states);
        assert_eq!(run.stats, want_stats);
        assert_eq!(run.report.corrupt_skipped, 1);
        assert_eq!(run.report.resumed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_budget_exhaustion_is_a_typed_error() {
        let g = gen::cycle(8);
        let dir = scratch("budget");
        let ckpt =
            CheckpointConfig::new(&dir).with_every(4).with_kill_at_round(1).with_restart_budget(0);
        let err = run_state_checkpointed(
            &g,
            Model::congest(),
            6,
            || flood_init(g.n()),
            flood_step,
            &ckpt,
        )
        .expect_err("budget 0 cannot absorb a crash");
        match err {
            SupervisorError::RestartBudgetExhausted { report } => {
                assert_eq!(report.crashes, 1);
            }
            other => panic!("wrong error: {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_survives_armed_faults() {
        let g = gen::grid(6, 6);
        let dir = scratch("faults");
        let plan = FaultPlan::drops(0xFA, 0.3).with_link_failure(0, 2, 8);
        let rounds = 13;
        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(plan.clone()));
        let mut want_states = flood_init(g.n());
        net.run_state(rounds as usize, &mut want_states, flood_step);
        let want_stats = net.stats();

        let ckpt = CheckpointConfig::new(&dir).with_every(4).with_kill_at_round(9);
        // the checkpointed variant arms the same plan by resuming a
        // network that carries it: build the seed snapshot by hand
        let mut seeded = Network::new(&g, Model::congest());
        seeded.set_fault_plan(Some(plan));
        let mut states = flood_init(g.n());
        seeded.run_state(4, &mut states, flood_step);
        Store::open(&ckpt)
            .and_then(|mut store| store.save(4, &state_checkpoint(&seeded, &states, 4, rounds)))
            .expect("seed checkpoint");
        let run = run_state_checkpointed(
            &g,
            Model::congest(),
            rounds,
            || flood_init(g.n()),
            flood_step,
            &ckpt,
        )
        .expect("resume with faults armed");
        assert_eq!(run.states, want_states);
        assert_eq!(run.stats, want_stats);
        assert!(run.stats.dropped_messages > 0, "the plan must have bitten");
        assert_eq!(run.report.resumed, 2, "initial resume plus post-kill resume");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn framework_kill_then_resume_matches_resilient() {
        let mut rng = gen::seeded_rng(500);
        let g = gen::random_planar(60, 0.5, &mut rng);
        let dir = scratch("fw-kill");
        let cfg = FrameworkConfig { metrics: true, ..FrameworkConfig::planar(0.3, 7) };
        let policy = RecoveryPolicy { max_retries: 2, initial_walk_steps: 20_000 };
        let (want, want_rec) = run_framework_resilient(&g, &cfg, &policy);
        let ckpt = CheckpointConfig::new(&dir).with_kill_at_attempt(0);
        let (out, rec, sup) =
            run_framework_checkpointed(&g, &cfg, &policy, &ckpt).expect("supervised run");
        assert_eq!(rec, want_rec);
        assert_eq!(out.stats, want.stats);
        assert_eq!(out.decomposition.cluster_of, want.decomposition.cluster_of);
        assert_eq!(sup.crashes, 1);
        assert!(!sup.degraded);
        // deterministic metrics planes are byte-identical — including the
        // recovery.* counters, stamped exactly once despite the resume
        let a = out.metrics.expect("metrics on").deterministic_json();
        let b = want.metrics.expect("metrics on").deterministic_json();
        assert_eq!(a, b);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint directory left by a run under one configuration is
    /// foreign to a run under another: every file is skipped (typed and
    /// counted), nothing of the old run's accumulators leaks in, and the
    /// outcome is that of a fresh run.
    #[test]
    fn framework_checkpoint_binds_to_every_result_bearing_field() {
        let mut rng = gen::seeded_rng(500);
        let g = gen::random_planar(60, 0.5, &mut rng);
        let policy = RecoveryPolicy { max_retries: 3, initial_walk_steps: 1_000 };
        let base = FrameworkConfig { max_walk_steps: 5_000, ..FrameworkConfig::planar(0.3, 7) };
        // run A: total blackout, every attempt fails; killed at attempt 2
        // with no restart budget, so attempts 0 and 1 are on disk
        let dir = scratch("fw-foreign");
        let a = FrameworkConfig { faults: Some(FaultPlan::drops(1, 1.0)), ..base.clone() };
        let killed = CheckpointConfig::new(&dir).with_kill_at_attempt(2).with_restart_budget(0);
        let (_, a_rec, a_sup) = run_framework_checkpointed(&g, &a, &policy, &killed).expect("run A");
        assert_eq!((a_rec.attempts, a_sup.saved), (2, 2));
        // run B differs only in fields the old fingerprint left out
        let b = FrameworkConfig { message_faithful: true, density_bound: 2.0, ..base.clone() };
        let fresh_dir = scratch("fw-foreign-fresh");
        let (want, want_rec, _) =
            run_framework_checkpointed(&g, &b, &policy, &CheckpointConfig::new(&fresh_dir))
                .expect("fresh run B");
        let (out, rec, sup) = run_framework_checkpointed(&g, &b, &policy, &CheckpointConfig::new(&dir))
            .expect("run B over A's directory");
        assert_eq!(sup.resumed, 0, "A's checkpoints are not B's");
        assert!(sup.corrupt_skipped >= 1, "foreign files are skipped, typed and counted");
        assert_eq!(rec, want_rec);
        assert_eq!(out.stats, want.stats);
        assert_eq!(out.decomposition.cluster_of, want.decomposition.cluster_of);
        // each bound field moves the fingerprint on its own; the free ones do not
        let fp = |cfg: &FrameworkConfig| framework_fingerprint(&g, cfg, &policy);
        for (field, changed) in [
            ("faults", FrameworkConfig { faults: Some(FaultPlan::none()), ..base.clone() }),
            ("density_bound", FrameworkConfig { density_bound: 2.0, ..base.clone() }),
            ("message_faithful", FrameworkConfig { message_faithful: true, ..base.clone() }),
            ("metrics", FrameworkConfig { metrics: true, ..base.clone() }),
        ] {
            assert_ne!(fp(&changed), fp(&base), "{field} must bind the checkpoint");
        }
        let free = FrameworkConfig {
            exec: ExecConfig::with_threads(3),
            trace: true,
            trace_top_k: base.trace_top_k + 1,
            ..base.clone()
        };
        assert_eq!(fp(&free), fp(&base), "thread count and tracing may change across a resume");
        // ...and retiring a flag does not: the value the commit before the
        // adaptive-φ switch was removed computed for this run
        let grid = gen::grid(3, 3);
        assert_eq!(framework_fingerprint(&grid, &base, &policy), 0xf5db_6b1d_28e2_8dd6);
        // ...and neither does sharing the edge-list encoder with `TOPO`:
        // the value the commit before `snapshot::encode_edges` computed,
        // every bound field set away from its default
        let mut rng = gen::seeded_rng(29);
        let planar = gen::random_planar(40, 0.5, &mut rng);
        let bound = FrameworkConfig {
            message_faithful: true,
            metrics: true,
            faults: Some(FaultPlan::drops(5, 0.1).with_crash(3, 4)),
            ..FrameworkConfig::planar(0.25, 11)
        };
        let other_policy = RecoveryPolicy { max_retries: 2, initial_walk_steps: 700 };
        assert_eq!(framework_fingerprint(&planar, &bound, &other_policy), 0x05c3_d8da_0bde_5b9c);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&fresh_dir);
    }

    /// The framework driver's side of the stale-directory case: another
    /// configuration's attempt checkpoints 3 and 4 must not rotate away this
    /// run's 1 and 2 before its crash at attempt 2 needs them.
    #[test]
    fn framework_stale_directory_cannot_evict_the_current_runs_checkpoints() {
        let mut rng = gen::seeded_rng(500);
        let g = gen::random_planar(60, 0.5, &mut rng);
        let dir = scratch("fw-stale");
        let policy = RecoveryPolicy { max_retries: 3, initial_walk_steps: 1_000 };
        let blackout = |seed: u64| FrameworkConfig {
            faults: Some(FaultPlan::drops(1, 1.0)),
            max_walk_steps: 5_000,
            ..FrameworkConfig::planar(0.3, seed)
        };
        let plain = CheckpointConfig::new(&dir);
        let (_, a_rec, _) =
            run_framework_checkpointed(&g, &blackout(7), &policy, &plain).expect("run A");
        assert!(a_rec.degraded, "a blackout fails every attempt");
        assert_eq!(sequences(&dir), [3, 4]);
        let b = blackout(8);
        let (want, want_rec) = run_framework_resilient(&g, &b, &policy);
        let (out, rec, sup) =
            run_framework_checkpointed(&g, &b, &policy, &plain.clone().with_kill_at_attempt(2))
                .expect("run B over A's directory");
        assert_eq!(rec, want_rec);
        assert_eq!(out.stats, want.stats);
        assert_eq!(out.decomposition.cluster_of, want.decomposition.cluster_of);
        assert_eq!(sup.crashes, 1);
        assert_eq!(sup.resumed, 1, "the crash must resume from this run's attempt-2 checkpoint");
        assert_eq!((sup.saved, sup.corrupt_skipped), (4, 2));
        // the two files left are B's own: B resumes its terminal
        // checkpoint from them, skipping nothing and writing nothing
        assert_eq!(sequences(&dir), [3, 4]);
        let (_, again_rec, again) =
            run_framework_checkpointed(&g, &b, &policy, &plain).expect("run B again");
        assert_eq!(again_rec, want_rec);
        assert_eq!((again.saved, again.resumed, again.corrupt_skipped), (0, 1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// With no kill the supervisor is the resilient loop plus boundary
    /// saves: same outcome stats, same recovery report, same deterministic
    /// metrics bytes — on a plan that is outrun by a retry and on one
    /// that exhausts the budget and degrades.
    #[test]
    fn unkilled_supervisor_equals_resilient_across_retries_and_degradation() {
        let mut rng = gen::seeded_rng(501);
        let planar = gen::random_planar(60, 0.5, &mut rng);
        let grid = gen::grid(5, 5);
        // edge 1 is down for the first two rounds and walk steps: whether
        // a token dies on it depends on the attempt's derived walk seed
        let retried = FrameworkConfig {
            faults: Some(FaultPlan::none().with_link_failure(1, 0, 2)),
            max_walk_steps: 20_000,
            metrics: true,
            ..FrameworkConfig::planar(0.3, 6)
        };
        let blackout = FrameworkConfig {
            faults: Some(FaultPlan::drops(1, 1.0)),
            max_walk_steps: 5_000,
            metrics: true,
            ..FrameworkConfig::planar(0.3, 11)
        };
        let cases = [
            ("retried", &planar, retried, RecoveryPolicy { max_retries: 3, initial_walk_steps: 5_000 }, false),
            ("degraded", &grid, blackout, RecoveryPolicy { max_retries: 1, initial_walk_steps: 1_000 }, true),
        ];
        for (name, g, cfg, policy, degrades) in cases {
            let dir = scratch(&format!("fw-plain-{name}"));
            let (want, want_rec) = run_framework_resilient(g, &cfg, &policy);
            assert!(want_rec.attempts >= 2, "{name}: the plan must force a retry: {want_rec:?}");
            assert_eq!(want_rec.degraded, degrades, "{name}");
            let (out, rec, sup) =
                run_framework_checkpointed(g, &cfg, &policy, &CheckpointConfig::new(&dir))
                    .expect("supervised run");
            assert_eq!(rec, want_rec, "{name}");
            assert_eq!(out.stats, want.stats, "{name}");
            assert_eq!(out.decomposition.cluster_of, want.decomposition.cluster_of, "{name}");
            assert_eq!(
                out.metrics.expect("metrics on").deterministic_json(),
                want.metrics.expect("metrics on").deterministic_json(),
                "{name}"
            );
            assert_eq!((sup.crashes, sup.resumed), (0, 0), "{name}");
            assert_eq!(sup.degraded, degrades, "{name}");
            // one boundary checkpoint per failed attempt
            assert_eq!(sup.saved, u64::from(rec.attempts) - u64::from(!degrades), "{name}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn framework_degradation_after_resume_does_not_double_count() {
        let g = gen::grid(5, 5);
        let dir = scratch("fw-degrade");
        let cfg = FrameworkConfig {
            faults: Some(FaultPlan::drops(1, 1.0)),
            max_walk_steps: 5_000,
            metrics: true,
            ..FrameworkConfig::planar(0.3, 11)
        };
        let policy = RecoveryPolicy { max_retries: 1, initial_walk_steps: 1_000 };
        let (want, want_rec) = run_framework_resilient(&g, &cfg, &policy);
        assert!(want_rec.degraded);
        // kill attempt 1: its boundary checkpoint (written after attempt 0
        // failed) is the resume point
        let ckpt = CheckpointConfig::new(&dir).with_kill_at_attempt(1);
        let (out, rec, sup) =
            run_framework_checkpointed(&g, &cfg, &policy, &ckpt).expect("supervised run");
        assert_eq!(rec, want_rec);
        assert_eq!(out.stats, want.stats);
        assert_eq!(sup.crashes, 1);
        assert_eq!(sup.resumed, 1);
        assert!(sup.degraded);
        let det = &out.metrics.expect("metrics on").deterministic;
        // satellite invariant: exactly the resilient run's verdict — the
        // resumed fold never double-counts recovery.attempts
        assert_eq!(det.counter("recovery.attempts"), u64::from(want_rec.attempts));
        assert_eq!(
            det.counter("recovery.attempts"),
            u64::from(policy.max_retries) + 1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn framework_crash_budget_degrades_never_panics() {
        let g = gen::grid(4, 4);
        let dir = scratch("fw-budget");
        let cfg = FrameworkConfig::planar(0.3, 3);
        let policy = RecoveryPolicy { max_retries: 1, initial_walk_steps: 5_000 };
        // kill at attempt 0 with budget 0: the supervisor cannot restart,
        // so it must degrade — structurally valid, never a panic
        let ckpt = CheckpointConfig::new(&dir).with_kill_at_attempt(0).with_restart_budget(0);
        let (out, rec, sup) =
            run_framework_checkpointed(&g, &cfg, &policy, &ckpt).expect("degraded run");
        assert!(sup.degraded);
        assert!(rec.degraded);
        assert_eq!(rec.attempts, 0, "no attempt completed before the crash loop");
        out.decomposition.validate(&g).expect("singleton degradation is valid");
        assert_eq!(out.decomposition.clusters.len(), g.n());
        let _ = fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        /// Both drivers' loaders, fed their own checkpoints with section
        /// payloads edited under recomputed checksums (what a hostile
        /// writer produces): a value or a typed error, never a panic.
        #[test]
        fn loaders_never_panic_on_edited_payloads(
            edits in proptest::collection::vec((0usize..16, 0usize..4096, proptest::any::<u8>()), 1..6),
        ) {
            let g = gen::grid(3, 3);
            let mut net = Network::new(&g, Model::congest());
            let mut states = flood_init(g.n());
            net.run_state(2, &mut states, flood_step);
            let mut folded = lcg_metrics::Recorder::new("fold");
            folded.counter_add("net.rounds", 3);
            let acc = AttemptLog {
                next_attempt: 2,
                detector_rounds: 5,
                spent: net.stats(),
                failures: vec!["undelivered tokens".to_string()],
                folded: Some(folded.finish()),
            };
            for clean in [state_checkpoint(&net, &states, 2, 9), framework_checkpoint(0xF00D, &acc)] {
                let clean = SnapshotReader::parse(&clean.to_bytes()).expect("own checkpoint parses");
                let mut sections: Vec<(String, Vec<u8>)> = clean
                    .tags()
                    .map(|t| (t.to_string(), clean.section(t).expect("listed tag").to_vec()))
                    .collect();
                let count = sections.len();
                for &(sec, at, byte) in &edits {
                    let payload = &mut sections[sec % count].1;
                    if !payload.is_empty() {
                        let at = at % payload.len();
                        payload[at] = byte;
                    }
                }
                let mut w = SnapshotWriter::new();
                for (tag, payload) in sections {
                    w.section(&tag, payload);
                }
                let edited = SnapshotReader::parse(&w.to_bytes()).expect("checksums recomputed");
                // reaching the end of each call is the assertion
                let _ = load_state::<bool>(&g, 9, &edited);
                let _ = load_framework(0xF00D, &edited);
            }
        }
    }
}
