//! Self-healing execution of the Theorem 2.6 framework.
//!
//! The paper's §2.3 failure machinery is *detection*: elections that
//! disagree, routings whose reversal comes up short, clusters whose
//! diameter exceeds the bound of a successful execution. This module is
//! the *reaction*: run the framework under whatever
//! [`FaultPlan`](lcg_congest::FaultPlan) the configuration carries, run
//! every detector, and on any detected failure retry the randomized
//! phases — election, orientation, gathering, over the one decomposition
//! computed before the first attempt, which no seed or fault reaches —
//! with a fresh derived seed and a doubled walk budget, up to a
//! configurable [`RecoveryPolicy`]. When the budget is exhausted the run
//! **degrades instead of failing**: every vertex falls back to its own
//! singleton cluster ([`singleton_outcome`]) — a clustering that needs no
//! communication to be correct — so callers always receive a structurally
//! valid [`FrameworkOutcome`], never a panic, under any fault schedule.
//!
//! Detection is assumed reliable (the checks run after the faulty
//! execution, over surviving links; DESIGN.md §9 discusses this
//! assumption) and its rounds are charged. Accounting across attempts is
//! cumulative: the returned outcome's `stats` include every failed
//! attempt and every detector pass, which is why — unlike a plain
//! [`run_framework`](crate::framework::run_framework) result — its
//! `phases` breakdown only covers the *final* attempt and no longer
//! partitions `stats.rounds`.

use lcg_congest::{Model, Network, RoundStats};
use lcg_expander::decomp::{ClusterInfo, ExpanderDecomposition};
use lcg_expander::routing::RoutingOutcome;
use lcg_graph::Graph;
use lcg_metrics::{Recorder, Report};
use lcg_trace::{TraceConfig, Tracer};

use crate::failure;
use crate::framework::{
    decompose_timed, run_framework_timed, ClusterRun, FrameworkConfig, FrameworkOutcome, PhaseRounds,
};

/// Seed stride between retry attempts (odd, so all 2^64 derived seeds are
/// distinct for distinct attempts).
pub const RETRY_SEED_STRIDE: u64 = 0xA076_1D64_78BD_642F;

/// The seed used by retry `attempt` (attempt 0 is the configured seed).
pub fn derived_seed(seed: u64, attempt: u32) -> u64 {
    seed ^ u64::from(attempt).wrapping_mul(RETRY_SEED_STRIDE)
}

/// Retry budget of [`run_framework_resilient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries after the initial attempt (`max_retries = 3` means up to
    /// four executions before degrading).
    pub max_retries: u32,
    /// Walk-step budget of the first attempt; each retry doubles it
    /// (exponential backoff in *rounds*, the resource the model prices),
    /// capped by the configuration's `max_walk_steps`.
    pub initial_walk_steps: usize,
}

impl RecoveryPolicy {
    /// Three retries, 50k walk steps to start — enough that a fault-free
    /// run usually succeeds on attempt 0 at laptop scale while a faulty
    /// one escalates quickly.
    pub fn default_budget() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            initial_walk_steps: 50_000,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::default_budget()
    }
}

/// What the retry harness did, alongside the outcome it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "the report says whether the outcome is the degraded singleton substitution"]
pub struct RecoveryReport {
    /// Framework executions performed (1 = clean first run).
    pub attempts: u32,
    /// `true` if every attempt failed detection and the outcome is the
    /// [`singleton_outcome`] degradation.
    pub degraded: bool,
    /// Human-readable detector verdicts of every *failed* attempt, in
    /// order ("attempt 0: cluster 3: gathering incomplete (17/21)", ...).
    pub failures: Vec<String>,
    /// Rounds spent by the §2.3 detectors across all attempts (also
    /// already included in the outcome's `stats.rounds`).
    pub detector_rounds: u64,
}

/// Runs every §2.3 detector against `outcome`, charging the diameter
/// check — against the bound `b` the execution itself measured — to
/// `det_net` (a fault-free control network on the host graph). Returns one
/// line per detected failure; empty means the execution passed.
fn detect_failures(outcome: &FrameworkOutcome, det_net: &mut Network) -> Vec<String> {
    let mut verdicts = Vec::new();
    for c in &outcome.clusters {
        if !c.election_agrees {
            verdicts.push(format!("cluster {}: election disagreement", c.id));
        }
        if failure::routing_failure_detected(&c.routing) {
            verdicts.push(format!(
                "cluster {}: gathering incomplete ({}/{})",
                c.id, c.routing.delivered, c.routing.total
            ));
        }
    }
    // §2.3 marking protocol with the measured bound `b`: every cluster
    // must still fit the diameter of a successful execution. The check
    // spends real rounds on the control network even when it passes.
    let cluster_of = &outcome.decomposition.cluster_of;
    if failure::enforce_diameter(det_net, cluster_of, outcome.diameter_bound) != *cluster_of {
        verdicts.push("clustering: over-diameter cluster dissolved".to_string());
    }
    verdicts
}

/// The degraded terminal state: every vertex its own cluster and leader.
///
/// Needs no communication to be correct — each "leader" trivially knows
/// its one-vertex topology — so it is valid under *any* fault schedule.
/// The price is the approximation guarantee: every edge is a cut edge.
/// The outcome carries zero stats and an empty four-phase span tree;
/// [`run_framework_resilient`] merges the failed attempts' spending on
/// top.
pub fn singleton_outcome(g: &Graph, cfg: &FrameworkConfig) -> FrameworkOutcome {
    let n = g.n();
    let cluster_of: Vec<usize> = (0..n).collect();
    let clusters_info: Vec<ClusterInfo> = (0..n)
        .map(|v| ClusterInfo {
            members: vec![v],
            phi_exact: None,
            phi_spectral_lower: None,
            sweep_upper: None,
        })
        .collect();
    let decomposition = ExpanderDecomposition {
        cluster_of,
        clusters: clusters_info,
        cut_edges: (0..g.m()).collect(),
        phi_cut: 0.0,
        epsilon: cfg.epsilon,
    };
    let clusters: Vec<ClusterRun> = (0..n)
        .map(|v| {
            let (subgraph, mapping) = g.induced_subgraph(&[v]);
            ClusterRun {
                id: v,
                leader: v,
                subgraph,
                mapping,
                election_agrees: true,
                routing: RoutingOutcome {
                    delivered: 1,
                    total: 1,
                    steps: 0,
                    rounds: 0,
                    max_edge_load: 0,
                },
            }
        })
        .collect();
    let mut tracer = Tracer::new(TraceConfig::spans_only("framework-degraded"));
    for name in ["election", "orientation", "gathering", "broadcast"] {
        let sp = tracer.open_span(name);
        tracer.close_span(sp);
    }
    FrameworkOutcome {
        decomposition,
        clusters,
        diameter_bound: 0,
        stats: RoundStats::default(),
        phases: PhaseRounds::default(),
        trace: tracer.finish(),
        metrics: None,
    }
}

/// Stamps the recovery verdict into a folded metrics report (counters
/// `recovery.attempts`, `recovery.degraded`, `recovery.detector_rounds`),
/// passing `None` through when metrics were off.
///
/// The terminal seal is the **only** place these counters are written —
/// checkpoints persist the pre-seal fold, so a resumed run can never
/// double-count them (see [`crate::supervisor`]).
fn seal_recovery_metrics(
    folded: Option<Report>,
    attempts: u32,
    degraded: bool,
    detector_rounds: u64,
) -> Option<Report> {
    folded.map(|mut rep| {
        rep.deterministic.counter_add("recovery.attempts", u64::from(attempts));
        rep.deterministic.counter_add("recovery.degraded", u64::from(degraded));
        rep.deterministic.counter_add("recovery.detector_rounds", detector_rounds);
        rep
    })
}

/// The accumulators of the §2.3 retry loop between attempts — which makes
/// them exactly the state [`crate::supervisor`] checkpoints at an attempt
/// boundary. One attempt is [`AttemptLog::run`] (pure: a crash in there
/// loses nothing) followed by [`AttemptLog::commit`].
#[derive(Default)]
pub(crate) struct AttemptLog {
    /// Next attempt to execute (attempts `0..next_attempt` completed and
    /// failed detection).
    pub(crate) next_attempt: u64,
    /// Detector rounds across completed attempts.
    pub(crate) detector_rounds: u64,
    /// Stats spent by completed attempts plus their detector passes.
    pub(crate) spent: RoundStats,
    /// Failure verdicts of completed attempts, in order.
    pub(crate) failures: Vec<String>,
    /// Folded deterministic metrics of completed attempts. The
    /// `recovery.*` verdict counters are **not** in here — they are
    /// stamped exactly once, at the terminal state, so a resume can never
    /// double-count `recovery.attempts`.
    pub(crate) folded: Option<Report>,
}

/// What [`AttemptLog::run`] produced, before any of it is committed.
pub(crate) struct AttemptRun {
    outcome: FrameworkOutcome,
    det_stats: RoundStats,
    verdicts: Vec<String>,
}

impl AttemptLog {
    /// Executes attempt `next_attempt` over `decomposition`: seed
    /// [`derived_seed`]`(cfg.seed, k)`, walk budget
    /// `policy.initial_walk_steps · 2^k` capped by `cfg.max_walk_steps`,
    /// then every §2.3 detector on a fault-free control network. A pure
    /// function of `(g, decomposition, cfg, policy, next_attempt)`; `timed`
    /// only hands the first attempt the recorder of [`decompose_timed`].
    pub(crate) fn run(
        &self,
        g: &Graph,
        decomposition: &ExpanderDecomposition,
        timed: Option<Recorder>,
        cfg: &FrameworkConfig,
        policy: &RecoveryPolicy,
    ) -> AttemptRun {
        let attempt = self.next_attempt as u32;
        let attempt_cfg = FrameworkConfig {
            seed: derived_seed(cfg.seed, attempt),
            max_walk_steps: policy
                .initial_walk_steps
                .saturating_mul(2usize.saturating_pow(attempt))
                .min(cfg.max_walk_steps),
            ..cfg.clone()
        };
        let outcome = run_framework_timed(g, decomposition.clone(), timed, &attempt_cfg);
        let mut det_net = Network::with_exec(g, Model::congest(), cfg.exec);
        let verdicts = detect_failures(&outcome, &mut det_net);
        AttemptRun { outcome, det_stats: det_net.stats(), verdicts }
    }

    /// Commits a finished attempt: folds its registry on top of the failed
    /// attempts' (the newest report wins the profiling plane), charges the
    /// detector pass, then either accepts — the outcome with cumulative
    /// stats and sealed metrics, plus the report — or records the verdicts
    /// and advances to the next attempt (`None`).
    pub(crate) fn commit(&mut self, ran: AttemptRun) -> Option<(FrameworkOutcome, RecoveryReport)> {
        let AttemptRun { mut outcome, det_stats, verdicts } = ran;
        let attempt = self.next_attempt as u32;
        if let Some(mut rep) = outcome.metrics.take() {
            if let Some(prev) = self.folded.take() {
                rep.deterministic.merge(&prev.deterministic);
            }
            self.folded = Some(rep);
        }
        self.detector_rounds += det_stats.rounds;
        self.spent.merge(&det_stats);
        if verdicts.is_empty() {
            return Some(self.conclude(outcome, attempt + 1, false));
        }
        self.failures.extend(verdicts.into_iter().map(|v| format!("attempt {attempt}: {v}")));
        self.spent.merge(&outcome.stats);
        self.next_attempt += 1;
        None
    }

    /// The terminal degradation after `attempts` completed attempts:
    /// [`singleton_outcome`] carrying everything the failed attempts spent,
    /// with the folded metrics sealed.
    pub(crate) fn degrade(
        mut self,
        g: &Graph,
        cfg: &FrameworkConfig,
        attempts: u32,
    ) -> (FrameworkOutcome, RecoveryReport) {
        self.conclude(singleton_outcome(g, cfg), attempts, true)
    }

    /// The terminal state either way: `outcome` takes on the cumulative
    /// spending and the sealed metrics, the report takes the verdicts.
    fn conclude(
        &mut self,
        mut outcome: FrameworkOutcome,
        attempts: u32,
        degraded: bool,
    ) -> (FrameworkOutcome, RecoveryReport) {
        outcome.stats.merge(&self.spent);
        outcome.metrics =
            seal_recovery_metrics(self.folded.take(), attempts, degraded, self.detector_rounds);
        let report = RecoveryReport {
            attempts,
            degraded,
            failures: std::mem::take(&mut self.failures),
            detector_rounds: self.detector_rounds,
        };
        (outcome, report)
    }
}

/// Runs the Theorem 2.6 framework under `cfg` (including its fault plan),
/// retrying per `policy` until the §2.3 detectors pass, then returns the
/// accepted outcome and the recovery report. Degrades to
/// [`singleton_outcome`] — it never panics and never spins — when the
/// retry budget is exhausted.
///
/// Retry `k` runs with seed [`derived_seed`]`(cfg.seed, k)` and walk
/// budget `policy.initial_walk_steps · 2^k` (capped by
/// `cfg.max_walk_steps`), so a transient fault burst is usually outrun by
/// the second or third attempt. The returned `stats` accumulate every
/// attempt plus detector rounds; `phases` and `trace` describe the final
/// attempt only.
///
/// When `cfg.metrics` is on, the outcome's report folds the deterministic
/// registries of *every* attempt (`Registry::merge` is order-insensitive,
/// so the fold is still bit-stable) and keeps the final attempt's
/// profiling plane, then stamps the `recovery.*` verdict counters — even
/// on degradation, where the report survives the singleton substitution.
#[must_use = "dropping the result discards both the outcome and the degradation verdict"]
pub fn run_framework_resilient(
    g: &Graph,
    cfg: &FrameworkConfig,
    policy: &RecoveryPolicy,
) -> (FrameworkOutcome, RecoveryReport) {
    let (decomposition, mut timed) = decompose_timed(g, cfg);
    let mut log = AttemptLog::default();
    while log.next_attempt <= u64::from(policy.max_retries) {
        let ran = log.run(g, &decomposition, timed.take(), cfg, policy);
        if let Some(accepted) = log.commit(ran) {
            return accepted;
        }
    }
    log.degrade(g, cfg, policy.max_retries + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_congest::FaultPlan;
    use lcg_graph::gen;

    #[test]
    fn fault_free_run_succeeds_first_try() {
        let mut rng = gen::seeded_rng(400);
        let g = gen::random_planar(80, 0.5, &mut rng);
        let cfg = FrameworkConfig::planar(0.3, 7);
        let (out, report) = run_framework_resilient(&g, &cfg, &RecoveryPolicy::default_budget());
        assert_eq!(report.attempts, 1);
        assert!(!report.degraded);
        assert!(report.failures.is_empty());
        assert!(report.detector_rounds > 0, "the detectors are never free");
        out.decomposition.validate(&g).unwrap();
        for c in &out.clusters {
            assert!(c.routing.complete());
            assert!(c.election_agrees);
        }
        // cumulative accounting: detector rounds are inside stats
        assert!(out.stats.rounds >= report.detector_rounds);
    }

    #[test]
    fn transient_faults_are_outrun_by_retries() {
        let mut rng = gen::seeded_rng(401);
        let g = gen::random_planar(70, 0.5, &mut rng);
        // heavy early link damage that expires at round 40: attempt 0 is
        // likely damaged, later attempts re-roll walks past the burst
        let mut plan = FaultPlan::drops(0x7_BAD, 0.45);
        for e in 0..g.m().min(8) {
            plan = plan.with_link_failure(e, 0, u64::MAX);
        }
        let cfg = FrameworkConfig {
            faults: Some(plan),
            max_walk_steps: 30_000,
            ..FrameworkConfig::planar(0.3, 3)
        };
        let policy = RecoveryPolicy {
            max_retries: 2,
            initial_walk_steps: 4_000,
        };
        let (out, report) = run_framework_resilient(&g, &cfg, &policy);
        // whatever happened, the contract holds: valid structure, honest
        // report, cumulative stats
        out.decomposition.validate(&g).unwrap();
        assert!(report.attempts >= 1 && report.attempts <= 3);
        if report.degraded {
            assert_eq!(out.decomposition.clusters.len(), g.n());
            assert!(!report.failures.is_empty());
        }
        assert!(out.stats.rounds >= report.detector_rounds);
    }

    #[test]
    fn total_blackout_degrades_to_singletons() {
        let g = gen::grid(6, 6);
        let cfg = FrameworkConfig {
            // every message of every round is dropped, forever
            faults: Some(FaultPlan::drops(1, 1.0)),
            max_walk_steps: 5_000,
            ..FrameworkConfig::planar(0.3, 11)
        };
        let policy = RecoveryPolicy {
            max_retries: 1,
            initial_walk_steps: 1_000,
        };
        let (out, report) = run_framework_resilient(&g, &cfg, &policy);
        assert!(report.degraded);
        assert_eq!(report.attempts, 2);
        assert!(!report.failures.is_empty());
        // the degradation is a *valid* decomposition: singleton partition,
        // every edge cut
        out.decomposition.validate(&g).unwrap();
        assert_eq!(out.decomposition.clusters.len(), g.n());
        assert_eq!(out.decomposition.cut_edges.len(), g.m());
        for c in &out.clusters {
            assert_eq!(c.mapping, vec![c.leader]);
            assert!(c.routing.complete());
        }
        // failed attempts' spending survives in the final stats
        assert!(out.stats.rounds > 0);
        assert!(out.stats.dropped_messages > 0);
        // the degraded span tree still names all four phases (at 0 rounds)
        for name in ["election", "orientation", "gathering", "broadcast"] {
            assert!(out.trace.span(name).is_some(), "missing span `{name}`");
        }
    }

    /// Even total degradation keeps the metrics report: registries of all
    /// failed attempts fold together, and the `recovery.*` counters carry
    /// the harness verdict alongside the singleton substitution.
    #[test]
    fn degraded_recovery_folds_metrics_across_attempts() {
        let g = gen::grid(5, 5);
        let cfg = FrameworkConfig {
            faults: Some(FaultPlan::drops(1, 1.0)),
            max_walk_steps: 5_000,
            metrics: true,
            ..FrameworkConfig::planar(0.3, 11)
        };
        let policy = RecoveryPolicy {
            max_retries: 1,
            initial_walk_steps: 1_000,
        };
        let (out, report) = run_framework_resilient(&g, &cfg, &policy);
        assert!(report.degraded);
        let m = out.metrics.expect("metrics must survive degradation");
        let det = &m.deterministic;
        assert_eq!(det.counter("recovery.attempts"), 2);
        assert_eq!(det.counter("recovery.degraded"), 1);
        assert_eq!(det.counter("recovery.detector_rounds"), report.detector_rounds);
        // the folded registry plus detector spending is exactly the
        // cumulative stats: nothing counted twice, nothing lost
        assert_eq!(det.counter("net.rounds") + report.detector_rounds, out.stats.rounds);
        assert!(det.counter("net.dropped_messages") > 0, "a blackout must drop messages");
    }

    /// The decomposition is computed once, ahead of the attempts, and timed
    /// on the profiling plane of the attempt that followed it: the first.
    /// Every attempt runs on that one clustering.
    #[test]
    fn only_the_first_attempt_reports_the_decomposition_timer() {
        let g = gen::grid(6, 6);
        let timed = |out: &FrameworkOutcome| {
            let report = out.metrics.as_ref().expect("metrics on");
            report.profile.phases.iter().any(|p| p.name == "decomposition")
        };
        let cfg = FrameworkConfig { metrics: true, ..FrameworkConfig::planar(0.3, 11) };
        // 64 walk steps cannot gather a 6x6 grid; some doubling of it can
        let starved = RecoveryPolicy { max_retries: 12, initial_walk_steps: 64 };
        let (retried, report) = run_framework_resilient(&g, &cfg, &starved);
        assert!(report.attempts > 1 && !report.degraded, "{report:?}");
        assert!(!timed(&retried), "a retry re-runs the randomized phases only");
        let (accepted, report) = run_framework_resilient(&g, &cfg, &RecoveryPolicy::default_budget());
        assert_eq!(report.attempts, 1);
        assert!(timed(&accepted));
        assert_eq!(retried.decomposition.cluster_of, accepted.decomposition.cluster_of);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derived_seed(42, 0), 42);
        let seeds: std::collections::BTreeSet<u64> =
            (0..16).map(|a| derived_seed(42, a)).collect();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn resilient_run_is_deterministic() {
        let mut rng = gen::seeded_rng(402);
        let g = gen::random_planar(60, 0.5, &mut rng);
        let cfg = FrameworkConfig {
            faults: Some(FaultPlan::drops(0xD0, 0.35)),
            max_walk_steps: 20_000,
            ..FrameworkConfig::planar(0.3, 5)
        };
        let policy = RecoveryPolicy {
            max_retries: 2,
            initial_walk_steps: 5_000,
        };
        let (a, ra) = run_framework_resilient(&g, &cfg, &policy);
        let (b, rb) = run_framework_resilient(&g, &cfg, &policy);
        assert_eq!(ra, rb);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.decomposition.cluster_of, b.decomposition.cluster_of);
    }
}
