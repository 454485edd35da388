//! Self-healing execution of the Theorem 2.6 framework.
//!
//! The paper's §2.3 failure machinery is *detection*: elections that
//! disagree, routings whose reversal comes up short, clusters whose
//! diameter exceeds the bound of a successful execution. This module holds
//! those detectors and the *reaction*, which runs as the retry arm of the
//! framework's one run path: run the framework under whatever
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

use lcg_congest::{primitives, Network, RoundStats};
use lcg_expander::decomp::{ClusterInfo, ExpanderDecomposition};
use lcg_expander::routing::RoutingOutcome;
use lcg_graph::Graph;
use lcg_trace::{TraceConfig, Tracer};

use crate::framework::{network, run, ClusterRun, FrameworkConfig, FrameworkOutcome, PhaseRounds};

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
    /// order ("attempt 0: cluster 3: gathering incomplete (17/21, 4 lost)",
    /// "attempt 1: cluster 5: gathering incomplete (9/12, step cap 2000
    /// reached)", ...).
    pub failures: Vec<String>,
    /// Rounds spent by the §2.3 detectors across all attempts (also
    /// already included in the outcome's `stats.rounds`).
    pub detector_rounds: u64,
}

/// Runs every §2.3 detector against `outcome`, charging the diameter
/// check — against the bound `b` the execution itself measured — to
/// `det_net` (a fault-free control network on the host graph). Returns one
/// line per detected failure; empty means the execution passed. An
/// incomplete gathering says why its walk ended: at the attempt's step
/// budget `max_steps`, or earlier, once every token left was lost.
pub(crate) fn detect_failures(outcome: &FrameworkOutcome, max_steps: usize, det_net: &mut Network) -> Vec<String> {
    let mut verdicts = Vec::new();
    for c in &outcome.clusters {
        if !c.election_agrees {
            verdicts.push(format!("cluster {}: election disagreement", c.id));
        }
        let r = &c.routing;
        // the reversal of §2.3: the leader echoes what it received, and a
        // shortfall is a failed routing
        if !r.complete() {
            let why = if r.steps < max_steps {
                format!("{} lost", r.total - r.delivered)
            } else {
                format!("step cap {max_steps} reached")
            };
            verdicts.push(format!("cluster {}: gathering incomplete ({}/{}, {why})", c.id, r.delivered, r.total));
        }
    }
    // §2.3 marking protocol with the measured bound `b`: every cluster
    // must still fit the diameter of a successful execution, and a marked
    // vertex is one whose cluster does not. The check spends real rounds on
    // the control network even when it passes.
    let marked = primitives::diameter_check(det_net, &outcome.decomposition.cluster_of, outcome.diameter_bound);
    if marked.contains(&true) {
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

/// Runs the Theorem 2.6 framework under `cfg` (including its fault plan),
/// retrying per `policy` until the §2.3 detectors pass, then returns the
/// accepted outcome and the recovery report. Degrades to
/// [`singleton_outcome`] — it never panics and never spins — when the
/// retry budget is exhausted.
///
/// Retry `k` runs with seed [`derived_seed`]`(cfg.seed, k)` and walk
/// budget `policy.initial_walk_steps · 2^k` (capped by
/// `cfg.max_walk_steps`), on a fresh network that reads the plan from the
/// same start round as every other attempt — round 0. So a retry differs
/// from the attempt before it only in its re-rolled walks and its doubled
/// budget: a fault at a fixed round (a crash, a link down in the election)
/// strikes every attempt alike, and what a retry can outrun is a loss on
/// the walk's random path (a drop coin, a down link it now steps around)
/// or the step cap. The returned `stats` accumulate every attempt plus
/// detector rounds; `phases` and `trace` describe the final attempt only.
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
    let (outcome, report) = run(network(g, cfg), cfg, Some(policy));
    (outcome, report.expect("a run with a policy has a recovery report"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::run_framework;
    use lcg_congest::{FaultPlan, Model};
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

    /// Drops at 0.45 and eight links down for good: every attempt reads
    /// the same schedule from round 0, so no retry outruns the links. What
    /// is checked is the contract whatever happens: a valid structure, an
    /// honest report, cumulative stats.
    #[test]
    fn lossy_runs_keep_the_recovery_contract() {
        let mut rng = gen::seeded_rng(401);
        let g = gen::random_planar(70, 0.5, &mut rng);
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
        out.decomposition.validate(&g).unwrap();
        assert!(report.attempts >= 1 && report.attempts <= 3);
        if report.degraded {
            assert_eq!(out.decomposition.clusters.len(), g.n());
            assert!(!report.failures.is_empty());
        }
        assert!(out.stats.rounds >= report.detector_rounds);
    }

    /// Every attempt runs on a fresh network that reads the plan from the
    /// same start round, so a fault at a fixed round strikes each attempt
    /// alike: a link down in two election rounds destroys the same messages,
    /// at the same rounds, in every attempt of a run that retries for want
    /// of walk steps.
    #[test]
    fn every_attempt_meets_a_fault_at_the_same_plan_round() {
        let g = gen::grid(6, 6);
        let plain = FrameworkConfig::planar(0.3, 11);
        let cluster_of = run_framework(&g, &plain).decomposition.cluster_of;
        let (e, _, _) = g.edges().find(|&(_, u, v)| cluster_of[u] == cluster_of[v]).expect("an intra-cluster edge");
        let cfg = FrameworkConfig { faults: Some(FaultPlan::none().with_link_failure(e, 1, 3)), ..plain };
        // 64 walk steps cannot gather a 6x6 grid; some doubling of it can
        let starved = RecoveryPolicy { max_retries: 12, initial_walk_steps: 64 };
        let (out, report) = run_framework_resilient(&g, &cfg, &starved);
        assert!(report.attempts > 1 && !report.degraded, "{report:?}");
        let first = run_framework(&g, &FrameworkConfig { max_walk_steps: 64, ..cfg });
        assert!(first.stats.dropped_messages > 0, "the link carries election messages in rounds 1 and 2");
        assert_eq!(out.stats.dropped_messages, u64::from(report.attempts) * first.stats.dropped_messages);
        assert_eq!(out.trace.faults, first.trace.faults, "the last attempt met the fault where the first did");
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

    /// A fault-free run that retries does so only because its walks ran out
    /// of steps, and says so: no token is ever lost without faults.
    #[test]
    fn fault_free_retries_report_only_the_step_cap() {
        let g = gen::grid(6, 6);
        let cfg = FrameworkConfig::planar(0.3, 11);
        let starved = RecoveryPolicy { max_retries: 12, initial_walk_steps: 64 };
        let (_, report) = run_framework_resilient(&g, &cfg, &starved);
        assert!(report.attempts > 1 && !report.degraded, "{report:?}");
        for line in &report.failures {
            let (attempt, verdict) = line.strip_prefix("attempt ").and_then(|l| l.split_once(": ")).expect("attempt k: …");
            let cap = 64usize << attempt.parse::<u32>().expect("an attempt number");
            let reason = format!(", step cap {cap} reached)");
            assert!(verdict.contains("gathering incomplete (") && verdict.ends_with(&reason), "{line}");
        }
    }

    /// The diameter detector on a sabotaged clustering: one cluster of
    /// diameter 39 against a bound of 3 is reported, and the check marks
    /// every vertex of it for dissolution into singletons. The check spends
    /// rounds on the network it is handed.
    #[test]
    fn detector_flags_an_over_diameter_cluster() {
        let g = gen::path(40);
        let mut out = singleton_outcome(&g, &FrameworkConfig::planar(0.3, 0));
        out.decomposition.cluster_of = vec![7; 40];
        out.diameter_bound = 3;
        let mut net = Network::new(&g, Model::congest());
        assert_eq!(detect_failures(&out, 1, &mut net), ["clustering: over-diameter cluster dissolved"]);
        assert!(net.stats().rounds > 0, "check rounds accrue to the caller's network");
        let mut net = Network::new(&g, Model::congest());
        let marked = primitives::diameter_check(&mut net, &out.decomposition.cluster_of, 3);
        assert!(marked.iter().all(|&m| m), "every vertex of the long cluster is dissolved");
    }

    /// A cluster whose diameter is exactly the bound passes the detector and
    /// keeps every vertex; the check is still charged.
    #[test]
    fn detector_keeps_a_cluster_at_the_bound() {
        let g = gen::grid(4, 4); // diameter 6
        let mut out = singleton_outcome(&g, &FrameworkConfig::planar(0.3, 0));
        out.decomposition.cluster_of = vec![0; 16];
        out.diameter_bound = 6;
        let mut net = Network::new(&g, Model::congest());
        assert!(detect_failures(&out, 1, &mut net).is_empty());
        assert!(net.stats().rounds > 0, "the check is never free");
        let mut net = Network::new(&g, Model::congest());
        let marked = primitives::diameter_check(&mut net, &out.decomposition.cluster_of, 6);
        assert!(marked.iter().all(|&m| !m), "a valid cluster keeps all its vertices");
    }

    /// The check is charged to the network it is handed: stats accumulate
    /// on top of whatever the caller already spent, and an attached tracer
    /// sees the protocol's rounds.
    #[test]
    fn diameter_check_charges_the_callers_network() {
        let g = gen::path(20);
        let cluster_of = vec![0usize; 20];
        let mut net = Network::new(&g, Model::congest());
        net.attach_tracer(Tracer::new(TraceConfig::spans_only("repair")));
        net.charge_rounds(5); // pre-existing spending
        let sp = net.span_open("diameter-check");
        let _marked = primitives::diameter_check(&mut net, &cluster_of, 4);
        net.span_close(sp);
        let check_rounds = net.stats().rounds - 5;
        assert!(check_rounds > 0);
        let trace = net.take_tracer().expect("tracer attached").finish();
        assert_eq!(trace.span_rounds("diameter-check"), check_rounds);
        assert_eq!(trace.total.rounds, net.stats().rounds);
    }

    /// A starved walk leaves a cluster's gathering incomplete, and the
    /// reversal detector reports it with its shortfall and the cap it hit;
    /// a walk with steps to spare passes.
    #[test]
    fn routing_failure_detection() {
        let mut rng = gen::seeded_rng(220);
        let g = gen::path(30);
        let members: Vec<usize> = (0..30).collect();
        let ones = vec![1; members.len()];
        let mut out = singleton_outcome(&g, &FrameworkConfig::planar(0.3, 0));
        let mut det_net = Network::new(&g, Model::congest());
        // too few steps: routing must report failure
        out.clusters[0].routing =
            lcg_expander::routing::charged_walk_routing(&g, &members, 0, &ones, 3, &mut rng, None, false).0;
        let r = &out.clusters[0].routing;
        assert!(!r.complete());
        let want = format!("cluster 0: gathering incomplete ({}/30, step cap 3 reached)", r.delivered);
        assert_eq!(detect_failures(&out, 3, &mut det_net), [want]);
        // plenty of steps: success
        out.clusters[0].routing =
            lcg_expander::routing::charged_walk_routing(&g, &members, 0, &ones, 500_000, &mut rng, None, false).0;
        assert!(out.clusters[0].routing.complete());
        assert!(detect_failures(&out, 500_000, &mut det_net).is_empty());
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
