//! Chaos layer: every application, run under injected faults through the
//! self-healing harness, must terminate with a *valid* output — never a
//! panic, never a silent lie — for every point of a (graph class × drop
//! probability × seed) grid. On top of validity:
//!
//! * the fault schedule and the final stats are bit-identical at 1/2/4
//!   worker threads (schedules are keyed by `(round, edge)`, not by
//!   scheduling order), and
//! * a `FaultPlan::none()` run reproduces the pre-fault-layer golden
//!   stats **byte for byte** (the fault counters serialize only when
//!   nonzero, so the vacuous plan is invisible on disk).

mod common;

use common::{check_stats_golden, flood_round, flood_stats, framework_stats, stats_golden_graphs};
use locongest::congest::{ExecConfig, FaultPlan, RoundStats};
use locongest::core::apps::{corrclust, ldd, maxis, mcm, mds, wmaxis};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::core::recovery::{RecoveryPolicy, RecoveryReport};
use locongest::graph::{gen, Graph, GraphBuilder};
use locongest::solvers::mis::is_maximal_independent_set;

fn chaos_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 2,
        initial_walk_steps: 4_000,
    }
}

/// The grid instances: a random planar graph and a grid, per seed.
fn instances(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = gen::seeded_rng(0xC4A0 ^ seed);
    vec![
        ("planar60", gen::random_planar(60, 0.5, &mut rng)),
        ("grid7x7", gen::grid(7, 7)),
    ]
}

/// Runs all six applications on `g` under `plan` and validates each
/// output unconditionally — including fully degraded runs.
fn apps_survive(name: &str, g: &Graph, plan: &FaultPlan, seed: u64) {
    let policy = chaos_policy();
    let ctx = |app: &str| format!("{app} on {name} (drop={}, seed={seed})", plan.drop_prob);

    let (out, _r) = maxis::approx_maximum_independent_set_resilient(
        g, 0.3, 3.0, seed, 5_000_000, plan, &policy,
    );
    assert!(
        is_maximal_independent_set(g, &out.set),
        "{}: not a maximal independent set",
        ctx("maxis")
    );

    let w: Vec<u64> = (0..g.n() as u64).map(|v| 1 + (v * 7919) % 50).collect();
    let (out, _r) = wmaxis::approx_maximum_weight_independent_set_resilient(
        g, &w, 0.3, 3.0, seed, 5_000_000, plan, &policy,
    );
    assert!(
        is_maximal_independent_set(g, &out.set),
        "{}: not a maximal independent set",
        ctx("wmaxis")
    );
    assert_eq!(out.weight, out.set.iter().map(|&v| w[v]).sum::<u64>());

    let (out, _r) =
        mds::approx_minimum_dominating_set_resilient(g, 0.5, seed, 1_000_000, plan, &policy);
    assert!(
        locongest::solvers::mds::is_dominating_set(g, &out.set),
        "{}: not dominating",
        ctx("mds")
    );

    let (out, _r) = mcm::approx_maximum_matching_resilient(g, 0.4, seed, plan, &policy);
    assert!(mcm::is_valid(g, &out), "{}: invalid matching", ctx("mcm"));
    for (_, u, v) in g.edges() {
        assert!(
            out.mate[u].is_some() || out.mate[v].is_some(),
            "{}: matching not maximal at edge ({u},{v})",
            ctx("mcm")
        );
    }

    let mut rng = gen::seeded_rng(0x1ABE1 ^ seed);
    let lg = gen::random_labels(g.clone(), 0.6, &mut rng);
    let (out, _r) =
        corrclust::approx_correlation_clustering_resilient(&lg, 0.3, seed, 16, plan, &policy);
    assert_eq!(out.clustering.len(), g.n(), "{}", ctx("corrclust"));
    assert_eq!(
        out.score,
        locongest::solvers::corrclust::score(&lg, &out.clustering),
        "{}: reported score is not the recomputed score",
        ctx("corrclust")
    );

    let eps = 0.4;
    let (out, report) =
        ldd::low_diameter_decomposition_resilient(g, eps, 3.0, seed, plan, &policy);
    assert_eq!(out.cluster_of.len(), g.n(), "{}", ctx("ldd"));
    let members = locongest::congest::primitives::cluster_members(&out.cluster_of);
    let mut measured = 0usize;
    for (_, vs) in members {
        let (sub, _) = g.induced_subgraph(&vs);
        assert!(sub.is_connected(), "{}: disconnected cluster", ctx("ldd"));
        measured = measured.max(sub.diameter().unwrap_or(0));
    }
    // every cluster fits the bound the outcome itself claims...
    assert_eq!(measured, out.max_diameter, "{}", ctx("ldd"));
    // ...and a non-degraded run keeps the Theorem 1.5 D = O(1/ε) scale
    if !report.degraded {
        assert!(
            (out.max_diameter as f64) <= 80.0 / eps,
            "{}: diameter {} breaks O(1/eps)",
            ctx("ldd"),
            out.max_diameter
        );
    }
}

#[test]
fn all_apps_terminate_validly_under_light_faults() {
    for seed in [1u64, 2] {
        for (name, g) in instances(seed) {
            let plan = FaultPlan::drops(seed.wrapping_mul(7) + 1, 0.05)
                .with_link_failure((seed as usize) % g.m(), 0, 30);
            apps_survive(name, &g, &plan, seed);
        }
    }
}

#[test]
fn all_apps_terminate_validly_under_heavy_faults() {
    for seed in [1u64, 2] {
        for (name, g) in instances(seed) {
            let plan = FaultPlan::drops(seed.wrapping_mul(7) + 2, 0.25)
                .with_link_failure((seed as usize) % g.m(), 0, u64::MAX)
                .with_crash(g.n() - 1, 5);
            apps_survive(name, &g, &plan, seed);
        }
    }
}

#[test]
fn all_apps_terminate_validly_under_total_blackout() {
    let seed = 1u64;
    for (name, g) in instances(seed) {
        // every message of every round dropped, forever: every run
        // degrades, every output must still validate
        apps_survive(name, &g, &FaultPlan::drops(3, 1.0), seed);
    }
}

/// Plain and resilient are one body per app, so a fault-free resilient
/// run is the plain run plus the §2.3 detectors — and, for the apps that
/// complete to maximality (maxis, wmaxis, mcm), one completion round that
/// only adds to the plain solution. Nothing else may differ, on an
/// edgeless input (where MCM's kernel is empty) as anywhere else.
#[test]
fn fault_free_resilient_run_is_the_plain_run_plus_detectors() {
    let (none, policy) = (FaultPlan::none(), RecoveryPolicy::default_budget());
    let seed = 1u64;
    let mut graphs = instances(seed);
    graphs.push(("edgeless5", GraphBuilder::new(5).build()));
    for (name, g) in &graphs {
        let rounds =
            |app: &str, plain: &RoundStats, res: &RoundStats, report: &RecoveryReport, c: u64| {
                assert_eq!(
                    report.attempts, 1,
                    "{app} on {name}: a fault-free run needs one attempt"
                );
                assert_eq!(
                    res.rounds,
                    plain.rounds + report.detector_rounds + c,
                    "{app} on {name}: rounds beyond detectors and completion"
                );
            };

        let plain = maxis::approx_maximum_independent_set(g, 0.3, 3.0, seed, 5_000_000);
        let (res, r) = maxis::approx_maximum_independent_set_resilient(
            g, 0.3, 3.0, seed, 5_000_000, &none, &policy,
        );
        rounds("maxis", &plain.stats, &res.stats, &r, 1);
        assert!(
            plain.set.iter().all(|v| res.set.contains(v)),
            "maxis on {name}: plain set not kept"
        );

        let w: Vec<u64> = (0..g.n() as u64).map(|v| 1 + (v * 7919) % 50).collect();
        let plain = wmaxis::approx_maximum_weight_independent_set(g, &w, 0.3, 3.0, seed, 5_000_000);
        let (res, r) = wmaxis::approx_maximum_weight_independent_set_resilient(
            g, &w, 0.3, 3.0, seed, 5_000_000, &none, &policy,
        );
        rounds("wmaxis", &plain.stats, &res.stats, &r, 1);
        assert!(
            plain.set.iter().all(|v| res.set.contains(v)),
            "wmaxis on {name}: plain set not kept"
        );

        let plain = mds::approx_minimum_dominating_set(g, 0.5, seed, 1_000_000);
        let (res, r) =
            mds::approx_minimum_dominating_set_resilient(g, 0.5, seed, 1_000_000, &none, &policy);
        rounds("mds", &plain.stats, &res.stats, &r, 0);
        assert_eq!(plain.set, res.set, "mds on {name}");

        let plain = mcm::approx_maximum_matching(g, 0.4, seed);
        let (res, r) = mcm::approx_maximum_matching_resilient(g, 0.4, seed, &none, &policy);
        rounds("mcm", &plain.stats, &res.stats, &r, 1);
        for (v, &m) in plain.mate.iter().enumerate() {
            assert!(
                m.is_none() || res.mate[v] == m,
                "mcm on {name}: plain pair at {v} not kept"
            );
        }

        let mut rng = gen::seeded_rng(0x1ABE1 ^ seed);
        let lg = gen::random_labels(g.clone(), 0.6, &mut rng);
        let plain = corrclust::approx_correlation_clustering(&lg, 0.3, 3.0, seed, 16);
        let (res, r) =
            corrclust::approx_correlation_clustering_resilient(&lg, 0.3, seed, 16, &none, &policy);
        rounds("corrclust", &plain.stats, &res.stats, &r, 0);
        assert_eq!(
            (&plain.clustering, plain.score),
            (&res.clustering, res.score),
            "corrclust on {name}"
        );

        let plain = ldd::low_diameter_decomposition(g, 0.4, 3.0, seed);
        let (res, r) = ldd::low_diameter_decomposition_resilient(g, 0.4, 3.0, seed, &none, &policy);
        rounds("ldd", &plain.stats, &res.stats, &r, 0);
        assert_eq!(
            (&plain.cluster_of, plain.max_diameter, plain.cut_fraction),
            (&res.cluster_of, res.max_diameter, res.cut_fraction),
            "ldd on {name}"
        );
    }
}

/// Fault schedules are part of the deterministic contract: the same plan
/// on the same graph produces byte-identical traces (including the
/// per-round fault event lines) and equal stats at 1, 2, and 4 worker
/// threads.
#[test]
fn fault_schedule_and_stats_are_thread_count_invariant() {
    let mut rng = gen::seeded_rng(0x7EAD);
    let g = gen::random_planar(80, 0.5, &mut rng);
    let run = |threads: usize| {
        let out = run_framework(
            &g,
            &FrameworkConfig {
                faults: Some(
                    FaultPlan::drops(0xFA, 0.2)
                        .with_link_failure(3, 0, 50)
                        .with_crash(g.n() - 1, 10),
                ),
                trace: true,
                trace_top_k: 8,
                exec: ExecConfig::with_threads(threads),
                max_walk_steps: 30_000,
                ..FrameworkConfig::planar(0.3, 13)
            },
        );
        (out.trace.to_jsonl(), out.stats)
    };
    let (base_trace, base_stats) = run(1);
    assert!(
        base_trace.lines().any(|l| l.contains("\"fault\"")),
        "an active plan must leave fault events in the trace"
    );
    for threads in [2usize, 4] {
        let (trace, st) = run(threads);
        assert_eq!(base_trace, trace, "trace diverged at {threads} threads");
        assert_eq!(base_stats, st, "stats diverged at {threads} threads");
    }
}

/// Replays the golden-stats workloads with a vacuous fault plan attached:
/// each run equals the plain one and matches the checked-in
/// pre-fault-layer golden **byte for byte** once serialized —
/// `FaultPlan::none()` is free, and zero fault counters never appear on
/// disk.
#[test]
fn vacuous_plan_reproduces_pre_fault_layer_goldens() {
    let [(cycle, cycle64), (planar, planar200), _] = stats_golden_graphs();

    let flood = flood_stats(&cycle64, Some(FaultPlan::none()), false, flood_round);
    assert_eq!(flood, flood_stats(&cycle64, None, false, flood_round), "flood under the vacuous plan");
    check_stats_golden(&format!("{cycle}_flood"), &flood);

    let framework = framework_stats(&planar200, 1, Some(FaultPlan::none()));
    assert_eq!(framework, framework_stats(&planar200, 1, None), "framework under the vacuous plan");
    check_stats_golden(&format!("{planar}_framework"), &framework);
}
