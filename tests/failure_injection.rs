//! §2.3 failure-injection tests: sabotage the pipeline and verify the
//! paper's failed-execution behaviour — failures are detected, degrade to
//! singletons, and never produce invalid outputs.

mod common;

use locongest::congest::{primitives, ExecConfig, FaultPlan, Model, Network};
use locongest::core::framework::{FrameworkConfig, FrameworkOutcome};
use locongest::core::recovery::{run_framework_resilient, RecoveryPolicy, RecoveryReport};
use locongest::expander::routing;
use locongest::graph::gen;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn sabotaged_clustering_is_detected_by_diameter_check() {
    // Merge two far-apart regions of a grid into one "cluster" — an
    // over-diameter cluster that a correct expander decomposition with
    // bound b would never produce.
    let g = gen::grid(20, 4); // diameter 22
    let n = g.n();
    let sabotaged = vec![0usize; n]; // one cluster, diameter 22
    let b = 5;
    let mut net = Network::new(&g, Model::congest());
    let marked = primitives::diameter_check(&mut net, &sabotaged, b);
    // diameter 22 >= 2b+1 = 11 ⇒ every vertex marked
    assert_eq!(marked, vec![true; n], "sabotage must mark every vertex");
    // the check runs on the caller's network and is charged there
    assert!(net.stats().rounds >= (3 * b + 1) as u64);
}

#[test]
fn borderline_cluster_survives_diameter_check() {
    // Diameter exactly b: protocol guarantees no marking.
    let g = gen::path(6); // diameter 5
    let cluster = vec![0usize; 6];
    let mut net = Network::new(&g, Model::congest());
    let marked = primitives::diameter_check(&mut net, &cluster, 5);
    assert!(marked.iter().all(|&m| !m));
}

#[test]
fn gray_zone_clusters_are_consistent() {
    // Between b and 2b+1, the protocol may or may not mark — but the
    // outcome must be all-or-nothing per cluster (the paper's claim).
    let g = gen::path(10); // diameter 9, b = 4 → gray zone (9 < 2*4+1 = 9? no: 9 >= 9 ⇒ marked)
    let cluster = vec![0usize; 10];
    let mut net = Network::new(&g, Model::congest());
    let marked = primitives::diameter_check(&mut net, &cluster, 4);
    let all = marked.iter().all(|&m| m);
    let none = marked.iter().all(|&m| !m);
    assert!(all || none, "marking must be cluster-uniform: {marked:?}");
}

#[test]
fn failed_routing_is_detected_and_reported() {
    let mut rng = gen::seeded_rng(3000);
    let g = gen::path(50);
    let members: Vec<usize> = (0..50).collect();
    // starve the routing of steps: failure must be visible, not silent
    let out = routing::charged_walk_routing(&g, &members, 0, &vec![1; members.len()], 10, &mut rng, None, false).0;
    assert!(!out.complete());
    assert!(out.delivered < out.total);
}

#[test]
fn singleton_fallback_preserves_validity_of_downstream_maxis() {
    // Dissolving clusters to singletons must never break the MAXIS
    // algorithm's output validity (it only costs quality).
    let mut rng = gen::seeded_rng(3002);
    let g = gen::random_planar(100, 0.5, &mut rng);
    // all-singleton "decomposition": every cluster trivially solvable
    let mut in_set = vec![true; g.n()];
    // conflict resolution pass over ALL edges (all are inter-cluster now)
    for (_, u, v) in g.edges() {
        if in_set[u] && in_set[v] {
            in_set[u.max(v)] = false;
        }
    }
    let set: Vec<usize> = (0..g.n()).filter(|&v| in_set[v]).collect();
    assert!(locongest::solvers::mis::is_independent_set(&g, &set));
    assert!(!set.is_empty());
}

/// Satellite check of this PR's fault layer: under the *message-faithful*
/// routing model with a generous step budget, a lossless network delivers
/// everything — the §2.3 reversal detector must stay silent.
#[test]
fn lossless_faithful_routing_never_reports_failure() {
    let mut rng = ChaCha8Rng::seed_from_u64(3003);
    let g = gen::random_planar(60, 0.5, &mut rng);
    let members: Vec<usize> = (0..g.n()).collect();
    let counts = vec![1usize; g.n()];
    let mut net = Network::new(&g, Model::congest());
    let (out, _) = routing::network_walk_routing_with_counts(
        &mut net,
        &members,
        0,
        &counts,
        500_000,
        &mut rng,
    );
    assert!(out.complete());
    assert_eq!(net.stats().dropped_messages, 0);
}

/// ...and when every message on the leader's only incident edge is
/// dropped, tokens can never reach it: the detector MUST fire.
#[test]
fn drops_on_the_routed_edge_are_detected() {
    let g = gen::path(12); // leader 0's only edge is edge 0 (0-1)
    let members: Vec<usize> = (0..12).collect();
    let counts = vec![1usize; 12];
    let mut net = Network::new(&g, Model::congest());
    net.set_fault_plan(Some(FaultPlan::none().with_link_failure(0, 0, u64::MAX)));
    let mut rng = ChaCha8Rng::seed_from_u64(3004);
    let (out, stats) = routing::network_walk_routing_with_counts(
        &mut net,
        &members,
        0,
        &counts,
        50_000,
        &mut rng,
    );
    assert!(
        !out.complete(),
        "a severed leader edge must be detected: {out:?}"
    );
    // only the leader's own self-token arrives
    assert_eq!(out.delivered, 1);
    assert!(stats.dropped_messages > 0, "the cut edge swallowed traffic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across random seeds and graphs: a vacuous plan never trips the
    /// detector (the walk budget is generous), while a total blackout
    /// always does — detection is a function of the faults, not the seed.
    #[test]
    fn detector_tracks_faults_not_seeds(seed in any::<u64>(), n in 8usize..40) {
        let mut grng = gen::seeded_rng(seed);
        let g = gen::random_planar(n, 0.5, &mut grng);
        let members: Vec<usize> = (0..g.n()).collect();
        let counts = vec![1usize; g.n()];

        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::none()));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (out, _) = routing::network_walk_routing_with_counts(
            &mut net, &members, 0, &counts, 2_000_000, &mut rng,
        );
        prop_assert!(out.complete());

        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::drops(seed, 1.0)));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (out, _) = routing::network_walk_routing_with_counts(
            &mut net, &members, 0, &counts, 2_000_000, &mut rng,
        );
        // nothing but the leader's self-token can ever arrive
        prop_assert!(!out.complete());
        prop_assert_eq!(out.delivered, 1);
    }
}

/// `(stats, RecoveryReport, deterministic metrics JSON)` of one resilient
/// run, as the text the `tests/golden/resilient_*.txt` fixtures hold.
fn render_resilient(out: &FrameworkOutcome, report: &RecoveryReport) -> String {
    format!(
        "{}\n{report:?}\n{}\n",
        serde_json::to_string(&out.stats).unwrap(),
        out.metrics.as_ref().expect("metrics: true always yields a report").deterministic_json()
    )
}

/// Two fixtures: a run whose one-round outage of link 1 costs its first
/// attempt a token, so it retries once and succeeds, and one that
/// exhausts its budget and degrades. They were last blessed when a failed
/// gathering started to say whether its walk hit the step cap or lost its
/// tokens; decomposing once and retrying only the randomized phases must
/// reproduce both bit for bit, at 1 and 3 threads. Re-bless
/// (`UPDATE_GOLDEN=1`) only with an intentional accounting change, and
/// from the commit being replaced.
#[test]
fn resilient_runs_reproduce_the_parent_blessed_fixtures() {
    let mut rng = gen::seeded_rng(0x24);
    let g = gen::grid_with_noise(16, 16, 0.02, &mut rng);
    let retried = FrameworkConfig {
        faults: Some(FaultPlan::none().with_link_failure(1, 0, 1)),
        max_walk_steps: 40_000,
        ..FrameworkConfig::planar(0.3, 6)
    };
    let blackout = FrameworkConfig {
        faults: Some(FaultPlan::drops(1, 1.0)),
        max_walk_steps: 5_000,
        ..FrameworkConfig::planar(0.3, 11)
    };
    let cases = [
        ("resilient_retried", retried, RecoveryPolicy { max_retries: 3, initial_walk_steps: 1_000 }, 2, false),
        ("resilient_degraded", blackout, RecoveryPolicy { max_retries: 2, initial_walk_steps: 1_000 }, 3, true),
    ];
    for (name, base, policy, attempts, degrades) in cases {
        let render = |threads| {
            let cfg = FrameworkConfig {
                metrics: true,
                exec: ExecConfig::with_threads(threads),
                ..base.clone()
            };
            let (out, report) = run_framework_resilient(&g, &cfg, &policy);
            (render_resilient(&out, &report), (report.attempts, report.degraded))
        };
        let (got, outcome) = render(1);
        // the rendered report holds both fields: a moved golden names its line first
        common::check_golden(&format!("{name}.txt"), &got);
        assert_eq!(outcome, (attempts, degrades), "{name}");
        assert_eq!(render(3).0, got, "{name}: resilient run diverged at 3 threads");
    }
}
