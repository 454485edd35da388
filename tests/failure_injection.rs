//! §2.3 failure-injection tests: sabotage the pipeline and verify the
//! paper's failed-execution behaviour — failures are detected, degrade to
//! singletons, and never produce invalid outputs.

use locongest::congest::{primitives, ExecConfig, FaultPlan, Model, Network};
use locongest::core::failure;
use locongest::core::framework::{FrameworkConfig, FrameworkOutcome};
use locongest::core::recovery::{run_framework_resilient, RecoveryPolicy, RecoveryReport};
use locongest::core::supervisor::{run_framework_checkpointed, CheckpointConfig};
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
    let fixed = failure::enforce_diameter(&mut net, &sabotaged, b);
    // diameter 22 >= 2b+1 = 11 ⇒ every vertex marked ⇒ all singletons
    let mut ids = fixed.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "sabotage must dissolve to singletons");
    // the check runs on the caller's network and is charged there
    assert!(net.stats().rounds >= (3 * b + 1) as u64);
}

#[test]
fn borderline_cluster_survives_diameter_check() {
    // Diameter exactly b: protocol guarantees no marking.
    let g = gen::path(6); // diameter 5
    let cluster = vec![0usize; 6];
    let mut net = Network::new(&g, Model::congest());
    let fixed = failure::enforce_diameter(&mut net, &cluster, 5);
    assert!(fixed.iter().all(|&c| c == 0));
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
    let out = routing::random_walk_routing(&g, &members, 0, 10, &mut rng);
    assert!(failure::routing_failure_detected(&out));
    assert!(out.delivered < out.total);
}

#[test]
fn degree_condition_flags_non_minor_free_expanders() {
    // A bounded-degree expander-ish random graph: no high-degree vertex
    // exists, so the Lemma 2.3 condition must fail for large clusters at
    // realistic φ — this is exactly the §3.4 Reject trigger.
    let mut rng = gen::seeded_rng(3001);
    let g = gen::gnm(200, 600, &mut rng);
    let leader = (0..200).max_by_key(|&v| g.degree(v)).unwrap();
    // at φ = 0.3 (what a real expander would certify), Ω(φ²)|E| ≈ 54·c;
    // max degree in G(200, 600) is ~10-15, so c = 0.5 fails
    assert!(!failure::degree_condition(&g, leader, 0.3, 0.5));
    // while a planar cluster with its tiny φ_cut passes comfortably
    let p = gen::stacked_triangulation(100, &mut rng);
    let leader = (0..100).max_by_key(|&v| p.degree(v)).unwrap();
    assert!(failure::degree_condition(&p, leader, 0.01, 0.5));
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
    assert!(!failure::routing_failure_detected(&out));
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
        failure::routing_failure_detected(&out),
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
        prop_assert!(!failure::routing_failure_detected(&out));

        let mut net = Network::new(&g, Model::congest());
        net.set_fault_plan(Some(FaultPlan::drops(seed, 1.0)));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (out, _) = routing::network_walk_routing_with_counts(
            &mut net, &members, 0, &counts, 2_000_000, &mut rng,
        );
        // nothing but the leader's self-token can ever arrive
        prop_assert!(failure::routing_failure_detected(&out));
        prop_assert_eq!(out.delivered, 1);
    }
}

#[test]
fn unclustered_vertices_reset_to_singletons() {
    let cluster_of = vec![5, 5, 9, 9, 9];
    let marked = vec![true, false, false, true, false];
    let fixed = failure::singleton_fallback(&cluster_of, &marked);
    assert_eq!(fixed[1], 5);
    assert_eq!(fixed[2], 9);
    assert_eq!(fixed[4], 9);
    assert_ne!(fixed[0], fixed[3]);
    assert!(fixed[0] > 9 && fixed[3] > 9);
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

/// The two fixtures were written by the commit *before* `run_framework`
/// was split into decompose + `run_framework_on` (PR 24), when every
/// attempt still recomputed its decomposition: a run that retries twice
/// and one that exhausts its budget and degrades. Decomposing once and
/// retrying only the randomized phases must reproduce both bit for bit —
/// straight through, checkpointed, and killed-and-resumed, at 1 and 3
/// threads. Re-bless (`UPDATE_GOLDEN=1`) only with an intentional
/// accounting change, and from the commit being replaced.
#[test]
fn resilient_runs_reproduce_the_parent_blessed_fixtures() {
    let mut rng = gen::seeded_rng(0x24);
    let g = gen::grid_with_noise(16, 16, 0.02, &mut rng);
    let retried = FrameworkConfig {
        faults: Some(FaultPlan::none().with_link_failure(1, 0, 2)),
        max_walk_steps: 40_000,
        ..FrameworkConfig::planar(0.3, 6)
    };
    let blackout = FrameworkConfig {
        faults: Some(FaultPlan::drops(1, 1.0)),
        max_walk_steps: 5_000,
        ..FrameworkConfig::planar(0.3, 11)
    };
    let cases = [
        ("resilient_retried", retried, RecoveryPolicy { max_retries: 3, initial_walk_steps: 1_000 }, 3, false),
        ("resilient_degraded", blackout, RecoveryPolicy { max_retries: 2, initial_walk_steps: 1_000 }, 3, true),
    ];
    for (name, base, policy, attempts, degrades) in cases {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.txt"));
        for threads in [1, 3] {
            let cfg = FrameworkConfig {
                metrics: true,
                exec: ExecConfig::with_threads(threads),
                ..base.clone()
            };
            let (out, report) = run_framework_resilient(&g, &cfg, &policy);
            assert_eq!((report.attempts, report.degraded), (attempts, degrades), "{name}");
            let got = render_resilient(&out, &report);
            if std::env::var("UPDATE_GOLDEN").is_ok() {
                std::fs::write(&path, &got).unwrap();
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("missing fixture {path:?} ({e}); it is blessed from the parent commit")
            });
            assert_eq!(got, want, "{name}: resilient run diverged at {threads} threads");
            for kill in [None, Some(1)] {
                let dir = std::env::temp_dir()
                    .join(format!("lcg-fixture-{}-{name}-{threads}-{kill:?}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let mut ckpt = CheckpointConfig::new(&dir);
                ckpt.kill_at_attempt = kill;
                let (out, report, sup) =
                    run_framework_checkpointed(&g, &cfg, &policy, &ckpt).expect("supervised run");
                assert_eq!(sup.crashes, u32::from(kill.is_some()), "{name}");
                assert_eq!(
                    render_resilient(&out, &report),
                    want,
                    "{name}: checkpointed run (kill {kill:?}) diverged at {threads} threads"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
