//! End-to-end integration tests: every theorem's pipeline, across crates,
//! on shared workloads.

use locongest::core::apps::{corrclust, ldd, maxis, mcm, mwm, property_testing};
use locongest::congest::{ExecConfig, FaultPlan};
use locongest::core::framework::{run_framework, run_framework_on, FrameworkConfig, FrameworkOutcome};
use locongest::expander::decomp;
use locongest::graph::{gen, Graph};
use locongest::solvers;

#[test]
fn theorem_2_6_full_contract() {
    let mut rng = gen::seeded_rng(1000);
    for (name, g, t) in [
        ("planar", gen::random_planar(300, 0.5, &mut rng), 3.0),
        ("ktree", gen::ktree(250, 3, &mut rng), 3.0),
        ("torus", gen::torus_grid(15, 15), 4.0),
    ] {
        let eps = 0.3;
        let out = run_framework(&g, &FrameworkConfig::minor_free(eps, t, 42));
        out.decomposition.validate(&g).unwrap();
        // contract 1: inter-cluster edges ≤ ε·min(|V|, |E|)
        let bound = eps * g.n().min(g.m()) as f64;
        assert!(
            out.cut_edges() as f64 <= bound,
            "{name}: {} > {bound}",
            out.cut_edges()
        );
        // contract 2: every leader knows its full cluster topology
        for c in &out.clusters {
            assert!(c.routing.complete(), "{name}: cluster {} incomplete", c.id);
            assert_eq!(c.subgraph.n(), c.mapping.len());
        }
        // contract 3: CONGEST discipline held throughout
        assert!(out.stats.max_words_edge_round <= 2, "{name}");
    }
}

#[test]
fn theorem_1_2_maxis_end_to_end() {
    let mut rng = gen::seeded_rng(1001);
    let g = gen::ktree(120, 2, &mut rng);
    let out = maxis::approx_maximum_independent_set(&g, 0.35, 2.0, 9, 50_000_000);
    assert!(solvers::mis::is_independent_set(&g, &out.set));
    let opt = solvers::mis::maximum_independent_set(&g, 500_000_000);
    assert!(opt.optimal);
    assert!(
        out.set.len() as f64 >= (1.0 - 0.35) * opt.set.len() as f64,
        "{} vs {}",
        out.set.len(),
        opt.set.len()
    );
}

#[test]
fn theorem_3_2_mcm_end_to_end() {
    let mut rng = gen::seeded_rng(1002);
    let g = gen::random_planar(200, 0.45, &mut rng);
    let out = mcm::approx_maximum_matching(&g, 0.3, 4);
    assert!(mcm::is_valid(&g, &out));
    let opt = solvers::matching::maximum_matching(&g).size();
    assert!(
        out.size as f64 >= 0.7 * opt as f64,
        "{} vs {opt}",
        out.size
    );
}

#[test]
fn theorem_1_1_mwm_end_to_end() {
    let mut rng = gen::seeded_rng(1003);
    let g = gen::random_weights(gen::ktree(100, 2, &mut rng), 200, &mut rng);
    let eps = 0.25;
    let out = mwm::approx_maximum_weight_matching(&g, eps, 2.0, 6, mwm::recommended_iterations(eps));
    assert!(solvers::mwm::is_valid_matching(&g, &out.mate));
    let opt =
        solvers::mwm::matching_weight(&g, &solvers::mwm::maximum_weight_matching(&g));
    assert!(
        out.weight as f64 >= (1.0 - eps) * opt as f64,
        "{} vs {opt}",
        out.weight
    );
}

#[test]
fn theorem_1_3_corrclust_end_to_end() {
    let mut rng = gen::seeded_rng(1004);
    let base = gen::random_planar(150, 0.5, &mut rng);
    let comm: Vec<usize> = (0..base.n()).map(|v| v / 30).collect();
    let g = gen::planted_labels(base, &comm, 0.1, &mut rng);
    let out = corrclust::approx_correlation_clustering(&g, 0.3, 3.0, 2, 18);
    // γ(G) ≥ |E|/2; guarantee (1−ε)·γ ≥ 0.35·|E|
    assert!(out.score as f64 >= 0.35 * g.m() as f64);
    assert!(out.stats.rounds > 0);
}

#[test]
fn theorem_1_4_property_testing_end_to_end() {
    let mut rng = gen::seeded_rng(1005);
    // one-sided: planar always accepts, over several seeds and graphs
    for seed in 0..4 {
        let g = gen::stacked_triangulation(150, &mut rng);
        let out = property_testing::test_property(
            &g,
            0.1,
            property_testing::TestedProperty::Planar,
            seed,
        );
        assert!(out.all_accept);
    }
    // ε-far: disjoint K6 family always rejects
    for seed in 0..4 {
        let g = gen::disjoint_cliques(30, 6);
        let out = property_testing::test_property(
            &g,
            0.1,
            property_testing::TestedProperty::Planar,
            seed,
        );
        assert!(!out.all_accept);
    }
}

#[test]
fn theorem_1_5_ldd_end_to_end() {
    let mut rng = gen::seeded_rng(1006);
    let g = gen::random_planar(400, 0.5, &mut rng);
    let eps = 0.3;
    let out = ldd::low_diameter_decomposition(&g, eps, 3.0, 8);
    assert!(out.max_diameter < usize::MAX);
    assert!((out.max_diameter as f64) * eps <= 40.0, "D·ε = {}", out.max_diameter as f64 * eps);
    // every vertex clustered; clusters connected
    let members = locongest::congest::primitives::cluster_members(&out.cluster_of);
    let covered: usize = members.values().map(Vec::len).sum();
    assert_eq!(covered, g.n());
}

#[test]
fn framework_vs_baselines_quality() {
    let mut rng = gen::seeded_rng(1007);
    let g = gen::stacked_triangulation(250, &mut rng);
    // MAXIS: framework beats Luby's maximal-IS baseline
    let ours = maxis::approx_maximum_independent_set(&g, 0.3, 3.0, 3, 50_000_000);
    let (luby, _) = locongest::core::baselines::luby_mis(&g, 3);
    assert!(
        ours.set.len() >= luby.len(),
        "framework {} < Luby {}",
        ours.set.len(),
        luby.len()
    );
    // MCM: framework beats the greedy maximal-matching baseline
    let ours = mcm::approx_maximum_matching(&g, 0.2, 3.0 as u64);
    let (greedy, _) = locongest::core::baselines::randomized_greedy_matching(&g, 3);
    let greedy_size = greedy.iter().flatten().count() / 2;
    assert!(ours.size >= greedy_size);
}

#[test]
fn local_vs_congest_gap_measured() {
    // The gap the paper is about: naive LOCAL topology gathering needs
    // giant messages; the framework ships O(log n)-bit messages only.
    use locongest::congest::{Model, Network};
    let mut rng = gen::seeded_rng(1008);
    let g = gen::random_planar(150, 0.5, &mut rng);
    // LOCAL: everyone floods its full neighborhood r rounds; message sizes
    // grow to Θ(m) words.
    let mut net = Network::new(&g, Model::Local);
    let n = g.n();
    let mut known: Vec<Vec<u64>> = (0..n)
        .map(|v| {
            g.neighbor_vertices(v)
                .map(|u| (v * n + u) as u64)
                .collect()
        })
        .collect();
    for _ in 0..3 {
        let snapshot = known.clone();
        net.exchange(
            |v, out| {
                for p in 0..g.degree(v) {
                    out.send(p, snapshot[v].clone());
                }
            },
            |v, inbox| {
                for m in inbox.iter().flatten() {
                    known[v].extend_from_slice(m);
                    known[v].sort_unstable();
                    known[v].dedup();
                }
            },
        );
    }
    let local_stats = net.stats();
    assert!(
        local_stats.max_words_edge_round > 2,
        "LOCAL gathering really used big messages: {}",
        local_stats.max_words_edge_round
    );
    // CONGEST framework on the same graph stays at 2 words.
    let fw = run_framework(&g, &FrameworkConfig::planar(0.3, 0));
    assert!(fw.stats.max_words_edge_round <= 2);
}

/// `apps-trigrid` instance 0 of the repo benchmark at its default seed
/// (`benchmark/src/workloads`: `triangulated_grid(16, 16)`, ids shuffled,
/// weights ≤ 1000), with the seed it hands the theorems.
fn benchmark_trigrid() -> (locongest::graph::Graph, locongest::graph::Graph, u64) {
    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let stream = |k: u64| splitmix64(splitmix64(20220725) ^ splitmix64(k));
    let g = gen::shuffle_vertices(
        &gen::triangulated_grid(16, 16),
        &mut gen::seeded_rng(splitmix64(0x5EED_0F7A_B1E5)),
    );
    let weighted = gen::random_weights(g.clone(), 1000, &mut gen::seeded_rng(stream(2)));
    (g, weighted, stream(4))
}

#[test]
fn theorem_1_2_leader_solve_is_certified_where_branch_and_bound_exhausts() {
    // ε' = ε/7 leaves the grid one 256-vertex cluster of min-degree width
    // 24–27; 300 000 branch-and-bound nodes return 74–81 unproven
    let (g, _, seed) = benchmark_trigrid();
    let out = maxis::approx_maximum_independent_set(&g, 0.3, 3.0, seed, 300_000);
    assert!(solvers::mis::is_independent_set(&g, &out.set));
    assert!(out.all_clusters_optimal);
    assert_eq!(out.set.len(), 86);
}

#[test]
fn theorem_1_1_loop_stops_at_its_fixed_point() {
    let (_, g, seed) = benchmark_trigrid();
    let eps = 0.3;
    let limit = mwm::recommended_iterations(eps);
    let out = mwm::approx_maximum_weight_matching(&g, eps, 3.0, seed, limit);
    assert!(solvers::mwm::is_valid_matching(&g, &out.mate));
    // what the loop returned when it ran all 14 iterations (EXPERIMENTS §E6)
    assert_eq!(out.weight, 97_368);
    assert_eq!(out.history, [97_368, 97_368]);
    let once = mwm::approx_maximum_weight_matching(&g, eps, 3.0, seed, 1);
    assert_eq!((once.weight, &once.mate), (out.weight, &out.mate));
    assert!(once.stats.rounds < out.stats.rounds);

    let sweep = mwm::scaling_sweep(&g, eps, 3.0, seed);
    let warm = mwm::approx_mwm_with_warm_start(&g, eps, 3.0, seed, limit);
    assert!(solvers::mwm::is_valid_matching(&g, &warm.mate));
    assert!(warm.weight >= sweep.weight);
    let executed = warm.history.len() - sweep.history.len();
    assert!(executed < limit, "{executed} of {limit} iterations ran");
    assert_eq!(warm.weight, *warm.history.last().unwrap());
}

/// The three instances of `tests/golden_stats.rs`.
fn golden_instances() -> [(&'static str, Graph); 3] {
    let mut rng = gen::seeded_rng(0x601D);
    [
        ("cycle64", gen::cycle(64)),
        ("hypercube8", gen::hypercube(8)),
        ("planar200", gen::random_planar(200, 0.5, &mut rng)),
    ]
}

/// `run_framework` is "decompose, then `run_framework_on`" and nothing
/// else: handing `run_framework_on` the same decomposition reproduces every
/// observable of the run — charged and message-faithful gathering, with
/// and without an active fault plan, at 1 and 3 threads.
#[test]
fn run_framework_on_the_same_decomposition_is_run_framework() {
    for (name, g) in golden_instances() {
        for faithful in [false, true] {
            for faults in [None, Some(FaultPlan::drops(0xD0, 0.2))] {
                for threads in [1, 3] {
                    let cfg = FrameworkConfig {
                        message_faithful: faithful,
                        max_walk_steps: 20_000,
                        faults: faults.clone(),
                        exec: ExecConfig::with_threads(threads),
                        trace: true,
                        metrics: true,
                        ..FrameworkConfig::planar(0.3, 5)
                    };
                    let case = format!("{name} faithful={faithful} faults={} threads={threads}", faults.is_some());
                    let whole = run_framework(&g, &cfg);
                    let d = decomp::decompose_adaptive(&g, cfg.epsilon / cfg.density_bound);
                    let split = run_framework_on(&g, d, &cfg);
                    assert_eq!(split.stats, whole.stats, "{case}");
                    assert_eq!(split.phases, whole.phases, "{case}");
                    assert_eq!(split.diameter_bound, whole.diameter_bound, "{case}");
                    assert_eq!(split.decomposition.cluster_of, whole.decomposition.cluster_of, "{case}");
                    assert_eq!(split.clusters.len(), whole.clusters.len(), "{case}");
                    for (a, b) in split.clusters.iter().zip(&whole.clusters) {
                        assert_eq!(
                            (a.id, a.leader, a.routing, a.election_agrees, &a.mapping),
                            (b.id, b.leader, b.routing, b.election_agrees, &b.mapping),
                            "{case}"
                        );
                    }
                    assert_eq!(split.trace.to_jsonl(), whole.trace.to_jsonl(), "{case}");
                    let det = |o: &FrameworkOutcome| o.metrics.as_ref().expect("metrics on").deterministic_json();
                    assert_eq!(det(&split), det(&whole), "{case}");
                    // the decomposition is timed by the run that computed it
                    let timed = |o: &FrameworkOutcome| {
                        let report = o.metrics.as_ref().expect("metrics on");
                        report.profile.phases.iter().any(|p| p.name == "decomposition")
                    };
                    assert!(timed(&whole) && !timed(&split), "{case}");
                }
            }
        }
    }
}

/// The `b` a run reports is the largest cluster diameter, here recomputed
/// from eccentricities rather than by `Graph::diameter`'s iFUB.
#[test]
fn diameter_bound_is_the_largest_cluster_diameter() {
    for (name, g) in golden_instances() {
        let out = run_framework(&g, &FrameworkConfig::planar(0.3, 5));
        let b = out
            .clusters
            .iter()
            .flat_map(|c| (0..c.subgraph.n()).map(|v| c.subgraph.eccentricity(v)))
            .max()
            .unwrap();
        assert_eq!(out.diameter_bound, b, "{name}");
        assert_eq!(out.phases.election, b as u64, "{name}: the election floods for b rounds");
    }
}

/// The paper-faithful `φ = Θ(ε/log n)` variant is the caller's choice of
/// decomposition now: E14's "paper" row at n = 150, as the retired
/// `FrameworkConfig` switch printed it.
#[test]
fn run_framework_on_the_paper_decomposition_reproduces_e14() {
    let mut rng = gen::seeded_rng(0xE14);
    let g = gen::stacked_triangulation(150, &mut rng);
    let cfg = FrameworkConfig::planar(0.3, 5);
    let paper = decomp::decompose(&g, cfg.epsilon / cfg.density_bound);
    let out = run_framework_on(&g, paper, &cfg);
    assert_eq!(
        (out.clusters.len(), out.cut_edges(), out.stats.rounds, out.phases.gathering),
        (1, 0, 1281, 636)
    );
}

#[test]
#[should_panic(expected = "decomposition is not of this graph")]
fn run_framework_on_rejects_another_graphs_decomposition() {
    let d = decomp::decompose_adaptive(&gen::cycle(12), 0.1);
    let _ = run_framework_on(&gen::cycle(16), d, &FrameworkConfig::planar(0.3, 5));
}
