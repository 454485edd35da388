//! Reproducibility: every randomized pipeline is a pure function of its
//! seed. (The experiment tables in EXPERIMENTS.md depend on this.)

use locongest::core::apps::{ldd, maxis, mwm, property_testing};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::expander::{decomp, routing};
use locongest::graph::gen;

#[test]
fn generators_are_seed_deterministic() {
    let make = |seed| {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::random_planar(100, 0.5, &mut rng);
        g.edges().collect::<Vec<_>>()
    };
    assert_eq!(make(7), make(7));
    assert_ne!(make(7), make(8));
}

#[test]
fn decomposition_is_deterministic() {
    let mut rng = gen::seeded_rng(42);
    let g = gen::stacked_triangulation(200, &mut rng);
    let a = decomp::decompose_adaptive(&g, 0.1);
    let b = decomp::decompose_adaptive(&g, 0.1);
    assert_eq!(a.cluster_of, b.cluster_of);
    assert_eq!(a.cut_edges, b.cut_edges);
}

#[test]
fn framework_is_seed_deterministic() {
    let mut rng = gen::seeded_rng(43);
    let g = gen::random_planar(120, 0.5, &mut rng);
    let run = |seed| {
        let fw = run_framework(&g, &FrameworkConfig::planar(0.3, seed));
        (
            fw.decomposition.cluster_of.clone(),
            fw.stats.rounds,
            fw.clusters.iter().map(|c| c.leader).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(5), run(5));
}

/// The framework seed drives the routing walks only: the decomposition is
/// a pure function of `(G, ε)`. ROADMAP items 2(a) (one decomposition
/// tree) and 5 (skip re-decomposing an unchanged working graph) build on
/// exactly this; `core::apps::mwm` documents what it costs Theorem 1.1.
#[test]
fn decomposition_ignores_the_seed() {
    let mut rng = gen::seeded_rng(43);
    let g = gen::random_planar(120, 0.5, &mut rng);
    let a = run_framework(&g, &FrameworkConfig::planar(0.3, 5));
    let b = run_framework(&g, &FrameworkConfig::planar(0.3, 6));
    assert_eq!(a.decomposition.cluster_of, b.decomposition.cluster_of);
    assert_eq!(a.decomposition.cut_edges, b.decomposition.cut_edges);
    assert_ne!(a.stats.rounds, b.stats.rounds, "the walks do depend on the seed");
}

#[test]
fn apps_are_seed_deterministic() {
    let mut rng = gen::seeded_rng(44);
    let g = gen::random_planar(100, 0.5, &mut rng);
    let a = maxis::approx_maximum_independent_set(&g, 0.3, 3.0, 9, 50_000_000);
    let b = maxis::approx_maximum_independent_set(&g, 0.3, 3.0, 9, 50_000_000);
    assert_eq!(a.set, b.set);
    assert_eq!(a.stats.rounds, b.stats.rounds);

    let gw = gen::random_weights(g.clone(), 50, &mut rng);
    let a = mwm::approx_maximum_weight_matching(&gw, 0.3, 3.0, 2, 5);
    let b = mwm::approx_maximum_weight_matching(&gw, 0.3, 3.0, 2, 5);
    assert_eq!(a.mate, b.mate);
    assert_eq!(a.history, b.history);

    let a = ldd::low_diameter_decomposition(&g, 0.3, 3.0, 4);
    let b = ldd::low_diameter_decomposition(&g, 0.3, 3.0, 4);
    assert_eq!(a.cluster_of, b.cluster_of);

    let a = property_testing::test_property(&g, 0.1, property_testing::TestedProperty::Planar, 6);
    let b = property_testing::test_property(&g, 0.1, property_testing::TestedProperty::Planar, 6);
    assert_eq!(a.accepts, b.accepts);
}

#[test]
fn routing_is_rng_deterministic() {
    let mut rng1 = gen::seeded_rng(45);
    let g = gen::stacked_triangulation(80, &mut rng1);
    let members: Vec<usize> = (0..80).collect();
    let leader = (0..80).max_by_key(|&v| g.degree(v)).unwrap();
    let mut w1 = gen::seeded_rng(99);
    let mut w2 = gen::seeded_rng(99);
    let a = routing::random_walk_routing(&g, &members, leader, 1_000_000, &mut w1);
    let b = routing::random_walk_routing(&g, &members, leader, 1_000_000, &mut w2);
    assert_eq!(a, b);
}

#[test]
fn graph_serde_roundtrip() {
    let mut rng = gen::seeded_rng(46);
    let g = gen::random_labels(
        gen::random_weights(gen::random_planar(40, 0.5, &mut rng), 20, &mut rng),
        0.5,
        &mut rng,
    );
    let json = serde_json::to_string(&g).expect("serialize");
    let h: locongest::graph::Graph = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(g.n(), h.n());
    assert_eq!(g.m(), h.m());
    for (e, u, v) in g.edges() {
        assert_eq!(h.endpoints(e), (u, v));
        assert_eq!(g.weight(e), h.weight(e));
        assert_eq!(g.label(e), h.label(e));
    }
}
