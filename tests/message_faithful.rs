//! End-to-end message-faithful executions: the gathering phase runs with
//! real 2-word token messages under the simulator's capacity enforcement
//! (no charged rounds for the data movement).

use locongest::congest::ExecConfig;
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::expander::routing::RoutingOutcome;
use locongest::graph::gen;
use locongest::solvers::mis;

#[test]
fn faithful_framework_gathers_everything() {
    let mut rng = gen::seeded_rng(4000);
    let g = gen::random_planar(120, 0.5, &mut rng);
    let mut cfg = FrameworkConfig::planar(0.3, 11);
    cfg.message_faithful = true;
    let out = run_framework(&g, &cfg);
    for c in &out.clusters {
        assert!(c.routing.complete(), "cluster {} incomplete", c.id);
    }
    // real traffic was recorded and the CONGEST cap held
    assert!(out.stats.messages > 0);
    assert!(out.stats.max_words_edge_round <= 2);
}

/// The per-cluster oracle of a fault-free run: the faithful gathering
/// walks every token through the charged token's vertices, so both agree
/// on steps and delivered tokens, and per step the faithful walk pays its
/// longest one-way port queue plus one synchronisation round where the
/// charged one pays `max(largest two-way edge load, 1)`.
fn assert_oracle(id: usize, charged: &RoutingOutcome, faithful: &RoutingOutcome) {
    let (c, f) = (charged, faithful);
    assert_eq!((f.steps, f.delivered, f.total), (c.steps, c.delivered, c.total), "cluster {id}");
    assert!(c.rounds <= 2 * f.rounds && f.rounds <= c.rounds + c.steps as u64, "cluster {id}: {c:?} {f:?}");
    assert!(f.max_edge_load <= c.max_edge_load && c.max_edge_load <= 2 * f.max_edge_load, "cluster {id}: {c:?} {f:?}");
}

#[test]
fn faithful_and_charged_agree_on_decomposition_and_leaders() {
    let mut rng = gen::seeded_rng(4001);
    let families = [
        gen::stacked_triangulation(100, &mut rng),
        gen::random_planar(120, 0.5, &mut rng),
        gen::grid_with_noise(14, 14, 0.02, &mut rng),
    ];
    for (g, threads) in families.iter().zip([1, 2, 3]) {
        let mut cfg = FrameworkConfig { exec: ExecConfig::with_threads(threads), ..FrameworkConfig::planar(0.25, 3) };
        let charged = run_framework(g, &cfg);
        cfg.message_faithful = true;
        let faithful = run_framework(g, &cfg);
        assert_eq!(charged.decomposition.cluster_of, faithful.decomposition.cluster_of);
        assert_eq!(charged.clusters.len(), faithful.clusters.len());
        for (c, f) in charged.clusters.iter().zip(&faithful.clusters) {
            assert_eq!(c.leader, f.leader);
            assert_oracle(c.id, &c.routing, &f.routing);
        }
        // gathering is the slowest cluster's, so the per-cluster bounds carry over
        let (c, f) = (charged.phases.gathering, faithful.phases.gathering);
        assert!(c <= 2 * f && f <= c + charged.clusters.iter().map(|c| c.routing.steps as u64).max().unwrap_or(0));
    }
}

#[test]
fn faithful_maxis_pipeline() {
    // full Theorem 1.2 with real-message gathering: same guarantee
    let mut rng = gen::seeded_rng(4002);
    let g = gen::random_planar(90, 0.5, &mut rng);
    let eps = 0.4;
    let mut cfg = FrameworkConfig::planar(eps / 7.0, 5);
    cfg.density_bound = 1.0;
    cfg.message_faithful = true;
    let fw = run_framework(&g, &cfg);
    let mut in_set = vec![false; g.n()];
    for c in &fw.clusters {
        let r = mis::maximum_independent_set(&c.subgraph, 1_000_000_000);
        assert!(r.optimal);
        for &l in &r.set {
            in_set[c.mapping[l]] = true;
        }
    }
    for &e in &fw.decomposition.cut_edges {
        let (u, v) = g.endpoints(e);
        if in_set[u] && in_set[v] {
            in_set[u.max(v)] = false;
        }
    }
    let set: Vec<usize> = (0..g.n()).filter(|&v| in_set[v]).collect();
    assert!(mis::is_independent_set(&g, &set));
    let opt = mis::maximum_independent_set(&g, 2_000_000_000);
    assert!(opt.optimal);
    assert!(set.len() as f64 >= (1.0 - eps) * opt.set.len() as f64);
}
