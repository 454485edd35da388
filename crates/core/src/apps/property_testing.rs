//! **Theorem 1.4** — distributed property testing of minor-closed,
//! disjoint-union-closed properties (paper §3.4).
//!
//! Correctness contract (one-sided error):
//! * if `G ∈ P`, **every** vertex outputs Accept (with probability 1);
//! * if `G` is ε-far from `P`, at least one vertex outputs Reject w.h.p.
//!
//! The algorithm runs the Theorem 2.6 framework *as if* the graph were in
//! the class (the clustering step never needs minor-freeness; its
//! `ε·|E|` cut bound holds unconditionally — §2.3). Each leader then
//! checks its cluster for the property exactly and broadcasts the
//! verdict; the Lemma 2.3 degree condition is checked as the additional
//! Reject trigger of §2.3.

use lcg_congest::RoundStats;
use lcg_graph::planarity;
use lcg_graph::Graph;

use crate::failure::degree_condition;
use crate::framework::{run_framework, FrameworkConfig, FrameworkOutcome};

/// Properties shipped with exact, fast cluster checkers. All three are
/// minor-closed and closed under disjoint union, as Theorem 1.4 requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestedProperty {
    /// Planarity (forbidden minors K₅, K₃,₃) — the Levi–Medina–Ron case.
    Planar,
    /// Outerplanarity (forbidden minors K₄, K₂,₃).
    Outerplanar,
    /// Forests (forbidden minor K₃).
    Forest,
    /// Treewidth ≤ 2 (forbidden minor K₄; series-parallel reduction check).
    TreewidthAtMost2,
}

impl TestedProperty {
    /// Exact membership check, run by leaders on their clusters.
    pub fn holds(&self, g: &Graph) -> bool {
        match self {
            TestedProperty::Planar => planarity::is_planar(g),
            TestedProperty::Outerplanar => planarity::is_outerplanar(g),
            TestedProperty::Forest => planarity::is_forest(g),
            TestedProperty::TreewidthAtMost2 => lcg_graph::reductions::treewidth_at_most_2(g),
        }
    }

    /// Hereditary edge-density bound `t` of the class (the Theorem 2.6
    /// parameter chosen from `H`, *not* from the input graph).
    pub fn density_bound(&self) -> f64 {
        match self {
            TestedProperty::Planar => 3.0,
            TestedProperty::Outerplanar => 2.0,
            TestedProperty::Forest => 1.0,
            TestedProperty::TreewidthAtMost2 => 2.0,
        }
    }
}

/// Verdict of the distributed property test.
#[derive(Debug, Clone)]
pub struct PropertyTestOutcome {
    /// Per-vertex outputs (`true` = Accept).
    pub accepts: Vec<bool>,
    /// `true` iff every vertex accepted.
    pub all_accept: bool,
    /// Clusters whose topology failed the property check.
    pub rejected_clusters: usize,
    /// Clusters rejected by the Lemma 2.3 degree-condition check.
    pub degree_condition_failures: usize,
    /// Rounds/messages across all phases.
    pub stats: RoundStats,
    /// The framework execution.
    pub framework: FrameworkOutcome,
}

/// Runs Theorem 1.4 on `g` with proximity parameter `epsilon`.
pub fn test_property(
    g: &Graph,
    epsilon: f64,
    property: TestedProperty,
    seed: u64,
) -> PropertyTestOutcome {
    let cfg = FrameworkConfig::minor_free(epsilon, property.density_bound(), seed);
    let framework = run_framework(g, &cfg);
    let phi = framework.decomposition.phi_cut;
    let mut accepts = vec![true; g.n()];
    let mut rejected_clusters = 0usize;
    let mut degree_failures = 0usize;
    for c in &framework.clusters {
        // §2.3: check the Lemma 2.3 degree condition first. The constant
        // is calibrated conservatively (c = 0.01) so genuine H-minor-free
        // inputs never trip it (the one-sided-error tests verify this).
        let leader = c.mapping.binary_search(&c.leader).expect("a leader is a cluster member");
        let deg_ok = c.mapping.len() <= 2 || degree_condition(&c.subgraph, leader, phi, 0.01);
        if !deg_ok {
            degree_failures += 1;
            for &v in &c.mapping {
                accepts[v] = false;
            }
            continue;
        }
        if !property.holds(&c.subgraph) {
            rejected_clusters += 1;
            for &v in &c.mapping {
                accepts[v] = false;
            }
        }
    }
    let mut stats = framework.stats;
    stats.rounds += 1; // verdict broadcast (piggybacked on the reversal)
    let all_accept = accepts.iter().all(|&a| a);
    PropertyTestOutcome {
        accepts,
        all_accept,
        rejected_clusters,
        degree_condition_failures: degree_failures,
        stats,
        framework,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn planar_inputs_always_accept() {
        let mut rng = gen::seeded_rng(280);
        for seed in 0..3u64 {
            let g = gen::random_planar(150, 0.5, &mut rng);
            let out = test_property(&g, 0.1, TestedProperty::Planar, seed);
            assert!(out.all_accept, "false reject on planar input (seed {seed})");
            assert_eq!(out.degree_condition_failures, 0);
        }
    }

    #[test]
    fn far_from_planar_rejects() {
        // 20 disjoint K6s: provably ε-far from planar for ε < 2/15
        let g = gen::disjoint_cliques(20, 6);
        let out = test_property(&g, 0.1, TestedProperty::Planar, 1);
        assert!(!out.all_accept, "missed the K6 family");
        assert!(out.rejected_clusters + out.degree_condition_failures > 0);
    }

    #[test]
    fn single_k5_component_detected() {
        let mut rng = gen::seeded_rng(281);
        let g = gen::random_planar(60, 0.5, &mut rng).disjoint_union(&gen::complete(5));
        // not necessarily ε-far, but the tester may reject; what we check
        // here is that the K5's own cluster cannot fool the leader check
        // once it ends up inside a single cluster (K5 is an expander).
        let out = test_property(&g, 0.05, TestedProperty::Planar, 2);
        assert!(!out.all_accept);
    }

    #[test]
    fn forest_tester() {
        let mut rng = gen::seeded_rng(282);
        let tree = gen::random_tree(100, &mut rng);
        let out = test_property(&tree, 0.2, TestedProperty::Forest, 3);
        assert!(out.all_accept);
        // far-from-forest: disjoint triangles (each needs one deletion;
        // 1/3 of edges must change)
        let tri = gen::disjoint_cliques(15, 3);
        let out = test_property(&tri, 0.2, TestedProperty::Forest, 3);
        assert!(!out.all_accept);
    }

    #[test]
    fn outerplanar_tester() {
        let mut rng = gen::seeded_rng(283);
        let g = gen::outerplanar_maximal(60, &mut rng);
        let out = test_property(&g, 0.2, TestedProperty::Outerplanar, 4);
        assert!(out.all_accept);
        // K4s are not outerplanar; disjoint K4s are far from it
        let k4s = gen::disjoint_cliques(12, 4);
        let out = test_property(&k4s, 0.1, TestedProperty::Outerplanar, 4);
        assert!(!out.all_accept);
    }

    #[test]
    fn treewidth2_tester() {
        let mut rng = gen::seeded_rng(284);
        let g = gen::series_parallel(120, &mut rng);
        let out = test_property(&g, 0.2, TestedProperty::TreewidthAtMost2, 6);
        assert!(out.all_accept);
        let g = gen::ktree(60, 2, &mut rng);
        let out = test_property(&g, 0.2, TestedProperty::TreewidthAtMost2, 6);
        assert!(out.all_accept);
        // K4 packings are far from treewidth <= 2
        let k4s = gen::disjoint_cliques(20, 4);
        let out = test_property(&k4s, 0.1, TestedProperty::TreewidthAtMost2, 6);
        assert!(!out.all_accept);
    }

    #[test]
    fn acceptance_is_per_cluster() {
        // planar part + one K6: only the K6's vertices reject
        let g = gen::grid(6, 6).disjoint_union(&gen::complete(6));
        let out = test_property(&g, 0.05, TestedProperty::Planar, 5);
        assert!(!out.all_accept);
        assert!(out.accepts[..36].iter().all(|&a| a), "grid part must accept");
        assert!(out.accepts[36..].iter().any(|&a| !a));
    }
}
