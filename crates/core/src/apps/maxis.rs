//! **Theorem 1.2** — (1−ε)-approximate maximum independent set on
//! H-minor-free networks (paper §3.1).
//!
//! Pipeline: run Theorem 2.6 with `ε' = ε / (2d + 1)` (d = density bound),
//! let each leader compute a maximum independent set of its cluster, take
//! the union `I`, and resolve conflicts on inter-cluster edges by dropping
//! one endpoint (the set `Z`, `|Z| ≤ ε'·n`). Since `α(G) ≥ n/(2d+1)` on
//! density-d graphs, `|I ∖ Z| ≥ (1 − ε)·α(G)`.

use lcg_congest::{FaultPlan, RoundStats};
use lcg_graph::Graph;
use lcg_solvers::mis;

use crate::framework::{run_framework, FrameworkConfig, FrameworkOutcome};
use crate::recovery::{run_framework_resilient, RecoveryPolicy, RecoveryReport};

/// Result of the distributed (1−ε)-MAXIS algorithm.
#[derive(Debug, Clone)]
pub struct MaxisOutcome {
    /// The independent set found.
    pub set: Vec<usize>,
    /// Conflict vertices removed on inter-cluster edges (the paper's `Z`).
    pub removed_conflicts: usize,
    /// Rounds/messages across all phases (framework + conflict round).
    pub stats: RoundStats,
    /// `true` if every cluster was solved to optimality.
    pub all_clusters_optimal: bool,
    /// The framework execution (decomposition, leaders, routing numbers).
    pub framework: FrameworkOutcome,
}

/// Runs Theorem 1.2 on `g`.
///
/// `density_bound` is the class's edge-density constant `d` (3 for
/// planar); `mis_budget` caps each leader's search — frontier-DP states,
/// then branch-and-bound nodes (exhaustion falls back to that cluster's
/// best incumbent and clears `all_clusters_optimal`).
pub fn approx_maximum_independent_set(
    g: &Graph,
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    mis_budget: u64,
) -> MaxisOutcome {
    let framework = run_framework(g, &maxis_config(epsilon, density_bound, seed));
    finish_from_framework(g, framework, mis_budget)
}

/// [`approx_maximum_independent_set`] under a fault schedule, through the
/// self-healing harness: the framework retries per `policy` (degrading to
/// singleton clusters when exhausted), and the solution is completed to a
/// *maximal* independent set by one deterministic greedy round — so the
/// output is independent **and** maximal under any fault schedule, at the
/// price of the (1−ε) guarantee when the run degraded.
pub fn approx_maximum_independent_set_resilient(
    g: &Graph,
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    mis_budget: u64,
    faults: &FaultPlan,
    policy: &RecoveryPolicy,
) -> (MaxisOutcome, RecoveryReport) {
    let cfg = FrameworkConfig {
        faults: Some(faults.clone()),
        ..maxis_config(epsilon, density_bound, seed)
    };
    let (framework, report) = run_framework_resilient(g, &cfg, policy);
    let mut out = finish_from_framework(g, framework, mis_budget);
    // Greedy completion to maximality (conflict resolution can leave
    // uncovered vertices next to cut edges, and a degraded run certainly
    // does), in id order. Charged one membership-comparison round, like
    // the conflict round.
    complete_greedily(g, &mut out.set, 0..g.n());
    out.stats.rounds += 1;
    debug_assert!(mis::is_maximal_independent_set(g, &out.set));
    (out, report)
}

/// Completes the independent set `set` to a maximal one: every vertex with
/// no chosen neighbor joins, visited in `order`. Returns whether the set
/// grew (it is then re-listed in id order).
pub(crate) fn complete_greedily(
    g: &Graph,
    set: &mut Vec<usize>,
    order: impl IntoIterator<Item = usize>,
) -> bool {
    let mut in_set = vec![false; g.n()];
    for &v in set.iter() {
        in_set[v] = true;
    }
    let mut grew = false;
    for v in order {
        if !in_set[v] && g.neighbor_vertices(v).all(|u| !in_set[u]) {
            in_set[v] = true;
            grew = true;
        }
    }
    if grew {
        *set = (0..g.n()).filter(|&v| in_set[v]).collect();
    }
    grew
}

/// The §3.1 configuration: `ε' = ε / (2d + 1)`, density scaling bypassed
/// because ε' is already fully scaled.
pub(crate) fn maxis_config(epsilon: f64, density_bound: f64, seed: u64) -> FrameworkConfig {
    let eps_prime = epsilon / (2.0 * density_bound + 1.0);
    FrameworkConfig {
        // the framework divides by the density bound itself; we already
        // scaled, so pass t = 1 to use ε' as-is for the decomposition
        density_bound: 1.0,
        ..FrameworkConfig::planar(eps_prime, seed)
    }
}

/// Per-cluster solve + conflict resolution, shared by the plain and
/// resilient entry points.
fn finish_from_framework(g: &Graph, framework: FrameworkOutcome, mis_budget: u64) -> MaxisOutcome {
    // Each leader solves its cluster exactly: tree-decomposition DP when
    // the cluster has small treewidth (k-tree families), else a DP over a
    // vertex order when its frontier tables fit the budget (grids), else
    // branch-and-bound.
    let mut in_set = vec![false; g.n()];
    let mut all_optimal = true;
    for c in &framework.clusters {
        let (set, optimal) = lcg_solvers::treedp::mis_auto(&c.subgraph, 8, mis_budget);
        all_optimal &= optimal;
        for &local in &set {
            in_set[c.mapping[local]] = true;
        }
    }
    // Conflict resolution: one round — endpoints of inter-cluster edges
    // compare membership; the larger id drops out.
    let mut stats = framework.stats;
    stats.rounds += 1; // the comparison round
    let mut removed = 0usize;
    for &e in &framework.decomposition.cut_edges {
        let (u, v) = g.endpoints(e);
        if in_set[u] && in_set[v] {
            let drop = u.max(v);
            in_set[drop] = false;
            removed += 1;
        }
    }
    let set: Vec<usize> = (0..g.n()).filter(|&v| in_set[v]).collect();
    debug_assert!(mis::is_independent_set(g, &set));
    MaxisOutcome {
        set,
        removed_conflicts: removed,
        stats,
        all_clusters_optimal: all_optimal,
        framework,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;
    use lcg_solvers::mis::{is_independent_set, maximum_independent_set};

    #[test]
    fn output_is_independent() {
        let mut rng = gen::seeded_rng(240);
        let g = gen::random_planar(150, 0.5, &mut rng);
        let out = approx_maximum_independent_set(&g, 0.3, 3.0, 1, 10_000_000);
        assert!(is_independent_set(&g, &out.set));
        assert!(out.stats.rounds > 0);
    }

    #[test]
    fn ratio_meets_guarantee_on_small_planar() {
        let mut rng = gen::seeded_rng(241);
        for seed in 0..3u64 {
            let g = gen::random_planar(80, 0.45, &mut rng);
            let eps = 0.4;
            let out = approx_maximum_independent_set(&g, eps, 3.0, seed, 50_000_000);
            assert!(out.all_clusters_optimal);
            let opt = maximum_independent_set(&g, 500_000_000);
            assert!(opt.optimal, "need exact optimum for the ratio check");
            let ratio = out.set.len() as f64 / opt.set.len() as f64;
            assert!(
                ratio >= 1.0 - eps,
                "ratio {ratio} < {} (found {}, opt {})",
                1.0 - eps,
                out.set.len(),
                opt.set.len()
            );
        }
    }

    #[test]
    fn conflicts_bounded_by_cut_edges() {
        let mut rng = gen::seeded_rng(242);
        let g = gen::stacked_triangulation(200, &mut rng);
        let out = approx_maximum_independent_set(&g, 0.3, 3.0, 2, 10_000_000);
        assert!(out.removed_conflicts <= out.framework.cut_edges());
    }

    #[test]
    fn resilient_output_is_maximal_even_under_blackout() {
        use crate::recovery::RecoveryPolicy;
        use lcg_congest::FaultPlan;
        let mut rng = gen::seeded_rng(244);
        let g = gen::random_planar(70, 0.5, &mut rng);
        // fault-free plan: behaves like the plain pipeline + completion
        let (out, report) = approx_maximum_independent_set_resilient(
            &g,
            0.3,
            3.0,
            1,
            10_000_000,
            &FaultPlan::none(),
            &RecoveryPolicy::default_budget(),
        );
        assert!(!report.degraded);
        assert!(lcg_solvers::mis::is_maximal_independent_set(&g, &out.set));
        // total blackout: degraded, but still maximal-independent
        let policy = RecoveryPolicy {
            max_retries: 1,
            initial_walk_steps: 1_000,
        };
        let (out, report) = approx_maximum_independent_set_resilient(
            &g,
            0.3,
            3.0,
            1,
            10_000_000,
            &FaultPlan::drops(9, 1.0),
            &policy,
        );
        assert!(report.degraded);
        assert!(lcg_solvers::mis::is_maximal_independent_set(&g, &out.set));
        assert!(out.stats.dropped_messages > 0);
    }

    #[test]
    fn works_on_trees() {
        let mut rng = gen::seeded_rng(243);
        let g = gen::random_tree(120, &mut rng);
        let out = approx_maximum_independent_set(&g, 0.25, 1.0, 4, 10_000_000);
        assert!(is_independent_set(&g, &out.set));
        // trees: α >= n/2; with conflicts removed we still get close
        assert!(out.set.len() >= 40);
    }
}
