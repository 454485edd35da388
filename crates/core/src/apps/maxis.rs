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

use crate::apps::wmaxis::wmaxis;
use crate::apps::{reported, Faults};
use crate::framework::FrameworkOutcome;
use crate::recovery::{RecoveryPolicy, RecoveryReport};

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
    maxis(g, epsilon, density_bound, seed, mis_budget, None).0
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
    reported(maxis(g, epsilon, density_bound, seed, mis_budget, Some(Faults { plan: faults, policy })))
}

/// Theorem 1.2 at `ε' = ε / (2d + 1)`, plainly or under `faults`: the
/// weighted body at unit weights, where each of its steps is the
/// unweighted one — the larger id of a conflicting pair drops, and the
/// completion visits vertices in id order.
fn maxis(
    g: &Graph,
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    mis_budget: u64,
    faults: Option<Faults<'_>>,
) -> (MaxisOutcome, Option<RecoveryReport>) {
    let unit = vec![1; g.n()];
    let (out, report) = wmaxis(g, &unit, epsilon, density_bound, seed, mis_budget, faults);
    let out = MaxisOutcome {
        set: out.set,
        removed_conflicts: out.conflict_weight_lost as usize,
        stats: out.stats,
        all_clusters_optimal: out.all_clusters_optimal,
        framework: out.framework,
    };
    (out, report)
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
