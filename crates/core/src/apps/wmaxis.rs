//! **Extension** — vertex-weighted MAXIS through the framework.
//!
//! The paper proves Theorem 1.2 for the unweighted problem; §1.1 surveys
//! the weighted CONGEST state of the art ((1−ε)/Δ-style factors from
//! \[10, 66\]). This extension runs the framework with exact per-cluster
//! *weighted* MIS and weight-aware conflict resolution (the lighter
//! endpoint of a conflicting cut edge drops out).
//!
//! Unlike the unweighted case, `ε'·n` dropped *vertices* do not translate
//! into an `ε·α_w` weight bound when weights are wildly skewed — the same
//! obstacle the paper describes for weighted matching. We therefore
//! report the guarantee that *is* provable,
//! `weight(I') ≥ α_w(G) − Σ_{e ∈ E^r} min-endpoint-weight`, and measure
//! the realized ratio in the experiments (it is ≥ 1−ε throughout E13's
//! workloads).

use lcg_congest::{FaultPlan, RoundStats};
use lcg_graph::Graph;
use lcg_solvers::wmis;

use crate::apps::maxis::{complete_greedily, maxis_config};
use crate::framework::{run_framework, FrameworkConfig, FrameworkOutcome};
use crate::recovery::{run_framework_resilient, RecoveryPolicy, RecoveryReport};

/// Result of the weighted MAXIS extension.
#[derive(Debug, Clone)]
pub struct WmaxisOutcome {
    /// The independent set found.
    pub set: Vec<usize>,
    /// Its total weight.
    pub weight: u64,
    /// Total weight dropped during conflict resolution.
    pub conflict_weight_lost: u64,
    /// `true` if every cluster was solved to optimality.
    pub all_clusters_optimal: bool,
    /// Rounds/messages across all phases.
    pub stats: RoundStats,
    /// The framework execution.
    pub framework: FrameworkOutcome,
}

/// Runs the weighted-MAXIS extension. `weights` are per-vertex.
///
/// # Panics
///
/// Panics if `weights.len() != g.n()`.
pub fn approx_maximum_weight_independent_set(
    g: &Graph,
    weights: &[u64],
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    budget: u64,
) -> WmaxisOutcome {
    assert_eq!(weights.len(), g.n(), "one weight per vertex");
    let framework = run_framework(g, &maxis_config(epsilon, density_bound, seed));
    finish_from_framework(g, weights, framework, budget)
}

/// [`approx_maximum_weight_independent_set`] under a fault schedule: the
/// framework retries per `policy` (degrading to singleton clusters when
/// exhausted) and the set is completed to maximality by one deterministic
/// greedy round — heavier-first, so the completion never wastes weight on
/// a vertex whose heavier neighbor is also free.
///
/// # Panics
///
/// Panics if `weights.len() != g.n()`.
#[allow(clippy::too_many_arguments)] // mirrors the plain entry point + harness knobs
pub fn approx_maximum_weight_independent_set_resilient(
    g: &Graph,
    weights: &[u64],
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    budget: u64,
    faults: &FaultPlan,
    policy: &RecoveryPolicy,
) -> (WmaxisOutcome, RecoveryReport) {
    assert_eq!(weights.len(), g.n(), "one weight per vertex");
    let cfg = FrameworkConfig {
        faults: Some(faults.clone()),
        ..maxis_config(epsilon, density_bound, seed)
    };
    let (framework, report) = run_framework_resilient(g, &cfg, policy);
    let mut out = finish_from_framework(g, weights, framework, budget);
    // Greedy completion to maximality, heavier (then lower-id) first.
    // Charged one membership-comparison round.
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(weights[v]), v));
    if complete_greedily(g, &mut out.set, order) {
        out.weight = out.set.iter().map(|&v| weights[v]).sum();
    }
    out.stats.rounds += 1;
    debug_assert!(lcg_solvers::mis::is_maximal_independent_set(g, &out.set));
    (out, report)
}

/// Per-cluster solve + weight-aware conflict resolution, shared by the
/// plain and resilient entry points.
fn finish_from_framework(
    g: &Graph,
    weights: &[u64],
    framework: FrameworkOutcome,
    budget: u64,
) -> WmaxisOutcome {
    let mut in_set = vec![false; g.n()];
    let mut all_optimal = true;
    for c in &framework.clusters {
        let local_w: Vec<u64> = c.mapping.iter().map(|&v| weights[v]).collect();
        let r = wmis::maximum_weight_independent_set(&c.subgraph, &local_w, budget);
        all_optimal &= r.optimal;
        for &local in &r.set {
            in_set[c.mapping[local]] = true;
        }
    }
    // weight-aware conflict resolution on cut edges: lighter endpoint drops
    let mut lost = 0u64;
    for &e in &framework.decomposition.cut_edges {
        let (u, v) = g.endpoints(e);
        if in_set[u] && in_set[v] {
            let drop = if weights[u] < weights[v]
                || (weights[u] == weights[v] && u > v)
            {
                u
            } else {
                v
            };
            in_set[drop] = false;
            lost += weights[drop];
        }
    }
    let set: Vec<usize> = (0..g.n()).filter(|&v| in_set[v]).collect();
    debug_assert!(lcg_solvers::mis::is_independent_set(g, &set));
    let mut stats = framework.stats;
    stats.rounds += 1;
    WmaxisOutcome {
        weight: set.iter().map(|&v| weights[v]).sum(),
        set,
        conflict_weight_lost: lost,
        all_clusters_optimal: all_optimal,
        stats,
        framework,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;
    use rand::Rng;

    #[test]
    fn output_is_independent_and_heavy() {
        let mut rng = gen::seeded_rng(330);
        let g = gen::random_planar(100, 0.5, &mut rng);
        let w: Vec<u64> = (0..100).map(|_| rng.gen_range(1..=50)).collect();
        let out = approx_maximum_weight_independent_set(&g, &w, 0.3, 3.0, 1, 100_000_000);
        assert!(lcg_solvers::mis::is_independent_set(&g, &out.set));
        // at least the greedy Turán witness minus conflicts
        let greedy: u64 = lcg_solvers::wmis::greedy_weighted_mis(&g, &w)
            .iter()
            .map(|&v| w[v])
            .sum();
        assert!(out.weight + out.conflict_weight_lost >= greedy);
    }

    #[test]
    fn ratio_on_small_instances() {
        let mut rng = gen::seeded_rng(331);
        for seed in 0..2u64 {
            let g = gen::random_planar(60, 0.5, &mut rng);
            let w: Vec<u64> = (0..60).map(|_| rng.gen_range(1..=30)).collect();
            let eps = 0.4;
            let out =
                approx_maximum_weight_independent_set(&g, &w, eps, 3.0, seed, 200_000_000);
            let opt = lcg_solvers::wmis::maximum_weight_independent_set(&g, &w, 2_000_000_000);
            assert!(opt.optimal);
            let ratio = out.weight as f64 / opt.weight as f64;
            assert!(
                ratio >= 1.0 - eps,
                "ratio {ratio} (got {}, opt {})",
                out.weight,
                opt.weight
            );
        }
    }

    #[test]
    fn resilient_output_is_maximal_under_heavy_drops() {
        use crate::recovery::RecoveryPolicy;
        use lcg_congest::FaultPlan;
        let mut rng = gen::seeded_rng(333);
        let g = gen::random_planar(60, 0.5, &mut rng);
        let w: Vec<u64> = (0..60).map(|_| rng.gen_range(1..=40)).collect();
        let policy = RecoveryPolicy {
            max_retries: 1,
            initial_walk_steps: 2_000,
        };
        let (out, _report) = approx_maximum_weight_independent_set_resilient(
            &g,
            &w,
            0.3,
            3.0,
            2,
            50_000_000,
            &FaultPlan::drops(0xBEEF, 0.8),
            &policy,
        );
        assert!(lcg_solvers::mis::is_maximal_independent_set(&g, &out.set));
        assert_eq!(out.weight, out.set.iter().map(|&v| w[v]).sum::<u64>());
    }

    #[test]
    fn uniform_weights_match_unweighted_app() {
        let mut rng = gen::seeded_rng(332);
        let g = gen::random_planar(80, 0.5, &mut rng);
        let w = vec![1u64; 80];
        let wout = approx_maximum_weight_independent_set(&g, &w, 0.3, 3.0, 4, 100_000_000);
        let uout =
            crate::apps::maxis::approx_maximum_independent_set(&g, 0.3, 3.0, 4, 100_000_000);
        // same framework seed/ε ⇒ same decomposition; sizes should agree
        assert_eq!(wout.weight as usize, uout.set.len());
    }
}
