//! **Theorem 1.5** — low-diameter decomposition with the *optimal*
//! `D = O(1/ε)` on H-minor-free networks (paper §3.5).
//!
//! Pipeline: Theorem 2.6 with `ε̃ = ε/2` (≤ ε|E|/2 cut edges), then each
//! leader refines its cluster with the sequential KPR-style
//! `O(1/ε)`-diameter decomposition (`lcg_solvers::ldd::minor_free_ldd`
//! with `ε̃ = ε/2`), contributing at most another ε|E|/2 cut edges.
//!
//! The prior-work baseline (`D = ε^{-O(1)}` with a log n factor, à la
//! Levi–Medina–Ron / MPX) is [`baseline_mpx_ldd`]; Experiment E9 compares
//! `D·ε` of the two as n grows.

use lcg_congest::{FaultPlan, Model, Network, RoundStats};
use lcg_graph::Graph;
use lcg_solvers::ldd as seq_ldd;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::apps::{reported, run, scaled, Faults};
use crate::recovery::{RecoveryPolicy, RecoveryReport};

/// Result of the distributed LDD.
#[derive(Debug, Clone)]
pub struct LddOutcome {
    /// Final cluster id per vertex.
    pub cluster_of: Vec<usize>,
    /// Maximum strong diameter over final clusters.
    pub max_diameter: usize,
    /// Fraction of edges cut.
    pub cut_fraction: f64,
    /// Rounds/messages across all phases.
    pub stats: RoundStats,
}

/// Runs Theorem 1.5 on `g`.
///
/// `_density_bound` is accepted and ignored: §3.5 charges the cut edges
/// against |E|, not against n, so `ε̃ = ε/2` is not divided by the class's
/// density — until the framework runs at the class's own t (ROADMAP item
/// 5(b)).
pub fn low_diameter_decomposition(
    g: &Graph,
    epsilon: f64,
    _density_bound: f64,
    seed: u64,
) -> LddOutcome {
    ldd(g, epsilon, seed, None).0
}

/// [`low_diameter_decomposition`] under a fault schedule through the
/// self-healing harness. A degraded framework run falls back to the
/// prior-work [`baseline_mpx_ldd`] solver — a real low-diameter
/// decomposition, merely with the `O(log n)` diameter factor Theorem 1.5
/// removes — instead of the framework's singleton clustering (diameter 0
/// but every edge cut). Either way the result is a valid clustering with
/// connected parts, under any fault schedule. `_density_bound` is ignored,
/// as in [`low_diameter_decomposition`].
pub fn low_diameter_decomposition_resilient(
    g: &Graph,
    epsilon: f64,
    _density_bound: f64,
    seed: u64,
    faults: &FaultPlan,
    policy: &RecoveryPolicy,
) -> (LddOutcome, RecoveryReport) {
    reported(ldd(g, epsilon, seed, Some(Faults { plan: faults, policy })))
}

/// Theorem 1.5 at `ε̃ = ε/2`: per-cluster KPR refinement and relabeling,
/// plainly or under `faults`.
fn ldd(
    g: &Graph,
    epsilon: f64,
    seed: u64,
    faults: Option<Faults<'_>>,
) -> (LddOutcome, Option<RecoveryReport>) {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    let (framework, report) = run(g, scaled((epsilon / 2.0).min(0.9), seed), faults);
    if report.as_ref().is_some_and(|r| r.degraded) {
        // keep the failed attempts' spending on the books
        let mut out = baseline_mpx_ldd(g, epsilon, seed);
        out.stats.merge(&framework.stats);
        return (out, report);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1DD);
    let mut cluster_of = vec![0usize; g.n()];
    let mut next = 0usize;
    for c in &framework.clusters {
        let refined = seq_ldd::minor_free_ldd(&c.subgraph, (epsilon / 2.0).min(0.9), &mut rng);
        for (local, &rc) in refined.cluster_of.iter().enumerate() {
            cluster_of[c.mapping[local]] = next + rc;
        }
        next += refined.k;
    }
    let ldd = seq_ldd::Ldd {
        cluster_of: cluster_of.clone(),
        k: next,
    };
    let max_diameter = ldd.max_diameter(g);
    let cut_fraction = ldd.cut_fraction(g);
    let mut stats = framework.stats;
    stats.rounds += 1; // leaders broadcast refined labels
    let out = LddOutcome {
        cluster_of,
        max_diameter,
        cut_fraction,
        stats,
    };
    (out, report)
}

/// Prior-work baseline: one-shot distributed MPX clustering with
/// `β = ε/2` — diameter carries the `O(log n)` factor Theorem 1.5
/// removes.
pub fn baseline_mpx_ldd(g: &Graph, epsilon: f64, seed: u64) -> LddOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBA5E);
    let mut net = Network::new(g, Model::congest());
    let c = lcg_expander::distributed::mpx_clustering(&mut net, (epsilon / 2.0).clamp(0.01, 0.9), &mut rng);
    let ldd = seq_ldd::Ldd {
        cluster_of: c.cluster_of.clone(),
        k: 0,
    };
    LddOutcome {
        max_diameter: ldd.max_diameter(g),
        cut_fraction: ldd.cut_fraction(g),
        cluster_of: c.cluster_of,
        stats: net.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn clusters_have_low_diameter() {
        let mut rng = gen::seeded_rng(290);
        let g = gen::random_planar(200, 0.5, &mut rng);
        let eps = 0.4;
        let out = low_diameter_decomposition(&g, eps, 3.0, 1);
        // D = O(1/ε); generous constant for the 3-iteration KPR chop
        assert!(
            (out.max_diameter as f64) <= 80.0 / eps,
            "diameter {}",
            out.max_diameter
        );
        assert!(out.cluster_of.len() == g.n());
    }

    #[test]
    fn cut_fraction_within_budget() {
        let mut rng = gen::seeded_rng(291);
        let g = gen::triangulated_grid(15, 15);
        let _ = &mut rng;
        let mut worst: f64 = 0.0;
        for seed in 0..3 {
            let out = low_diameter_decomposition(&g, 0.4, 3.0, seed);
            worst = worst.max(out.cut_fraction);
        }
        // expected ≤ ε; allow randomized slack on the worst of 3
        assert!(worst <= 0.6, "cut fraction {worst}");
    }

    #[test]
    fn final_clusters_connected() {
        let mut rng = gen::seeded_rng(292);
        let g = gen::random_planar(150, 0.4, &mut rng);
        let out = low_diameter_decomposition(&g, 0.3, 3.0, 2);
        let members = lcg_congest::primitives::cluster_members(&out.cluster_of);
        for (_, vs) in members {
            let (sub, _) = g.induced_subgraph(&vs);
            assert!(sub.is_connected());
        }
    }

    #[test]
    fn cycle_diameter_tradeoff() {
        // the paper's tight example: cycles need D = Ω(1/ε)
        let g = gen::cycle(300);
        let out = low_diameter_decomposition(&g, 0.2, 3.0, 3);
        assert!(out.max_diameter >= 2, "cannot beat Ω(1/ε) on a cycle");
        assert!(out.cut_fraction <= 0.4);
    }

    #[test]
    fn resilient_ldd_falls_back_to_baseline_under_blackout() {
        use crate::recovery::RecoveryPolicy;
        use lcg_congest::FaultPlan;
        let g = gen::grid(8, 8);
        let policy = RecoveryPolicy {
            max_retries: 1,
            initial_walk_steps: 1_000,
        };
        let (out, report) = low_diameter_decomposition_resilient(
            &g,
            0.4,
            3.0,
            2,
            &FaultPlan::drops(6, 1.0),
            &policy,
        );
        assert!(report.degraded);
        // the baseline fallback is a real clustering: connected parts,
        // finite diameter, failed-attempt rounds on the books
        assert_eq!(out.cluster_of.len(), g.n());
        let members = lcg_congest::primitives::cluster_members(&out.cluster_of);
        for (_, vs) in members {
            let (sub, _) = g.induced_subgraph(&vs);
            assert!(sub.is_connected());
        }
        assert!(out.max_diameter < usize::MAX);
        assert!(out.stats.dropped_messages > 0);
    }

    #[test]
    fn baseline_runs() {
        let mut rng = gen::seeded_rng(293);
        let g = gen::random_planar(200, 0.5, &mut rng);
        let out = baseline_mpx_ldd(&g, 0.3, 4);
        assert_eq!(out.cluster_of.len(), g.n());
        assert!(out.max_diameter < usize::MAX);
        assert!(out.stats.rounds > 0);
    }
}
