//! **Theorem 1.3** — (1−ε)-approximate agreement-maximization correlation
//! clustering on H-minor-free networks (paper §3.3).
//!
//! Pipeline: Theorem 2.6 with `ε' = ε/2`; each leader computes an optimal
//! clustering of its cluster (exact for small clusters, certified-floor
//! local search beyond); the union of per-cluster clusterings — with
//! globally distinct labels — scores at least `γ(G) − ε'·|E| ≥ (1−ε)·γ(G)`
//! because `γ(G) ≥ |E|/2`.

use lcg_congest::{FaultPlan, RoundStats};
use lcg_graph::Graph;
use lcg_solvers::corrclust;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::apps::{reported, run, scaled, Faults};
use crate::framework::FrameworkOutcome;
use crate::recovery::{RecoveryPolicy, RecoveryReport};

/// Result of the distributed correlation clustering.
#[derive(Debug, Clone)]
pub struct CorrClustOutcome {
    /// Cluster label per vertex (labels globally distinct across
    /// decomposition clusters).
    pub clustering: Vec<usize>,
    /// Agreement score achieved.
    pub score: u64,
    /// `true` if every cluster was solved exactly.
    pub all_clusters_optimal: bool,
    /// Rounds/messages across all phases.
    pub stats: RoundStats,
    /// The framework execution.
    pub framework: FrameworkOutcome,
}

/// Runs Theorem 1.3 on a labeled graph.
///
/// `exact_limit` is the largest cluster size solved by exhaustive
/// branch-and-bound (≈ 18–22 is practical). `_density_bound` is accepted
/// and ignored: §3.3 charges the cut edges against |E| (γ(G) ≥ |E|/2),
/// not against n, so `ε' = ε/2` is not divided by the class's density —
/// until the framework runs at the class's own t (ROADMAP item 5(b)).
///
/// # Panics
///
/// Panics if `g` carries no correlation labels.
pub fn approx_correlation_clustering(
    g: &Graph,
    epsilon: f64,
    _density_bound: f64,
    seed: u64,
    exact_limit: usize,
) -> CorrClustOutcome {
    corrclust(g, epsilon, seed, exact_limit, None).0
}

/// [`approx_correlation_clustering`] under a fault schedule through the
/// self-healing harness. Any labeling is a *valid* clustering — the score
/// is what degradation costs — so the resilient pipeline is the retry
/// harness plus the unchanged per-cluster solve.
///
/// # Panics
///
/// Panics if `g` carries no correlation labels.
pub fn approx_correlation_clustering_resilient(
    g: &Graph,
    epsilon: f64,
    seed: u64,
    exact_limit: usize,
    faults: &FaultPlan,
    policy: &RecoveryPolicy,
) -> (CorrClustOutcome, RecoveryReport) {
    reported(corrclust(g, epsilon, seed, exact_limit, Some(Faults { plan: faults, policy })))
}

/// Theorem 1.3 at `ε' = ε/2` (γ(G) ≥ |E|/2): per-cluster solves relabeled
/// to globally distinct labels, plainly or under `faults`.
fn corrclust(
    g: &Graph,
    epsilon: f64,
    seed: u64,
    exact_limit: usize,
    faults: Option<Faults<'_>>,
) -> (CorrClustOutcome, Option<RecoveryReport>) {
    assert!(g.is_labeled(), "correlation clustering needs edge labels");
    let (framework, report) = run(g, scaled((epsilon / 2.0).min(0.9), seed), faults);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut clustering = vec![0usize; g.n()];
    let mut next_label = 0usize;
    let mut all_optimal = true;
    for c in &framework.clusters {
        let r = corrclust::best_clustering(&c.subgraph, exact_limit, &mut rng);
        all_optimal &= r.optimal;
        // relabel to a fresh global range (BTreeMap: label assignment order
        // is part of the output, so no hash-order iteration here — D001)
        let mut remap: std::collections::BTreeMap<usize, usize> = Default::default();
        for (local, &lab) in r.clustering.iter().enumerate() {
            let global = *remap.entry(lab).or_insert_with(|| {
                let g = next_label;
                next_label += 1;
                g
            });
            clustering[c.mapping[local]] = global;
        }
    }
    let score = corrclust::score(g, &clustering);
    let mut stats = framework.stats;
    stats.rounds += 1; // leaders broadcast labels (piggybacked on reversal)
    let out = CorrClustOutcome {
        clustering,
        score,
        all_clusters_optimal: all_optimal,
        stats,
        framework,
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;
    use lcg_solvers::corrclust::{exact_clustering, score, trivial_clustering};

    #[test]
    fn score_beats_half_of_edges() {
        let mut rng = gen::seeded_rng(270);
        let g = gen::random_labels(gen::random_planar(120, 0.5, &mut rng), 0.6, &mut rng);
        let out = approx_correlation_clustering(&g, 0.3, 3.0, 1, 18);
        // γ(G) ≥ |E|/2 and we lose at most ε'·|E|
        assert!(
            out.score as f64 >= (0.5 - 0.15) * g.m() as f64,
            "score {} on {} edges",
            out.score,
            g.m()
        );
        assert!(out.score >= score(&g, &trivial_clustering(&g)).saturating_sub((0.15 * g.m() as f64) as u64));
    }

    #[test]
    fn ratio_on_small_instances() {
        let mut rng = gen::seeded_rng(271);
        for seed in 0..3u64 {
            let g = gen::random_labels(gen::random_planar(22, 0.5, &mut rng), 0.5, &mut rng);
            let eps = 0.4;
            let out = approx_correlation_clustering(&g, eps, 3.0, seed, 30);
            let opt = exact_clustering(&g, 200_000_000).expect("exact solvable").score;
            let ratio = out.score as f64 / opt as f64;
            assert!(
                ratio >= 1.0 - eps,
                "ratio {ratio} (got {}, opt {opt})",
                out.score
            );
        }
    }

    #[test]
    fn planted_communities_recovered_well() {
        let mut rng = gen::seeded_rng(272);
        let g = gen::triangulated_grid(10, 10);
        let comm: Vec<usize> = (0..100).map(|v| (v % 10) / 5).collect();
        let g = gen::planted_labels(g, &comm, 0.05, &mut rng);
        let out = approx_correlation_clustering(&g, 0.3, 3.0, 4, 18);
        // near-perfect labels: achievable score close to |E|
        assert!(
            out.score as f64 >= 0.6 * g.m() as f64,
            "score {} of {}",
            out.score,
            g.m()
        );
    }

    #[test]
    fn resilient_clustering_is_well_formed_under_drops() {
        use crate::recovery::RecoveryPolicy;
        use lcg_congest::FaultPlan;
        let mut rng = gen::seeded_rng(273);
        let g = gen::random_labels(gen::random_planar(50, 0.5, &mut rng), 0.6, &mut rng);
        let policy = RecoveryPolicy {
            max_retries: 1,
            initial_walk_steps: 2_000,
        };
        let (out, _report) = approx_correlation_clustering_resilient(
            &g,
            0.3,
            1,
            18,
            &FaultPlan::drops(0xCC, 0.7),
            &policy,
        );
        assert_eq!(out.clustering.len(), g.n());
        assert_eq!(out.score, score(&g, &out.clustering));
    }

    #[test]
    #[should_panic(expected = "labels")]
    fn rejects_unlabeled() {
        let g = gen::cycle(5);
        approx_correlation_clustering(&g, 0.3, 3.0, 0, 18);
    }
}
