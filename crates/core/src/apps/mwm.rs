//! **Theorem 1.1** — (1−ε)-approximate maximum *weight* matching on
//! H-minor-free networks.
//!
//! **Substitution note (DESIGN.md):** the paper embeds the expander
//! decomposition into Duan–Pettie's primal–dual scaling algorithm; the two
//! load-bearing ideas are (i) never bulk-discard heavy edges when cutting
//! — boundary edges are *neutralized*, not deleted — and (ii) let leaders
//! do the nontrivial augmentation work locally. This harness realizes both
//! with an **iterated-decomposition local-improvement scheme**:
//!
//! 1. Decompose and run the framework (seed `s + i` in iteration `i`).
//! 2. Matched edges crossing the decomposition are *locked*: they keep
//!    their weight and their endpoints are frozen (the analogue of the
//!    ±δ perturbation keeping boundary structure intact).
//! 3. Each leader replaces the intra-cluster part of the matching with an
//!    exact maximum weight matching of `G[V_i] ∖ (frozen vertices)` —
//!    monotone non-decreasing total weight by construction.
//! 4. Repeat until the fixed point, at most `O(1/ε · polylog)` times; the
//!    measured ratio against the exact sequential optimum is what
//!    Experiment E6 reports.
//!
//! **The fixed point (EXPERIMENTS §E6).** Steps 2–3 are a deterministic
//! function of the clustering and the matching they start from, and
//! leaders never add a cut edge: the vertices frozen after an iteration
//! are the ones frozen before it, so over the same clustering the next
//! iteration re-solves the same clusters to the same matching. The loop
//! therefore stops after the first iteration that leaves the matching
//! unchanged under the clustering of the iteration before it. Today that
//! is the second one, always: `decompose_adaptive` takes no seed — the
//! decomposition is a pure function of `(G, ε)` — so every iteration cuts
//! the same edges, and only the routing walks (hence `stats.rounds`)
//! depend on the seed. On the shuffled, weighted `triangulated_grid(16,
//! 16)` of the repo benchmark, ε = 0.3, both executed iterations read
//! 97 368 — as all 14 did when the loop ran to its count. Iterations that
//! *differ* need a seeded decomposition (ROADMAP item 3(c)); the stopping
//! rule compares clusterings so that it stays sound when they arrive.

use lcg_congest::RoundStats;
use lcg_graph::Graph;
use lcg_solvers::mwm;

use crate::framework::{run_framework, FrameworkConfig};

/// Result of the distributed (1−ε)-MWM harness.
#[derive(Debug, Clone)]
pub struct MwmOutcome {
    /// Partner table.
    pub mate: Vec<Option<usize>>,
    /// Total matching weight.
    pub weight: u64,
    /// Weight after each improvement iteration *executed* (non-decreasing):
    /// the loop stops at its fixed point, so this may be shorter than the
    /// iteration count requested.
    pub history: Vec<u64>,
    /// Rounds/messages accumulated over the executed iterations.
    pub stats: RoundStats,
}

/// One improvement iteration (steps 1–3 of the module docs) under
/// framework seed `seed`, applied to `out` in place: a history entry and
/// one commit round are added whether or not the matching changed.
/// Returns the clustering it ran under and whether `out.mate` changed.
fn improve(
    g: &Graph,
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    out: &mut MwmOutcome,
) -> (Vec<usize>, bool) {
    let fw = run_framework(g, &FrameworkConfig::minor_free(epsilon, density_bound, seed));
    out.stats.merge(&fw.stats);
    let cluster_of = &fw.decomposition.cluster_of;
    // vertices frozen by matched cut edges keep their matches
    let mut frozen = vec![false; g.n()];
    for (v, &m) in out.mate.iter().enumerate() {
        if let Some(u) = m {
            if cluster_of[u] != cluster_of[v] {
                frozen[v] = true;
            }
        }
    }
    let mut new_mate: Vec<Option<usize>> = (0..g.n())
        .map(|v| if frozen[v] { out.mate[v] } else { None })
        .collect();
    for c in &fw.clusters {
        // leader solves MWM on the cluster minus frozen vertices
        let free_local: Vec<usize> = (0..c.subgraph.n())
            .filter(|&l| !frozen[c.mapping[l]])
            .collect();
        if free_local.len() < 2 {
            continue;
        }
        let (sub2, map2) = c.subgraph.induced_subgraph(&free_local);
        if sub2.m() == 0 {
            continue;
        }
        let local_mate = mwm::maximum_weight_matching(&sub2);
        for (l2, &p2) in local_mate.iter().enumerate() {
            if let Some(p) = p2 {
                let u = c.mapping[map2[l2]];
                let v = c.mapping[map2[p]];
                new_mate[u] = Some(v);
            }
        }
    }
    debug_assert!(mwm::is_valid_matching(g, &new_mate));
    let new_weight = mwm::matching_weight(g, &new_mate);
    // Per-cluster optimality makes this monotone; assert it.
    debug_assert!(new_weight >= out.weight, "weight regressed: {} -> {new_weight}", out.weight);
    let changed = new_weight >= out.weight && new_mate != out.mate;
    if changed {
        out.mate = new_mate;
        out.weight = new_weight;
    }
    out.history.push(out.weight);
    // one round: clusters commit / broadcast acceptance
    out.stats.rounds += 1;
    (fw.decomposition.cluster_of, changed)
}

/// Up to `iterations` improvement iterations on `out`, iteration `i` under
/// framework seed `first_seed + i`, stopping at the fixed point: after the
/// first iteration that leaves the matching unchanged under the clustering
/// of the iteration before it (see the module docs).
fn improve_to_fixed_point(
    g: &Graph,
    epsilon: f64,
    density_bound: f64,
    first_seed: u64,
    iterations: usize,
    out: &mut MwmOutcome,
) {
    let mut previous: Option<Vec<usize>> = None;
    for it in 0..iterations {
        let seed = first_seed.wrapping_add(it as u64);
        let (cluster_of, changed) = improve(g, epsilon, density_bound, seed, out);
        if !changed && previous.as_ref() == Some(&cluster_of) {
            break;
        }
        previous = Some(cluster_of);
    }
}

/// Runs the Theorem 1.1 harness: at most `iterations` rounds of
/// decomposition + per-cluster exact MWM improvement, stopping early at the
/// fixed point.
pub fn approx_maximum_weight_matching(
    g: &Graph,
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    iterations: usize,
) -> MwmOutcome {
    let mut out = MwmOutcome {
        mate: vec![None; g.n()],
        weight: 0,
        history: Vec::new(),
        stats: RoundStats::default(),
    };
    improve_to_fixed_point(g, epsilon, density_bound, seed, iterations, &mut out);
    out
}

/// Recommended iteration *limit* for a target ε: an upper bound on what
/// the harness executes, which stops at its fixed point (4/ε iterations
/// that each closed a constant fraction of the gap would leave well under
/// an ε fraction of it).
pub fn recommended_iterations(epsilon: f64) -> usize {
    ((4.0 / epsilon).ceil() as usize).max(4)
}

/// The **heavy-to-light scaling sweep** — the Duan–Pettie skeleton made
/// explicit. Weight classes `c = ⌊log₂ w⌋` are processed from heaviest to
/// lightest; at each scale the *working subgraph* contains every
/// still-free edge of class ≥ c, a fresh decomposition is drawn, and each
/// leader commits an exact maximum weight matching of its cluster's
/// working edges (restricted to free vertices).
///
/// On its own this sweep is a strong constructive baseline (committed
/// heavy edges are never revoked — measured well above the 1/2-greedy);
/// composed with [`approx_maximum_weight_matching`]'s improvement
/// iterations as a warm start it reaches (1−ε) in fewer rounds (E6b).
pub fn scaling_sweep(g: &Graph, epsilon: f64, density_bound: f64, seed: u64) -> MwmOutcome {
    let mut mate: Vec<Option<usize>> = vec![None; g.n()];
    let mut stats = RoundStats::default();
    let mut history = Vec::new();
    let max_class = (0..g.m())
        .map(|e| 63 - g.weight(e).max(1).leading_zeros())
        .max()
        .unwrap_or(0);
    for (i, c) in (0..=max_class).rev().enumerate() {
        let threshold = 1u64 << c;
        // working subgraph: free heavy edges
        let working: Vec<usize> = (0..g.m())
            .filter(|&e| {
                let (u, v) = g.endpoints(e);
                g.weight(e) >= threshold && mate[u].is_none() && mate[v].is_none()
            })
            .collect();
        if working.is_empty() {
            history.push(mwm::matching_weight(g, &mate));
            continue;
        }
        let sub = g.edge_subgraph(&working);
        let cfg = FrameworkConfig::minor_free(epsilon, density_bound, seed.wrapping_add(i as u64));
        let fw = run_framework(&sub, &cfg);
        stats.merge(&fw.stats);
        for cl in &fw.clusters {
            if cl.subgraph.m() == 0 {
                continue;
            }
            let local = mwm::maximum_weight_matching(&cl.subgraph);
            for (l, &p) in local.iter().enumerate() {
                if let Some(p) = p {
                    let (u, v) = (cl.mapping[l], cl.mapping[p]);
                    // commit only if still free (leaders act on disjoint
                    // clusters, so this is just defensive)
                    if mate[u].is_none() && mate[v].is_none() {
                        mate[u] = Some(v);
                        mate[v] = Some(u);
                    }
                }
            }
        }
        stats.rounds += 1; // per-scale commit round
        history.push(mwm::matching_weight(g, &mate));
    }
    debug_assert!(mwm::is_valid_matching(g, &mate));
    MwmOutcome {
        weight: mwm::matching_weight(g, &mate),
        mate,
        history,
        stats,
    }
}

/// Scaling sweep warm start followed by at most `iterations` improvement
/// iterations (stopping at the fixed point): the full Theorem 1.1 harness
/// composition.
pub fn approx_mwm_with_warm_start(
    g: &Graph,
    epsilon: f64,
    density_bound: f64,
    seed: u64,
    iterations: usize,
) -> MwmOutcome {
    let mut out = scaling_sweep(g, epsilon, density_bound, seed);
    let first_seed = seed.wrapping_add(1000);
    improve_to_fixed_point(g, epsilon, density_bound, first_seed, iterations, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;
    use lcg_solvers::mwm::{matching_weight, maximum_weight_matching};

    #[test]
    fn weight_monotone_and_valid() {
        let mut rng = gen::seeded_rng(260);
        let g = gen::random_weights(gen::random_planar(100, 0.5, &mut rng), 100, &mut rng);
        let out = approx_maximum_weight_matching(&g, 0.3, 3.0, 1, 6);
        assert!(mwm::is_valid_matching(&g, &out.mate));
        for w in out.history.windows(2) {
            assert!(w[1] >= w[0], "history must be monotone: {:?}", out.history);
        }
        assert_eq!(out.weight, *out.history.last().unwrap());
    }

    #[test]
    fn ratio_meets_guarantee_on_planar() {
        let mut rng = gen::seeded_rng(261);
        for seed in 0..2u64 {
            let g = gen::random_weights(gen::random_planar(90, 0.5, &mut rng), 50, &mut rng);
            let eps = 0.25;
            let out =
                approx_maximum_weight_matching(&g, eps, 3.0, seed, recommended_iterations(eps));
            let opt = matching_weight(&g, &maximum_weight_matching(&g));
            let ratio = out.weight as f64 / opt as f64;
            assert!(
                ratio >= 1.0 - eps,
                "ratio {ratio} (got {}, opt {opt})",
                out.weight
            );
        }
    }

    #[test]
    fn beats_greedy_baseline() {
        let mut rng = gen::seeded_rng(262);
        let g = gen::random_weights(gen::stacked_triangulation(120, &mut rng), 1000, &mut rng);
        let out = approx_maximum_weight_matching(&g, 0.2, 3.0, 3, 12);
        let greedy = matching_weight(&g, &lcg_solvers::mwm::greedy_mwm(&g));
        assert!(out.weight >= greedy, "harness {} < greedy {greedy}", out.weight);
    }

    #[test]
    fn scaling_sweep_beats_greedy_and_warm_start_converges() {
        let mut rng = gen::seeded_rng(264);
        let g = gen::random_weights(gen::random_planar(100, 0.5, &mut rng), 1000, &mut rng);
        let opt = matching_weight(&g, &maximum_weight_matching(&g));
        let sweep = scaling_sweep(&g, 0.3, 3.0, 1);
        assert!(mwm::is_valid_matching(&g, &sweep.mate));
        let greedy = matching_weight(&g, &lcg_solvers::mwm::greedy_mwm(&g));
        assert!(
            sweep.weight >= greedy,
            "sweep {} < greedy {greedy}",
            sweep.weight
        );
        // warm start + a few iterations reaches (1-eps)
        let eps = 0.25;
        let full = approx_mwm_with_warm_start(&g, eps, 3.0, 1, 6);
        assert!(mwm::is_valid_matching(&g, &full.mate));
        assert!(
            full.weight as f64 >= (1.0 - eps) * opt as f64,
            "warm-start {} vs opt {opt}",
            full.weight
        );
        assert!(full.weight >= sweep.weight);
    }

    #[test]
    fn heavy_cut_edges_survive() {
        // adversarial: a few huge-weight edges; the harness must not lose
        // them to decomposition cuts
        let mut rng = gen::seeded_rng(263);
        let base = gen::random_planar(80, 0.4, &mut rng);
        let weights: Vec<u64> = (0..base.m())
            .map(|e| if e % 17 == 0 { 1_000_000 } else { 1 + e as u64 % 7 })
            .collect();
        let g = base.with_weights(weights);
        let out = approx_maximum_weight_matching(&g, 0.2, 3.0, 5, 10);
        let opt = matching_weight(&g, &maximum_weight_matching(&g));
        assert!(
            out.weight as f64 >= 0.8 * opt as f64,
            "weight {} opt {opt}",
            out.weight
        );
    }
}
