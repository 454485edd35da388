//! **Theorem 3.2** — (1−ε)-approximate maximum cardinality matching of a
//! planar network (paper §3.2).
//!
//! Pipeline: eliminate 2-stars and 3-double-stars (Lemma 3.1 makes the
//! kernel's maximum matching Ω(n̄), without changing ν), run Theorem 2.6
//! on the kernel with `ε' = c·ε`, let each leader compute a maximum
//! matching of its cluster with Edmonds' blossom algorithm, and output the
//! union — matchings of disjoint clusters never conflict.

use lcg_congest::{FaultPlan, Model, Network, RoundStats};
use lcg_graph::Graph;
use lcg_solvers::matching;

use crate::framework::{run_framework, FrameworkConfig, FrameworkOutcome};
use crate::recovery::{run_framework_resilient, RecoveryPolicy, RecoveryReport};

/// The §3.2 token protocol, run with real messages: degree-1 vertices send
/// a token to their neighbor, who bounces all but one back (2-stars);
/// degree-2 vertices send their endpoint pair to the smaller endpoint, who
/// bounces all but two per pair (3-double-stars). Bounced vertices drop
/// out; passes repeat until a fixpoint.
///
/// Returns `(kept, stats)`. The kept set can differ from the sequential
/// [`lcg_solvers::star_elim::star_elimination`] in *which* twin survives, but both are
/// star-free kernels with the same maximum-matching size.
pub fn distributed_star_elimination(g: &Graph) -> (Vec<bool>, RoundStats) {
    star_elimination_core(g, None)
}

/// [`distributed_star_elimination`], under a fault schedule when one is
/// given. Dropped tokens stall the protocol — a pendant whose token is
/// lost is never bounced, a bounce that is lost leaves a twin alive — so
/// the result may then *not* be star-free; it is still a vertex-induced
/// kernel with `ν(kernel) ≤ ν(G)`, and every pass strictly shrinks `kept`
/// or terminates, so the fixpoint loop always exits. The resilient
/// matching pipeline tolerates the residual stars (they only dilute the
/// ratio).
fn star_elimination_core(g: &Graph, faults: Option<&FaultPlan>) -> (Vec<bool>, RoundStats) {
    let n = g.n();
    let mut net = Network::new(g, Model::congest());
    net.set_fault_plan(faults.cloned());
    let mut kept = vec![true; n];
    loop {
        let deg = |v: usize, kept: &[bool]| g.neighbor_vertices(v).filter(|&u| kept[u]).count();
        let mut changed = false;

        // --- 2-stars: pendants send 1-word tokens; centers bounce extras
        let pendant: Vec<bool> = (0..n).map(|v| kept[v] && deg(v, &kept) == 1).collect();
        let mut received: Vec<Vec<usize>> = vec![Vec::new(); n]; // ports
        net.exchange(
            |v, out| {
                if pendant[v] {
                    let p = g
                        .neighbor_vertices(v)
                        .position(|u| kept[u])
                        .expect("pendant vertex has exactly one kept neighbor");
                    out.send(p, [1]);
                }
            },
            |v, inbox| {
                for (p, m) in inbox.iter().enumerate() {
                    if m.is_some() {
                        received[v].push(p);
                    }
                }
            },
        );
        let mut bounced = vec![false; n];
        net.exchange(
            |v, out| {
                // keep the token from the lowest port; bounce the rest
                for &p in received[v].iter().skip(1) {
                    out.send(p, [1]);
                }
            },
            |v, inbox| {
                if pendant[v] && inbox.iter().flatten().next().is_some() {
                    bounced[v] = true;
                }
            },
        );
        for v in 0..n {
            if bounced[v] {
                kept[v] = false;
                changed = true;
            }
        }

        // --- 3-double-stars: degree-2 vertices announce their pair to the
        // smaller endpoint, who bounces all but two per far-endpoint group.
        let two: Vec<Option<(usize, usize)>> = (0..n)
            .map(|v| {
                if !kept[v] {
                    return None;
                }
                let nb: Vec<usize> = g.neighbor_vertices(v).filter(|&u| kept[u]).collect();
                (nb.len() == 2).then(|| (nb[0].min(nb[1]), nb[0].max(nb[1])))
            })
            .collect();
        let mut pair_tokens: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (port, other)
        net.exchange(
            |v, out| {
                if let Some((a, b)) = two[v] {
                    let p = g
                        .neighbor_vertices(v)
                        .position(|u| u == a)
                        .expect("two[v] endpoints are neighbors of v");
                    out.send(p, [b as u64, 3]);
                }
            },
            |v, inbox| {
                for (p, m) in inbox.iter().enumerate() {
                    if let Some(m) = m {
                        if m.len() == 2 && m[1] == 3 {
                            pair_tokens[v].push((p, m[0] as usize));
                        }
                    }
                }
            },
        );
        let mut bounced = vec![false; n];
        net.exchange(
            |v, out| {
                let mut by_other: std::collections::BTreeMap<usize, Vec<usize>> =
                    Default::default();
                for &(p, other) in &pair_tokens[v] {
                    by_other.entry(other).or_default().push(p);
                }
                for (_, ports) in by_other {
                    for &p in ports.iter().skip(2) {
                        out.send(p, [1, 3]);
                    }
                }
            },
            |v, inbox| {
                if two[v].is_some() && inbox.iter().flatten().any(|m| m.len() == 2 && m[1] == 3) {
                    bounced[v] = true;
                }
            },
        );
        for v in 0..n {
            if bounced[v] {
                kept[v] = false;
                changed = true;
            }
        }

        // --- isolated vertices retire silently (no messages needed)
        for v in 0..n {
            if kept[v] && deg(v, &kept) == 0 {
                kept[v] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (kept, net.stats())
}

/// Preprocessing shared by the plain and the resilient entry point: the
/// §3.2 token protocol with real messages (under `faults`, if any) and the
/// kernel its survivors induce. Returns `(kernel, kernel → host ids,
/// vertices eliminated, elimination passes, stats so far)`.
fn star_free_kernel(
    g: &Graph,
    faults: Option<&FaultPlan>,
) -> (Graph, Vec<usize>, usize, usize, RoundStats) {
    let (kept, stats) = star_elimination_core(g, faults);
    let survivors: Vec<usize> = (0..g.n()).filter(|&v| kept[v]).collect();
    let (kernel, kernel_map) = g.induced_subgraph(&survivors);
    let passes = (stats.rounds / 4).max(1) as usize;
    (kernel, kernel_map, g.n() - survivors.len(), passes, stats)
}

/// The Lemma 3.1 constant: star-free planar kernels have ν ≥ n̄ / C31.
/// [27, Lemma 6] proves some constant; our experiments (and the
/// `lemma31_matching_is_linear_after_elimination` test) support C31 = 5.
pub const C31: f64 = 5.0;

/// Result of the distributed planar (1−ε)-MCM algorithm.
#[derive(Debug, Clone)]
pub struct McmOutcome {
    /// Partner table over the *original* vertex ids.
    pub mate: Vec<Option<usize>>,
    /// Matching size.
    pub size: usize,
    /// Vertices removed by star elimination.
    pub eliminated: usize,
    /// Star-elimination passes (O(1) rounds each).
    pub elimination_passes: usize,
    /// Rounds/messages across all phases.
    pub stats: RoundStats,
    /// The framework execution on the kernel.
    pub framework: FrameworkOutcome,
}

/// Runs Theorem 3.2 on a planar graph `g`.
pub fn approx_maximum_matching(g: &Graph, epsilon: f64, seed: u64) -> McmOutcome {
    let (kernel, kernel_map, eliminated, elim_passes, mut stats) = star_free_kernel(g, None);

    if kernel.n() == 0 {
        return McmOutcome {
            mate: vec![None; g.n()],
            size: 0,
            eliminated,
            elimination_passes: elim_passes,
            stats,
            // the framework record runs on g at the caller's own ε with the
            // planar density bound; the resilient path's differs (see there)
            framework: run_framework(
                g,
                &FrameworkConfig::planar(epsilon.min(0.9), seed),
            ),
        };
    }

    // ε' = c·ε with c = 1/C31 so that ε'·n̄ ≤ ε·ν(kernel).
    let eps_prime = (epsilon / C31).min(0.9);
    let cfg = FrameworkConfig {
        density_bound: 1.0, // ε' already fully scaled
        ..FrameworkConfig::planar(eps_prime, seed)
    };
    let framework = run_framework(&kernel, &cfg);
    stats.merge(&framework.stats);

    let (mate, size) = matching_from_framework(g.n(), &kernel_map, &framework);
    McmOutcome {
        mate,
        size,
        eliminated,
        elimination_passes: elim_passes,
        stats,
        framework,
    }
}

/// [`approx_maximum_matching`] under a fault schedule: faulty star
/// elimination (residual stars tolerated), the self-healing framework on
/// the kernel, and one deterministic greedy completion round so a
/// degraded run still returns a *maximal* matching instead of an empty
/// one. The output is a valid matching of `g` under any fault schedule;
/// the (1−ε) ratio is what degradation costs.
pub fn approx_maximum_matching_resilient(
    g: &Graph,
    epsilon: f64,
    seed: u64,
    faults: &FaultPlan,
    policy: &RecoveryPolicy,
) -> (McmOutcome, RecoveryReport) {
    let (kernel, kernel_map, eliminated, elim_passes, mut stats) =
        star_free_kernel(g, Some(faults));

    let eps_prime = (epsilon / C31).min(0.9);
    // empty kernel: the framework record runs on g, as in the plain path —
    // but at ε/C31 with density 1 where the plain path keeps ε and the
    // planar bound. Each side's record is kept as it has always been.
    let (framework, report) = if kernel.n() == 0 {
        let cfg = FrameworkConfig {
            density_bound: 1.0,
            faults: Some(faults.clone()),
            ..FrameworkConfig::planar(eps_prime, seed)
        };
        run_framework_resilient(g, &cfg, policy)
    } else {
        // the physical faults live on host ids; translate them onto the
        // kernel's vertex/edge numbering before handing them down
        let cfg = FrameworkConfig {
            density_bound: 1.0,
            faults: Some(restrict_plan_to_kernel(faults, g, &kernel, &kernel_map)),
            ..FrameworkConfig::planar(eps_prime, seed)
        };
        run_framework_resilient(&kernel, &cfg, policy)
    };
    stats.merge(&framework.stats);

    let (mut mate, _) = if kernel.n() == 0 {
        (vec![None; g.n()], 0)
    } else {
        matching_from_framework(g.n(), &kernel_map, &framework)
    };
    // Greedy completion: both-unmatched endpoints pair up, in edge-id
    // order. Charged one proposal round, like the star-elimination passes.
    for (_, u, v) in g.edges() {
        if mate[u].is_none() && mate[v].is_none() && u != v {
            mate[u] = Some(v);
            mate[v] = Some(u);
        }
    }
    stats.rounds += 1;
    let size = mate.iter().flatten().count() / 2;
    let out = McmOutcome {
        mate,
        size,
        eliminated,
        elimination_passes: elim_passes,
        stats,
        framework,
    };
    debug_assert!(is_valid(g, &out));
    (out, report)
}

/// Translates a host-graph fault plan onto the kernel's numbering: the
/// i.i.d. drop stream and truncation carry over unchanged (re-keyed by
/// kernel edge ids), crashes of eliminated vertices and failures of
/// edges with an eliminated endpoint are discarded — those nodes and
/// links carry no kernel traffic to fault.
fn restrict_plan_to_kernel(
    plan: &FaultPlan,
    g: &Graph,
    kernel: &Graph,
    kernel_map: &[usize],
) -> FaultPlan {
    let mut host_to_kernel = vec![usize::MAX; g.n()];
    for (k, &h) in kernel_map.iter().enumerate() {
        host_to_kernel[h] = k;
    }
    let mut out = FaultPlan::drops(plan.seed, plan.drop_prob);
    if let Some(w) = plan.truncate_words {
        out = out.with_truncation(w);
    }
    for c in &plan.crashes {
        let k = host_to_kernel[c.node];
        if k != usize::MAX {
            out = out.with_crash(k, c.at_round);
        }
    }
    for lf in &plan.link_failures {
        let (u, v) = g.endpoints(lf.edge);
        let (ku, kv) = (host_to_kernel[u], host_to_kernel[v]);
        if ku != usize::MAX && kv != usize::MAX {
            if let Some(e) = kernel.edge_id(ku, kv) {
                out = out.with_link_failure(e, lf.from_round, lf.until_round);
            }
        }
    }
    out
}

/// Leaders' exact blossom matchings, united over clusters and translated
/// back to original vertex ids (matchings of disjoint clusters never
/// conflict). Shared by the plain and resilient entry points.
fn matching_from_framework(
    n: usize,
    kernel_map: &[usize],
    framework: &FrameworkOutcome,
) -> (Vec<Option<usize>>, usize) {
    let mut mate: Vec<Option<usize>> = vec![None; n];
    for c in &framework.clusters {
        let m = matching::maximum_matching(&c.subgraph);
        for (local, &partner) in m.mate.iter().enumerate() {
            if let Some(p) = partner {
                let u = kernel_map[c.mapping[local]];
                let v = kernel_map[c.mapping[p]];
                mate[u] = Some(v);
            }
        }
    }
    let size = mate.iter().flatten().count() / 2;
    (mate, size)
}

/// Validity check over the original graph.
pub fn is_valid(g: &Graph, out: &McmOutcome) -> bool {
    for (v, &m) in out.mate.iter().enumerate() {
        if let Some(u) = m {
            if out.mate[u] != Some(v) || !g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;
    use lcg_solvers::matching::maximum_matching;
    use lcg_solvers::star_elim;

    #[test]
    fn output_is_valid_matching() {
        let mut rng = gen::seeded_rng(250);
        let g = gen::random_planar(150, 0.5, &mut rng);
        let out = approx_maximum_matching(&g, 0.3, 1);
        assert!(is_valid(&g, &out));
        assert!(out.size > 0);
    }

    #[test]
    fn ratio_meets_guarantee() {
        let mut rng = gen::seeded_rng(251);
        for seed in 0..3u64 {
            let g = gen::random_planar(120, 0.5, &mut rng);
            let eps = 0.4;
            let out = approx_maximum_matching(&g, eps, seed);
            let opt = maximum_matching(&g).size();
            let ratio = out.size as f64 / opt as f64;
            assert!(
                ratio >= 1.0 - eps,
                "ratio {ratio} (got {}, opt {opt})",
                out.size
            );
        }
    }

    #[test]
    fn star_heavy_adversarial_instance() {
        // triangulation with 300 pendants glued on: naive per-cluster
        // matching would be diluted; the Lemma 3.1 kernel fixes it
        let mut rng = gen::seeded_rng(252);
        let base = gen::stacked_triangulation(60, &mut rng);
        let mut b = lcg_graph::GraphBuilder::new(60 + 300);
        for (_, u, v) in base.edges() {
            b.add_edge(u, v);
        }
        use rand::Rng;
        for i in 0..300 {
            b.add_edge(60 + i, rng.gen_range(0..60));
        }
        let g = b.build();
        let out = approx_maximum_matching(&g, 0.4, 7);
        assert!(is_valid(&g, &out));
        assert!(out.eliminated > 0);
        let opt = maximum_matching(&g).size();
        assert!(
            out.size as f64 >= 0.6 * opt as f64,
            "size {} opt {opt}",
            out.size
        );
    }

    #[test]
    fn distributed_elimination_matches_sequential_quality() {
        let mut rng = gen::seeded_rng(253);
        for _ in 0..4 {
            let g = gen::random_planar(100, 0.4, &mut rng);
            let (kept, stats) = distributed_star_elimination(&g);
            assert!(star_elim::is_star_free(&g, &kept), "kernel not star-free");
            assert!(stats.max_words_edge_round <= 2);
            // same maximum matching as the original and as the sequential kernel
            let members: Vec<usize> = (0..g.n()).filter(|&v| kept[v]).collect();
            let (sub, _) = g.induced_subgraph(&members);
            assert_eq!(
                maximum_matching(&sub).size(),
                maximum_matching(&g).size(),
                "distributed kernel changed ν"
            );
            let seq = star_elim::star_elimination(&g);
            // both kernels are star-free with equal matching; sizes may
            // differ only in which twins survived
            assert_eq!(
                seq.survivors().len(),
                members.len(),
                "kernel sizes diverged"
            );
        }
    }

    #[test]
    fn resilient_matching_is_valid_and_maximal_under_crashes() {
        use crate::recovery::RecoveryPolicy;
        use lcg_congest::FaultPlan;
        let mut rng = gen::seeded_rng(254);
        let g = gen::random_planar(80, 0.5, &mut rng);
        let plan = FaultPlan::drops(0x3C, 0.5)
            .with_crash(g.n() - 1, 0)
            .with_link_failure(0, 0, u64::MAX);
        let policy = RecoveryPolicy {
            max_retries: 1,
            initial_walk_steps: 2_000,
        };
        let (out, _report) = approx_maximum_matching_resilient(&g, 0.4, 3, &plan, &policy);
        assert!(is_valid(&g, &out));
        // greedy completion ⇒ maximal: no edge with both endpoints free
        for (_, u, v) in g.edges() {
            assert!(
                out.mate[u].is_some() || out.mate[v].is_some(),
                "edge ({u},{v}) has two unmatched endpoints"
            );
        }
    }

    #[test]
    fn distributed_elimination_on_stars() {
        let g = gen::star(12);
        let (kept, _) = distributed_star_elimination(&g);
        assert_eq!(kept.iter().filter(|&&k| k).count(), 2);
        assert!(star_elim::is_star_free(&g, &kept));
    }

    #[test]
    fn empty_graph_and_star() {
        let g = gen::star(10);
        let out = approx_maximum_matching(&g, 0.5, 2);
        assert!(is_valid(&g, &out));
        assert_eq!(out.size, 1); // ν(star) = 1
    }
}
