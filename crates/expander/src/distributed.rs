//! Distributed clustering in the CONGEST simulator.
//!
//! **Substitution note (DESIGN.md):** the Chang–Saranurak distributed
//! expander-decomposition construction is replaced by a round-faithful
//! distributed clustering executed in the [`lcg_congest::Network`]:
//! Miller–Peng–Xu style exponential-shift ball growing. Every vertex draws
//! a geometric delay; clusters grow synchronously from the lowest-delay
//! vertices, and each vertex joins the cluster whose (shifted) BFS wave
//! reaches it first. The expected fraction of cut edges is `O(β)` and the
//! cluster radius is `O(log n / β)` w.h.p. — the same interface guarantees
//! the framework consumes, with conductance *measured* after the fact
//! rather than certified by construction.
//!
//! It is also exactly the distributed low-diameter-decomposition primitive
//! used as the prior-work baseline of Experiment E9 (Levi–Medina–Ron
//! style `D = ε^{-O(1)}` clustering).

use rand::Rng;

use lcg_congest::Network;

/// Result of the distributed clustering.
#[derive(Debug, Clone)]
pub struct DistributedClustering {
    /// Cluster id of each vertex (= id of its cluster center).
    pub cluster_of: Vec<usize>,
    /// Rounds used (also charged to the network's stats).
    pub rounds: u64,
}

/// Miller–Peng–Xu exponential-shift clustering with parameter `beta`.
///
/// Each vertex `v` draws `δ_v ~ Geometric(beta)` (an integral surrogate
/// for the exponential clock, capped at `max_delay`); vertex `v` starts
/// broadcasting at time `max_delay − δ_v` and every vertex joins the first
/// wave to reach it (ties by smaller center id). Runs
/// `max_delay + diameter-ish` rounds with 2-word messages.
///
/// # Panics
///
/// Panics if `beta` is not in `(0, 1)`.
pub fn mpx_clustering(net: &mut Network, beta: f64, rng: &mut impl Rng) -> DistributedClustering {
    assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
    let g = net.graph();
    let n = g.n();
    // geometric delays, capped so the algorithm terminates in O(log n / beta)
    let max_delay = ((n.max(2) as f64).ln() / beta).ceil() as usize + 1;
    let delay: Vec<usize> = (0..n)
        .map(|_| {
            let mut d = 0;
            while d < max_delay && !rng.gen_bool(beta) {
                d += 1;
            }
            max_delay - d // start time: smaller for larger shifts
        })
        .collect();
    /// What a vertex holds: the `(start_time_key, center)` of the wave
    /// that captured it, the round it was captured in, and whether it
    /// forwards that wave next round. A vertex becomes active at its own
    /// start time unless captured earlier.
    struct Wave {
        center: Option<(usize, usize)>,
        captured_at: usize,
        announce: bool,
    }
    let mut waves: Vec<Wave> = (0..n)
        .map(|_| Wave { center: None, captured_at: usize::MAX, announce: false })
        .collect();
    let horizon = 2 * max_delay + 2;
    let rounds = net.exchange_rounds(
        horizon,
        &mut waves,
        |w, t, v, out| {
            // A vertex whose clock fires now and is not yet captured
            // becomes a center. Self-capture is final (captured_at stays
            // MAX so the tie-break below can never steal a center): a center
            // announces its own wave this very round, and letting it defect
            // afterwards would orphan the vertices that wave captures.
            if w.center.is_none() && delay[v] == t {
                w.center = Some((t, v));
                w.announce = true;
            }
            if std::mem::take(&mut w.announce) {
                let (key, c) = w.center.expect("an announcing vertex holds a center");
                for p in 0..g.degree(v) {
                    out.send(p, [key as u64, c as u64]);
                }
            }
        },
        |w, t, _v, inbox| {
            // Capture is FIRST-ARRIVAL-WINS: once a wave reaches a vertex it
            // owns it; only waves arriving in the very same round may
            // tie-break (by smaller (key, center)). This realizes "join the
            // cluster minimizing dist(u, ·) − δ_u" exactly.
            for m in inbox.iter().flatten() {
                let cand = (m[0] as usize, m[1] as usize);
                let better = match w.center {
                    None => true,
                    Some(cur) => w.captured_at == t && cand < cur,
                };
                if better {
                    w.center = Some(cand);
                    w.captured_at = t;
                    w.announce = true;
                }
            }
        },
        |w| w.center.is_some() && !w.announce,
    );
    // Any vertex still uncaptured (cannot happen with the cap, but be
    // defensive, as §2.3 requires): becomes a singleton.
    let cluster_of: Vec<usize> = waves
        .iter()
        .enumerate()
        .map(|(v, w)| w.center.map_or(v, |(_, c)| c))
        .collect();
    DistributedClustering { cluster_of, rounds }
}

/// Fraction of edges cut by a clustering.
pub fn cut_fraction(g: &lcg_graph::Graph, cluster_of: &[usize]) -> f64 {
    if g.m() == 0 {
        return 0.0;
    }
    let cut = g
        .edges()
        .filter(|&(_, u, v)| cluster_of[u] != cluster_of[v])
        .count();
    cut as f64 / g.m() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_congest::Model;
    use lcg_graph::gen;

    #[test]
    fn clustering_covers_everyone() {
        let mut rng = gen::seeded_rng(140);
        let g = gen::grid(10, 10);
        let mut net = Network::new(&g, Model::congest());
        let c = mpx_clustering(&mut net, 0.3, &mut rng);
        assert_eq!(c.cluster_of.len(), 100);
        // every cluster id is a vertex id and the center belongs to itself
        for &cid in &c.cluster_of {
            assert_eq!(c.cluster_of[cid], cid);
        }
    }

    #[test]
    fn clusters_are_connected() {
        let mut rng = gen::seeded_rng(141);
        let g = gen::triangulated_grid(8, 8);
        let mut net = Network::new(&g, Model::congest());
        let c = mpx_clustering(&mut net, 0.4, &mut rng);
        for (_, vs) in lcg_congest::primitives::cluster_members(&c.cluster_of) {
            let (sub, _) = g.induced_subgraph(&vs);
            assert!(sub.is_connected());
        }
    }

    #[test]
    fn cut_fraction_scales_with_beta() {
        let mut rng = gen::seeded_rng(142);
        let g = gen::grid(20, 20);
        let mut fine = 0.0;
        let mut coarse = 0.0;
        for _ in 0..5 {
            let mut net = Network::new(&g, Model::congest());
            fine += cut_fraction(&g, &mpx_clustering(&mut net, 0.08, &mut rng).cluster_of);
            let mut net = Network::new(&g, Model::congest());
            coarse += cut_fraction(&g, &mpx_clustering(&mut net, 0.5, &mut rng).cluster_of);
        }
        assert!(fine < coarse, "fine {fine} coarse {coarse}");
    }

    #[test]
    fn diameter_bounded_by_wave_horizon() {
        let mut rng = gen::seeded_rng(143);
        let g = gen::path(200);
        let mut net = Network::new(&g, Model::congest());
        let c = mpx_clustering(&mut net, 0.2, &mut rng);
        // clusters from wave growth are connected; diameter is defined
        let d = lcg_congest::primitives::cluster_members(&c.cluster_of)
            .values()
            .filter_map(|vs| g.induced_subgraph(vs).0.diameter())
            .max()
            .expect("at least one cluster");
        // radius is at most the delay cap ⌈ln n / β⌉ + 1
        let cap = ((200f64).ln() / 0.2).ceil() as usize + 1;
        assert!(d <= 2 * cap + 2, "diameter {d} cap {cap}");
        assert!(c.rounds <= (2 * cap + 2) as u64);
    }

    #[test]
    fn congest_capacity_respected() {
        let mut rng = gen::seeded_rng(144);
        let g = gen::hypercube(6);
        let mut net = Network::new(&g, Model::congest());
        mpx_clustering(&mut net, 0.3, &mut rng);
        assert!(net.stats().max_words_edge_round <= 2);
    }
}
