//! Sequential low-diameter decomposition (paper §3.5).
//!
//! [`layered_ldd`] is KPR-style iterated BFS-band chopping (Klein–
//! Plotkin–Rao \[68\], Fakcharoenphol–Talwar \[40\], Abraham et al. \[1\]):
//! for H-minor-free graphs, `r` chopping iterations with band width
//! `Θ(r/ε)` give diameter `O(r²/ε)` — `O(1/ε)` with the constant depending
//! only on H — and expected cut fraction ≤ ε. Cluster leaders run it in
//! Theorem 1.5 through [`minor_free_ldd`]. The general-graph baseline of
//! Experiment E9, exponential-shift ball growing (MPX), is distributed:
//! `lcg_expander::distributed::mpx_clustering`.

use lcg_graph::Graph;
use rand::Rng;

/// A low-diameter decomposition.
#[derive(Debug, Clone)]
pub struct Ldd {
    /// Cluster id per vertex.
    pub cluster_of: Vec<usize>,
    /// Number of clusters.
    pub k: usize,
}

impl Ldd {
    /// Fraction of edges cut.
    pub fn cut_fraction(&self, g: &Graph) -> f64 {
        if g.m() == 0 {
            return 0.0;
        }
        let cut = g
            .edges()
            .filter(|&(_, u, v)| self.cluster_of[u] != self.cluster_of[v])
            .count();
        cut as f64 / g.m() as f64
    }

    /// Maximum strong diameter over clusters (∞ ⇒ `usize::MAX` should not
    /// occur: clusters are connected by construction after
    /// componentization).
    pub fn max_diameter(&self, g: &Graph) -> usize {
        let mut members: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (v, &c) in self.cluster_of.iter().enumerate() {
            members.entry(c).or_default().push(v);
        }
        let mut worst = 0;
        for (_, vs) in members {
            let (sub, _) = g.induced_subgraph(&vs);
            match sub.diameter() {
                Some(d) => worst = worst.max(d),
                None => return usize::MAX,
            }
        }
        worst
    }

    /// Renames cluster ids so each cluster induces a connected subgraph
    /// (splits disconnected clusters into components).
    fn componentize(mut self, g: &Graph) -> Ldd {
        let n = g.n();
        let mut new_id = vec![usize::MAX; n];
        let mut next = 0;
        for s in 0..n {
            if new_id[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            new_id[s] = next;
            while let Some(v) = stack.pop() {
                for u in g.neighbor_vertices(v) {
                    if new_id[u] == usize::MAX && self.cluster_of[u] == self.cluster_of[v] {
                        new_id[u] = next;
                        stack.push(u);
                    }
                }
            }
            next += 1;
        }
        self.cluster_of = new_id;
        self.k = next;
        self
    }
}

/// KPR-style decomposition: `iterations` rounds of BFS-layer chopping with
/// band width `width` and a uniformly random offset per piece. For
/// `K_r`-minor-free inputs, `iterations = r` and `width = ⌈2r/ε⌉` give
/// expected cut fraction ≤ ε and (weak) diameter `O(r·width) = O(r²/ε)`.
/// The final pieces are componentized, so the returned clusters are
/// connected and the *measured* diameter is reported by experiments.
pub fn layered_ldd(g: &Graph, width: usize, iterations: usize, rng: &mut impl Rng) -> Ldd {
    assert!(width >= 1, "band width must be >= 1");
    let n = g.n();
    let mut piece: Vec<usize> = vec![0; n];
    let mut next_piece = 1;
    for _ in 0..iterations {
        let mut new_piece = vec![usize::MAX; n];
        let mut members: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (v, &p) in piece.iter().enumerate().take(n) {
            members.entry(p).or_default().push(v);
        }
        for (_, vs) in members {
            let (sub, map) = g.induced_subgraph(&vs);
            let offset = rng.gen_range(0..width);
            // BFS from the first vertex of each component of the piece
            let (comp, k) = sub.connected_components();
            let mut source_of = vec![usize::MAX; k];
            for v in 0..sub.n() {
                if source_of[comp[v]] == usize::MAX {
                    source_of[comp[v]] = v;
                }
            }
            for (c, &src) in source_of.iter().enumerate().take(k) {
                let dist = sub.bfs_distances(src);
                for v in 0..sub.n() {
                    if comp[v] != c {
                        continue;
                    }
                    let band = (dist[v] + offset) / width;
                    // piece id: globally unique per (old piece comp, band)
                    new_piece[map[v]] = next_piece + band;
                }
                let max_band = (0..sub.n())
                    .filter(|&v| comp[v] == c)
                    .map(|v| (dist[v] + offset) / width)
                    .max()
                    .unwrap_or(0);
                next_piece += max_band + 1;
            }
        }
        piece = new_piece;
    }
    Ldd {
        cluster_of: piece,
        k: 0,
    }
    .componentize(g)
}

/// Convenience wrapper used by Theorem 1.5's leaders: `layered_ldd` with
/// `iterations = 3` (planar = K₅-minor-free needs ≤ 4; 3 suffices for the
/// families we generate) and width `⌈2·iterations/ε⌉`.
pub fn minor_free_ldd(g: &Graph, eps: f64, rng: &mut impl Rng) -> Ldd {
    assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
    let iterations = 3;
    let width = ((2 * iterations) as f64 / eps).ceil() as usize;
    layered_ldd(g, width, iterations, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn layered_ldd_diameter_scales_with_width() {
        let mut rng = gen::seeded_rng(192);
        let g = gen::grid(24, 24);
        let tight = layered_ldd(&g, 3, 3, &mut rng);
        let loose = layered_ldd(&g, 12, 3, &mut rng);
        assert!(tight.max_diameter(&g) <= loose.max_diameter(&g) + 4);
        assert!(tight.cut_fraction(&g) >= loose.cut_fraction(&g));
    }

    #[test]
    fn minor_free_ldd_epsilon_tradeoff() {
        let mut rng = gen::seeded_rng(193);
        let g = gen::triangulated_grid(20, 20);
        for eps in [0.2, 0.5] {
            let mut cuts = 0.0;
            let mut dmax = 0usize;
            for _ in 0..3 {
                let ldd = minor_free_ldd(&g, eps, &mut rng);
                cuts += ldd.cut_fraction(&g);
                dmax = dmax.max(ldd.max_diameter(&g));
            }
            // expected cut fraction <= eps (allow sampling slack)
            assert!(cuts / 3.0 <= eps * 1.8, "eps {eps} cut {}", cuts / 3.0);
            // diameter O(1/eps): 3 iterations, width 6/eps; weak diameter
            // <= 3 * width * 2 = 36/eps; allow componentization slack
            assert!(
                dmax as f64 <= 60.0 / eps,
                "eps {eps} diameter {dmax}"
            );
        }
    }

    #[test]
    fn cycle_ldd_optimal_tradeoff() {
        // the paper: cycles witness D = Θ(1/ε) optimality
        let mut rng = gen::seeded_rng(194);
        let g = gen::cycle(200);
        let ldd = minor_free_ldd(&g, 0.25, &mut rng);
        assert!(ldd.cut_fraction(&g) <= 0.25 * 2.0);
        assert!(ldd.max_diameter(&g) >= 1);
    }

    #[test]
    fn empty_and_tiny() {
        let mut rng = gen::seeded_rng(195);
        let g = lcg_graph::GraphBuilder::new(0).build();
        let ldd = minor_free_ldd(&g, 0.5, &mut rng);
        assert_eq!(ldd.k, 0);
        let g = gen::path(2);
        let ldd = minor_free_ldd(&g, 0.5, &mut rng);
        assert_eq!(ldd.cluster_of.len(), 2);
    }

    #[test]
    fn clusters_are_connected_after_componentize() {
        let mut rng = gen::seeded_rng(196);
        let g = gen::random_planar(200, 0.5, &mut rng);
        let ldd = minor_free_ldd(&g, 0.3, &mut rng);
        let mut members: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (v, &c) in ldd.cluster_of.iter().enumerate() {
            members.entry(c).or_default().push(v);
        }
        for (_, vs) in members {
            let (sub, _) = g.induced_subgraph(&vs);
            assert!(sub.is_connected());
        }
    }
}
