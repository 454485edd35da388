//! Sweep cuts: the constructive half of Cheeger's inequality.
//!
//! Given the spectral ordering `y = D^{-1/2}x` from [`crate::spectral`],
//! the best prefix cut of the ordering has conductance at most `√(2 λ₂)`.
//! The decomposition splits clusters along these cuts.

use lcg_graph::Graph;

/// A cut found by sweeping a vertex ordering.
#[derive(Debug, Clone)]
pub struct SweepCut {
    /// Membership of the better side.
    pub in_s: Vec<bool>,
    /// Conductance of the cut.
    pub conductance: f64,
    /// Number of cut edges.
    pub cut_edges: usize,
    /// `min(vol(S), vol(V∖S))`.
    pub small_volume: usize,
}

/// Sweeps the ordering induced by `values` (ascending) and returns the
/// minimum-conductance prefix cut. `O(m log n)` time.
///
/// Returns `None` when the graph has no edges or fewer than 2 vertices
/// (no nontrivial cut exists).
pub fn sweep_cut(g: &Graph, values: &[f64]) -> Option<SweepCut> {
    let n = g.n();
    if n < 2 || g.m() == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .expect("spectral embedding values are finite (never NaN)")
    });
    let total_vol = 2 * g.m();
    let mut in_s = vec![false; n];
    let mut cut = 0usize;
    let mut vol = 0usize;
    let mut best = f64::INFINITY;
    let mut best_prefix = 0usize;
    let mut best_cut = 0usize;
    let mut best_vol = 0usize;
    for (i, &v) in order.iter().enumerate().take(n - 1) {
        for u in g.neighbor_vertices(v) {
            if in_s[u] {
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        in_s[v] = true;
        vol += g.degree(v);
        let small = vol.min(total_vol - vol);
        if small == 0 {
            continue;
        }
        let phi = cut as f64 / small as f64;
        if phi < best {
            best = phi;
            best_prefix = i + 1;
            best_cut = cut;
            best_vol = small;
        }
    }
    let mut in_s = vec![false; n];
    for &v in &order[..best_prefix] {
        in_s[v] = true;
    }
    Some(SweepCut {
        in_s,
        conductance: best,
        cut_edges: best_cut,
        small_volume: best_vol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    /// The sweep of `g`'s λ₂ eigenvector: `Φ(cut) ≤ √(2 λ₂)` up to
    /// power-iteration accuracy.
    fn spectral_sweep(g: &Graph) -> Option<SweepCut> {
        sweep_cut(g, &crate::spectral::lambda2(g, 1e-9, 5_000).sweep_values(g))
    }

    #[test]
    fn sweep_finds_dumbbell_bridge() {
        let k5 = gen::complete(5);
        let mut b = lcg_graph::GraphBuilder::new(10);
        for (_, u, v) in k5.edges() {
            b.add_edge(u, v);
            b.add_edge(u + 5, v + 5);
        }
        b.add_edge(0, 5);
        let g = b.build();
        let cut = spectral_sweep(&g).unwrap();
        assert_eq!(cut.cut_edges, 1);
        assert!((cut.conductance - 1.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_on_cycle_matches_optimal() {
        let g = gen::cycle(16);
        let cut = spectral_sweep(&g).unwrap();
        assert_eq!(cut.cut_edges, 2);
        assert!((cut.conductance - 2.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_respects_cheeger() {
        let mut rng = gen::seeded_rng(110);
        for _ in 0..10 {
            let g = gen::gnm(14, 25, &mut rng);
            if !g.is_connected() {
                continue;
            }
            let s = crate::spectral::lambda2(&g, 1e-10, 20_000);
            let cut = sweep_cut(&g, &s.sweep_values(&g)).unwrap();
            let bound = (2.0 * s.lambda2).sqrt();
            assert!(
                cut.conductance <= bound + 1e-6,
                "sweep {} > cheeger {}",
                cut.conductance,
                bound
            );
            // and the sweep cut's conductance is an upper bound on Φ(G)
            let (phi, _) = crate::conductance::exact_conductance(&g).unwrap();
            assert!(cut.conductance >= phi - 1e-9);
        }
    }

    #[test]
    fn sweep_cut_consistency() {
        let g = gen::grid(4, 4);
        let cut = spectral_sweep(&g).unwrap();
        let recount = crate::conductance::boundary_size(&g, &cut.in_s);
        assert_eq!(recount, cut.cut_edges);
        let phi = crate::conductance::cut_conductance(&g, &cut.in_s);
        assert!((phi - cut.conductance).abs() < 1e-12);
    }

    #[test]
    fn no_cut_on_edgeless() {
        let g = lcg_graph::GraphBuilder::new(4).build();
        assert!(sweep_cut(&g, &[0.0; 4]).is_none());
    }
}
