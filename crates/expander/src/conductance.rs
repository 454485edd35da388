//! Conductance of cuts and graphs (paper §2, "Graph Partitioning").
//!
//! Definitions follow the paper exactly: for `S ⊆ V`,
//! `Φ(S) = |∂(S)| / min(vol(S), vol(V∖S))`, and
//! `Φ(G) = min over nontrivial S of Φ(S)`.

use lcg_graph::Graph;

/// Number of edges crossing the cut described by `in_s`.
pub fn boundary_size(g: &Graph, in_s: &[bool]) -> usize {
    g.edges().filter(|&(_, u, v)| in_s[u] != in_s[v]).count()
}

/// Conductance `Φ(S)` of the cut `in_s`; 0 for the trivial cuts, as in the
/// paper's definition.
pub fn cut_conductance(g: &Graph, in_s: &[bool]) -> f64 {
    let vol_s: usize = (0..g.n()).filter(|&v| in_s[v]).map(|v| g.degree(v)).sum();
    let vol_rest = 2 * g.m() - vol_s;
    let denom = vol_s.min(vol_rest);
    if denom == 0 {
        return 0.0;
    }
    boundary_size(g, in_s) as f64 / denom as f64
}

/// Exact graph conductance by exhaustive search over all `2^(n-1) - 1`
/// nontrivial cuts. Only for small graphs.
///
/// Returns `(Φ(G), witness cut)`; `None` for graphs with fewer than 2
/// vertices or no edges.
///
/// # Panics
///
/// Panics if `n > 24` (the enumeration would be prohibitively large).
pub fn exact_conductance(g: &Graph) -> Option<(f64, Vec<bool>)> {
    let n = g.n();
    assert!(n <= 24, "exact conductance is exponential; use sweep bounds for n > 24");
    if n < 2 || g.m() == 0 {
        return None;
    }
    let mut best = f64::INFINITY;
    let mut best_mask = 0u32;
    // fix vertex n-1 outside S to halve the enumeration
    for mask in 1u32..(1 << (n - 1)) {
        let in_s: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
        let phi = cut_conductance(g, &in_s);
        if phi < best {
            best = phi;
            best_mask = mask;
        }
    }
    let in_s: Vec<bool> = (0..n).map(|v| best_mask >> v & 1 == 1).collect();
    Some((best, in_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn complete_graph_conductance() {
        // K4: worst cut is the balanced one: |∂| = 4, vol(S) = 6 → 2/3
        let g = gen::complete(4);
        let (phi, _) = exact_conductance(&g).unwrap();
        assert!((phi - 2.0 / 3.0).abs() < 1e-9, "phi = {phi}");
    }

    #[test]
    fn cycle_conductance() {
        // C8: best cut is an arc of 4 vertices: 2 / 8 = 0.25
        let g = gen::cycle(8);
        let (phi, cut) = exact_conductance(&g).unwrap();
        assert!((phi - 0.25).abs() < 1e-9);
        assert_eq!(boundary_size(&g, &cut), 2);
    }

    #[test]
    fn path_conductance() {
        // P4 (3 edges): cut in the middle: 1 / min(vol) = 1/3
        let g = gen::path(4);
        let (phi, _) = exact_conductance(&g).unwrap();
        assert!((phi - 1.0 / 3.0).abs() < 1e-9, "phi = {phi}");
    }

    #[test]
    fn dumbbell_has_low_conductance() {
        // two K5s joined by one edge
        let k5 = gen::complete(5);
        let mut b = lcg_graph::GraphBuilder::new(10);
        for (_, u, v) in k5.edges() {
            b.add_edge(u, v);
            b.add_edge(u + 5, v + 5);
        }
        b.add_edge(0, 5);
        let g = b.build();
        let (phi, cut) = exact_conductance(&g).unwrap();
        let expect = 1.0 / 21.0; // one edge over vol(K5 side) = 2*10+1
        assert!((phi - expect).abs() < 1e-9, "phi = {phi}");
        // witness is one of the two K5 sides
        let side: usize = cut.iter().filter(|&&b| b).count();
        assert_eq!(side, 5);
    }

    #[test]
    fn trivial_cut_is_zero() {
        let g = gen::cycle(4);
        assert_eq!(cut_conductance(&g, &[false; 4]), 0.0);
        assert_eq!(cut_conductance(&g, &[true; 4]), 0.0);
    }

    #[test]
    fn singleton_cut() {
        let g = gen::star(5);
        let mut in_s = vec![false; 5];
        in_s[1] = true; // a leaf
        assert!((cut_conductance(&g, &in_s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_edges_no_conductance() {
        let g = lcg_graph::GraphBuilder::new(3).build();
        assert!(exact_conductance(&g).is_none());
    }
}
