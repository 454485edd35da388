//! 2-star and 3-double-star elimination (paper §3.2, following \[27\]).
//!
//! A *2-star* is a vertex with two (or more) pendant neighbors; a
//! *3-double-star* is a pair `{x, y}` with three (or more) common
//! degree-2 neighbors. Eliminating both patterns never changes the size of
//! the maximum matching — a center can match at most one pendant, and a
//! pair `{x, y}` can match at most two of their common degree-2 neighbors
//! — and by Lemma 3.1 ([27, Lemma 6]) the surviving planar graph has
//! `ν(G) = Ω(n)`, which is what lets the framework charge the ε·n cut
//! edges against the optimum.

use lcg_graph::Graph;

/// Result of the elimination preprocessing.
#[derive(Debug, Clone)]
pub struct StarElimination {
    /// `true` for vertices that survive.
    pub kept: Vec<bool>,
    /// Passes until fixpoint (the distributed version spends O(1) rounds
    /// per pass).
    pub passes: usize,
}

impl StarElimination {
    /// The surviving vertices.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.kept.len()).filter(|&v| self.kept[v]).collect()
    }
}

/// Iterates 2-star and 3-double-star elimination until fixpoint, also
/// dropping isolated vertices (Lemma 3.1 assumes none). The maximum
/// matching size of `G[kept]` equals that of `G`.
pub fn star_elimination(g: &Graph) -> StarElimination {
    let n = g.n();
    let mut kept = vec![true; n];
    let mut passes = 0;
    loop {
        passes += 1;
        let mut changed = false;
        let deg = |v: usize, kept: &[bool]| -> usize {
            g.neighbor_vertices(v).filter(|&u| kept[u]).count()
        };
        // 2-stars: every center keeps at most one pendant neighbor
        let mut pendant_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            if kept[v] && deg(v, &kept) == 1 {
                let c = g
                    .neighbor_vertices(v)
                    .find(|&u| kept[u])
                    .expect("degree-1 vertex has a kept neighbor");
                pendant_of[c].push(v);
            }
        }
        for c in 0..n {
            if !kept[c] {
                continue;
            }
            for &v in pendant_of[c].iter().skip(1) {
                kept[v] = false;
                changed = true;
            }
        }
        // 3-double-stars: each pair {x, y} keeps at most two common
        // degree-2 neighbors. BTreeMap, not HashMap: the per-pair Vec order
        // decides *which* two neighbors survive, and map iteration order
        // must not leak into `kept` (D001).
        let mut by_pair: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
            std::collections::BTreeMap::new();
        for v in 0..n {
            if !kept[v] {
                continue;
            }
            let nb: Vec<usize> = g.neighbor_vertices(v).filter(|&u| kept[u]).collect();
            if nb.len() == 2 {
                let key = (nb[0].min(nb[1]), nb[0].max(nb[1]));
                by_pair.entry(key).or_default().push(v);
            }
        }
        for (_, vs) in by_pair {
            for &v in vs.iter().skip(2) {
                kept[v] = false;
                changed = true;
            }
        }
        // isolated vertices
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
    StarElimination { kept, passes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::maximum_matching;
    use lcg_check::Adjacency;
    use lcg_graph::gen;

    /// The independent checker's verdict on the kernel `kept` of `g`.
    fn kernel_is_star_free(g: &Graph, kept: &[bool]) -> bool {
        lcg_check::star::is_star_free(&Adjacency::new(g.n(), g.edges().map(|(_, u, v)| (u, v))), kept)
    }

    fn kept_subgraph(g: &Graph, kept: &[bool]) -> Graph {
        let members: Vec<usize> = (0..g.n()).filter(|&v| kept[v]).collect();
        g.induced_subgraph(&members).0
    }

    #[test]
    fn star_collapses_to_one_edge() {
        let g = gen::star(8);
        let r = star_elimination(&g);
        assert!(kernel_is_star_free(&g, &r.kept));
        assert_eq!(r.survivors().len(), 2); // center + one pendant
        assert_eq!(
            maximum_matching(&kept_subgraph(&g, &r.kept)).size(),
            maximum_matching(&g).size()
        );
    }

    #[test]
    fn double_star_trimmed_to_two() {
        // x = 0, y = 1, five degree-2 common neighbors
        let mut b = lcg_graph::GraphBuilder::new(7);
        for v in 2..7 {
            b.add_edge(0, v);
            b.add_edge(1, v);
        }
        let g = b.build();
        let r = star_elimination(&g);
        assert!(kernel_is_star_free(&g, &r.kept));
        // 0, 1 and exactly two middles survive
        assert_eq!(r.survivors().len(), 4);
        assert_eq!(
            maximum_matching(&kept_subgraph(&g, &r.kept)).size(),
            maximum_matching(&g).size()
        );
    }

    #[test]
    fn preserves_matching_on_random_planar() {
        let mut rng = gen::seeded_rng(170);
        for _ in 0..5 {
            let g = gen::random_planar(80, 0.35, &mut rng);
            let r = star_elimination(&g);
            assert!(kernel_is_star_free(&g, &r.kept), "not star-free");
            let before = maximum_matching(&g).size();
            let after = maximum_matching(&kept_subgraph(&g, &r.kept)).size();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn lemma31_matching_is_linear_after_elimination() {
        let mut rng = gen::seeded_rng(171);
        // Build a pathological planar graph full of stars: a triangulation
        // with many pendants glued on.
        let base = gen::stacked_triangulation(40, &mut rng);
        let mut b = lcg_graph::GraphBuilder::new(40 + 200);
        for (_, u, v) in base.edges() {
            b.add_edge(u, v);
        }
        for i in 0..200 {
            use rand::Rng;
            b.add_edge(40 + i, rng.gen_range(0..40));
        }
        let g = b.build();
        let r = star_elimination(&g);
        let sub = kept_subgraph(&g, &r.kept);
        if sub.n() > 0 {
            let nu = maximum_matching(&sub).size();
            // Lemma 3.1: ν = Ω(n) on the star-free planar kernel
            assert!(
                nu * 5 >= sub.n(),
                "matching {} too small for kernel of {} vertices",
                nu,
                sub.n()
            );
        }
    }

    #[test]
    fn clean_graph_untouched() {
        let g = gen::cycle(10);
        let r = star_elimination(&g);
        assert_eq!(r.survivors().len(), 10);
        assert_eq!(r.passes, 1);
    }

    #[test]
    fn cascading_elimination_terminates() {
        // long path: pendant trimming cascades? paths have no 2-stars
        // except... build a "caterpillar" with double legs
        let mut b = lcg_graph::GraphBuilder::new(12);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        // two legs on each spine vertex
        for (i, s) in [(4, 0), (5, 0), (6, 1), (7, 1), (8, 2), (9, 2), (10, 3), (11, 3)] {
            b.add_edge(i, s);
        }
        let g = b.build();
        let r = star_elimination(&g);
        assert!(kernel_is_star_free(&g, &r.kept));
        assert_eq!(
            maximum_matching(&kept_subgraph(&g, &r.kept)).size(),
            maximum_matching(&g).size()
        );
    }
}
