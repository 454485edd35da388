//! Reduction-based exact class recognizers.
//!
//! [`treewidth_at_most_2`] decides membership in the treewidth-≤2 class
//! (equivalently, `K₄`-minor-free graphs) in near-linear time by
//! series-parallel reduction: a graph has treewidth ≤ 2 iff it can be
//! reduced to the empty graph by repeatedly
//!
//! * deleting a vertex of degree ≤ 1, and
//! * "smoothing" a vertex of degree 2 (replace it by an edge between its
//!   neighbors, merging parallels).
//!
//! This gives Theorem 1.4's property tester another minor-closed,
//! disjoint-union-closed property with a fast exact cluster check —
//! alongside planarity, outerplanarity, and forests.

use std::collections::BTreeSet;

use crate::graph::Graph;

/// Returns `true` iff `g` has treewidth at most 2 (`K₄ ⋠ g`).
///
/// # Examples
///
/// ```
/// use lcg_graph::{gen, reductions};
///
/// let mut rng = gen::seeded_rng(4);
/// assert!(reductions::treewidth_at_most_2(&gen::series_parallel(40, &mut rng)));
/// assert!(!reductions::treewidth_at_most_2(&gen::complete(4)));
/// ```
pub fn treewidth_at_most_2(g: &Graph) -> bool {
    let n = g.n();
    // mutable adjacency sets (simple graph; parallels merge implicitly)
    let mut adj: Vec<BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbor_vertices(v).collect())
        .collect();
    let mut alive = vec![true; n];
    let mut queue: Vec<usize> = (0..n).filter(|&v| adj[v].len() <= 2).collect();
    let mut queued: Vec<bool> = (0..n).map(|v| adj[v].len() <= 2).collect();
    let mut remaining = n;
    while let Some(v) = queue.pop() {
        queued[v] = false;
        if !alive[v] || adj[v].len() > 2 {
            continue;
        }
        let nb: Vec<usize> = adj[v].iter().copied().collect();
        alive[v] = false;
        remaining -= 1;
        for &u in &nb {
            adj[u].remove(&v);
        }
        if nb.len() == 2 {
            // smooth: connect the neighbors (merging a parallel edge)
            let (a, b) = (nb[0], nb[1]);
            adj[a].insert(b);
            adj[b].insert(a);
        }
        adj[v].clear();
        for &u in &nb {
            if alive[u] && adj[u].len() <= 2 && !queued[u] {
                queued[u] = true;
                queue.push(u);
            }
        }
    }
    remaining == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn trees_and_cycles_qualify() {
        let mut rng = gen::seeded_rng(410);
        assert!(treewidth_at_most_2(&gen::random_tree(50, &mut rng)));
        assert!(treewidth_at_most_2(&gen::cycle(17)));
        assert!(treewidth_at_most_2(&gen::path(9)));
    }

    #[test]
    fn series_parallel_and_outerplanar_qualify() {
        let mut rng = gen::seeded_rng(411);
        assert!(treewidth_at_most_2(&gen::series_parallel(80, &mut rng)));
        assert!(treewidth_at_most_2(&gen::outerplanar_maximal(40, &mut rng)));
        assert!(treewidth_at_most_2(&gen::ktree(40, 2, &mut rng)));
    }

    #[test]
    fn k4_and_supergraphs_fail() {
        let mut rng = gen::seeded_rng(412);
        assert!(!treewidth_at_most_2(&gen::complete(4)));
        assert!(!treewidth_at_most_2(&gen::complete(6)));
        assert!(!treewidth_at_most_2(&gen::ktree(20, 3, &mut rng)));
        assert!(!treewidth_at_most_2(&gen::grid(3, 3))); // treewidth 3
        assert!(!treewidth_at_most_2(&gen::triangulated_grid(4, 4)));
    }

    #[test]
    fn disjoint_union_closure() {
        let mut rng = gen::seeded_rng(414);
        let a = gen::series_parallel(20, &mut rng);
        let b = gen::cycle(8);
        assert!(treewidth_at_most_2(&a.disjoint_union(&b)));
        let c = a.disjoint_union(&gen::complete(4));
        assert!(!treewidth_at_most_2(&c));
    }

    #[test]
    fn empty_and_tiny() {
        assert!(treewidth_at_most_2(&crate::graph::GraphBuilder::new(0).build()));
        assert!(treewidth_at_most_2(&crate::graph::GraphBuilder::new(3).build()));
        assert!(treewidth_at_most_2(&gen::complete(3)));
    }
}
