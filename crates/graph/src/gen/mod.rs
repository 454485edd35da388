//! Generators for every sparse graph class named in the paper, plus the
//! random-graph and hypercube families used as counterexamples.
//!
//! All randomized generators take an explicit `&mut impl Rng`; use
//! [`seeded_rng`] for reproducible experiments.

mod classic;
mod huge;
mod planar;
mod random;
mod treelike;

pub use classic::{complete, complete_bipartite, cycle, grid, hypercube, path, star, torus_grid, torus_with_handles, triangulated_grid};
pub use huge::{bounded_arboricity, grid_with_noise, power_law};
pub use planar::{outerplanar_maximal, random_planar, stacked_triangulation};
pub use random::{disjoint_cliques, erdos_renyi, gnm, random_bipartite, subsample_connected, subsample_edges};
pub use treelike::{ktree, partial_ktree, random_tree, series_parallel};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::graph::{Graph, Sign};

/// Deterministic RNG for reproducible experiments.
///
/// # Examples
///
/// ```
/// let mut rng = lcg_graph::gen::seeded_rng(42);
/// let g = lcg_graph::gen::random_tree(10, &mut rng);
/// assert_eq!(g.m(), 9);
/// ```
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Attaches uniform random integer weights in `1..=max_weight` to a graph.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn random_weights(g: Graph, max_weight: u64, rng: &mut impl Rng) -> Graph {
    assert!(max_weight > 0, "max_weight must be positive");
    let w = (0..g.m()).map(|_| rng.gen_range(1..=max_weight)).collect();
    g.with_weights(w)
}

/// Attaches i.i.d. correlation-clustering labels, `Positive` with
/// probability `p_positive`.
pub fn random_labels(g: Graph, p_positive: f64, rng: &mut impl Rng) -> Graph {
    let l = (0..g.m())
        .map(|_| {
            if rng.gen_bool(p_positive) {
                Sign::Positive
            } else {
                Sign::Negative
            }
        })
        .collect();
    g.with_labels(l)
}

/// Labels edges by a planted ground-truth partition: intra-community edges
/// are `Positive` and inter-community edges `Negative`, then each label is
/// flipped independently with probability `noise`.
///
/// The planted clustering achieves agreement `≥ (1 - noise)·|E|` in
/// expectation, giving a near-tight reference for correlation-clustering
/// experiments (paper §3.3).
pub fn planted_labels(g: Graph, communities: &[usize], noise: f64, rng: &mut impl Rng) -> Graph {
    let l = g
        .edges()
        .map(|(_, u, v)| {
            let same = communities[u] == communities[v];
            let flip = rng.gen_bool(noise);
            if same != flip {
                Sign::Positive
            } else {
                Sign::Negative
            }
        })
        .collect();
    g.with_labels(l)
}

/// Randomly permutes vertex ids. Useful to decouple generator structure from
/// vertex numbering in tests.
pub fn shuffle_vertices(g: &Graph, rng: &mut impl Rng) -> Graph {
    use rand::seq::SliceRandom;
    let mut perm: Vec<usize> = (0..g.n()).collect();
    perm.shuffle(rng);
    // vertex `u` becomes `perm[u]`: the subgraph induced by all vertices,
    // listed so that position `perm[u]` holds `u`
    let mut order = vec![0; g.n()];
    for (u, &p) in perm.iter().enumerate() {
        order[p] = u;
    }
    g.induced_subgraph(&order).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_in_range() {
        let mut rng = seeded_rng(1);
        let g = random_weights(cycle(10), 5, &mut rng);
        for e in 0..g.m() {
            assert!((1..=5).contains(&g.weight(e)));
        }
    }

    #[test]
    fn planted_labels_mostly_agree() {
        let mut rng = seeded_rng(2);
        let g = grid(8, 8);
        let comm: Vec<usize> = (0..g.n()).map(|v| v / 32).collect();
        let g = planted_labels(g, &comm, 0.0, &mut rng);
        for (e, u, v) in g.edges() {
            assert_eq!(g.label(e).is_positive(), comm[u] == comm[v]);
        }
    }

    #[test]
    fn shuffle_preserves_degree_sequence() {
        let mut rng = seeded_rng(3);
        let g = grid(5, 4);
        let h = shuffle_vertices(&g, &mut rng);
        let mut d1: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = (0..h.n()).map(|v| h.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }
}
