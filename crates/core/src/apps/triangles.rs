//! **Extension** — exact distributed triangle counting on bounded-
//! degeneracy (hence on all H-minor-free) networks.
//!
//! §1.4 recounts that the very first CONGEST application of expander
//! decompositions was triangle listing \[19\] on *general* graphs. On the
//! sparse networks this paper targets, the job is dramatically easier:
//! after a Barenboim–Elkin orientation with out-degree `O(1)`, every
//! triangle has a unique *apex* (the vertex with out-edges to the other
//! two), and the apex can verify the closing edge with one query/response
//! per out-pair — `O(1)` messages per vertex, `O(log n)` rounds total
//! (dominated by the orientation itself).
//!
//! The implementation runs in the simulator with real 2-word messages and
//! is cross-checked against the sequential count.

use lcg_congest::primitives::{h_partition_distributed, Scope};
use lcg_congest::{Model, Network, RoundStats};
use lcg_graph::Graph;

/// Sequential reference: counts triangles by degeneracy orientation
/// (each triangle counted once at its apex).
pub fn count_triangles_sequential(g: &Graph) -> u64 {
    let (order, _) = g.degeneracy_ordering();
    let mut pos = vec![0usize; g.n()];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    let mut count = 0u64;
    for v in 0..g.n() {
        let out: Vec<usize> = g
            .neighbor_vertices(v)
            .filter(|&u| pos[u] > pos[v])
            .collect();
        for i in 0..out.len() {
            for j in (i + 1)..out.len() {
                if g.has_edge(out[i], out[j]) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Result of the distributed triangle count.
#[derive(Debug, Clone)]
pub struct TriangleOutcome {
    /// Total number of triangles in the network.
    pub count: u64,
    /// Per-vertex apex counts (sums to `count`).
    pub per_vertex: Vec<u64>,
    /// Rounds/messages measured.
    pub stats: RoundStats,
}

/// Counts triangles distributedly: orientation (H-partition peeling),
/// then one query round per out-pair slot and one response round.
///
/// `density_bound` is the class's edge-density constant (out-degree is at
/// most `⌊3·density_bound⌋` after peeling, so the query phase takes
/// `O(density_bound²)` rounds — a constant for any fixed minor-free
/// class).
pub fn count_triangles(g: &Graph, density_bound: f64) -> TriangleOutcome {
    let n = g.n();
    let mut net = Network::new(g, Model::congest());
    // Phase 1: distributed orientation
    let max_layers = 4 * ((n.max(2) as f64).log2().ceil() as usize) + 8;
    let layer = h_partition_distributed(&mut net, density_bound, 1.0, max_layers, Scope::Global);
    let rank = |v: usize| (layer[v].unwrap_or(usize::MAX), v);
    let out_nbrs: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            g.neighbor_vertices(v)
                .filter(|&u| rank(u) > rank(v))
                .collect()
        })
        .collect();
    let max_out = out_nbrs.iter().map(Vec::len).max().unwrap_or(0);

    // Phase 2: for each ordered out-pair (u -> a, u -> b) with a "first",
    // u asks a whether b is a's neighbor. One query slot per round pair
    // (each edge carries at most one query per round: queries to `a` are
    // serialized over a's slot index).
    let mut per_vertex = vec![0u64; n];
    // queries[q] for vertex v: (port_of_a, b)
    let mut queries: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for v in 0..n {
        for i in 0..out_nbrs[v].len() {
            for j in (i + 1)..out_nbrs[v].len() {
                let (a, b) = (out_nbrs[v][i], out_nbrs[v][j]);
                let port = g
                    .neighbor_vertices(v)
                    .position(|w| w == a)
                    .expect("out-neighbor is a graph neighbor");
                queries[v].push((port, b));
            }
        }
    }
    let slots = max_out * (max_out.saturating_sub(1)) / 2;
    for s in 0..slots {
        // query round: send [b] to a on the recorded port
        let mut incoming: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n]; // (port, b)
        net.exchange(
            |v, out| {
                if let Some(&(port, b)) = queries[v].get(s) {
                    out.send(port, [b as u64, 1]);
                }
            },
            |v, inbox| {
                for (p, m) in inbox.iter().enumerate() {
                    if let Some(m) = m {
                        incoming[v].push((p, m[0]));
                    }
                }
            },
        );
        // response round: a answers yes/no on the same port
        let mut answers: Vec<Vec<bool>> = vec![Vec::new(); n];
        net.exchange(
            |v, out| {
                for &(p, b) in &incoming[v] {
                    let yes = g.neighbor_row(v).binary_search(&(b as u32)).is_ok() as u64;
                    out.send(p, [yes, 2]);
                }
            },
            |v, inbox| {
                if queries[v].get(s).is_some() {
                    // the answer arrives on the port we queried
                    let (port, _) = queries[v][s];
                    if let Some(m) = &inbox[port] {
                        answers[v].push(m[0] == 1);
                    }
                }
            },
        );
        for v in 0..n {
            per_vertex[v] += answers[v].iter().filter(|&&y| y).count() as u64;
        }
    }
    let count = per_vertex.iter().sum();
    TriangleOutcome {
        count,
        per_vertex,
        stats: net.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn sequential_counts_known_graphs() {
        assert_eq!(count_triangles_sequential(&gen::complete(3)), 1);
        assert_eq!(count_triangles_sequential(&gen::complete(5)), 10);
        assert_eq!(count_triangles_sequential(&gen::cycle(5)), 0);
        assert_eq!(count_triangles_sequential(&gen::grid(4, 4)), 0);
        // triangulated 3x3 grid: 8 triangles (2 per unit cell... 2x2 cells x 2)
        assert_eq!(count_triangles_sequential(&gen::triangulated_grid(3, 3)), 8);
    }

    #[test]
    fn distributed_matches_sequential_on_planar() {
        let mut rng = gen::seeded_rng(500);
        for _ in 0..3 {
            let g = gen::random_planar(120, 0.6, &mut rng);
            let seq = count_triangles_sequential(&g);
            let out = count_triangles(&g, 3.0);
            assert_eq!(out.count, seq);
            assert!(out.stats.max_words_edge_round <= 2);
        }
    }

    #[test]
    fn distributed_matches_on_ktrees() {
        let mut rng = gen::seeded_rng(501);
        let g = gen::ktree(80, 3, &mut rng);
        assert_eq!(count_triangles(&g, 3.0).count, count_triangles_sequential(&g));
    }

    #[test]
    fn per_vertex_counts_sum() {
        let mut rng = gen::seeded_rng(502);
        let g = gen::stacked_triangulation(100, &mut rng);
        let out = count_triangles(&g, 3.0);
        assert_eq!(out.per_vertex.iter().sum::<u64>(), out.count);
        // maximal planar graph on n vertices has >= 2n - 5 triangles (faces)
        assert!(out.count >= (2 * g.n() - 5) as u64);
    }

    #[test]
    fn rounds_are_logarithmic_plus_constant() {
        let mut rng = gen::seeded_rng(503);
        let small = count_triangles(&gen::stacked_triangulation(100, &mut rng), 3.0);
        let large = count_triangles(&gen::stacked_triangulation(800, &mut rng), 3.0);
        // rounds grow far slower than n (orientation log n + O(1) slots)
        assert!(
            large.stats.rounds <= 3 * small.stats.rounds + 64,
            "small {} large {}",
            small.stats.rounds,
            large.stats.rounds
        );
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        let mut rng = gen::seeded_rng(504);
        let g = gen::random_tree(60, &mut rng);
        assert_eq!(count_triangles(&g, 1.0).count, 0);
    }
}
