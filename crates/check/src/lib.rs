//! # lcg-check — an independent checker
//!
//! Oracles for what the producer crates claim, on a graph type of the
//! checker's own: the crate depends on std alone, so a bug in the
//! producer's graph code cannot hide in code the checker shares with it.
//!
//! - [`minor`]: exact H-minor search — the forbidden minors behind
//!   Theorem 1.4's minor-closed property verdicts;
//! - [`star::is_star_free`]: Lemma 3.1's precondition on Theorem 3.2's
//!   matching kernel.
//!
//! Both are exact and meant for small instances; the callers are tests.
//!
//! ```
//! use lcg_check::minor::{has_clique_minor, MinorResult};
//! use lcg_check::Adjacency;
//!
//! let cycle = Adjacency::new(8, (0..8).map(|v| (v, (v + 1) % 8)));
//! assert_eq!(cycle.m(), 8);
//! assert_eq!(has_clique_minor(&cycle, 3, 100_000), MinorResult::Contains);
//! assert_eq!(has_clique_minor(&cycle, 4, 100_000), MinorResult::Free);
//! ```

// P001 (DESIGN §7): library code states an invariant with `expect`.
#![warn(clippy::unwrap_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod minor;
pub mod star;

/// A simple undirected graph on the vertices `0..n`, as sorted adjacency
/// lists. Built from an in-memory edge list; a repeated edge is kept once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    adj: Vec<Vec<usize>>,
    m: usize,
}

impl Adjacency {
    /// The graph on `0..n` with the given edges, in either orientation.
    ///
    /// # Panics
    ///
    /// Panics on an endpoint `>= n` or a self-loop.
    pub fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Adjacency {
        let mut adj = vec![Vec::new(); n];
        for (u, v) in edges {
            assert!(u < n && v < n, "edge {{{u}, {v}}} has an endpoint outside 0..{n}");
            assert_ne!(u, v, "self-loop at vertex {u}");
            adj[u].push(v);
            adj[v].push(u);
        }
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
        }
        let m = adj.iter().map(Vec::len).sum::<usize>() / 2;
        Adjacency { adj, m }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The neighbors of `v`, ascending.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Every edge once, as `(u, v)` with `u < v`, in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_edges_are_kept_once_and_listed_in_order() {
        let g = Adjacency::new(4, [(2, 1), (0, 3), (1, 2), (3, 0), (0, 1)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1), (0, 3), (1, 2)]);
        assert_eq!(g.neighbors(0), [1, 3]);
        assert_eq!(g.neighbors(2), [1]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_a_self_loop() {
        Adjacency::new(2, [(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_an_endpoint_out_of_range() {
        Adjacency::new(2, [(0, 2)]);
    }
}
