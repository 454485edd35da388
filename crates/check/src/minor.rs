//! Exact H-minor containment testing by branch-set search.
//!
//! `H ≼ G` iff `G` contains disjoint connected vertex sets ("branch sets"),
//! one per vertex of `H`, with an edge of `G` between every pair of branch
//! sets adjacent in `H`. We search for such a *model* with a complete
//! branch-and-bound: repeatedly pick an unrealized H-edge `{i, j}` and
//! branch on every way to make progress on it (open branch set `i` or `j`
//! at a free vertex, or grow either set by one adjacent free vertex).
//! Branch sets are grown connectedly, so any found model is valid by
//! construction; completeness follows because a minimal model's branch set
//! `M_i` strictly containing the current partial set always has a free
//! vertex adjacent to it, which the branching enumerates.
//!
//! Minor containment is NP-hard for general `H`, so the search takes an
//! explicit node budget and returns [`MinorResult::BudgetExceeded`] when it
//! is exhausted. It is an oracle for *small* graphs: the tests check the
//! planarity tester and Theorem 1.4's minor-closed property verdicts
//! against their forbidden minors with it.

use crate::Adjacency;

/// Outcome of a budgeted minor search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinorResult {
    /// A model of `H` in `G` exists.
    Contains,
    /// No model exists.
    Free,
    /// The node budget was exhausted before the search completed.
    BudgetExceeded,
}

impl MinorResult {
    /// Collapses to `Some(bool)` ("contains?") when the search finished.
    pub fn decided(self) -> Option<bool> {
        match self {
            MinorResult::Contains => Some(true),
            MinorResult::Free => Some(false),
            MinorResult::BudgetExceeded => None,
        }
    }
}

/// Tests whether `h` is a minor of `g`, exploring at most `budget` search
/// nodes.
///
/// # Examples
///
/// ```
/// use lcg_check::minor::{has_minor, MinorResult};
/// use lcg_check::Adjacency;
///
/// let complete = |t: usize| Adjacency::new(t, (0..t).flat_map(|i| (i + 1..t).map(move |j| (i, j))));
/// assert_eq!(has_minor(&complete(6), &complete(5), 100_000), MinorResult::Contains);
/// let path = Adjacency::new(10, (1..10).map(|v| (v - 1, v)));
/// assert_eq!(has_minor(&path, &complete(3), 100_000), MinorResult::Free);
/// ```
pub fn has_minor(g: &Adjacency, h: &Adjacency, budget: u64) -> MinorResult {
    let k = h.n();
    if k == 0 {
        return MinorResult::Contains;
    }
    if g.n() < k || g.m() < h.m() {
        return MinorResult::Free;
    }
    if k > 64 {
        // exclusion masks are u64; graphs H this large are far outside the
        // intended (small forbidden minor) use cases.
        return MinorResult::BudgetExceeded;
    }
    let h_edges: Vec<(usize, usize)> = h.edges().collect();
    let mut s = MinorSearch {
        g,
        k,
        h_edges,
        color: vec![FREE; g.n()],
        excluded: vec![0u64; g.n()],
        class_size: vec![0; k],
        free_count: g.n(),
        nodes: 0,
        budget,
    };
    match s.solve() {
        Some(true) => MinorResult::Contains,
        Some(false) => MinorResult::Free,
        None => MinorResult::BudgetExceeded,
    }
}

/// Tests `K_t ≼ G` with the given budget.
pub fn has_clique_minor(g: &Adjacency, t: usize, budget: u64) -> MinorResult {
    has_minor(g, &Adjacency::new(t, (0..t).flat_map(|i| (i + 1..t).map(move |j| (i, j)))), budget)
}

const FREE: usize = usize::MAX;

struct MinorSearch<'a> {
    g: &'a Adjacency,
    k: usize,
    h_edges: Vec<(usize, usize)>,
    /// Branch-set id of each G vertex, or FREE.
    color: Vec<usize>,
    /// `excluded[v] & (1 << c)` means v may never join class c on this
    /// search path (the "exclude" half of the binary branching).
    excluded: Vec<u64>,
    class_size: Vec<usize>,
    free_count: usize,
    nodes: u64,
    budget: u64,
}

impl<'a> MinorSearch<'a> {
    /// Binary include/exclude branch-and-bound.
    ///
    /// At each node we pick one unrealized H-edge `{i, j}` and one
    /// candidate `(v, c)` (a free vertex that could open or extend class
    /// `c ∈ {i, j}`), then branch on "v joins c" vs. "v is excluded from c
    /// forever". Each `(vertex, class)` pair is decided at most once per
    /// path, so the search never revisits a partial model.
    ///
    /// Returns `Some(found)` or `None` on budget exhaustion.
    fn solve(&mut self) -> Option<bool> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return None;
        }
        // Feasibility: enough free vertices to open all empty classes, and
        // every empty class must still have at least one openable vertex.
        let empty = self.class_size.iter().filter(|&&s| s == 0).count();
        if self.free_count < empty {
            return Some(false);
        }
        for c in 0..self.k {
            if self.class_size[c] == 0 {
                let bit = 1u64 << c;
                if !(0..self.g.n())
                    .any(|v| self.color[v] == FREE && self.excluded[v] & bit == 0)
                {
                    return Some(false);
                }
            }
        }
        // Reachability prune: for every unrealized H-edge with both classes
        // non-empty, the classes must be connectable through free vertices.
        let mut first_unrealized = None;
        for &(i, j) in &self.h_edges {
            if self.realized(i, j) {
                continue;
            }
            if first_unrealized.is_none() {
                first_unrealized = Some((i, j));
            }
            if self.class_size[i] > 0 && self.class_size[j] > 0 && !self.connectable(i, j) {
                return Some(false);
            }
        }
        let (i, j) = match first_unrealized {
            // All adjacencies realized; empty classes are isolated
            // H-vertices and `free_count >= empty` lets us open them at
            // arbitrary free vertices.
            None => return Some(true),
            Some(e) => e,
        };
        // Choose one candidate (v, c) that can make progress on {i, j}.
        let cand = self.candidate(i).or_else(|| self.candidate(j));
        let (v, c) = match cand {
            None => return Some(false),
            Some(vc) => vc,
        };
        // Branch 1: v joins c.
        self.color[v] = c;
        self.class_size[c] += 1;
        self.free_count -= 1;
        let r = self.solve();
        self.color[v] = FREE;
        self.class_size[c] -= 1;
        self.free_count += 1;
        match r {
            Some(true) => return Some(true),
            Some(false) => {}
            None => return None,
        }
        // Branch 2: v excluded from c.
        self.excluded[v] |= 1 << c;
        let r = self.solve();
        self.excluded[v] &= !(1 << c);
        r
    }

    /// A free, non-excluded vertex that can open class `c` (if empty) or
    /// extend it (must be adjacent to the class).
    fn candidate(&self, c: usize) -> Option<(usize, usize)> {
        let bit = 1u64 << c;
        if self.class_size[c] == 0 {
            (0..self.g.n())
                .find(|&v| self.color[v] == FREE && self.excluded[v] & bit == 0)
                .map(|v| (v, c))
        } else {
            (0..self.g.n())
                .filter(|&v| self.color[v] == c)
                .flat_map(|v| self.g.neighbors(v).iter().copied())
                .find(|&u| self.color[u] == FREE && self.excluded[u] & bit == 0)
                .map(|u| (u, c))
        }
    }

    /// Is there a G-edge between branch sets `i` and `j`?
    fn realized(&self, i: usize, j: usize) -> bool {
        if self.class_size[i] == 0 || self.class_size[j] == 0 {
            return false;
        }
        for v in 0..self.g.n() {
            if self.color[v] == i
                && self.g.neighbors(v).iter().any(|&u| self.color[u] == j)
            {
                return true;
            }
        }
        false
    }

    /// Sound overestimate of whether classes `i` and `j` could still be
    /// made adjacent: BFS from class `i` through free vertices, looking for
    /// a vertex adjacent to class `j`. (Exclusions are ignored, which only
    /// makes the check more permissive, hence safe as a prune.)
    fn connectable(&self, i: usize, j: usize) -> bool {
        let n = self.g.n();
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&v| self.color[v] == i).collect();
        for &v in &stack {
            seen[v] = true;
        }
        while let Some(v) = stack.pop() {
            for &u in self.g.neighbors(v) {
                if self.color[u] == j {
                    return true;
                }
                if self.color[u] == FREE && !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::{gen, Graph};

    /// A generator's graph as the checker's own type.
    fn adj(g: &Graph) -> Adjacency {
        Adjacency::new(g.n(), g.edges().map(|(_, u, v)| (u, v)))
    }

    const B: u64 = 5_000_000;

    #[test]
    fn clique_minors_of_cliques() {
        let k6 = gen::complete(6);
        assert_eq!(has_clique_minor(&adj(&k6), 6, B), MinorResult::Contains);
        assert_eq!(has_clique_minor(&adj(&k6), 7, B), MinorResult::Free);
    }

    #[test]
    fn trees_are_k3_minor_free() {
        let mut rng = gen::seeded_rng(50);
        let t = gen::random_tree(12, &mut rng);
        assert_eq!(has_clique_minor(&adj(&t), 3, B), MinorResult::Free);
        assert_eq!(has_clique_minor(&adj(&t), 2, B), MinorResult::Contains);
    }

    #[test]
    fn cycle_has_k3_minor() {
        assert_eq!(has_clique_minor(&adj(&gen::cycle(8)), 3, B), MinorResult::Contains);
        assert_eq!(has_clique_minor(&adj(&gen::cycle(8)), 4, B), MinorResult::Free);
    }

    #[test]
    fn planar_graphs_are_k5_free() {
        let g = gen::triangulated_grid(3, 3);
        assert_eq!(has_clique_minor(&adj(&g), 5, B), MinorResult::Free);
        // ... but a triangulated grid does contain K4.
        assert_eq!(has_clique_minor(&adj(&g), 4, B), MinorResult::Contains);
        // a sparser planar graph of moderate size also proves K5-free
        let g = gen::grid(4, 4);
        assert_eq!(has_clique_minor(&adj(&g), 5, 50_000_000), MinorResult::Free);
    }

    #[test]
    fn petersen_has_k5_minor() {
        // contract the five spokes of the Petersen graph -> K5
        let g = Adjacency::new(10, (0..5).flat_map(|i| [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, i + 5)]));
        assert_eq!(has_clique_minor(&g, 5, B), MinorResult::Contains);
    }

    #[test]
    fn grid_is_k33_minor_free_but_k23_is_not() {
        let g = gen::grid(3, 3);
        let k33 = gen::complete_bipartite(3, 3);
        assert_eq!(has_minor(&adj(&g), &adj(&k33), B), MinorResult::Free);
        // The 3x3 grid does contain a K_{2,3} minor.
        let k23 = gen::complete_bipartite(2, 3);
        assert_eq!(has_minor(&adj(&g), &adj(&k23), B), MinorResult::Contains);
    }

    #[test]
    fn k33_minor_in_k33_subdivision() {
        let k33 = adj(&gen::complete_bipartite(3, 3));
        let g = Adjacency::new(6 + k33.m(), k33.edges().enumerate().flat_map(|(e, (u, v))| [(u, 6 + e), (6 + e, v)]));
        assert_eq!(has_minor(&g, &k33, B), MinorResult::Contains);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = gen::grid(6, 6);
        let k5 = gen::complete(5);
        assert_eq!(has_minor(&adj(&g), &adj(&k5), 50), MinorResult::BudgetExceeded);
    }

    #[test]
    fn empty_h_is_trivial_minor() {
        let g = gen::path(3);
        let h = Adjacency::new(0, []);
        assert_eq!(has_minor(&adj(&g), &h, B), MinorResult::Contains);
    }

    #[test]
    fn isolated_h_vertices_need_enough_vertices() {
        // H = 3 isolated vertices; G = path on 2 vertices: not a minor.
        let h = Adjacency::new(3, []);
        assert_eq!(has_minor(&adj(&gen::path(2)), &h, B), MinorResult::Free);
        assert_eq!(has_minor(&adj(&gen::path(3)), &h, B), MinorResult::Contains);
    }

    #[test]
    fn quick_reject_by_size() {
        let g = gen::path(3);
        assert_eq!(has_clique_minor(&adj(&g), 5, B), MinorResult::Free);
    }

    #[test]
    fn outerplanar_is_k4_free() {
        let mut rng = gen::seeded_rng(51);
        let g = gen::outerplanar_maximal(12, &mut rng);
        assert_eq!(has_clique_minor(&adj(&g), 4, B), MinorResult::Free);
    }

    #[test]
    fn ktree_contains_k_plus_1_clique_minor_only() {
        let mut rng = gen::seeded_rng(52);
        let g = gen::ktree(10, 2, &mut rng);
        assert_eq!(has_clique_minor(&adj(&g), 3, B), MinorResult::Contains);
        assert_eq!(has_clique_minor(&adj(&g), 4, B), MinorResult::Free);
    }
}
