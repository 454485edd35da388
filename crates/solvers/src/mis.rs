//! Maximum independent set solvers — the sequential algorithm a cluster
//! leader runs in Theorem 1.2.
//!
//! [`maximum_independent_set`] is an exact branch-and-bound with the
//! classic reductions (isolated vertices, pendant vertices, paths/cycles
//! solved in closed form) and a matching-based upper bound. The bound is
//! weak on grid-like clusters — the shuffled `triangulated_grid(16, 16)`
//! of the repo benchmark (α = 86) exhausts 300 000 nodes at incumbents of
//! 74–81 — so leaders call it through `treedp::mis_auto`, which tries two
//! exact DPs first and reports `optimal: false` when all three give up.
//! [`greedy_mis`] is the `n/(2d+1)` greedy of §3.1 used both as a
//! lower-bound witness for `α(G) = Θ(n)` and as the branch-and-bound's
//! initial incumbent.

use lcg_graph::Graph;

/// Result of an exact MIS computation.
#[derive(Debug, Clone)]
pub struct MisResult {
    /// Vertices of the independent set found.
    pub set: Vec<usize>,
    /// `true` if the search completed (the set is optimal); `false` if the
    /// node budget ran out (the set is the best incumbent found).
    pub optimal: bool,
    /// Search nodes explored.
    pub nodes: u64,
}

/// Greedy independent set: repeatedly take a minimum-degree vertex and
/// delete its closed neighborhood. On a graph of edge density ≤ d this
/// yields at least `n / (2d + 1)` vertices — the §3.1 lower bound for
/// `α(G) = Θ(n)` on H-minor-free graphs.
pub fn greedy_mis(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let mut active = vec![true; n];
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut picked = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let v = (0..n)
            .filter(|&v| active[v])
            .min_by_key(|&v| deg[v])
            .expect("remaining > 0 guarantees an active vertex");
        picked.push(v);
        // remove N[v]
        let mut to_remove = vec![v];
        to_remove.extend(g.neighbor_vertices(v).filter(|&u| active[u]));
        for &u in &to_remove {
            if active[u] {
                active[u] = false;
                remaining -= 1;
                for w in g.neighbor_vertices(u) {
                    if active[w] {
                        deg[w] -= 1;
                    }
                }
            }
        }
    }
    picked.sort_unstable();
    picked
}

/// Verifies that `set` is an independent set of `g`.
pub fn is_independent_set(g: &Graph, set: &[usize]) -> bool {
    let mut in_set = vec![false; g.n()];
    for &v in set {
        if in_set[v] {
            return false; // duplicate
        }
        in_set[v] = true;
    }
    g.edges().all(|(_, u, v)| !(in_set[u] && in_set[v]))
}

/// Verifies that `set` is a *maximal* independent set of `g`: independent,
/// and every vertex outside it has a neighbor inside it. This is the
/// validity contract of the fault-resilient MIS pipelines, which trade
/// the (1−ε) guarantee for maximality under degradation.
pub fn is_maximal_independent_set(g: &Graph, set: &[usize]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    let mut in_set = vec![false; g.n()];
    for &v in set {
        in_set[v] = true;
    }
    (0..g.n()).all(|v| in_set[v] || g.neighbor_vertices(v).any(|u| in_set[u]))
}

/// Exact maximum independent set by branch-and-bound, exploring at most
/// `budget` search nodes.
///
/// # Examples
///
/// ```
/// use lcg_graph::gen;
/// use lcg_solvers::mis::maximum_independent_set;
///
/// let g = gen::cycle(9);
/// let r = maximum_independent_set(&g, 1_000_000);
/// assert!(r.optimal);
/// assert_eq!(r.set.len(), 4); // α(C9) = ⌊9/2⌋
/// ```
pub fn maximum_independent_set(g: &Graph, budget: u64) -> MisResult {
    let n = g.n();
    let words = n.div_ceil(64);
    let mut solver = Solver {
        g,
        active: vec![0; words],
        low: vec![0; words],
        unmatched: vec![0; words],
        deg: (0..n).map(|v| g.degree(v) as u32).collect(),
        trail: Vec::with_capacity(n),
        current: Vec::new(),
        best: greedy_mis(g),
        nodes: 0,
        budget,
        exhausted: false,
    };
    for v in 0..n {
        set_bit(&mut solver.active, v);
        if solver.deg[v] <= 1 {
            set_bit(&mut solver.low, v);
        }
    }
    solver.search();
    let optimal = !solver.exhausted;
    let mut set = solver.best;
    set.sort_unstable();
    debug_assert!(is_independent_set(g, &set));
    MisResult {
        set,
        optimal,
        nodes: solver.nodes,
    }
}

#[inline]
fn set_bit(bits: &mut [u64], v: usize) {
    bits[v / 64] |= 1 << (v % 64);
}

#[inline]
fn clear_bit(bits: &mut [u64], v: usize) {
    bits[v / 64] &= !(1 << (v % 64));
}

#[inline]
fn has_bit(bits: &[u64], v: usize) -> bool {
    bits[v / 64] >> (v % 64) & 1 == 1
}

/// Set bits of `bits`, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&x| {
            let rest = x & (x - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// Search state. A node costs what it inspects: the residual graph is the
/// `active` bitset over the host's CSR rows, every removal is logged on one
/// undo `trail` (a node undoes back to the length it started at), and the
/// reduction candidates are a bitset kept current on every degree change
/// instead of a rescan of `0..n`.
struct Solver<'a> {
    g: &'a Graph,
    active: Vec<u64>,
    /// `active` ∧ residual degree ≤ 1: isolated and pendant vertices.
    low: Vec<u64>,
    /// Scratch of [`Solver::upper_bound`]: `active` minus the matched.
    unmatched: Vec<u64>,
    /// Residual degree of the active vertices; an inactive vertex keeps the
    /// degree it was removed at, which is the one it is restored to.
    deg: Vec<u32>,
    /// Removed vertices, in removal order.
    trail: Vec<u32>,
    current: Vec<usize>,
    best: Vec<usize>,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl Solver<'_> {
    fn remove(&mut self, v: usize) {
        debug_assert!(has_bit(&self.active, v));
        clear_bit(&mut self.active, v);
        clear_bit(&mut self.low, v);
        for &u in self.g.neighbor_row(v) {
            let u = u as usize;
            if has_bit(&self.active, u) {
                self.deg[u] -= 1;
                if self.deg[u] == 1 {
                    set_bit(&mut self.low, u);
                }
            }
        }
        self.trail.push(v as u32);
    }

    /// Restores every vertex removed since the trail had length `mark`,
    /// last removed first.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail is longer than the mark") as usize;
            set_bit(&mut self.active, v);
            if self.deg[v] <= 1 {
                set_bit(&mut self.low, v);
            }
            for &u in self.g.neighbor_row(v) {
                let u = u as usize;
                if has_bit(&self.active, u) {
                    self.deg[u] += 1;
                    if self.deg[u] == 2 {
                        clear_bit(&mut self.low, u);
                    }
                }
            }
        }
    }

    /// Takes `v` into the set: removes N[v].
    fn take(&mut self, v: usize) {
        self.remove(v);
        for &u in self.g.neighbor_row(v) {
            if has_bit(&self.active, u as usize) {
                self.remove(u as usize);
            }
        }
        self.current.push(v);
    }

    /// Upper bound: active count minus a greedy maximal matching (each
    /// matched edge excludes at least one endpoint). Vertices ascending,
    /// each matched to its first unmatched active neighbour of larger id.
    fn upper_bound(&mut self) -> usize {
        self.unmatched.copy_from_slice(&self.active);
        let mut matching = 0usize;
        let mut count = 0usize;
        for w in 0..self.active.len() {
            count += self.active[w].count_ones() as usize;
            // partners have larger ids, so nothing before this word changes
            // any more; inside it, a vertex may have been matched meanwhile
            let mut word = self.unmatched[w];
            while word != 0 {
                let v = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if !has_bit(&self.unmatched, v) {
                    continue;
                }
                let partner = self
                    .g
                    .neighbor_row(v)
                    .iter()
                    .map(|&u| u as usize)
                    .find(|&u| u > v && has_bit(&self.unmatched, u));
                if let Some(u) = partner {
                    clear_bit(&mut self.unmatched, v);
                    clear_bit(&mut self.unmatched, u);
                    matching += 1;
                }
            }
        }
        count - matching
    }

    fn search(&mut self) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.exhausted = true;
            return;
        }
        let (mark, taken) = (self.trail.len(), self.current.len());
        // reductions: isolated and pendant vertices are always safe to
        // take, smallest id first
        loop {
            let Some(v) = ones(&self.low).next() else {
                break;
            };
            self.take(v);
        }
        if self.active.iter().all(|&word| word == 0) {
            if self.current.len() > self.best.len() {
                self.best.clone_from(&self.current);
            }
        } else if self.current.len() + self.upper_bound() > self.best.len() {
            // the branch vertex: of the maximum-degree active vertices, the
            // one of largest id
            let v = ones(&self.active)
                .max_by_key(|&v| self.deg[v])
                .expect("branch taken only while vertices remain");
            // max degree >= 2 here; if max degree == 2 the graph is a union
            // of cycles: solve directly
            if self.deg[v] == 2 {
                let extra = self.solve_cycles();
                if self.current.len() + extra.len() > self.best.len() {
                    self.best.clone_from(&self.current);
                    self.best.extend(extra);
                }
            } else {
                // branch: include v, then exclude v
                let (mark, taken) = (self.trail.len(), self.current.len());
                self.take(v);
                self.search();
                self.undo_to(mark);
                self.current.truncate(taken);
                if !self.exhausted {
                    self.remove(v);
                    self.search();
                    self.undo_to(mark);
                }
            }
        }
        self.undo_to(mark);
        self.current.truncate(taken);
    }

    /// All active vertices have degree exactly 2: disjoint cycles. α of a
    /// cycle of length L is ⌊L/2⌋; pick alternate vertices.
    fn solve_cycles(&self) -> Vec<usize> {
        let mut visited = vec![false; self.g.n()];
        let mut picked = Vec::new();
        for s in ones(&self.active) {
            if visited[s] {
                continue;
            }
            // walk the cycle
            let mut cycle = vec![s];
            visited[s] = true;
            let mut prev = s;
            let mut cur = s;
            loop {
                let next = self
                    .g
                    .neighbor_vertices(cur)
                    .find(|&u| has_bit(&self.active, u) && u != prev && !visited[u]);
                match next {
                    Some(u) => {
                        visited[u] = true;
                        cycle.push(u);
                        prev = cur;
                        cur = u;
                    }
                    None => break,
                }
            }
            // alternate picks: indices 0, 2, 4, ..., skipping the last if
            // the cycle length is odd
            let take = cycle.len() / 2;
            for i in 0..take {
                picked.push(cycle[2 * i]);
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    const B: u64 = 10_000_000;

    #[test]
    fn path_alpha() {
        for n in [1usize, 2, 3, 4, 7, 10] {
            let r = maximum_independent_set(&gen::path(n), B);
            assert!(r.optimal);
            assert_eq!(r.set.len(), n.div_ceil(2), "n = {n}");
            assert!(is_independent_set(&gen::path(n), &r.set));
        }
    }

    #[test]
    fn cycle_alpha() {
        for n in [3usize, 4, 5, 8, 11] {
            let r = maximum_independent_set(&gen::cycle(n), B);
            assert!(r.optimal);
            assert_eq!(r.set.len(), n / 2, "n = {n}");
        }
    }

    #[test]
    fn complete_graph_alpha_one() {
        let r = maximum_independent_set(&gen::complete(8), B);
        assert!(r.optimal);
        assert_eq!(r.set.len(), 1);
    }

    #[test]
    fn bipartite_alpha() {
        let r = maximum_independent_set(&gen::complete_bipartite(4, 7), B);
        assert!(r.optimal);
        assert_eq!(r.set.len(), 7);
    }

    #[test]
    fn grid_alpha_is_half() {
        // α of a 2D grid = ⌈n/2⌉ (checkerboard)
        let g = gen::grid(5, 5);
        let r = maximum_independent_set(&g, B);
        assert!(r.optimal);
        assert_eq!(r.set.len(), 13);
        assert!(is_independent_set(&g, &r.set));
    }

    #[test]
    fn star_alpha() {
        let r = maximum_independent_set(&gen::star(9), B);
        assert_eq!(r.set.len(), 8);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = gen::seeded_rng(150);
        for _ in 0..20 {
            let g = gen::gnm(12, 18, &mut rng);
            let r = maximum_independent_set(&g, B);
            assert!(r.optimal);
            let brute = brute_force_alpha(&g);
            assert_eq!(r.set.len(), brute, "mismatch on {g:?}");
        }
    }

    #[test]
    fn planar_cluster_sized_instance() {
        let mut rng = gen::seeded_rng(151);
        let g = gen::random_planar(150, 0.5, &mut rng);
        let r = maximum_independent_set(&g, B);
        assert!(r.optimal, "exhausted after {} nodes", r.nodes);
        assert!(is_independent_set(&g, &r.set));
        assert!(r.set.len() >= greedy_mis(&g).len());
    }

    #[test]
    fn greedy_meets_density_bound() {
        let mut rng = gen::seeded_rng(152);
        let g = gen::stacked_triangulation(100, &mut rng);
        let d = g.edge_density(); // < 3
        let bound = (g.n() as f64 / (2.0 * d + 1.0)).floor() as usize;
        assert!(greedy_mis(&g).len() >= bound);
    }

    #[test]
    fn budget_exhaustion_keeps_incumbent() {
        let mut rng = gen::seeded_rng(153);
        let g = gen::erdos_renyi(40, 0.3, &mut rng);
        let r = maximum_independent_set(&g, 5);
        assert!(!r.optimal);
        assert!(is_independent_set(&g, &r.set));
        assert!(!r.set.is_empty());
    }

    fn brute_force_alpha(g: &Graph) -> usize {
        let n = g.n();
        let mut best = 0;
        'outer: for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
            for &v in &set {
                for u in g.neighbor_vertices(v) {
                    if mask >> u & 1 == 1 {
                        continue 'outer;
                    }
                }
            }
            best = best.max(set.len());
        }
        best
    }
}
