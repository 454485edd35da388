//! Maximum (weight) independent set solvers — the sequential algorithm a
//! cluster leader runs in Theorem 1.2, and in its vertex-weighted
//! extension.
//!
//! One exact branch-and-bound serves both problems:
//! [`maximum_independent_set`] runs it at unit weights from [`greedy_mis`],
//! [`maximum_weight_independent_set`] at the caller's weights from
//! [`greedy_weighted_mis`]. Its rules are the classic unweighted ones in
//! weighted form, and at unit weights they are exactly those:
//! isolated vertices and pendant vertices at least as heavy as their
//! neighbour are taken (smallest id first); paths and cycles are solved in
//! closed form; the upper bound is the active weight minus the lighter
//! endpoint of each edge of a greedy matching; it branches on the heaviest
//! vertex of largest residual degree. The bound is weak on grid-like
//! clusters — the shuffled `triangulated_grid(16, 16)` of the repo
//! benchmark (α = 86) exhausts 300 000 nodes at incumbents of 74–81 — so
//! leaders call it through `treedp::mwis_auto`, which tries two exact DPs
//! first and reports `optimal: false` when all three give up.
//! [`greedy_mis`] is the `n/(2d+1)` greedy of §3.1, used both as a
//! lower-bound witness for `α(G) = Θ(n)` and as the unit-weight initial
//! incumbent.

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

/// Greedy weighted independent set: repeatedly take the vertex maximizing
/// `w(v) / (deg(v) + 1)` and delete its closed neighborhood. Achieves the
/// weighted Turán bound `Σ_v w(v)/(deg(v)+1)`.
pub fn greedy_weighted_mis(g: &Graph, weights: &[u64]) -> Vec<usize> {
    let n = g.n();
    assert_eq!(weights.len(), n, "one weight per vertex");
    let mut active = vec![true; n];
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut picked = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let v = (0..n)
            .filter(|&v| active[v])
            .max_by(|&a, &b| {
                let ra = weights[a] as f64 / (deg[a] + 1) as f64;
                let rb = weights[b] as f64 / (deg[b] + 1) as f64;
                ra.partial_cmp(&rb).expect("weight/degree ratios are finite")
            })
            .expect("greedy loop runs only while vertices are active");
        picked.push(v);
        let mut kill = vec![v];
        kill.extend(g.neighbor_vertices(v).filter(|&u| active[u]));
        for u in kill {
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
    solve(g, &vec![1; g.n()], greedy_mis(g), budget)
}

/// Exact maximum-weight independent set by the same branch-and-bound,
/// from the [`greedy_weighted_mis`] incumbent, exploring at most `budget`
/// search nodes. The set's weight is `Σ weights[v]` over `set`.
///
/// # Panics
///
/// Panics if `weights.len() != g.n()`.
pub fn maximum_weight_independent_set(g: &Graph, weights: &[u64], budget: u64) -> MisResult {
    solve(g, weights, greedy_weighted_mis(g, weights), budget)
}

/// The branch-and-bound both entries run, from `incumbent`.
fn solve(g: &Graph, weights: &[u64], incumbent: Vec<usize>, budget: u64) -> MisResult {
    let n = g.n();
    let words = n.div_ceil(64);
    let mut solver = Solver {
        g,
        weights,
        active: vec![0; words],
        low: vec![0; words],
        unmatched: vec![0; words],
        deg: (0..n).map(|v| g.degree(v) as u32).collect(),
        active_w: weights.iter().sum(),
        trail: Vec::with_capacity(n),
        current: Vec::new(),
        current_w: 0,
        best_w: incumbent.iter().map(|&v| weights[v]).sum(),
        best: incumbent,
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

/// Heaviest independent set of the path `p` (vertices in path order) and
/// its weight. A tie takes the earlier vertex, so at unit weights the set
/// is every other vertex from the first.
fn heaviest_on_path(weights: &[u64], p: &[usize]) -> (Vec<usize>, u64) {
    // opt[i]: the optimum of p[i..]
    let mut opt = vec![0u64; p.len() + 2];
    for i in (0..p.len()).rev() {
        opt[i] = opt[i + 1].max(weights[p[i]] + opt[i + 2]);
    }
    let mut set = Vec::new();
    let mut i = 0;
    while i < p.len() {
        if weights[p[i]] + opt[i + 2] >= opt[i + 1] {
            set.push(p[i]);
            i += 2;
        } else {
            i += 1;
        }
    }
    (set, opt[0])
}

/// Search state. A node costs what it inspects: the residual graph is the
/// `active` bitset over the host's CSR rows, every removal is logged on one
/// undo `trail` (a node undoes back to the length it started at), and the
/// reduction candidates are a bitset kept current on every degree change
/// instead of a rescan of `0..n`.
struct Solver<'a> {
    g: &'a Graph,
    weights: &'a [u64],
    active: Vec<u64>,
    /// `active` ∧ residual degree ≤ 1: isolated and pendant vertices.
    low: Vec<u64>,
    /// Scratch of [`Solver::upper_bound`]: `active` minus the matched.
    unmatched: Vec<u64>,
    /// Residual degree of the active vertices; an inactive vertex keeps the
    /// degree it was removed at, which is the one it is restored to.
    deg: Vec<u32>,
    /// Total weight of the active vertices.
    active_w: u64,
    /// Removed vertices, in removal order.
    trail: Vec<u32>,
    current: Vec<usize>,
    current_w: u64,
    best: Vec<usize>,
    best_w: u64,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl Solver<'_> {
    fn remove(&mut self, v: usize) {
        debug_assert!(has_bit(&self.active, v));
        clear_bit(&mut self.active, v);
        clear_bit(&mut self.low, v);
        self.active_w -= self.weights[v];
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
    /// last removed first, and drops every vertex taken since `current`
    /// had length `taken`.
    fn undo_to(&mut self, (mark, taken): (usize, usize)) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail is longer than the mark") as usize;
            set_bit(&mut self.active, v);
            self.active_w += self.weights[v];
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
        for v in self.current.drain(taken..) {
            self.current_w -= self.weights[v];
        }
    }

    /// The lengths [`Solver::undo_to`] returns to.
    fn mark(&self) -> (usize, usize) {
        (self.trail.len(), self.current.len())
    }

    /// Takes `v` into the set: removes `N[v]`.
    fn take(&mut self, v: usize) {
        self.remove(v);
        for &u in self.g.neighbor_row(v) {
            if has_bit(&self.active, u as usize) {
                self.remove(u as usize);
            }
        }
        self.current.push(v);
        self.current_w += self.weights[v];
    }

    /// Whether some optimum of the residual graph contains `v` (one of
    /// `low`): `v` is isolated, or a pendant at least as heavy as its one
    /// neighbour.
    fn reducible(&self, v: usize) -> bool {
        self.deg[v] == 0
            || self.g.neighbor_row(v).iter().any(|&u| {
                has_bit(&self.active, u as usize) && self.weights[v] >= self.weights[u as usize]
            })
    }

    /// Upper bound: active weight minus, per edge of a greedy maximal
    /// matching, its lighter endpoint (a matched edge keeps at most one).
    /// Vertices ascending, each matched to its first unmatched active
    /// neighbour of larger id. At unit weights: active count minus
    /// matching size.
    fn upper_bound(&mut self) -> u64 {
        self.unmatched.copy_from_slice(&self.active);
        let mut discount = 0u64;
        for w in 0..self.unmatched.len() {
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
                    discount += self.weights[v].min(self.weights[u]);
                }
            }
        }
        self.active_w - discount
    }

    fn search(&mut self) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.exhausted = true;
            return;
        }
        let start = self.mark();
        // reductions, smallest id first
        loop {
            let Some(v) = ones(&self.low).find(|&v| self.reducible(v)) else {
                break;
            };
            self.take(v);
        }
        if self.active.iter().all(|&word| word == 0) {
            if self.current_w > self.best_w {
                self.best.clone_from(&self.current);
                self.best_w = self.current_w;
            }
        } else if self.current_w + self.upper_bound() > self.best_w {
            if ones(&self.active).all(|v| self.deg[v] <= 2) {
                // paths and cycles: solve directly
                let (extra, extra_w) = self.solve_paths_and_cycles();
                if self.current_w + extra_w > self.best_w {
                    self.best.clone_from(&self.current);
                    self.best.extend(extra);
                    self.best_w = self.current_w + extra_w;
                }
            } else {
                // branch on the heaviest active vertex, then the one of
                // largest residual degree, then of largest id: include it,
                // then exclude it
                let v = ones(&self.active)
                    .max_by_key(|&v| (self.weights[v], self.deg[v]))
                    .expect("branch taken only while vertices remain");
                let mark = self.mark();
                self.take(v);
                self.search();
                self.undo_to(mark);
                if !self.exhausted {
                    self.remove(v);
                    self.search();
                    self.undo_to(mark);
                }
            }
        }
        self.undo_to(start);
    }

    /// Every active vertex has residual degree 1 or 2 (the reductions left
    /// none isolated): the components are paths and cycles. Each is solved
    /// along its walk — a path from an end, a cycle from its smallest id
    /// choosing between its first vertex in and out — and the union
    /// returned with its weight. At unit weights a cycle of length `L`
    /// gets `⌊L/2⌋` alternate vertices from its smallest id.
    fn solve_paths_and_cycles(&self) -> (Vec<usize>, u64) {
        let mut visited = vec![false; self.g.n()];
        let mut picked = Vec::new();
        let mut weight = 0;
        let ends = ones(&self.active).filter(|&v| self.deg[v] == 1);
        for s in ends.chain(ones(&self.active)) {
            if visited[s] {
                continue;
            }
            let walk = self.walk(s, &mut visited);
            let (set, w) = if self.deg[s] == 1 {
                heaviest_on_path(self.weights, &walk)
            } else {
                let (mut with, with_w) = heaviest_on_path(self.weights, &walk[2..walk.len() - 1]);
                let without = heaviest_on_path(self.weights, &walk[1..]);
                if self.weights[s] + with_w >= without.1 {
                    with.push(s);
                    (with, self.weights[s] + with_w)
                } else {
                    without
                }
            };
            picked.extend(set);
            weight += w;
        }
        (picked, weight)
    }

    /// The active vertices reachable from `s` along unvisited ones, in
    /// walk order, each step to the first such neighbour in CSR order;
    /// marks them visited.
    fn walk(&self, s: usize, visited: &mut [bool]) -> Vec<usize> {
        let mut walk = vec![s];
        visited[s] = true;
        let mut cur = s;
        while let Some(u) = self
            .g
            .neighbor_vertices(cur)
            .find(|&u| has_bit(&self.active, u) && !visited[u])
        {
            visited[u] = true;
            walk.push(u);
            cur = u;
        }
        walk
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
        let d = g.m() as f64 / g.n() as f64; // < 3
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

    /// The weighted entry's cases.
    mod weighted {
        use super::*;
        use rand::Rng;

        fn weight(w: &[u64], set: &[usize]) -> u64 {
            set.iter().map(|&v| w[v]).sum()
        }

        const B: u64 = 20_000_000;

        fn rand_weights(n: usize, max: u64, rng: &mut impl Rng) -> Vec<u64> {
            (0..n).map(|_| rng.gen_range(1..=max)).collect()
        }

        #[test]
        fn unit_weights_reduce_to_mis() {
            let mut rng = gen::seeded_rng(310);
            for _ in 0..10 {
                let g = gen::gnm(12, 20, &mut rng);
                let w = vec![1u64; 12];
                let r = maximum_weight_independent_set(&g, &w, B);
                assert!(r.optimal);
                let mis = maximum_independent_set(&g, B);
                assert_eq!(weight(&w, &r.set) as usize, mis.set.len());
            }
        }

        #[test]
        fn heavy_vertex_dominates() {
            // star: center weight 100, leaves weight 1 each: take center
            let g = gen::star(6);
            let mut w = vec![1u64; 6];
            w[0] = 100;
            let r = maximum_weight_independent_set(&g, &w, B);
            assert_eq!(r.set, vec![0]);
            assert_eq!(weight(&w, &r.set), 100);
            // leaves weight 30: take leaves instead
            let w = vec![100, 30, 30, 30, 30, 30];
            let r = maximum_weight_independent_set(&g, &w, B);
            assert_eq!(weight(&w, &r.set), 150);
        }

        #[test]
        fn matches_brute_force() {
            let mut rng = gen::seeded_rng(311);
            for _ in 0..15 {
                let g = gen::gnm(11, 18, &mut rng);
                let w = rand_weights(11, 20, &mut rng);
                let r = maximum_weight_independent_set(&g, &w, B);
                assert!(r.optimal);
                assert_eq!(weight(&w, &r.set), brute_force(&g, &w), "{g:?} {w:?}");
                assert!(is_independent_set(&g, &r.set));
            }
        }

        #[test]
        fn greedy_meets_turan_bound() {
            let mut rng = gen::seeded_rng(312);
            let g = gen::stacked_triangulation(60, &mut rng);
            let w = rand_weights(60, 50, &mut rng);
            let set = greedy_weighted_mis(&g, &w);
            assert!(is_independent_set(&g, &set));
            let got: u64 = set.iter().map(|&v| w[v]).sum();
            let turan: f64 = (0..60)
                .map(|v| w[v] as f64 / (g.degree(v) + 1) as f64)
                .sum();
            assert!(got as f64 >= turan.floor());
        }

        #[test]
        fn planar_instance_solves() {
            let mut rng = gen::seeded_rng(313);
            let g = gen::random_planar(80, 0.5, &mut rng);
            let w = rand_weights(80, 100, &mut rng);
            let r = maximum_weight_independent_set(&g, &w, 200_000_000);
            assert!(r.optimal, "exhausted after {} nodes", r.nodes);
            let greedy: u64 = greedy_weighted_mis(&g, &w).iter().map(|&v| w[v]).sum();
            assert!(weight(&w, &r.set) >= greedy);
        }

        fn brute_force(g: &Graph, w: &[u64]) -> u64 {
            let n = g.n();
            let mut best = 0;
            'outer: for mask in 0u32..(1 << n) {
                for v in 0..n {
                    if mask >> v & 1 == 0 {
                        continue;
                    }
                    for u in g.neighbor_vertices(v) {
                        if mask >> u & 1 == 1 {
                            continue 'outer;
                        }
                    }
                }
                let weight: u64 = (0..n).filter(|&v| mask >> v & 1 == 1).map(|v| w[v]).sum();
                best = best.max(weight);
            }
            best
        }

        #[test]
        fn paths_and_cycles_match_brute_force() {
            // the closed form's components, including weight-0 vertices and
            // the lighter pendants the reductions leave
            let mut rng = gen::seeded_rng(314);
            let graphs = (1..=10).map(gen::path).chain((3..=10).map(gen::cycle));
            for g in graphs {
                for _ in 0..20 {
                    let w: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(0..=30)).collect();
                    let r = maximum_weight_independent_set(&g, &w, B);
                    assert!(r.optimal);
                    assert!(is_independent_set(&g, &r.set));
                    assert_eq!(weight(&w, &r.set), brute_force(&g, &w), "{g:?} {w:?}");
                }
            }
        }

        #[test]
        fn lighter_pendant_is_not_taken() {
            let (g, w) = (gen::path(3), [1, 5, 1]);
            let r = maximum_weight_independent_set(&g, &w, B);
            assert!(r.optimal);
            assert_eq!(r.set, vec![1]);
            // from an empty incumbent, so the greedy's {1} cannot hide a
            // pendant taken against its heavier neighbour
            assert_eq!(solve(&g, &w, Vec::new(), B).set, vec![1]);
        }
    }
}
