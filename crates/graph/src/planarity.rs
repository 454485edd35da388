//! Left–right planarity testing (de Fraysseix–Rosenstiehl criterion, in the
//! formulation of Brandes' *"The left-right planarity test"*).
//!
//! This is the exact test cluster leaders run in Theorem 1.4's property
//! tester for `P = planar`. The implementation follows the classic two-phase
//! structure: a DFS orientation computing lowpoints and nesting depths,
//! followed by a DFS that maintains a stack of conflict pairs of intervals
//! of back edges; the graph is planar iff no conflict ever forces a back
//! edge onto both sides.
//!
//! Also provided: [`is_outerplanar`] (via the apex-vertex reduction) and
//! [`is_forest`], the other two fast exact property checks shipped with the
//! property tester.

use crate::graph::{Graph, GraphBuilder};

/// Returns `true` iff the graph is planar.
///
/// Runs in `O((n + m) log n)` time (the log comes from sorting adjacency
/// lists by nesting depth). Dense graphs are rejected immediately via the
/// Euler bound `m ≤ 3n − 6`.
///
/// # Examples
///
/// ```
/// use lcg_graph::gen;
/// use lcg_graph::planarity::is_planar;
///
/// assert!(is_planar(&gen::grid(10, 10)));
/// assert!(!is_planar(&gen::complete(5)));
/// assert!(!is_planar(&gen::complete_bipartite(3, 3)));
/// ```
pub fn is_planar(g: &Graph) -> bool {
    if g.n() >= 3 && g.m() > 3 * g.n() - 6 {
        return false;
    }
    if g.n() < 5 || g.m() < 9 {
        // Fewer than 5 vertices, or fewer edges than K5/K3,3 require:
        // any such graph is planar (no K5 or K3,3 subdivision can exist).
        return true;
    }
    // The DFS is recursive; planar graphs can have Θ(n) DFS depth, so run
    // the test on a dedicated thread with a large stack.
    let g = g.clone();
    std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(move || LrPlanarity::new(&g).run())
        .expect("failed to spawn planarity-test thread")
        .join()
        .expect("planarity test panicked")
}

/// Returns `true` iff the graph is outerplanar.
///
/// Uses the classical reduction: `G` is outerplanar iff `G` plus one apex
/// vertex adjacent to everything is planar.
pub fn is_outerplanar(g: &Graph) -> bool {
    if g.n() >= 2 && g.m() > 2 * g.n() - 3 {
        return false; // outerplanar graphs have at most 2n - 3 edges
    }
    let n = g.n();
    let mut b = GraphBuilder::new(n + 1);
    for (_, u, v) in g.edges() {
        b.add_edge(u, v);
    }
    for v in 0..n {
        b.add_edge(v, n);
    }
    is_planar(&b.build())
}

/// Returns `true` iff the graph is a forest (acyclic).
pub fn is_forest(g: &Graph) -> bool {
    let (_, k) = g.connected_components();
    g.m() + k == g.n()
}

const NONE: usize = usize::MAX;

/// One side of a conflict pair: an interval `[low, high]` in a chain of
/// back edges linked through `ref_`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Interval {
    low: usize,
    high: usize,
}

impl Interval {
    fn empty_interval() -> Interval {
        Interval { low: NONE, high: NONE }
    }
    fn is_empty(&self) -> bool {
        self.low == NONE && self.high == NONE
    }
}

#[derive(Clone, Copy, Debug)]
struct ConflictPair {
    left: Interval,
    right: Interval,
}

impl ConflictPair {
    fn new() -> ConflictPair {
        ConflictPair {
            left: Interval::empty_interval(),
            right: Interval::empty_interval(),
        }
    }
    fn swap(&mut self) {
        std::mem::swap(&mut self.left, &mut self.right);
    }
}

/// State of the left-right planarity test. Edges are identified by their
/// undirected edge id in the input graph; each edge is oriented exactly once
/// by the first DFS.
struct LrPlanarity<'a> {
    g: &'a Graph,
    height: Vec<usize>,
    /// Parent edge id of each vertex in the DFS forest.
    parent_edge: Vec<usize>,
    /// Orientation chosen by the DFS: `orient_to[e]` is the head of edge `e`.
    orient_to: Vec<usize>,
    oriented: Vec<bool>,
    lowpt: Vec<usize>,
    lowpt2: Vec<usize>,
    nesting_depth: Vec<usize>,
    /// Adjacency of the DFS orientation, sorted by nesting depth.
    ordered_adj: Vec<Vec<usize>>,
    ref_: Vec<usize>,
    side: Vec<i8>,
    lowpt_edge: Vec<usize>,
    /// Stack height recorded when edge `e` started being processed.
    stack_bottom: Vec<usize>,
    s: Vec<ConflictPair>,
}

impl<'a> LrPlanarity<'a> {
    fn new(g: &'a Graph) -> LrPlanarity<'a> {
        let n = g.n();
        let m = g.m();
        LrPlanarity {
            g,
            height: vec![NONE; n],
            parent_edge: vec![NONE; n],
            orient_to: vec![NONE; m],
            oriented: vec![false; m],
            lowpt: vec![0; m],
            lowpt2: vec![0; m],
            nesting_depth: vec![0; m],
            ordered_adj: vec![Vec::new(); n],
            ref_: vec![NONE; m],
            side: vec![1; m],
            lowpt_edge: vec![NONE; m],
            stack_bottom: vec![0; m],
            s: Vec::new(),
        }
    }

    fn run(mut self) -> bool {
        let n = self.g.n();
        // Phase 1: orientation.
        for root in 0..n {
            if self.height[root] == NONE {
                self.height[root] = 0;
                self.dfs_orient(root);
            }
        }
        // Sort adjacency by nesting depth.
        for v in 0..n {
            let mut adj: Vec<usize> = self
                .g
                .neighbors(v)
                .filter(|&(_, e)| self.orient_to[e] != v && self.orient_to[e] != NONE)
                .map(|(_, e)| e)
                .collect();
            adj.sort_by_key(|&e| self.nesting_depth[e]);
            self.ordered_adj[v] = adj;
        }
        // Phase 2: testing.
        for root in 0..n {
            if self.parent_edge[root] == NONE && !self.dfs_test(root) {
                return false;
            }
        }
        true
    }

    /// Tail of oriented edge `e` (the vertex it leaves).
    fn tail(&self, e: usize) -> usize {
        let (u, v) = self.g.endpoints(e);
        if self.orient_to[e] == v {
            u
        } else {
            v
        }
    }

    fn dfs_orient(&mut self, v0: usize) {
        // Recursive DFS, run on a big-stack thread by `is_planar`.
        let v = v0;
        let pe = self.parent_edge[v];
        let neighbors: Vec<(usize, usize)> = self.g.neighbors(v).collect();
        for (w, e) in neighbors {
            if self.oriented[e] {
                continue;
            }
            self.oriented[e] = true;
            self.orient_to[e] = w;
            self.lowpt[e] = self.height[v];
            self.lowpt2[e] = self.height[v];
            if self.height[w] == NONE {
                // tree edge
                self.parent_edge[w] = e;
                self.height[w] = self.height[v] + 1;
                self.dfs_orient(w);
            } else {
                // back edge
                self.lowpt[e] = self.height[w];
            }
            // nesting depth
            self.nesting_depth[e] = 2 * self.lowpt[e];
            if self.lowpt2[e] < self.height[v] {
                self.nesting_depth[e] += 1; // chordal
            }
            // propagate lowpoints to the parent edge
            if pe != NONE {
                if self.lowpt[e] < self.lowpt[pe] {
                    self.lowpt2[pe] = self.lowpt[pe].min(self.lowpt2[e]);
                    self.lowpt[pe] = self.lowpt[e];
                } else if self.lowpt[e] > self.lowpt[pe] {
                    self.lowpt2[pe] = self.lowpt2[pe].min(self.lowpt[e]);
                } else {
                    self.lowpt2[pe] = self.lowpt2[pe].min(self.lowpt2[e]);
                }
            }
        }
    }

    fn dfs_test(&mut self, v: usize) -> bool {
        let pe = self.parent_edge[v];
        let adj = self.ordered_adj[v].clone();
        for (i, &e) in adj.iter().enumerate() {
            self.stack_bottom[e] = self.s.len();
            let w = self.orient_to[e];
            if self.parent_edge[w] == e {
                // tree edge
                if !self.dfs_test(w) {
                    return false;
                }
            } else {
                // back edge
                self.lowpt_edge[e] = e;
                let mut p = ConflictPair::new();
                p.right = Interval { low: e, high: e };
                self.s.push(p);
            }
            if self.lowpt[e] < self.height[v] {
                // e has a return edge
                if i == 0 {
                    if pe != NONE {
                        self.lowpt_edge[pe] = self.lowpt_edge[e];
                    }
                } else if !self.add_constraints(e, pe) {
                    return false;
                }
            }
        }
        if pe != NONE {
            self.remove_back_edges(pe);
        }
        true
    }

    fn conflicting(&self, i: Interval, b: usize) -> bool {
        !i.is_empty() && self.lowpt[i.high] > self.lowpt[b]
    }

    fn lowest(&self, p: &ConflictPair) -> usize {
        match (p.left.is_empty(), p.right.is_empty()) {
            (true, true) => unreachable!("empty conflict pair on stack"),
            (true, false) => self.lowpt[p.right.low],
            (false, true) => self.lowpt[p.left.low],
            (false, false) => self.lowpt[p.left.low].min(self.lowpt[p.right.low]),
        }
    }

    fn add_constraints(&mut self, ei: usize, pe: usize) -> bool {
        let mut p = ConflictPair::new();
        // Merge return edges of ei into p.right.
        loop {
            let mut q = self.s.pop().expect("stack underflow merging return edges");
            if !q.left.is_empty() {
                q.swap();
            }
            if !q.left.is_empty() {
                return false; // not planar
            }
            debug_assert!(pe != NONE);
            if self.lowpt[q.right.low] > self.lowpt[pe] {
                // merge intervals
                if p.right.is_empty() {
                    p.right.high = q.right.high;
                } else {
                    self.ref_[p.right.low] = q.right.high;
                }
                p.right.low = q.right.low;
            } else {
                // align
                self.ref_[q.right.low] = self.lowpt_edge[pe];
            }
            if self.s.len() == self.stack_bottom[ei] {
                break;
            }
        }
        // Merge conflicting return edges of e_1..e_{i-1} into p.left.
        while let Some(&top) = self.s.last() {
            if !(self.conflicting(top.left, ei) || self.conflicting(top.right, ei)) {
                break;
            }
            let mut q = self.s.pop().expect("stack non-empty: loop just peeked it");
            if self.conflicting(q.right, ei) {
                q.swap();
            }
            if self.conflicting(q.right, ei) {
                return false; // not planar
            }
            // merge interval below lowpt(ei) into p.right
            if p.right.low != NONE {
                self.ref_[p.right.low] = q.right.high;
            }
            if q.right.low != NONE {
                p.right.low = q.right.low;
            }
            if p.left.is_empty() {
                p.left.high = q.left.high;
            } else {
                self.ref_[p.left.low] = q.left.high;
            }
            p.left.low = q.left.low;
        }
        if !(p.left.is_empty() && p.right.is_empty()) {
            self.s.push(p);
        }
        true
    }

    fn remove_back_edges(&mut self, pe: usize) {
        let u = self.tail(pe);
        // Drop entire conflict pairs whose lowest return point is u.
        while let Some(top) = self.s.last() {
            if self.lowest(top) != self.height[u] {
                break;
            }
            let p = self.s.pop().expect("stack non-empty: loop just peeked it");
            if p.left.low != NONE {
                self.side[p.left.low] = -1;
            }
        }
        // Trim one more pair.
        if let Some(mut p) = self.s.pop() {
            while p.left.high != NONE && self.orient_to[p.left.high] == u {
                p.left.high = self.ref_[p.left.high];
            }
            if p.left.high == NONE && p.left.low != NONE {
                // just emptied
                self.ref_[p.left.low] = p.right.low;
                self.side[p.left.low] = -1;
                p.left.low = NONE;
            }
            while p.right.high != NONE && self.orient_to[p.right.high] == u {
                p.right.high = self.ref_[p.right.high];
            }
            if p.right.high == NONE && p.right.low != NONE {
                self.ref_[p.right.low] = p.left.low;
                self.side[p.right.low] = -1;
                p.right.low = NONE;
            }
            self.s.push(p);
        }
        // Record the side of pe (only needed for embeddings; kept for
        // parity with the reference formulation).
        if self.lowpt[pe] < self.height[u] {
            if let Some(top) = self.s.last() {
                let hl = top.left.high;
                let hr = top.right.high;
                self.ref_[pe] = if hl != NONE && (hr == NONE || self.lowpt[hl] > self.lowpt[hr]) {
                    hl
                } else {
                    hr
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn petersen() -> Graph {
        // outer 5-cycle 0..5, inner pentagram 5..10, spokes i - (i+5)
        let mut b = GraphBuilder::new(10);
        for i in 0..5 {
            b.add_edge(i, (i + 1) % 5);
            b.add_edge(5 + i, 5 + (i + 2) % 5);
            b.add_edge(i, i + 5);
        }
        b.build()
    }

    #[test]
    fn small_graphs_planar() {
        assert!(is_planar(&gen::path(1)));
        assert!(is_planar(&gen::path(4)));
        assert!(is_planar(&gen::cycle(5)));
        assert!(is_planar(&gen::complete(4)));
        assert!(is_planar(&gen::star(10)));
    }

    #[test]
    fn k5_and_k33_not_planar() {
        assert!(!is_planar(&gen::complete(5)));
        assert!(!is_planar(&gen::complete_bipartite(3, 3)));
        assert!(!is_planar(&gen::complete(6)));
    }

    #[test]
    fn k5_minus_edge_planar() {
        let g = gen::complete(5);
        let e = g.edge_id(0, 1).unwrap();
        let rest: Vec<usize> = (0..g.m()).filter(|&x| x != e).collect();
        assert!(is_planar(&g.edge_subgraph(&rest)));
    }

    #[test]
    fn petersen_not_planar() {
        assert!(!is_planar(&petersen()));
    }

    #[test]
    fn grids_planar() {
        assert!(is_planar(&gen::grid(20, 20)));
        assert!(is_planar(&gen::triangulated_grid(15, 15)));
    }

    #[test]
    fn torus_not_planar() {
        assert!(!is_planar(&gen::torus_grid(5, 5)));
        assert!(!is_planar(&gen::torus_grid(3, 3)));
    }

    #[test]
    fn hypercubes() {
        assert!(is_planar(&gen::hypercube(2)));
        assert!(is_planar(&gen::hypercube(3)));
        assert!(!is_planar(&gen::hypercube(4)));
    }

    #[test]
    fn random_triangulations_planar() {
        let mut rng = gen::seeded_rng(40);
        for n in [10usize, 50, 200, 1000] {
            let g = gen::stacked_triangulation(n, &mut rng);
            assert!(is_planar(&g), "n = {n}");
        }
    }

    #[test]
    fn random_planar_subgraphs_planar() {
        let mut rng = gen::seeded_rng(41);
        for _ in 0..5 {
            let g = gen::random_planar(300, 0.5, &mut rng);
            assert!(is_planar(&g));
        }
    }

    #[test]
    fn disjoint_nonplanar_component_detected() {
        let g = gen::grid(5, 5).disjoint_union(&gen::complete(5));
        assert!(!is_planar(&g));
        let g = gen::grid(5, 5).disjoint_union(&gen::grid(3, 3));
        assert!(is_planar(&g));
    }

    #[test]
    fn k33_subdivision_not_planar() {
        // Subdivide every edge of K3,3; subdivisions preserve non-planarity.
        let k33 = gen::complete_bipartite(3, 3);
        let mut b = GraphBuilder::new(6 + k33.m());
        for (e, u, v) in k33.edges() {
            let mid = 6 + e;
            b.add_edge(u, mid);
            b.add_edge(mid, v);
        }
        assert!(!is_planar(&b.build()));
    }

    #[test]
    fn dense_rejected_by_euler() {
        assert!(!is_planar(&gen::complete(10)));
    }

    #[test]
    fn outerplanar_checks() {
        let mut rng = gen::seeded_rng(42);
        assert!(is_outerplanar(&gen::cycle(8)));
        assert!(is_outerplanar(&gen::path(8)));
        assert!(is_outerplanar(&gen::outerplanar_maximal(20, &mut rng)));
        assert!(!is_outerplanar(&gen::complete(4))); // K4 is planar, not outerplanar
        assert!(!is_outerplanar(&gen::complete_bipartite(2, 3))); // K2,3 likewise
        assert!(is_planar(&gen::complete_bipartite(2, 3)));
        assert!(!is_outerplanar(&gen::grid(3, 3)));
    }

    #[test]
    fn forest_checks() {
        let mut rng = gen::seeded_rng(43);
        assert!(is_forest(&gen::random_tree(50, &mut rng)));
        assert!(is_forest(&gen::path(3).disjoint_union(&gen::path(4))));
        assert!(!is_forest(&gen::cycle(3)));
    }

    #[test]
    fn larger_planar_graph() {
        // deep DFS paths: a long path plus chords stays planar
        let n = 5000;
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge(i - 1, i);
        }
        for i in 0..(n - 2) {
            b.add_edge(i, i + 2);
        }
        assert!(is_planar(&b.build()));
    }
}
