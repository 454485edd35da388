//! Branch-and-bound equivalence suite.
//!
//! `mis::maximum_independent_set` keeps its search state in bitsets and
//! one undo trail. This suite keeps the *old* solver — `Vec<bool>` state, a
//! rescan of `0..n` per reduction, a `Vec` per `take` — alive verbatim as a
//! test-only reference and checks that both walk the same search tree:
//! `set`, `optimal` and `nodes` agree field for field on proptest graphs
//! and on a dozen generator families, at budgets that exhaust at the root,
//! in the middle of the tree, and not at all.

use lcg_graph::{gen, Graph, GraphBuilder};
use lcg_solvers::mis::{greedy_mis, maximum_independent_set, MisResult};
use proptest::prelude::*;

/// The pre-bitset `maximum_independent_set`, verbatim.
fn reference_mis(g: &Graph, budget: u64) -> MisResult {
    let n = g.n();
    let incumbent = greedy_mis(g);
    let mut solver = Solver {
        g,
        adj: (0..n).map(|v| g.neighbor_vertices(v).collect()).collect(),
        active: vec![true; n],
        deg: (0..n).map(|v| g.degree(v)).collect(),
        current: Vec::new(),
        best: incumbent.clone(),
        nodes: 0,
        budget,
        exhausted: false,
    };
    solver.search();
    let optimal = !solver.exhausted;
    let mut set = solver.best;
    set.sort_unstable();
    MisResult {
        set,
        optimal,
        nodes: solver.nodes,
    }
}

struct Solver<'a> {
    g: &'a Graph,
    adj: Vec<Vec<usize>>,
    active: Vec<bool>,
    deg: Vec<usize>,
    current: Vec<usize>,
    best: Vec<usize>,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl Solver<'_> {
    fn remove(&mut self, v: usize) {
        debug_assert!(self.active[v]);
        self.active[v] = false;
        for i in 0..self.adj[v].len() {
            let u = self.adj[v][i];
            if self.active[u] {
                self.deg[u] -= 1;
            }
        }
    }

    fn restore(&mut self, v: usize) {
        debug_assert!(!self.active[v]);
        self.active[v] = true;
        for i in 0..self.adj[v].len() {
            let u = self.adj[v][i];
            if self.active[u] {
                self.deg[u] += 1;
            }
        }
    }

    fn take(&mut self, v: usize) -> Vec<usize> {
        let mut removed = vec![v];
        self.remove(v);
        for i in 0..self.adj[v].len() {
            let u = self.adj[v][i];
            if self.active[u] {
                self.remove(u);
                removed.push(u);
            }
        }
        self.current.push(v);
        removed
    }

    fn undo_take(&mut self, removed: Vec<usize>) {
        self.current.pop();
        for &u in removed.iter().rev() {
            self.restore(u);
        }
    }

    fn upper_bound(&self) -> usize {
        let mut matched = vec![false; self.g.n()];
        let mut matching = 0usize;
        let mut count = 0usize;
        for v in 0..self.g.n() {
            if !self.active[v] {
                continue;
            }
            count += 1;
            if matched[v] {
                continue;
            }
            for &u in &self.adj[v] {
                if self.active[u] && !matched[u] && u > v {
                    matched[v] = true;
                    matched[u] = true;
                    matching += 1;
                    break;
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
        let n = self.g.n();
        let mut reduction_stack: Vec<Vec<usize>> = Vec::new();
        loop {
            let mut applied = false;
            for v in 0..n {
                if self.active[v] && self.deg[v] <= 1 {
                    reduction_stack.push(self.take(v));
                    applied = true;
                    break;
                }
            }
            if !applied {
                break;
            }
        }
        let remaining: Vec<usize> = (0..n).filter(|&v| self.active[v]).collect();
        if remaining.is_empty() {
            if self.current.len() > self.best.len() {
                self.best = self.current.clone();
            }
        } else if self.current.len() + self.upper_bound() > self.best.len() {
            let v = *remaining
                .iter()
                .max_by_key(|&&v| self.deg[v])
                .expect("branch taken only while vertices remain");
            if self.deg[v] == 2 {
                let extra = self.solve_cycles(&remaining);
                if self.current.len() + extra.len() > self.best.len() {
                    let mut cand = self.current.clone();
                    cand.extend(extra);
                    self.best = cand;
                }
            } else {
                let removed = self.take(v);
                self.search();
                self.undo_take(removed);
                if !self.exhausted {
                    self.remove(v);
                    self.search();
                    self.restore(v);
                }
            }
        }
        for removed in reduction_stack.into_iter().rev() {
            self.undo_take(removed);
        }
    }

    fn solve_cycles(&self, remaining: &[usize]) -> Vec<usize> {
        let mut visited = vec![false; self.g.n()];
        let mut picked = Vec::new();
        for &s in remaining {
            if visited[s] {
                continue;
            }
            let mut cycle = vec![s];
            visited[s] = true;
            let mut prev = s;
            let mut cur = s;
            loop {
                let next = self.adj[cur]
                    .iter()
                    .copied()
                    .find(|&u| self.active[u] && u != prev && !visited[u]);
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
            let take = cycle.len() / 2;
            for i in 0..take {
                picked.push(cycle[2 * i]);
            }
        }
        picked
    }
}

/// Root exhaustion, mid-tree exhaustion twice, and the benchmark's budget.
const BUDGETS: [u64; 4] = [1, 50, 5_000, 300_000];

fn assert_same(name: &str, g: &Graph, budgets: &[u64]) {
    for &budget in budgets {
        let old = reference_mis(g, budget);
        let new = maximum_independent_set(g, budget);
        let at = format!("{name} (n = {}, m = {}), budget {budget}", g.n(), g.m());
        assert_eq!(new.nodes, old.nodes, "nodes differ on {at}");
        assert_eq!(new.optimal, old.optimal, "optimal differs on {at}");
        assert_eq!(new.set, old.set, "set differs on {at}");
    }
}

fn shuffled(g: &Graph, seed: u64) -> Graph {
    gen::shuffle_vertices(g, &mut gen::seeded_rng(seed))
}

#[test]
fn generator_families_agree_at_every_budget() {
    let mut rng = gen::seeded_rng(2201);
    let families: Vec<(&str, Graph)> = vec![
        ("gnm(40, 80)", gen::gnm(40, 80, &mut rng)),
        ("gnm(70, 120)", gen::gnm(70, 120, &mut rng)),
        ("erdos_renyi(45, 0.2)", gen::erdos_renyi(45, 0.2, &mut rng)),
        ("random_planar(150)", gen::random_planar(150, 0.5, &mut rng)),
        ("random_planar(300)", gen::random_planar(300, 0.7, &mut rng)),
        (
            "stacked_triangulation(120)",
            gen::stacked_triangulation(120, &mut rng),
        ),
        (
            "grid_with_noise(9, 9)",
            gen::grid_with_noise(9, 9, 0.1, &mut rng),
        ),
        ("ktree(90, 3)", gen::ktree(90, 3, &mut rng)),
        (
            "partial_ktree(130, 4)",
            gen::partial_ktree(130, 4, 0.6, &mut rng),
        ),
        ("series_parallel(100)", gen::series_parallel(100, &mut rng)),
        ("torus_grid(7, 9)", gen::torus_grid(7, 9)),
        ("hypercube(6)", gen::hypercube(6)),
        ("random_tree(200)", gen::random_tree(200, &mut rng)),
        ("complete(9)", gen::complete(9)),
        ("star(30)", gen::star(30)),
        ("empty", GraphBuilder::new(0).build()),
        ("edgeless(70)", GraphBuilder::new(70).build()),
    ];
    for (name, g) in &families {
        assert_same(name, g, &BUDGETS);
    }
}

#[test]
fn shuffled_triangulated_grids_agree() {
    // the repo benchmark's family: one cluster, the search exhausts
    for (side, seed) in [(8usize, 1u64), (11, 2), (16, 3)] {
        let g = shuffled(&gen::triangulated_grid(side, side), seed);
        assert_same(&format!("shuffled triangulated_grid({side})"), &g, &BUDGETS);
    }
    assert_same(
        "triangulated_grid(16)",
        &gen::triangulated_grid(16, 16),
        &BUDGETS,
    );
}

#[test]
fn cycle_residues_reach_solve_cycles() {
    // pure cycles are all-degree-2 at the root; the tailed ones get there
    // through pendant reductions, the chorded ones through a branch
    let cycles = gen::cycle(7)
        .disjoint_union(&gen::cycle(10))
        .disjoint_union(&gen::cycle(3));
    assert_same("cycles 7 + 10 + 3", &cycles, &BUDGETS);
    assert_same("shuffled cycles", &shuffled(&cycles, 4), &BUDGETS);
    let mut b = GraphBuilder::new(30);
    for v in 0..20 {
        b.add_edge(v, (v + 1) % 20);
    }
    b.add_edge(0, 10); // chord: the branch on it leaves paths or cycles
    for v in 20..29 {
        b.add_edge(v, v + 1); // a tail hanging off the cycle
    }
    b.add_edge(5, 20);
    let g = b.build();
    assert_same("chorded cycle with a tail", &g, &BUDGETS);
    assert_same(
        "chorded cycle with a tail, shuffled",
        &shuffled(&g, 5),
        &BUDGETS,
    );
}

#[test]
fn disconnected_unions_agree() {
    let mut rng = gen::seeded_rng(2202);
    let g = gen::random_planar(60, 0.5, &mut rng)
        .disjoint_union(&gen::cycle(9))
        .disjoint_union(&gen::gnm(30, 55, &mut rng))
        .disjoint_union(&gen::path(5));
    assert_same("planar + cycle + gnm + path", &g, &BUDGETS);
    assert_same("shuffled union", &shuffled(&g, 6), &BUDGETS);
}

#[test]
fn word_boundaries_agree() {
    // n not a multiple of 64, n exactly on a boundary, and n > 4 words
    let mut rng = gen::seeded_rng(2203);
    for n in [63usize, 64, 65, 127, 129, 257, 300, 321] {
        let g = gen::random_planar(n, 0.6, &mut rng);
        assert_same(&format!("random_planar({n})"), &g, &[1, 50, 5_000]);
        let h = gen::gnm(n, 2 * n, &mut rng);
        assert_same(&format!("gnm({n}, {})", 2 * n), &h, &[1, 50, 5_000]);
    }
}

/// Random simple graphs on 1..=70 vertices, sparse to moderately dense.
fn graphs() -> impl Strategy<Value = Graph> {
    (1usize..=70)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..=3 * n)))
        .prop_map(|(n, pairs)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_graphs_agree(g in graphs(), pick in 0usize..8, small in 2u64..400) {
        // half the cases at the suite's fixed budgets, half anywhere below 400
        let budget = BUDGETS.get(pick).copied().unwrap_or(small);
        let old = reference_mis(&g, budget);
        let new = maximum_independent_set(&g, budget);
        prop_assert_eq!(new.nodes, old.nodes);
        prop_assert_eq!(new.optimal, old.optimal);
        prop_assert_eq!(new.set, old.set);
    }
}
