//! Vertex-weighted maximum independent set.
//!
//! The paper's Theorem 1.2 is unweighted; §1.1 surveys the weighted
//! CONGEST literature (\[10\], \[66\]). This module provides the exact
//! weighted branch-and-bound, the last stage of `treedp::mwis_auto` when
//! some weight is not 1: a weighted-MAXIS leader reaches it only when
//! both DPs decline (the `lcg-core::apps` experiments report the measured
//! ratios of that extension).

use lcg_graph::Graph;

/// Result of a weighted MIS computation.
#[derive(Debug, Clone)]
pub struct WmisResult {
    /// Chosen vertices.
    pub set: Vec<usize>,
    /// Total weight.
    pub weight: u64,
    /// `true` iff proven optimal.
    pub optimal: bool,
    /// Search nodes.
    pub nodes: u64,
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

/// Exact maximum-weight independent set by branch-and-bound (include /
/// exclude the heaviest active vertex; bound = current + all remaining
/// weight minus, per greedily-matched active edge, the lighter endpoint).
pub fn maximum_weight_independent_set(g: &Graph, weights: &[u64], budget: u64) -> WmisResult {
    let n = g.n();
    assert_eq!(weights.len(), n, "one weight per vertex");
    let greedy = greedy_weighted_mis(g, weights);
    let mut s = Solver {
        g,
        w: weights,
        active: vec![true; n],
        current: Vec::new(),
        current_w: 0,
        best_w: greedy.iter().map(|&v| weights[v]).sum(),
        best: greedy,
        nodes: 0,
        budget,
        exhausted: false,
    };
    s.search();
    let mut set = s.best;
    set.sort_unstable();
    WmisResult {
        weight: set.iter().map(|&v| weights[v]).sum(),
        set,
        optimal: !s.exhausted,
        nodes: s.nodes,
    }
}

struct Solver<'a> {
    g: &'a Graph,
    w: &'a [u64],
    active: Vec<bool>,
    current: Vec<usize>,
    current_w: u64,
    best: Vec<usize>,
    best_w: u64,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl<'a> Solver<'a> {
    fn upper_bound(&self) -> u64 {
        // all remaining weight, minus the lighter endpoint of each edge in
        // a greedy maximal matching on active vertices
        let mut total = 0u64;
        let mut matched = vec![false; self.g.n()];
        let mut discount = 0u64;
        for v in 0..self.g.n() {
            if !self.active[v] {
                continue;
            }
            total += self.w[v];
            if matched[v] {
                continue;
            }
            for u in self.g.neighbor_vertices(v) {
                if u > v && self.active[u] && !matched[u] {
                    matched[v] = true;
                    matched[u] = true;
                    discount += self.w[v].min(self.w[u]);
                    break;
                }
            }
        }
        total - discount
    }

    fn take(&mut self, v: usize) -> Vec<usize> {
        let mut removed = vec![v];
        self.active[v] = false;
        for u in self.g.neighbor_vertices(v) {
            if self.active[u] {
                self.active[u] = false;
                removed.push(u);
            }
        }
        self.current.push(v);
        self.current_w += self.w[v];
        removed
    }

    fn undo(&mut self, removed: Vec<usize>, took: bool) {
        if took {
            let v = *self
                .current
                .last()
                .expect("took implies a vertex was pushed");
            self.current.pop();
            self.current_w -= self.w[v];
        }
        for u in removed {
            self.active[u] = true;
        }
    }

    fn search(&mut self) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.exhausted = true;
            return;
        }
        if self.current_w + self.upper_bound() <= self.best_w {
            return;
        }
        // pick the heaviest active vertex
        let v = match (0..self.g.n())
            .filter(|&v| self.active[v])
            .max_by_key(|&v| (self.w[v], self.g.degree(v)))
        {
            None => {
                if self.current_w > self.best_w {
                    self.best_w = self.current_w;
                    self.best = self.current.clone();
                }
                return;
            }
            Some(v) => v,
        };
        // isolated active vertices are always taken
        let isolated = !self.g.neighbor_vertices(v).any(|u| self.active[u]);
        let removed = self.take(v);
        self.search();
        self.undo(removed, true);
        if self.exhausted || isolated {
            return;
        }
        self.active[v] = false;
        self.search();
        self.active[v] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;
    use rand::Rng;

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
            let mis = crate::mis::maximum_independent_set(&g, B);
            assert_eq!(r.weight as usize, mis.set.len());
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
        assert_eq!(r.weight, 100);
        // leaves weight 30: take leaves instead
        let w = vec![100, 30, 30, 30, 30, 30];
        let r = maximum_weight_independent_set(&g, &w, B);
        assert_eq!(r.weight, 150);
    }

    #[test]
    fn matches_brute_force() {
        let mut rng = gen::seeded_rng(311);
        for _ in 0..15 {
            let g = gen::gnm(11, 18, &mut rng);
            let w = rand_weights(11, 20, &mut rng);
            let r = maximum_weight_independent_set(&g, &w, B);
            assert!(r.optimal);
            assert_eq!(r.weight, brute_force(&g, &w), "{g:?} {w:?}");
            assert!(crate::mis::is_independent_set(&g, &r.set));
        }
    }

    #[test]
    fn greedy_meets_turan_bound() {
        let mut rng = gen::seeded_rng(312);
        let g = gen::stacked_triangulation(60, &mut rng);
        let w = rand_weights(60, 50, &mut rng);
        let set = greedy_weighted_mis(&g, &w);
        assert!(crate::mis::is_independent_set(&g, &set));
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
        assert!(r.weight >= greedy);
    }

    fn brute_force(g: &lcg_graph::Graph, w: &[u64]) -> u64 {
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
}
