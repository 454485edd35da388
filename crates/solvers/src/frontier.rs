//! Exact maximum-weight independent set by dynamic programming over a
//! vertex order — the middle stage of `treedp::mwis_auto`, between the
//! width-bounded tree DP and branch-and-bound.
//!
//! A vertex order is a path decomposition. Process the vertices in order
//! and keep, as the state, which vertices of the *frontier* (processed
//! vertices that still have an unprocessed neighbour) were chosen; the
//! value of a state is the best weight of a partial solution that ends in
//! it. Only independent subsets of the frontier are ever reached, so on a
//! graph whose frontier is path-like the tables are Fibonacci-sized, not
//! `2^w`: a triangulated grid read corner to corner has an anti-diagonal
//! as its frontier, and its 16 × 16 instance — where min-degree elimination
//! reads width 24–27 and branch-and-bound exhausts any budget — is
//! 185 253 states in all.
//!
//! Everything depends on the order, so it is chosen by what the DP pays
//! for: Cuthill–McKee per component, from the candidate start whose
//! frontier *profile* `(max, Σ)` is smallest. Eccentricity alone is the
//! wrong score — from the wrong corner of a triangulated grid the BFS
//! layers are L-shaped and the frontier doubles.
//!
//! The DP is bounded three ways. More than 64 frontier vertices do not fit
//! a mask: the pre-pass sees that and no table is built. The table sizes
//! are charged, state for node, against the caller's branch-and-bound
//! budget, and against [`STATE_CAP`] whatever the caller passes. And per
//! step only a 4-byte back-pointer per state is retained, next to the two
//! live tables. Declining is free of side effects: the caller runs
//! branch-and-bound exactly as if the DP had not been tried.

use lcg_graph::Graph;

/// Most states one run keeps, whatever budget it is handed: bounds the
/// back-pointer store at 4 MB and keeps a predecessor index in 31 bits.
const STATE_CAP: u64 = 1 << 20;

/// Candidate start vertices scored per component.
const MAX_STARTS: usize = 8;

/// What one attempt did, solved or not. The dispatchers read `solution`;
/// the work counters are what the module's tests hold the budget and the
/// memory rule to.
#[cfg_attr(not(test), expect(dead_code, reason = "the work counters are read by the module's tests only"))]
pub(crate) struct FrontierDp {
    /// `(weight, set)` of a maximum-weight independent set, the set in id
    /// order; `None` if the order was rejected or a budget ran out.
    pub(crate) solution: Option<(u64, Vec<usize>)>,
    /// Table entries kept, over all steps: what the budget is charged.
    pub(crate) states: u64,
    /// Back-pointers retained, over all steps (one `u32` each).
    pub(crate) retained: usize,
}

/// Frontier sizes of an order: `(max, Σ)` over its steps.
type Profile = (usize, u64);

/// Builds Cuthill–McKee orders and scores them; the scratch arrays are
/// shared by every BFS of one graph.
struct Orderer<'a> {
    g: &'a Graph,
    /// `seen[v] == epoch` iff the running BFS has reached `v`.
    seen: Vec<u32>,
    epoch: u32,
    /// Position of each vertex in the order last scored, and the position
    /// of its last neighbour (0 if it has none).
    pos: Vec<u32>,
    last: Vec<u32>,
    /// Per step of the order being scored: entries minus exits.
    delta: Vec<i32>,
}

impl<'a> Orderer<'a> {
    fn new(g: &'a Graph) -> Self {
        Orderer {
            g,
            seen: vec![0; g.n()],
            epoch: 0,
            pos: vec![0; g.n()],
            last: vec![0; g.n()],
            delta: Vec::new(),
        }
    }

    /// Cuthill–McKee order of `start`'s component: BFS, the unseen
    /// neighbours of a vertex enqueued by `(degree, id)`. Also returns the
    /// index at which the last BFS level begins.
    fn cuthill_mckee(&mut self, start: usize) -> (Vec<u32>, usize) {
        self.epoch += 1;
        self.seen[start] = self.epoch;
        let mut order = vec![start as u32];
        // the current level is order[level..level_end]
        let (mut level, mut level_end, mut head) = (0, 1, 0);
        while head < order.len() {
            if head == level_end {
                (level, level_end) = (level_end, order.len());
            }
            let v = order[head] as usize;
            head += 1;
            let first_new = order.len();
            for &u in self.g.neighbor_row(v) {
                if self.seen[u as usize] != self.epoch {
                    self.seen[u as usize] = self.epoch;
                    order.push(u);
                }
            }
            order[first_new..].sort_unstable_by_key(|&u| (self.g.degree(u as usize), u));
        }
        (order, level)
    }

    /// The frontier after step `t` holds the vertices at positions `≤ t`
    /// with a neighbour at a position `> t`; one pass over the rows, which
    /// leaves `pos` and `last` filled in for `order`.
    fn profile(&mut self, order: &[u32]) -> Profile {
        for (t, &v) in order.iter().enumerate() {
            self.pos[v as usize] = t as u32;
        }
        self.delta.clear();
        self.delta.resize(order.len(), 0);
        for (t, &v) in order.iter().enumerate() {
            let row = self.g.neighbor_row(v as usize);
            let last = row.iter().map(|&u| self.pos[u as usize]).max().unwrap_or(0);
            self.last[v as usize] = last;
            if last as usize > t {
                self.delta[t] += 1;
                self.delta[last as usize] -= 1;
            }
        }
        let (mut size, mut max, mut sum) = (0i64, 0i64, 0u64);
        for &d in &self.delta {
            size += i64::from(d);
            max = max.max(size);
            sum += size as u64;
        }
        (max as usize, sum)
    }

    /// The order of `root`'s component with the smallest profile among
    /// the Cuthill–McKee orders of a few pseudo-peripheral starts: the
    /// two double-sweep endpoints, then the far levels they were picked
    /// from.
    fn best_component_order(&mut self, root: usize) -> (Vec<u32>, Profile) {
        let low_degree = |g: &Graph, level: &[u32]| {
            level
                .iter()
                .copied()
                .min_by_key(|&v| (g.degree(v as usize), v))
                .expect("a BFS level is never empty")
        };
        let (from_root, far) = self.cuthill_mckee(root);
        let a = low_degree(self.g, &from_root[far..]);
        let (from_a, far_a) = self.cuthill_mckee(a as usize);
        let b = low_degree(self.g, &from_a[far_a..]);
        let mut starts = vec![a];
        for &v in [b].iter().chain(&from_a[far_a..]).chain(&from_root[far..]) {
            if starts.len() < MAX_STARTS && !starts.contains(&v) {
                starts.push(v);
            }
        }
        let mut best = (self.profile(&from_a), from_a);
        for &s in &starts[1..] {
            let (order, _) = self.cuthill_mckee(s as usize);
            let profile = self.profile(&order);
            if profile < best.0 {
                best = (profile, order);
            }
        }
        (best.1, best.0)
    }

    /// All components, each in its best order, in order of smallest id.
    fn best_order(&mut self) -> (Vec<u32>, Profile) {
        let n = self.g.n();
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let (mut max, mut sum) = (0, 0);
        for root in 0..n {
            if placed[root] {
                continue;
            }
            let (component, profile) = self.best_component_order(root);
            for &v in &component {
                placed[v as usize] = true;
            }
            order.extend(component);
            max = max.max(profile.0);
            sum += profile.1;
        }
        (order, (max, sum))
    }
}

/// Exact maximum-weight independent set of `g`, building at most
/// `min(budget, STATE_CAP)` table entries.
pub(crate) fn max_weight_independent_set(g: &Graph, weights: &[u64], budget: u64) -> FrontierDp {
    assert_eq!(weights.len(), g.n(), "one weight per vertex");
    let mut orderer = Orderer::new(g);
    let (order, (max_frontier, _)) = orderer.best_order();
    if max_frontier > 64 {
        return FrontierDp {
            solution: None,
            states: 0,
            retained: 0,
        };
    }
    // scored once more as a whole, for the positions it leaves behind:
    // "processed" is `pos[u] < t`, "leaves here" is `last[u] == t`
    orderer.profile(&order);
    let (pos, last) = (&orderer.pos, &orderer.last);
    let limit = budget.min(STATE_CAP);

    // frontier vertices sit in recycled bit slots of the state mask
    let mut slot_bit = vec![0u64; g.n()];
    let mut free_slots = u64::MAX;
    // tables: (mask, value), sorted by mask, masks distinct
    let mut table: Vec<(u64, u64)> = vec![(0, 0)];
    // candidates: (mask, value, predecessor index << 1 | took)
    let mut candidates: Vec<(u64, u64, u32)> = Vec::new();
    let mut back: Vec<Box<[u32]>> = Vec::with_capacity(order.len());
    let mut states = 0u64;
    let mut within_budget = true;
    for (t, &v) in order.iter().enumerate() {
        let v = v as usize;
        let (mut conflicts, mut leaving) = (0u64, 0u64);
        for &u in g.neighbor_row(v) {
            let u = u as usize;
            if (pos[u] as usize) < t {
                conflicts |= slot_bit[u];
                if last[u] as usize == t {
                    leaving |= slot_bit[u];
                }
            }
        }
        free_slots |= leaving;
        let own = if last[v] as usize > t {
            let bit = 1u64 << free_slots.trailing_zeros();
            free_slots &= !bit;
            bit
        } else {
            0
        };
        slot_bit[v] = own;

        candidates.clear();
        for (i, &(mask, value)) in table.iter().enumerate() {
            let kept = mask & !leaving;
            let i = (i as u32) << 1;
            candidates.push((kept, value, i));
            if mask & conflicts == 0 {
                candidates.push((kept | own, value + weights[v], i | 1));
            }
        }
        // of the ways into one mask keep the heaviest, then the one from
        // the smallest predecessor, then the one that skipped `v`
        candidates
            .sort_unstable_by_key(|&(mask, value, from)| (mask, std::cmp::Reverse(value), from));
        candidates.dedup_by_key(|c| c.0);
        if states + candidates.len() as u64 > limit {
            within_budget = false;
            break;
        }
        states += candidates.len() as u64;
        table.clear();
        table.extend(candidates.iter().map(|&(mask, value, _)| (mask, value)));
        back.push(candidates.iter().map(|&(_, _, from)| from).collect());
    }
    let solution = within_budget.then(|| {
        // every frontier has emptied: one state is left, the optimum
        debug_assert!(table.len() == 1 && table[0].0 == 0);
        let weight = table[0].1;
        let mut set = Vec::new();
        let mut state = 0usize;
        for (step, &v) in back.iter().zip(&order).rev() {
            let from = step[state];
            if from & 1 == 1 {
                set.push(v as usize);
            }
            state = (from >> 1) as usize;
        }
        set.sort_unstable();
        debug_assert!(crate::mis::is_independent_set(g, &set));
        debug_assert_eq!(weight, set.iter().map(|&v| weights[v]).sum::<u64>());
        (weight, set)
    });
    FrontierDp {
        solution,
        states,
        retained: back.iter().map(|b| b.len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mis, treedp};
    use lcg_graph::gen;
    use rand::Rng;

    /// The benchmark's node budget for one leader solve.
    const BENCH_BUDGET: u64 = 300_000;

    fn solved(g: &Graph, weights: &[u64], budget: u64) -> (u64, Vec<usize>) {
        let run = max_weight_independent_set(g, weights, budget);
        let (weight, set) = run.solution.expect("the DP fits the budget");
        assert!(mis::is_independent_set(g, &set));
        assert_eq!(weight, set.iter().map(|&v| weights[v]).sum::<u64>());
        // the memory rule: one u32 per state kept, nothing else
        assert_eq!(run.retained as u64, run.states);
        assert!(run.states <= budget.min(STATE_CAP));
        (weight, set)
    }

    fn alpha(g: &Graph, budget: u64) -> usize {
        solved(g, &vec![1; g.n()], budget).0 as usize
    }

    /// `apps-trigrid` instance `index`, as `benchmark/src/workloads` builds it.
    fn benchmark_instance(index: u64) -> Graph {
        fn splitmix64(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let seed = splitmix64(0x5EED_0F7A_B1E5 ^ index);
        gen::shuffle_vertices(&gen::triangulated_grid(16, 16), &mut gen::seeded_rng(seed))
    }

    #[test]
    fn agrees_with_branch_and_bound_on_small_random_graphs() {
        let mut rng = gen::seeded_rng(2210);
        for case in 0..240 {
            let n = rng.gen_range(1..=26);
            let m = rng.gen_range(0..=(2 * n).min(n * (n - 1) / 2));
            let mut g = gen::gnm(n, m, &mut rng);
            if case % 3 == 0 {
                g = g.disjoint_union(&gen::cycle(rng.gen_range(3..=7)));
            }
            let exact = mis::maximum_independent_set(&g, 10_000_000);
            assert!(exact.optimal);
            assert_eq!(alpha(&g, 1_000_000), exact.set.len(), "case {case}: {g:?}");
            let w: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(0..=30)).collect();
            let exact = mis::maximum_weight_independent_set(&g, &w, 10_000_000);
            assert!(exact.optimal);
            assert_eq!(
                solved(&g, &w, 1_000_000).0,
                exact.set.iter().map(|&v| w[v]).sum::<u64>(),
                "case {case}: {g:?} {w:?}"
            );
        }
    }

    #[test]
    fn agrees_with_the_tree_dp_on_weighted_ktrees() {
        let mut rng = gen::seeded_rng(2211);
        for k in [2usize, 3, 4] {
            for _ in 0..4 {
                let g = gen::ktree(60, k, &mut rng);
                let w: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(1..=50)).collect();
                let td = treedp::min_degree_decomposition(&g, k + 1).expect("width k");
                let (tree_w, _) = treedp::mwis_on_tree_decomposition(&g, &td, &w);
                assert_eq!(solved(&g, &w, 1_000_000).0, tree_w, "k = {k}");
            }
        }
    }

    #[test]
    fn benchmark_grids_are_solved_inside_the_benchmark_budget() {
        for index in 0..5 {
            assert_eq!(
                alpha(&benchmark_instance(index), BENCH_BUDGET),
                86,
                "instance {index}"
            );
        }
    }

    #[test]
    fn wrong_corner_is_not_chosen() {
        // id 0 is the corner whose BFS layers are L-shaped; an order from
        // there has a frontier of 31 (23) and fits no budget
        assert_eq!(alpha(&gen::triangulated_grid(16, 16), BENCH_BUDGET), 86);
        assert_eq!(alpha(&gen::triangulated_grid(12, 12), BENCH_BUDGET), 48);
        assert_eq!(alpha(&gen::grid(12, 12), BENCH_BUDGET), 72);
    }

    #[test]
    fn frontier_beyond_a_mask_is_declined_without_table_work() {
        for g in [gen::complete(70), gen::complete_bipartite(66, 70)] {
            let run = max_weight_independent_set(&g, &vec![1; g.n()], u64::MAX);
            assert!(run.solution.is_none());
            assert_eq!((run.states, run.retained), (0, 0));
        }
        // 64 is still a mask
        assert_eq!(alpha(&gen::complete(65), 1_000_000), 1);
    }

    #[test]
    fn declines_at_the_budget() {
        let g = benchmark_instance(0);
        let unit = vec![1; g.n()];
        let needed = max_weight_independent_set(&g, &unit, BENCH_BUDGET).states;
        let run = max_weight_independent_set(&g, &unit, needed - 1);
        assert!(run.solution.is_none());
        assert!(run.states < needed && run.retained as u64 == run.states);
        assert!(max_weight_independent_set(&g, &unit, needed)
            .solution
            .is_some());
    }

    #[test]
    fn declines_at_the_internal_cap_whatever_the_budget() {
        // a 30-wide grid has a path of 30 as its frontier: more than 2^20
        // independent subsets before the first row is done
        let g = gen::grid(30, 30);
        let run = max_weight_independent_set(&g, &vec![1; g.n()], u64::MAX);
        assert!(run.solution.is_none());
        assert!(run.states <= STATE_CAP && run.retained as u64 == run.states);
    }

    #[test]
    fn two_runs_give_the_same_set() {
        let g = benchmark_instance(1);
        let mut rng = gen::seeded_rng(2212);
        let w: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(1..=9)).collect();
        assert_eq!(solved(&g, &w, BENCH_BUDGET), solved(&g, &w, BENCH_BUDGET));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        assert_eq!(alpha(&lcg_graph::GraphBuilder::new(0).build(), 10), 0);
        assert_eq!(alpha(&lcg_graph::GraphBuilder::new(7).build(), 10), 7);
    }
}
