//! Correlation clustering (agreement maximization, paper §3.3).
//!
//! The *score* of a clustering is the number of intra-cluster positive
//! edges plus inter-cluster negative edges. §3.3's key fact: the optimum
//! `γ(G)` is at least `|E|/2`, witnessed by the better of the all-singleton
//! and the one-cluster clusterings — that is [`trivial_clustering`].
//! Cluster leaders run [`best_clustering`]: exact branch-and-bound on
//! small clusters, greedy-move local search (with the trivial witness as a
//! floor) beyond.

use lcg_graph::{Graph, Sign};
use rand::Rng;

/// Score of a clustering: `Σ_i |E⁺ ∩ (V_i × V_i)| + Σ_{i<j} |E⁻ ∩ (V_i × V_j)|`.
pub fn score(g: &Graph, clustering: &[usize]) -> u64 {
    g.edges()
        .filter(|&(e, u, v)| {
            let same = clustering[u] == clustering[v];
            match g.label(e) {
                Sign::Positive => same,
                Sign::Negative => !same,
            }
        })
        .count() as u64
}

/// The better of all-singletons and everyone-together; scores at least
/// `|E|/2` (max(|E⁺|, |E⁻|) ≥ |E|/2).
pub fn trivial_clustering(g: &Graph) -> Vec<usize> {
    let positives = (0..g.m()).filter(|&e| g.label(e).is_positive()).count();
    if positives * 2 >= g.m() {
        vec![0; g.n()]
    } else {
        (0..g.n()).collect()
    }
}

/// Result of a correlation-clustering computation.
#[derive(Debug, Clone)]
pub struct ClusteringResult {
    /// Cluster label per vertex (labels are arbitrary ids).
    pub clustering: Vec<usize>,
    /// Score achieved.
    pub score: u64,
    /// `true` if found by exhaustive search (optimal).
    pub optimal: bool,
}

/// Exact maximum-agreement clustering by branch-and-bound over restricted
/// growth strings, exploring at most `budget` nodes. Returns `None` if the
/// budget is exhausted.
pub fn exact_clustering(g: &Graph, budget: u64) -> Option<ClusteringResult> {
    let n = g.n();
    // order vertices so prefixes are as connected as possible (BFS order):
    // decided edges accumulate early, tightening the bound
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([s]);
        seen[s] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for u in g.neighbor_vertices(v) {
                if !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    let init = trivial_clustering(g);
    let mut best_score = score(g, &init);
    let mut best = init;
    let mut assign = vec![usize::MAX; n];
    let mut nodes = 0u64;
    // edges from each vertex to earlier-ordered vertices
    let pos_in_order: Vec<usize> = {
        let mut p = vec![0; n];
        for (i, &v) in order.iter().enumerate() {
            p[v] = i;
        }
        p
    };
    let back_edges: Vec<Vec<(usize, Sign)>> = (0..n)
        .map(|v| {
            g.neighbors(v)
                .filter(|&(u, _)| pos_in_order[u] < pos_in_order[v])
                .map(|(u, e)| (u, g.label(e)))
                .collect()
        })
        .collect();
    // future[i]: number of edges with at least one endpoint at order
    // position >= i (upper bound on undecided contributions)
    let mut future = vec![0u64; n + 1];
    for i in (0..n).rev() {
        let v = order[i];
        future[i] = future[i + 1] + back_edges[v].len() as u64;
    }
    // also edges from v to later vertices are counted when the later
    // endpoint is placed, so future[i] counts each edge exactly once. ✓
    #[expect(clippy::too_many_arguments, reason = "the recursion's state, passed down rather than bundled")]
    fn dfs(
        i: usize,
        used: usize,
        current: u64,
        order: &[usize],
        back_edges: &[Vec<(usize, Sign)>],
        future: &[u64],
        assign: &mut Vec<usize>,
        best_score: &mut u64,
        best: &mut Vec<usize>,
        nodes: &mut u64,
        budget: u64,
    ) -> bool {
        *nodes += 1;
        if *nodes > budget {
            return false;
        }
        if i == order.len() {
            if current > *best_score {
                *best_score = current;
                *best = assign.clone();
            }
            return true;
        }
        if current + future[i] <= *best_score {
            return true; // pruned
        }
        let v = order[i];
        // try each existing cluster and one new cluster
        for c in 0..=used {
            let mut gain = 0u64;
            for &(u, sign) in &back_edges[v] {
                let same = assign[u] == c;
                if (sign.is_positive() && same) || (!sign.is_positive() && !same) {
                    gain += 1;
                }
            }
            assign[v] = c;
            let next_used = if c == used { used + 1 } else { used };
            if !dfs(
                i + 1,
                next_used,
                current + gain,
                order,
                back_edges,
                future,
                assign,
                best_score,
                best,
                nodes,
                budget,
            ) {
                assign[v] = usize::MAX;
                return false;
            }
            assign[v] = usize::MAX;
        }
        true
    }
    let finished = dfs(
        0,
        0,
        0,
        &order,
        &back_edges,
        &future,
        &mut assign,
        &mut best_score,
        &mut best,
        &mut nodes,
        budget,
    );
    if !finished {
        return None;
    }
    Some(ClusteringResult {
        score: best_score,
        clustering: best,
        optimal: true,
    })
}

/// Greedy-move local search: start from the trivial witness, repeatedly
/// move single vertices to the best adjacent cluster (or a fresh one) while
/// the score improves; a few random restarts from random clusterings.
pub fn local_search_clustering(g: &Graph, restarts: usize, rng: &mut impl Rng) -> ClusteringResult {
    let n = g.n();
    let mut best = trivial_clustering(g);
    let mut best_score = score(g, &best);
    for r in 0..=restarts {
        let mut cur: Vec<usize> = if r == 0 {
            best.clone()
        } else {
            (0..n).map(|v| if rng.gen_bool(0.5) { v } else { n }).collect()
        };
        let mut cur_score = score(g, &cur);
        loop {
            let mut improved = false;
            for v in 0..n {
                // candidate labels: neighbors' clusters plus a fresh one
                let mut cands: Vec<usize> = g.neighbor_vertices(v).map(|u| cur[u]).collect();
                cands.push(n + v); // fresh singleton label
                cands.sort_unstable();
                cands.dedup();
                let old = cur[v];
                let mut local_best = old;
                let mut local_best_delta = 0i64;
                for &c in &cands {
                    if c == old {
                        continue;
                    }
                    let mut delta = 0i64;
                    for (u, e) in g.neighbors(v) {
                        let was = cur[u] == old;
                        let now = cur[u] == c;
                        let pos = g.label(e).is_positive();
                        let before = i64::from(was == pos);
                        let after = i64::from(now == pos);
                        delta += after - before;
                    }
                    if delta > local_best_delta {
                        local_best_delta = delta;
                        local_best = c;
                    }
                }
                if local_best != old {
                    cur[v] = local_best;
                    cur_score = (cur_score as i64 + local_best_delta) as u64;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        if cur_score > best_score {
            best_score = cur_score;
            best = cur;
        }
    }
    ClusteringResult {
        clustering: best,
        score: best_score,
        optimal: false,
    }
}

/// The solver used by cluster leaders: exact for small clusters, local
/// search floored by the trivial witness otherwise.
pub fn best_clustering(g: &Graph, exact_limit: usize, rng: &mut impl Rng) -> ClusteringResult {
    if g.n() <= exact_limit {
        if let Some(r) = exact_clustering(g, 50_000_000) {
            return r;
        }
    }
    local_search_clustering(g, 2, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn all_positive_wants_one_cluster() {
        let g = gen::cycle(6); // unlabeled = all positive
        let r = exact_clustering(&g, 1_000_000).unwrap();
        assert_eq!(r.score, 6);
        let c0 = r.clustering[0];
        assert!(r.clustering.iter().all(|&c| c == c0));
    }

    #[test]
    fn all_negative_wants_singletons() {
        let g = gen::cycle(6).with_labels(vec![Sign::Negative; 6]);
        let r = exact_clustering(&g, 1_000_000).unwrap();
        assert_eq!(r.score, 6);
        let mut labels: Vec<usize> = r.clustering.clone();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn trivial_scores_at_least_half() {
        let mut rng = gen::seeded_rng(180);
        for _ in 0..10 {
            let g = gen::random_labels(gen::gnm(12, 24, &mut rng), 0.5, &mut rng);
            let t = trivial_clustering(&g);
            assert!(score(&g, &t) * 2 >= g.m() as u64);
        }
    }

    #[test]
    fn exact_beats_or_ties_everything() {
        let mut rng = gen::seeded_rng(181);
        for _ in 0..5 {
            let g = gen::random_labels(gen::gnm(9, 16, &mut rng), 0.5, &mut rng);
            let ex = exact_clustering(&g, 10_000_000).unwrap();
            let ls = local_search_clustering(&g, 3, &mut rng);
            assert!(ex.score >= ls.score);
            assert!(ex.score >= score(&g, &trivial_clustering(&g)));
            // and exact matches the brute force over partitions
            assert_eq!(ex.score, brute_force(&g));
        }
    }

    #[test]
    fn planted_partition_recovered_noiselessly() {
        let mut rng = gen::seeded_rng(182);
        let g = gen::grid(4, 4);
        let comm: Vec<usize> = (0..16).map(|v| v / 8).collect();
        let g = gen::planted_labels(g, &comm, 0.0, &mut rng);
        let r = exact_clustering(&g, 10_000_000).unwrap();
        assert_eq!(r.score, g.m() as u64); // perfect agreement achievable
    }

    #[test]
    fn local_search_improves_on_noisy_instance() {
        let mut rng = gen::seeded_rng(183);
        let g = gen::triangulated_grid(6, 6);
        let comm: Vec<usize> = (0..36).map(|v| v / 12).collect();
        let g = gen::planted_labels(g, &comm, 0.1, &mut rng);
        let ls = local_search_clustering(&g, 3, &mut rng);
        let triv = score(&g, &trivial_clustering(&g));
        assert!(ls.score >= triv);
    }

    #[test]
    fn best_clustering_dispatches() {
        let mut rng = gen::seeded_rng(184);
        let small = gen::random_labels(gen::cycle(8), 0.5, &mut rng);
        assert!(best_clustering(&small, 12, &mut rng).optimal);
        let big = gen::random_labels(gen::grid(8, 8), 0.5, &mut rng);
        assert!(!best_clustering(&big, 12, &mut rng).optimal);
    }

    /// Brute force over all set partitions via restricted growth strings.
    fn brute_force(g: &Graph) -> u64 {
        let n = g.n();
        let mut assign = vec![0usize; n];
        let mut best = 0u64;
        fn rec(i: usize, used: usize, assign: &mut Vec<usize>, g: &Graph, best: &mut u64) {
            if i == assign.len() {
                *best = (*best).max(score(g, assign));
                return;
            }
            for c in 0..=used {
                assign[i] = c;
                rec(i + 1, used.max(c + 1), assign, g, best);
            }
        }
        rec(0, 0, &mut assign, g, &mut best);
        best
    }
}
