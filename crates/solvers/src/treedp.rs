//! Tree decompositions and dynamic programming on them.
//!
//! The paper's framework covers *bounded-treewidth* graphs (k-trees and
//! their subgraphs are `K_{k+2}`-minor-free). For those families, cluster
//! leaders do not need branch-and-bound: a tree decomposition of width
//! `w` supports exact maximum (weight) independent set in `O(2^w · w · n)`
//! and exact minimum dominating set in `O(3^w · poly(w) · n)` time. This
//! module builds decompositions by elimination ordering (exact width `k`
//! on k-trees via their perfect elimination ordering; a min-degree
//! heuristic otherwise) and runs the classic DPs.
//!
//! Used by the solver dispatchers so that bounded-treewidth clusters of
//! *any* size are solved exactly, where branch-and-bound would blow up.
//! For independent sets the dispatcher ([`mwis_auto`]) has a second exact
//! stage before branch-and-bound: where min-degree elimination gives up
//! (grids: width ~√n), a DP over a vertex *order* (the private `frontier`
//! module) still finishes whenever the order's frontier has few
//! independent subsets.

use std::collections::{BTreeMap, BTreeSet};

use lcg_graph::Graph;

use crate::frontier;

/// A tree decomposition: bags arranged in a rooted tree.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// Vertex bags; `bags[i]` is sorted.
    pub bags: Vec<Vec<usize>>,
    /// Parent of each bag (`usize::MAX` for the root).
    pub parent: Vec<usize>,
    /// Width = max bag size − 1.
    pub width: usize,
}

const NO_PARENT: usize = usize::MAX;

impl TreeDecomposition {
    /// Children lists derived from `parent`.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.bags.len()];
        for (b, &p) in self.parent.iter().enumerate() {
            if p != NO_PARENT {
                ch[p].push(b);
            }
        }
        ch
    }

    /// Validates the three tree-decomposition axioms against `g`:
    /// every vertex in some bag; every edge inside some bag; for each
    /// vertex the bags containing it form a connected subtree.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let n = g.n();
        let mut seen = vec![false; n];
        for bag in &self.bags {
            for &v in bag {
                if v >= n {
                    return Err(format!("vertex {v} out of range"));
                }
                seen[v] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("some vertex in no bag".into());
        }
        'edges: for (_, u, v) in g.edges() {
            for bag in &self.bags {
                if bag.binary_search(&u).is_ok() && bag.binary_search(&v).is_ok() {
                    continue 'edges;
                }
            }
            return Err(format!("edge ({u},{v}) in no bag"));
        }
        // connectivity of occurrence sets
        for v in 0..n {
            let occ: Vec<usize> = (0..self.bags.len())
                .filter(|&b| self.bags[b].binary_search(&v).is_ok())
                .collect();
            if occ.is_empty() {
                continue;
            }
            let occ_set: BTreeSet<usize> = occ.iter().copied().collect();
            // walk up from each occurrence; within the occurrence subtree,
            // all but one (the top) must have their parent also occurring
            let tops = occ
                .iter()
                .filter(|&&b| {
                    let p = self.parent[b];
                    p == NO_PARENT || !occ_set.contains(&p)
                })
                .count();
            if tops != 1 {
                return Err(format!("occurrences of {v} are not connected"));
            }
        }
        Ok(())
    }
}

/// Builds a tree decomposition by eliminating vertices in min-degree
/// order — degree in the fill graph, ties broken by id; no fill count is
/// computed. Exact width `k` on k-trees (their
/// construction order reversed is a perfect elimination ordering that
/// min-degree recovers); a good heuristic on their subgraphs.
///
/// Returns `None` if the produced width exceeds `max_width` (the
/// dispatchers then try the frontier DP, then branch-and-bound).
pub fn min_degree_decomposition(g: &Graph, max_width: usize) -> Option<TreeDecomposition> {
    let n = g.n();
    if n == 0 {
        return Some(TreeDecomposition {
            bags: vec![Vec::new()],
            parent: vec![NO_PARENT],
            width: 0,
        });
    }
    // dynamic fill graph as adjacency sets
    let mut adj: Vec<BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbor_vertices(v).collect())
        .collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut elim_bag: Vec<Vec<usize>> = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| (adj[v].len(), v))
            .expect("n iterations eliminate exactly n vertices");
        let nb: Vec<usize> = adj[v].iter().copied().collect();
        if nb.len() > max_width {
            return None;
        }
        // bag = {v} ∪ N(v); make N(v) a clique (fill)
        let mut bag = nb.clone();
        bag.push(v);
        bag.sort_unstable();
        elim_bag.push(bag);
        order.push(v);
        for i in 0..nb.len() {
            for j in (i + 1)..nb.len() {
                adj[nb[i]].insert(nb[j]);
                adj[nb[j]].insert(nb[i]);
            }
        }
        for &u in &nb {
            adj[u].remove(&v);
        }
        eliminated[v] = true;
    }
    // assemble tree: bag i's parent is the elimination bag of the first
    // later-eliminated vertex in bag i (standard construction)
    let mut elim_pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        elim_pos[v] = i;
    }
    let k = elim_bag.len();
    let mut parent = vec![NO_PARENT; k];
    for i in 0..k {
        let v = order[i];
        let next = elim_bag[i]
            .iter()
            .copied()
            .filter(|&u| u != v)
            .min_by_key(|&u| elim_pos[u]);
        if let Some(u) = next {
            parent[i] = elim_pos[u];
        }
    }
    let width = elim_bag.iter().map(|b| b.len()).max().unwrap_or(1) - 1;
    Some(TreeDecomposition {
        bags: elim_bag,
        parent,
        width,
    })
}

/// Exact maximum-weight independent set via DP over the elimination-order
/// decomposition: processes bags leaves-to-root; each table maps
/// (independent subset of the bag ∩ parent interface) → best weight.
///
/// Complexity `O(2^width · width · n)`. Returns `(weight, set)`.
///
/// # Panics
///
/// Panics if `weights.len() != g.n()` or the decomposition is for a
/// different graph (debug validation).
pub fn mwis_on_tree_decomposition(
    g: &Graph,
    td: &TreeDecomposition,
    weights: &[u64],
) -> (u64, Vec<usize>) {
    assert_eq!(weights.len(), g.n(), "one weight per vertex");
    debug_assert!(td.validate(g).is_ok());
    let children = td.children();
    let roots: Vec<usize> = (0..td.bags.len())
        .filter(|&b| td.parent[b] == NO_PARENT)
        .collect();
    // state: subsets of a bag encoded as bitmask over the sorted bag
    // DP entry: mask over bag -> (weight, chosen vertex list)
    type Table = BTreeMap<u64, (u64, Vec<usize>)>;

    fn independent(g: &Graph, bag: &[usize], mask: u64) -> bool {
        let chosen: Vec<usize> = bag
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect();
        for i in 0..chosen.len() {
            for j in (i + 1)..chosen.len() {
                if g.has_edge(chosen[i], chosen[j]) {
                    return false;
                }
            }
        }
        true
    }

    // post-order DP
    fn solve(
        b: usize,
        g: &Graph,
        td: &TreeDecomposition,
        children: &[Vec<usize>],
        weights: &[u64],
    ) -> Table {
        let bag = &td.bags[b];
        let child_tables: Vec<(usize, Table)> = children[b]
            .iter()
            .map(|&c| (c, solve(c, g, td, children, weights)))
            .collect();
        let mut table = Table::new();
        let sz = bag.len();
        for mask in 0u64..(1 << sz) {
            if !independent(g, bag, mask) {
                continue;
            }
            let mut weight: u64 = (0..sz)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| weights[bag[i]])
                .sum();
            let mut chosen: Vec<usize> = (0..sz)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| bag[i])
                .collect();
            let mut feasible = true;
            for (c, ct) in &child_tables {
                let cbag = &td.bags[*c];
                // the child's mask must agree with ours on shared vertices;
                // pick the best child entry consistent with `mask`
                let mut best: Option<&(u64, Vec<usize>)> = None;
                'entries: for (cmask, entry) in ct {
                    for (i, &v) in cbag.iter().enumerate() {
                        if let Ok(j) = bag.binary_search(&v) {
                            if (cmask >> i & 1) != (mask >> j as u64 & 1) {
                                continue 'entries;
                            }
                        }
                    }
                    if best.is_none_or(|b| entry.0 > b.0) {
                        best = Some(entry);
                    }
                }
                match best {
                    None => {
                        feasible = false;
                        break;
                    }
                    Some((w, set)) => {
                        // add child's contribution minus double-counted
                        // shared chosen vertices
                        let shared: u64 = cbag
                            .iter()
                            .filter(|&&v| {
                                bag.binary_search(&v).is_ok() && set.contains(&v)
                            })
                            .map(|&v| weights[v])
                            .sum();
                        weight += w - shared;
                        for &v in set {
                            if !chosen.contains(&v) {
                                chosen.push(v);
                            }
                        }
                    }
                }
            }
            if feasible {
                let e = table.entry(mask).or_insert((0, Vec::new()));
                if weight > e.0 || (weight == 0 && e.1.is_empty() && mask == 0) {
                    *e = (weight, chosen);
                }
            }
        }
        table
    }

    let mut total = 0u64;
    let mut set = Vec::new();
    for r in roots {
        let t = solve(r, g, td, &children, weights);
        if let Some((w, s)) = t.values().max_by_key(|(w, _)| *w) {
            total += *w;
            set.extend(s.iter().copied());
        }
    }
    set.sort_unstable();
    set.dedup();
    (total, set)
}

/// Exact maximum independent set size on a bounded-treewidth graph:
/// convenience wrapper with unit weights.
pub fn mis_on_tree_decomposition(g: &Graph, td: &TreeDecomposition) -> (usize, Vec<usize>) {
    let (w, set) = mwis_on_tree_decomposition(g, td, &vec![1u64; g.n()]);
    (w as usize, set)
}

/// Exact minimum dominating set via 3-state DP over the decomposition:
/// every bag vertex is **In** the set, **Dominated** by a chosen vertex,
/// or **Waiting** (must be dominated later — by a bag vertex of an
/// ancestor bag it also appears in). `O(3^w)` states per bag.
///
/// Returns `(size, set)`.
pub fn mds_on_tree_decomposition(g: &Graph, td: &TreeDecomposition) -> (usize, Vec<usize>) {
    debug_assert!(td.validate(g).is_ok());
    let children = td.children();
    let roots: Vec<usize> = (0..td.bags.len())
        .filter(|&b| td.parent[b] == NO_PARENT)
        .collect();

    // state per bag vertex: 0 = In, 1 = Dominated, 2 = Waiting
    // encode as base-3 number over the sorted bag
    type Table = BTreeMap<u64, (usize, Vec<usize>)>;

    fn digits(mut code: u64, len: usize) -> Vec<u8> {
        let mut d = vec![0u8; len];
        for x in d.iter_mut() {
            *x = (code % 3) as u8;
            code /= 3;
        }
        d
    }

    /// Is `state` locally consistent: an In vertex dominates its In/Dominated
    /// neighbors; a Dominated vertex must have an In neighbor *within the
    /// bag* OR be covered by a descendant (checked via child tables) —
    /// local check only requires: no Waiting vertex has an In bag-neighbor
    /// (it would be dominated, contradiction), and Dominated-ness is
    /// certified either by a bag In-neighbor or carried up from children.
    fn locally_ok(g: &Graph, bag: &[usize], st: &[u8]) -> bool {
        for (i, &v) in bag.iter().enumerate() {
            if st[i] == 2 {
                // Waiting must not already be dominated inside the bag
                for (j, &u) in bag.iter().enumerate() {
                    if st[j] == 0 && g.has_edge(u, v) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn encode(st: &[u8]) -> u64 {
        st.iter().rev().fold(0u64, |acc, &d| acc * 3 + d as u64)
    }

    fn solve(
        b: usize,
        g: &Graph,
        td: &TreeDecomposition,
        children: &[Vec<usize>],
    ) -> Table {
        let bag = &td.bags[b].clone();
        let sz = bag.len();
        // Base tables: every locally-consistent bag state, counting only
        // the bag's own In vertices; Dominated marks must be explained by
        // an In bag-neighbor (children may later upgrade Waiting to
        // Dominated via joins).
        let mut table = Table::new();
        let states = 3u64.pow(sz as u32);
        for code in 0..states {
            let st = digits(code, sz);
            if !locally_ok(g, bag, &st) {
                continue;
            }
            // Dominated must be certified by an In neighbor inside the bag
            // at the base level.
            let certified = (0..sz).all(|i| {
                st[i] != 1
                    || bag
                        .iter()
                        .enumerate()
                        .any(|(j, &u)| st[j] == 0 && g.has_edge(u, bag[i]))
            });
            if !certified {
                continue;
            }
            let cost = st.iter().filter(|&&s| s == 0).count();
            let chosen: Vec<usize> = (0..sz)
                .filter(|&i| st[i] == 0)
                .map(|i| bag[i])
                .collect();
            let e = table.entry(code).or_insert((usize::MAX, Vec::new()));
            if cost < e.0 {
                *e = (cost, chosen);
            }
        }
        // Join children one at a time: enumerate (acc entry, child entry)
        // pairs that agree on In-ness of shared vertices; the combined
        // status of a shared non-In vertex is Dominated if either side
        // certifies it. Child-exclusive vertices must not be Waiting.
        for &c in &children[b] {
            let ct = solve(c, g, td, children);
            let cbag = &td.bags[c];
            let mut joined = Table::new();
            for (&acode, (acost, aset)) in &table {
                let ast = digits(acode, sz);
                'entries: for (&ccode, (ccost, cset)) in &ct {
                    let cst = digits(ccode, cbag.len());
                    let mut combined = ast.clone();
                    let mut shared_in = 0usize;
                    for (ci, &v) in cbag.iter().enumerate() {
                        if let Ok(bi) = bag.binary_search(&v) {
                            if (ast[bi] == 0) != (cst[ci] == 0) {
                                continue 'entries;
                            }
                            if ast[bi] != 0 && cst[ci] == 1 {
                                combined[bi] = 1; // child certifies
                            }
                            if ast[bi] == 0 {
                                shared_in += 1;
                            }
                        } else if cst[ci] == 2 {
                            // occurrence ends below: dead obligation
                            continue 'entries;
                        }
                    }
                    let cost = acost + ccost - shared_in;
                    let code = encode(&combined);
                    let e = joined.entry(code).or_insert((usize::MAX, Vec::new()));
                    if cost < e.0 {
                        let mut set = aset.clone();
                        for &v in cset {
                            if !set.contains(&v) {
                                set.push(v);
                            }
                        }
                        *e = (cost, set);
                    }
                }
            }
            table = joined;
        }
        table
    }

    let mut total = 0usize;
    let mut set = Vec::new();
    for r in roots {
        let t = solve(r, g, td, &children);
        // root: no Waiting vertices allowed
        let best = t
            .iter()
            .filter(|(code, _)| {
                let st = digits(**code, td.bags[r].len());
                st.iter().all(|&s| s != 2)
            })
            .min_by_key(|(_, (c, _))| *c);
        let (c, s) = best.map(|(_, e)| e.clone()).expect("root has a feasible state");
        total += c;
        set.extend(s);
    }
    set.sort_unstable();
    set.dedup();
    (total, set)
}

/// Dispatcher for minimum dominating set: tree-decomposition DP when the
/// min-degree heuristic certifies small width (3^w states — keep
/// `width_limit ≤ 8`), branch-and-bound otherwise. Returns
/// `(set, proven_optimal)`.
pub fn mds_auto(g: &Graph, width_limit: usize, bnb_budget: u64) -> (Vec<usize>, bool) {
    if let Some(td) = min_degree_decomposition(g, width_limit) {
        let (_, set) = mds_on_tree_decomposition(g, &td);
        return (set, true);
    }
    let r = crate::mds::minimum_dominating_set(g, bnb_budget);
    (r.set, r.optimal)
}

/// Dispatcher for maximum-weight independent set — how every leader
/// solves an independent-set cluster — cheapest exact method first:
/// tree-decomposition DP when the min-degree heuristic certifies width
/// `≤ width_limit`; else the frontier DP over a vertex order, if its
/// tables fit `bnb_budget` entries; else [`crate::mis`]'s branch-and-bound
/// with the whole of `bnb_budget`, through
/// [`crate::mis::maximum_independent_set`] when every weight is 1 (its
/// greedy incumbent) and [`crate::mis::maximum_weight_independent_set`]
/// otherwise. Returns `(set, proven_optimal)`.
///
/// # Panics
///
/// Panics if `weights.len() != g.n()`.
pub fn mwis_auto(
    g: &Graph,
    weights: &[u64],
    width_limit: usize,
    bnb_budget: u64,
) -> (Vec<usize>, bool) {
    if let Some(td) = min_degree_decomposition(g, width_limit) {
        let (_, set) = mwis_on_tree_decomposition(g, &td, weights);
        return (set, true);
    }
    if let Some((_, set)) = frontier::max_weight_independent_set(g, weights, bnb_budget).solution {
        return (set, true);
    }
    if weights.iter().all(|&w| w == 1) {
        let r = crate::mis::maximum_independent_set(g, bnb_budget);
        return (r.set, r.optimal);
    }
    let r = crate::mis::maximum_weight_independent_set(g, weights, bnb_budget);
    (r.set, r.optimal)
}

/// [`mwis_auto`] at unit weights.
pub fn mis_auto(g: &Graph, width_limit: usize, bnb_budget: u64) -> (Vec<usize>, bool) {
    mwis_auto(g, &vec![1; g.n()], width_limit, bnb_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn decomposition_of_tree_has_width_one() {
        let mut rng = gen::seeded_rng(400);
        let g = gen::random_tree(40, &mut rng);
        let td = min_degree_decomposition(&g, 4).unwrap();
        td.validate(&g).unwrap();
        assert_eq!(td.width, 1);
    }

    #[test]
    fn decomposition_of_ktree_has_width_k() {
        let mut rng = gen::seeded_rng(401);
        for k in [2usize, 3] {
            let g = gen::ktree(30, k, &mut rng);
            let td = min_degree_decomposition(&g, k + 1).unwrap();
            td.validate(&g).unwrap();
            assert_eq!(td.width, k, "k = {k}");
        }
    }

    #[test]
    fn width_limit_rejects_cliques() {
        let g = gen::complete(8);
        assert!(min_degree_decomposition(&g, 5).is_none());
        let td = min_degree_decomposition(&g, 7).unwrap();
        assert_eq!(td.width, 7);
        td.validate(&g).unwrap();
    }

    #[test]
    fn dp_matches_bnb_on_partial_ktrees() {
        let mut rng = gen::seeded_rng(402);
        for _ in 0..6 {
            let g = gen::partial_ktree(24, 3, 0.5, &mut rng);
            let td = min_degree_decomposition(&g, 6).expect("small width");
            td.validate(&g).unwrap();
            let (size, set) = mis_on_tree_decomposition(&g, &td);
            assert!(crate::mis::is_independent_set(&g, &set));
            assert_eq!(set.len(), size);
            let bnb = crate::mis::maximum_independent_set(&g, 100_000_000);
            assert!(bnb.optimal);
            assert_eq!(size, bnb.set.len());
        }
    }

    #[test]
    fn weighted_dp_matches_bnb() {
        use rand::Rng;
        let mut rng = gen::seeded_rng(403);
        for _ in 0..6 {
            let g = gen::partial_ktree(20, 2, 0.5, &mut rng);
            let w: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(1..=20)).collect();
            let td = min_degree_decomposition(&g, 5).unwrap();
            let (dp_w, set) = mwis_on_tree_decomposition(&g, &td, &w);
            assert!(crate::mis::is_independent_set(&g, &set));
            assert_eq!(dp_w, set.iter().map(|&v| w[v]).sum::<u64>());
            let bnb = crate::mis::maximum_weight_independent_set(&g, &w, 100_000_000);
            assert!(bnb.optimal);
            assert_eq!(dp_w, bnb.set.iter().map(|&v| w[v]).sum::<u64>(), "{w:?}");
        }
    }

    #[test]
    fn dp_scales_to_large_ktrees() {
        // a 600-vertex partial 3-tree: far beyond comfortable B&B, easy
        // for the DP
        let mut rng = gen::seeded_rng(404);
        let g = gen::partial_ktree(600, 3, 0.5, &mut rng);
        let td = min_degree_decomposition(&g, 8).expect("bounded width");
        let (size, set) = mis_on_tree_decomposition(&g, &td);
        assert!(crate::mis::is_independent_set(&g, &set));
        assert_eq!(set.len(), size);
        assert!(size >= g.n() / 4);
    }

    #[test]
    fn mds_dp_matches_bnb_on_trees_and_cycles() {
        let mut rng = gen::seeded_rng(407);
        for n in [5usize, 9, 14] {
            let g = gen::random_tree(n, &mut rng);
            let td = min_degree_decomposition(&g, 3).unwrap();
            let (size, set) = mds_on_tree_decomposition(&g, &td);
            assert!(crate::mds::is_dominating_set(&g, &set), "n={n} set={set:?}");
            let exact = crate::mds::minimum_dominating_set(&g, 50_000_000);
            assert!(exact.optimal);
            assert_eq!(size, exact.set.len(), "tree n={n}");
            assert_eq!(set.len(), size);
        }
        for n in [4usize, 7, 10] {
            let g = gen::cycle(n);
            let td = min_degree_decomposition(&g, 3).unwrap();
            let (size, set) = mds_on_tree_decomposition(&g, &td);
            assert!(crate::mds::is_dominating_set(&g, &set));
            assert_eq!(size, n.div_ceil(3), "cycle n={n}");
        }
    }

    #[test]
    fn mds_dp_matches_bnb_on_partial_ktrees() {
        let mut rng = gen::seeded_rng(408);
        for _ in 0..6 {
            let g = gen::partial_ktree(18, 2, 0.5, &mut rng);
            let td = min_degree_decomposition(&g, 5).unwrap();
            let (size, set) = mds_on_tree_decomposition(&g, &td);
            assert!(crate::mds::is_dominating_set(&g, &set), "{g:?}");
            let exact = crate::mds::minimum_dominating_set(&g, 200_000_000);
            assert!(exact.optimal);
            assert_eq!(size, exact.set.len(), "{g:?}");
        }
    }

    #[test]
    fn mds_dp_scales_to_large_partial_ktrees() {
        let mut rng = gen::seeded_rng(409);
        let g = gen::partial_ktree(300, 2, 0.5, &mut rng);
        let td = min_degree_decomposition(&g, 6).unwrap();
        let (size, set) = mds_on_tree_decomposition(&g, &td);
        assert!(crate::mds::is_dominating_set(&g, &set));
        assert_eq!(set.len(), size);
        // dominating sets need at least n / (Δ+1) vertices
        assert!(size >= g.n() / (g.max_degree() + 1));
    }

    #[test]
    fn auto_dispatcher_picks_dp_or_bnb() {
        use rand::Rng;
        let mut rng = gen::seeded_rng(405);
        let easy = gen::partial_ktree(40, 2, 0.5, &mut rng);
        let (_, exact) = mis_auto(&easy, 6, 1_000);
        assert!(exact); // DP, no budget issues
        let hard = gen::complete(12);
        let (set, exact) = mis_auto(&hard, 4, 1_000_000);
        assert!(exact);
        assert_eq!(set.len(), 1);
        // weighted, on `easy`: the tree DP's optimum
        let w: Vec<u64> = (0..easy.n()).map(|_| rng.gen_range(1..=20)).collect();
        let td = min_degree_decomposition(&easy, 6).unwrap();
        let (set, exact) = mwis_auto(&easy, &w, 6, 1_000);
        assert!(exact);
        let weight: u64 = set.iter().map(|&v| w[v]).sum();
        assert_eq!(weight, mwis_on_tree_decomposition(&easy, &td, &w).0);
        // both DPs decline on a 10 × 10 triangulated grid at width limit 2
        // and budget 100: branch-and-bound answers, the weighted one
        // unless every weight is 1 (at unit weights the two differ here)
        let tri = gen::triangulated_grid(10, 10);
        let w: Vec<u64> = (0..tri.n()).map(|_| rng.gen_range(1..=20)).collect();
        let unit = vec![1; tri.n()];
        assert!(min_degree_decomposition(&tri, 2).is_none());
        assert!(frontier::max_weight_independent_set(&tri, &w, 100).solution.is_none());
        assert!(frontier::max_weight_independent_set(&tri, &unit, 100).solution.is_none());
        let r = crate::mis::maximum_weight_independent_set(&tri, &w, 100);
        assert_eq!(mwis_auto(&tri, &w, 2, 100), (r.set, r.optimal));
        let r = crate::mis::maximum_independent_set(&tri, 100);
        assert_eq!(mwis_auto(&tri, &unit, 2, 100), (r.set, r.optimal));
        // with room for its tables the frontier DP answers, with the weights
        let (set, exact) = mwis_auto(&tri, &w, 2, 1_000_000);
        let dp = frontier::max_weight_independent_set(&tri, &w, 1_000_000).solution;
        assert!(exact);
        assert_eq!(Some(set.iter().map(|&v| w[v]).sum::<u64>()), dp.map(|(weight, _)| weight));
    }

    #[test]
    fn disconnected_graphs_work() {
        let mut rng = gen::seeded_rng(406);
        let g = gen::random_tree(10, &mut rng).disjoint_union(&gen::cycle(5));
        let td = min_degree_decomposition(&g, 4).unwrap();
        td.validate(&g).unwrap();
        let (size, _) = mis_on_tree_decomposition(&g, &td);
        let bnb = crate::mis::maximum_independent_set(&g, 10_000_000);
        assert_eq!(size, bnb.set.len());
    }
}
