//! (ε, φ) expander decompositions (paper §2, Theorems 2.1/2.2 interface).
//!
//! **Substitution note (see DESIGN.md):** the paper invokes the
//! Chang–Saranurak distributed construction; downstream algorithms consume
//! only the decomposition's *guarantees* — at most an ε fraction of edges
//! between clusters, every cluster an φ-expander. This module provides the
//! sequential reference construction: recursive spectral sweep-cut
//! splitting; small clusters are certified by exact conductance, large
//! ones carry the λ₂/2 Cheeger *estimate* of a capped power iteration,
//! which is not a certificate (see [`ClusterInfo::phi_spectral_lower`]). The
//! recursion is recorded as a tree that every split threshold re-walks, so
//! [`decompose_adaptive`] analyses each vertex set once. The distributed
//! clustering counterpart lives in [`crate::distributed`], and the
//! round-cost of leader election/gathering/broadcast is charged by the
//! framework in `lcg-core`.

use lcg_graph::Graph;

use crate::conductance;
use crate::spectral;
use crate::sweep;

/// One cluster of a decomposition, with its conductance certificates.
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// Vertices of the cluster (host-graph ids, sorted).
    pub members: Vec<usize>,
    /// Exact conductance of the induced subgraph, when small enough to
    /// compute (`n ≤ 16`); `None` for single vertices / edgeless clusters.
    pub phi_exact: Option<f64>,
    /// Cheeger estimate `λ₂/2` for larger clusters, from
    /// `spectral::lambda2(·, 1e-9, 4_000)`. `λ₂/2 ≤ Φ` holds for the true
    /// `λ₂`; the power iteration approaches it from above, so this is an
    /// **over-estimate whenever `Spectral::iterations` equals the cap** —
    /// which it does at every benchmark size — and not a certified lower
    /// bound (ROADMAP item 2 replaces it with one).
    pub phi_spectral_lower: Option<f64>,
    /// Conductance of the best sweep cut found when the split loop stopped
    /// — an upper-bound witness for Φ of the cluster.
    pub sweep_upper: Option<f64>,
}

impl ClusterInfo {
    /// The best available estimate of the cluster's conductance: exact if
    /// known, else the Cheeger estimate (an over-estimate when the power
    /// iteration stopped at its cap, see
    /// [`ClusterInfo::phi_spectral_lower`]), else 1.0 for trivial (≤ 2
    /// vertex) clusters.
    pub fn phi(&self) -> f64 {
        if let Some(p) = self.phi_exact {
            return p;
        }
        if let Some(p) = self.phi_spectral_lower {
            return p;
        }
        1.0
    }
}

/// An (ε, φ) expander decomposition of a host graph.
#[derive(Debug, Clone)]
pub struct ExpanderDecomposition {
    /// Cluster id of each vertex.
    pub cluster_of: Vec<usize>,
    /// Per-cluster information, indexed by cluster id.
    pub clusters: Vec<ClusterInfo>,
    /// Ids of inter-cluster edges.
    pub cut_edges: Vec<usize>,
    /// The conductance threshold used for splitting.
    pub phi_cut: f64,
    /// The requested ε.
    pub epsilon: f64,
}

impl ExpanderDecomposition {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.clusters.len()
    }

    /// Fraction of edges that are inter-cluster (`|E^r| / |E|`); 0 for
    /// edgeless graphs.
    pub fn cut_fraction(&self, g: &Graph) -> f64 {
        if g.m() == 0 {
            0.0
        } else {
            self.cut_edges.len() as f64 / g.m() as f64
        }
    }

    /// The minimum exact-or-estimated conductance ([`ClusterInfo::phi`]) over
    /// all non-singleton clusters (1.0 if all clusters are trivial).
    pub fn min_cluster_phi(&self) -> f64 {
        self.clusters
            .iter()
            .filter(|c| c.members.len() > 2)
            .map(|c| c.phi())
            .fold(1.0, f64::min)
    }

    /// Checks structural invariants: `cluster_of` is a partition consistent
    /// with `clusters`, every cluster induces a connected subgraph, and
    /// `cut_edges` is exactly the set of edges between different clusters.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let n = g.n();
        if self.cluster_of.len() != n {
            return Err("cluster_of length mismatch".into());
        }
        let mut seen = vec![false; n];
        for (id, c) in self.clusters.iter().enumerate() {
            if c.members.is_empty() {
                return Err(format!("cluster {id} empty"));
            }
            for &v in &c.members {
                if seen[v] {
                    return Err(format!("vertex {v} in two clusters"));
                }
                seen[v] = true;
                if self.cluster_of[v] != id {
                    return Err(format!("cluster_of[{v}] inconsistent"));
                }
            }
            let (sub, _) = g.induced_subgraph(&c.members);
            if !sub.is_connected() {
                return Err(format!("cluster {id} not connected"));
            }
        }
        if seen.iter().any(|&b| !b) {
            return Err("some vertex unassigned".into());
        }
        let boundary: std::collections::BTreeSet<usize> = g
            .edges()
            .filter(|&(_, u, v)| self.cluster_of[u] != self.cluster_of[v])
            .map(|(e, _, _)| e)
            .collect();
        let ours: std::collections::BTreeSet<usize> = self.cut_edges.iter().copied().collect();
        if boundary != ours {
            return Err("cut_edges inconsistent with clustering".into());
        }
        Ok(())
    }
}

/// Threshold below which clusters are certified by exact (exponential)
/// conductance computation.
const EXACT_LIMIT: usize = 16;

/// Computes an (ε, φ) expander decomposition with
/// `φ = ε / (4·log₂(m) + 4)` (the `φ = Ω(ε / log n)` scale that is
/// existentially optimal, per §2 of the paper).
///
/// The standard charging argument bounds the cut edges: every split
/// removes at most `φ_cut · min-side-volume` edges, and a vertex's volume
/// can be on the smaller side at most `log₂(vol)` times, so the total is
/// at most `φ_cut · vol(G) · log₂(vol(G)) / 2 ≤ ε·|E|` for this `φ_cut`.
///
/// # Examples
///
/// ```
/// use lcg_graph::gen;
/// use lcg_expander::decomp::decompose;
///
/// let mut rng = gen::seeded_rng(5);
/// let g = gen::stacked_triangulation(120, &mut rng);
/// let d = decompose(&g, 0.3);
/// d.validate(&g).unwrap();
/// assert!(d.cut_fraction(&g) <= 0.3);
/// ```
pub fn decompose(g: &Graph, epsilon: f64) -> ExpanderDecomposition {
    let m = g.m().max(2) as f64;
    let phi_cut = epsilon / (4.0 * m.log2() + 4.0);
    decompose_with_phi(g, epsilon, phi_cut)
}

/// Adaptive expander decomposition: finds the **largest** split threshold
/// (by halving from `ε/2`) whose measured cut fraction still respects the
/// ε budget, then returns that decomposition.
///
/// Rationale: the `φ = Θ(ε/log n)` of [`decompose`] is the *worst-case*
/// threshold under the charging argument; on sparse real instances the
/// cuts found are far cheaper than the worst case, so much larger φ (and
/// hence much better-connected, smaller clusters) fit the same budget.
/// The returned decomposition always satisfies the Theorem 2.6 cut
/// contract *by construction* — the adaptivity only trades cluster
/// granularity. At laptop sizes the conservative φ keeps most sparse
/// graphs in one cluster; this is the variant the framework uses so the
/// multi-cluster machinery is actually exercised (see EXPERIMENTS.md E1).
pub fn decompose_adaptive(g: &Graph, epsilon: f64) -> ExpanderDecomposition {
    let mut phi = epsilon / 2.0;
    let floor = {
        let m = g.m().max(2) as f64;
        epsilon / (4.0 * m.log2() + 4.0)
    };
    // one tree under every candidate: a split of conductance < φ/2 is a
    // split of conductance < φ, so each later pass re-walks recorded nodes
    let mut tree = Tree::new(g);
    loop {
        let d = tree.emit(g, epsilon, phi);
        if g.m() == 0 || (d.cut_edges.len() as f64) <= epsilon * g.m() as f64 {
            return d;
        }
        phi /= 2.0;
        if phi < floor {
            return tree.emit(g, epsilon, floor);
        }
    }
}

/// Expander decomposition with an explicit split threshold `phi_cut`:
/// recursively split along any sweep cut of conductance `< phi_cut`.
pub fn decompose_with_phi(g: &Graph, epsilon: f64, phi_cut: f64) -> ExpanderDecomposition {
    Tree::new(g).emit(g, epsilon, phi_cut)
}

/// The recursion, recorded. What it learns about a vertex set does not
/// depend on the split threshold — φ only decides which nodes are leaves —
/// so every node is analysed at most once however many thresholds walk
/// the tree ([`Tree::emit`]).
struct Tree {
    /// Node 0 is the whole graph; children follow their parent.
    nodes: Vec<Node>,
}

struct Node {
    /// Host ids, in recursion order: a child lists its vertices in its
    /// parent's order.
    members: Vec<usize>,
    /// `G[members]`, vertex `i` being `members[i]`. The children's
    /// subgraphs are cut out of it (vol of the child, not a scan of the
    /// host) and it is then dropped, so the resident subgraphs add up to
    /// about one copy of the host. Nodes small enough for an exact
    /// certificate keep theirs.
    sub: Option<Graph>,
    /// `None` until a walk first reaches the node.
    found: Option<Found>,
    /// Child nodes in push order, once a walk has split here.
    children: Vec<usize>,
}

/// What the recursion learns about a vertex set.
enum Found {
    /// At most two vertices: a leaf under every φ.
    Trivial,
    /// `parts` lists each child's vertices (taken when the children are
    /// built). A disconnected set splits into its components under every φ
    /// and has no `cut`; a connected one splits into the two sides of its
    /// best sweep cut under any φ above that cut's conductance, and is
    /// otherwise a leaf certified by `cut = (λ₂/2, sweep conductance)`.
    Parts { parts: Vec<Vec<usize>>, cut: Option<(f64, f64)> },
}

impl Tree {
    fn new(g: &Graph) -> Tree {
        let root = Node { members: (0..g.n()).collect(), sub: Some(g.clone()), found: None, children: Vec::new() };
        Tree { nodes: vec![root] }
    }

    fn analyse(&mut self, id: usize) {
        let node = &mut self.nodes[id];
        if node.found.is_some() {
            return;
        }
        let sub = node.sub.as_ref().expect("a node keeps its subgraph until its children exist");
        let (component, k) = sub.connected_components();
        node.found = Some(if k != 1 {
            let mut parts = vec![Vec::new(); k];
            for (v, &c) in component.iter().enumerate() {
                parts[c].push(v);
            }
            Found::Parts { parts, cut: None }
        } else if sub.n() <= 2 || sub.m() == 0 {
            Found::Trivial
        } else {
            let spec = spectral::lambda2(sub, 1e-9, 4_000);
            let cut = sweep::sweep_cut(sub, &spec.sweep_values(sub))
                .expect("connected graph with >= 1 edge has a sweep cut");
            let (a, b) = (0..sub.n()).partition(|&v| cut.in_s[v]);
            Found::Parts { parts: vec![a, b], cut: Some((spec.conductance_lower_bound(), cut.conductance)) }
        });
    }

    /// The children of a node `phi_cut` splits, built on first use; `None`
    /// for a leaf.
    fn split(&mut self, id: usize, phi_cut: f64) -> Option<&[usize]> {
        self.analyse(id);
        let next = self.nodes.len();
        let node = &mut self.nodes[id];
        let Some(Found::Parts { parts, cut }) = &mut node.found else {
            return None;
        };
        if cut.is_some_and(|(_, sweep)| sweep >= phi_cut) {
            return None;
        }
        if node.children.is_empty() {
            let sub = node.sub.take().expect("a node keeps its subgraph until its children exist");
            let children: Vec<Node> = std::mem::take(parts)
                .iter()
                .map(|part| {
                    let (child, map) = sub.induced_subgraph(part);
                    let members = map.iter().map(|&v| node.members[v]).collect();
                    Node { members, sub: Some(child), found: None, children: Vec::new() }
                })
                .collect();
            if sub.n() <= EXACT_LIMIT {
                node.sub = Some(sub);
            }
            node.children = (next..next + children.len()).collect();
            self.nodes.extend(children);
        }
        Some(&self.nodes[id].children)
    }

    /// The decomposition at `phi_cut`: walks the tree in the recursion's
    /// LIFO order, so cluster ids are those of a fresh recursion at that
    /// threshold.
    fn emit(&mut self, g: &Graph, epsilon: f64, phi_cut: f64) -> ExpanderDecomposition {
        let mut cluster_of = vec![usize::MAX; g.n()];
        let mut clusters: Vec<ClusterInfo> = Vec::new();
        let mut stack = vec![0];
        while let Some(id) = stack.pop() {
            if let Some(children) = self.split(id, phi_cut) {
                stack.extend(children);
                continue;
            }
            let node = &self.nodes[id];
            let mut members = node.members.clone();
            members.sort_unstable();
            for &v in &members {
                cluster_of[v] = clusters.len();
            }
            let phi_exact = node
                .sub
                .as_ref()
                .filter(|sub| sub.n() <= EXACT_LIMIT)
                .and_then(|sub| conductance::exact_conductance(sub).map(|(phi, _)| phi));
            let cut = match node.found {
                Some(Found::Parts { cut, .. }) => cut,
                _ => None,
            };
            clusters.push(ClusterInfo {
                members,
                phi_exact,
                phi_spectral_lower: cut.map(|(lower, _)| lower),
                sweep_upper: cut.map(|(_, sweep)| sweep),
            });
        }
        let cut_edges: Vec<usize> = g
            .edges()
            .filter(|&(_, u, v)| cluster_of[u] != cluster_of[v])
            .map(|(e, _, _)| e)
            .collect();
        ExpanderDecomposition {
            cluster_of,
            clusters,
            cut_edges,
            phi_cut,
            epsilon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn expander_stays_whole() {
        // K16 is a great expander: no cut below any reasonable phi
        let g = gen::complete(16);
        let d = decompose(&g, 0.2);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 1);
        assert!(d.cut_edges.is_empty());
        assert!(d.clusters[0].phi_exact.unwrap() > 0.5);
    }

    #[test]
    fn dumbbell_splits_at_bridge() {
        let k8 = gen::complete(8);
        let mut b = lcg_graph::GraphBuilder::new(16);
        for (_, u, v) in k8.edges() {
            b.add_edge(u, v);
            b.add_edge(u + 8, v + 8);
        }
        b.add_edge(0, 8);
        let g = b.build();
        // the bridge cut has conductance 1/57 ≈ 0.0175: any phi_cut above
        // that must split the dumbbell exactly there
        let d = decompose_with_phi(&g, 0.2, 0.05);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 2);
        assert_eq!(d.cut_edges.len(), 1);
        // while the default (conservative) phi keeps it whole
        let d2 = decompose(&g, 0.2);
        d2.validate(&g).unwrap();
        assert_eq!(d2.k(), 1);
    }

    #[test]
    fn cut_fraction_bounded_on_planar() {
        let mut rng = gen::seeded_rng(120);
        for eps in [0.1, 0.2, 0.4] {
            let g = gen::stacked_triangulation(200, &mut rng);
            let d = decompose(&g, eps);
            d.validate(&g).unwrap();
            assert!(
                d.cut_fraction(&g) <= eps,
                "eps = {eps}, got {}",
                d.cut_fraction(&g)
            );
        }
    }

    #[test]
    fn cut_fraction_bounded_on_grid_and_ktree() {
        let mut rng = gen::seeded_rng(121);
        let grids: Vec<Graph> = vec![gen::grid(15, 15), gen::ktree(150, 3, &mut rng)];
        for g in &grids {
            let d = decompose(g, 0.25);
            d.validate(g).unwrap();
            assert!(d.cut_fraction(g) <= 0.25, "got {}", d.cut_fraction(g));
        }
    }

    #[test]
    fn clusters_exceed_phi_cut() {
        let mut rng = gen::seeded_rng(122);
        let g = gen::random_planar(150, 0.6, &mut rng);
        let d = decompose(&g, 0.3);
        d.validate(&g).unwrap();
        // every non-trivial cluster's *measured* conductance estimate is at
        // least phi_cut (the loop only stops when no sweep cut beats it;
        // small clusters are verified exactly)
        for c in &d.clusters {
            if let Some(phi) = c.phi_exact {
                if c.members.len() > 2 {
                    assert!(
                        phi >= d.phi_cut - 1e-9,
                        "cluster of size {} has phi {} < {}",
                        c.members.len(),
                        phi,
                        d.phi_cut
                    );
                }
            }
            if let Some(up) = c.sweep_upper {
                assert!(up >= d.phi_cut - 1e-9);
            }
        }
    }

    #[test]
    fn disconnected_input_ok() {
        let g = gen::grid(4, 4).disjoint_union(&gen::cycle(6));
        let d = decompose(&g, 0.3);
        d.validate(&g).unwrap();
        assert!(d.k() >= 2);
    }

    #[test]
    fn singleton_and_tiny_graphs() {
        let g = lcg_graph::GraphBuilder::new(1).build();
        let d = decompose(&g, 0.5);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 1);

        let g = gen::path(2);
        let d = decompose(&g, 0.5);
        d.validate(&g).unwrap();
        assert_eq!(d.k(), 1);
    }

    #[test]
    fn hypercube_tightness_example() {
        // Paper §2: hypercubes show φ = O(1/log n) after any constant-
        // fraction removal. Decomposing Q6 with a moderate ε must either
        // keep it whole (Q_d has conductance Θ(1/d)) or produce clusters
        // with conductance O(1/log n): min cluster phi is small either way.
        let g = gen::hypercube(6);
        let d = decompose(&g, 0.3);
        d.validate(&g).unwrap();
        assert!(d.cut_fraction(&g) <= 0.3);
    }

    #[test]
    fn adaptive_passes_share_one_analysis_per_node() {
        let g = gen::grid_with_noise(30, 30, 0.02, &mut gen::seeded_rng(125));
        let eps = 0.1;
        let analysed = |t: &Tree| t.nodes.iter().filter(|n| n.found.is_some()).count();
        // decompose_adaptive's passes on one tree, each beside a fresh one
        let mut tree = Tree::new(&g);
        let mut over_fresh_passes = 0;
        let mut after_first_pass = None;
        let mut phi = eps / 2.0;
        let chosen = loop {
            let d = tree.emit(&g, eps, phi);
            after_first_pass.get_or_insert(analysed(&tree));
            let mut fresh = Tree::new(&g);
            fresh.emit(&g, eps, phi);
            over_fresh_passes += analysed(&fresh);
            if d.cut_edges.len() as f64 <= eps * g.m() as f64 {
                break d;
            }
            phi /= 2.0;
        };
        assert!(chosen.phi_cut < eps / 2.0, "the instance must take more than one pass");
        assert_eq!(chosen.phi_cut, decompose_adaptive(&g, eps).phi_cut);
        // later passes walk nodes the φ = ε/2 pass already analysed
        assert_eq!(Some(analysed(&tree)), after_first_pass);
        assert!(analysed(&tree) < over_fresh_passes);
    }

    #[test]
    fn smaller_epsilon_cuts_fewer_edges() {
        let mut rng = gen::seeded_rng(123);
        let g = gen::stacked_triangulation(150, &mut rng);
        let loose = decompose(&g, 0.4);
        let tight = decompose(&g, 0.05);
        assert!(tight.cut_edges.len() <= loose.cut_edges.len());
    }
}
