//! Distributed building blocks used by the paper's framework, all written
//! against the [`Network`] engine with genuine `O(log n)`-bit messages.
//!
//! Everything here is *cluster-aware*: the framework runs these primitives
//! inside each cluster of an expander decomposition in parallel, so each
//! primitive takes a [`Scope`] and only communicates along permitted edges.
//! All primitives use the textbook exchange round structure where
//! information travels one hop per round — either the sequential
//! [`Network::exchange`] (snapshot-heavy orchestration loops) or the
//! batched [`Network::exchange_rounds`] (per-vertex-state loops like
//! max-flood and H-partition peeling, which then run on the persistent
//! worker pool).

use crate::network::Network;

/// A BFS forest computed by synchronous flooding.
#[derive(Debug, Clone)]
pub struct BfsForest {
    /// BFS parent of each vertex (`None` for sources and unreached).
    pub parent: Vec<Option<usize>>,
    /// Hop distance from the nearest source (`usize::MAX` if unreached).
    pub dist: Vec<usize>,
    /// The source each vertex was reached from.
    pub root: Vec<Option<usize>>,
}

impl BfsForest {
    /// Depth of the forest (maximum finite distance).
    pub fn depth(&self) -> usize {
        self.dist
            .iter()
            .filter(|&&d| d != usize::MAX)
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Edges allowed for a primitive: all edges, or only intra-cluster ones.
#[derive(Debug, Clone, Copy)]
pub enum Scope<'a> {
    /// Use every edge of the network.
    Global,
    /// Use only edges whose endpoints share a cluster id.
    Intra(&'a [usize]),
}

impl<'a> Scope<'a> {
    /// Whether the edge `{u, v}` may carry messages under this scope.
    pub fn allows(&self, u: usize, v: usize) -> bool {
        match self {
            Scope::Global => true,
            Scope::Intra(c) => c[u] == c[v],
        }
    }
}

/// Builds a BFS forest from `sources` by flooding; runs until quiescent
/// (`ecc + 1` rounds where `ecc` is the largest relevant eccentricity).
/// Messages are `[root, dist]`: 2 words.
pub fn bfs_forest(net: &mut Network, sources: &[usize], scope: Scope) -> BfsForest {
    let g = net.graph();
    let n = g.n();
    let mut f = BfsForest {
        parent: vec![None; n],
        dist: vec![usize::MAX; n],
        root: vec![None; n],
    };
    let mut announce = vec![false; n];
    for &s in sources {
        f.dist[s] = 0;
        f.root[s] = Some(s);
        announce[s] = true;
    }
    while announce.iter().any(|&b| b) {
        let mut next_announce = vec![false; n];
        let root_snap = f.root.clone();
        let dist_snap = f.dist.clone();
        net.exchange(
            |v, out| {
                if announce[v] {
                    for (p, u) in g.neighbor_vertices(v).enumerate() {
                        if scope.allows(v, u) {
                            out.send(
                                p,
                                vec![
                                    root_snap[v].expect("announcing vertex has adopted a root") as u64,
                                    dist_snap[v] as u64,
                                ],
                            );
                        }
                    }
                }
            },
            |v, inbox| {
                for (p, m) in inbox.iter().enumerate() {
                    if let Some(m) = m {
                        let (root, d) = (m[0] as usize, m[1] as usize + 1);
                        if d < f.dist[v] {
                            f.dist[v] = d;
                            f.root[v] = Some(root);
                            f.parent[v] = Some(g.neighbor_row(v)[p] as usize);
                            next_announce[v] = true;
                        }
                    }
                }
            },
        );
        announce = next_announce;
    }
    f
}

/// `rounds` rounds of max-flooding of `(value, id)` pairs: every vertex
/// ends with the maximum pair within `rounds` hops (lexicographic by value,
/// then id). This is exactly the leader-election loop in the proof of
/// Theorem 2.6. Messages are 2 words.
pub fn max_flood(
    net: &mut Network,
    values: &[u64],
    rounds: usize,
    scope: Scope,
) -> Vec<(u64, usize)> {
    let g = net.graph();
    let n = g.n();
    // Per-vertex state is the current best pair; the send phase reads the
    // state as the previous round's recv left it, which is exactly the
    // snapshot the old per-round loop copied — so the batch engine needs
    // no snapshot at all, and the whole flood is one worker-pool batch.
    let mut best: Vec<(u64, usize)> = values.iter().copied().zip(0..n).collect();
    net.exchange_rounds(
        rounds,
        &mut best,
        |me, _round, v, out| {
            for (p, u) in g.neighbor_vertices(v).enumerate() {
                if scope.allows(v, u) {
                    out.send(p, [me.0, me.1 as u64]);
                }
            }
        },
        |me, _round, _v, inbox| {
            for m in inbox.iter().flatten() {
                let cand = (m[0], m[1] as usize);
                if cand > *me {
                    *me = cand;
                }
            }
        },
        |_| false, // fixed round budget, no early quiescence
    );
    best
}

/// Aggregates `values` by summation up a BFS forest (convergecast): after
/// `depth` rounds each source holds the sum over its tree. Messages are 1
/// word (the running partial sum). Returns the per-vertex accumulated sums;
/// the entry of a source is its tree total.
pub fn convergecast_sum(net: &mut Network, forest: &BfsForest, values: &[u64]) -> Vec<u64> {
    let n = net.graph().n();
    let g = net.graph();
    let mut acc: Vec<u64> = values.to_vec();
    let parent_port: Vec<Option<usize>> = (0..n)
        .map(|v| {
            forest.parent[v]
                .map(|p| {
                    g.neighbors(v)
                        .position(|(w, _)| w == p)
                        .expect("forest parent is a graph neighbor")
                })
        })
        .collect();
    for d in (1..=forest.depth()).rev() {
        let snap = acc.clone();
        net.exchange(
            |v, out| {
                if forest.dist[v] == d {
                    out.send(parent_port[v].expect("non-root has parent"), [snap[v]]);
                }
            },
            |v, inbox| {
                for m in inbox.iter().flatten() {
                    acc[v] += m[0];
                }
            },
        );
    }
    acc
}

/// Broadcast one word from each source down its BFS tree; returns the word
/// each vertex received (sources keep their own). `depth` rounds, 1-word
/// messages.
pub fn broadcast_down(net: &mut Network, forest: &BfsForest, payload: &[u64]) -> Vec<Option<u64>> {
    let n = net.graph().n();
    let g = net.graph();
    let mut got: Vec<Option<u64>> = (0..n)
        .map(|v| if forest.dist[v] == 0 { Some(payload[v]) } else { None })
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in 0..n {
        if let Some(p) = forest.parent[v] {
            children[p].push(v);
        }
    }
    let child_ports: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            children[v]
                .iter()
                .map(|&c| {
                    g.neighbors(v)
                        .position(|(w, _)| w == c)
                        .expect("forest child is a graph neighbor")
                })
                .collect()
        })
        .collect();
    for d in 0..forest.depth() {
        let snap = got.clone();
        net.exchange(
            |v, out| {
                if forest.dist[v] == d {
                    if let Some(x) = snap[v] {
                        for &p in &child_ports[v] {
                            out.send(p, [x]);
                        }
                    }
                }
            },
            |v, inbox| {
                for m in inbox.iter().flatten() {
                    got[v] = Some(m[0]);
                }
            },
        );
    }
    got
}

/// The §2.3 cluster-diameter check: decides *distributedly* for each
/// cluster whether its induced diameter exceeds the bound `b`, marking all
/// vertices of over-diameter clusters.
///
/// Protocol (verbatim from the paper): every vertex computes the maximum ID
/// within distance `b` inside its cluster (`b` rounds of max-flood); a
/// vertex marks itself `*` if it disagrees with an intra-cluster neighbor;
/// marks then spread for `2b + 1` rounds. If the cluster diameter is ≤ `b`
/// no vertex is marked; if it is ≥ `2b + 1` every vertex is marked.
pub fn diameter_check(net: &mut Network, cluster: &[usize], b: usize) -> Vec<bool> {
    let g = net.graph();
    let n = g.n();
    let ids: Vec<u64> = (0..n as u64).collect();
    let best = max_flood(net, &ids, b, Scope::Intra(cluster));
    let mut marked = vec![false; n];
    net.exchange(
        |v, out| {
            for (p, u) in g.neighbor_vertices(v).enumerate() {
                if cluster[u] == cluster[v] {
                    out.send(p, [best[v].0, best[v].1 as u64]);
                }
            }
        },
        |v, inbox| {
            for m in inbox.iter().flatten() {
                if (m[0], m[1] as usize) != best[v] {
                    marked[v] = true;
                }
            }
        },
    );
    for _ in 0..(2 * b + 1) {
        let snapshot = marked.clone();
        net.exchange(
            |v, out| {
                if snapshot[v] {
                    for (p, u) in g.neighbor_vertices(v).enumerate() {
                        if cluster[u] == cluster[v] {
                            out.send(p, [1]);
                        }
                    }
                }
            },
            |v, inbox| {
                if inbox.iter().flatten().next().is_some() {
                    marked[v] = true;
                }
            },
        );
    }
    marked
}

/// Distributed Barenboim–Elkin H-partition: peels vertices of residual
/// degree ≤ `⌊(2+ε)d⌋` layer by layer; `O(log n)` layers on any graph of
/// hereditary density ≤ `d`. Returns the layer of each vertex, or `None`
/// for vertices never peeled within `max_layers` (density bound violated).
///
/// One round per layer; each peeled vertex sends a 1-word notification.
pub fn h_partition_distributed(
    net: &mut Network,
    d: f64,
    epsilon: f64,
    max_layers: usize,
    scope: Scope,
) -> Vec<Option<usize>> {
    /// Per-vertex peeling state: residual intra-scope degree, the adopted
    /// layer, and whether the vertex announced a peel this round.
    struct Peel {
        residual: usize,
        layer: Option<usize>,
        peeling: bool,
    }
    let g = net.graph();
    let n = g.n();
    let threshold = ((2.0 + epsilon) * d).floor() as usize;
    let mut states: Vec<Peel> = (0..n)
        .map(|v| Peel {
            residual: g.neighbor_vertices(v).filter(|&u| scope.allows(v, u)).count(),
            layer: None,
            peeling: false,
        })
        .collect();
    // One batch: layer `l` is exchange round `l`, and the run quiesces as
    // soon as every vertex is peeled — same rounds, messages, and layers
    // as the old per-layer loop, now without respawning workers per layer.
    net.exchange_rounds(
        max_layers,
        &mut states,
        |s, _round, v, out| {
            s.peeling = s.layer.is_none() && s.residual <= threshold;
            if s.peeling {
                for (p, u) in g.neighbor_vertices(v).enumerate() {
                    if scope.allows(v, u) {
                        out.send(p, [1]);
                    }
                }
            }
        },
        |s, round, _v, inbox| {
            let gone = inbox.iter().flatten().count();
            s.residual = s.residual.saturating_sub(gone);
            if s.peeling {
                s.layer = Some(round);
                s.peeling = false;
            }
        },
        |s| s.layer.is_some(),
    );
    states.into_iter().map(|s| s.layer).collect()
}

/// Computes, for each cluster id, the list of member vertices. (A helper
/// for orchestration code; not a distributed step.)
pub fn cluster_members(cluster: &[usize]) -> std::collections::BTreeMap<usize, Vec<usize>> {
    let mut map = std::collections::BTreeMap::new();
    for (v, &c) in cluster.iter().enumerate() {
        map.entry(c).or_insert_with(Vec::new).push(v);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use lcg_graph::gen;

    #[test]
    fn bfs_forest_distances() {
        let g = gen::grid(5, 5);
        let mut net = Network::new(&g, Model::congest());
        let f = bfs_forest(&mut net, &[0], Scope::Global);
        let want = g.bfs_distances(0);
        assert_eq!(f.dist, want);
        assert_eq!(f.root[24], Some(0));
        for v in 1..g.n() {
            let p = f.parent[v].unwrap();
            assert_eq!(f.dist[p] + 1, f.dist[v]);
        }
        // eccentricity of the corner is 8; flooding quiesces in ecc + 1
        assert_eq!(net.stats().rounds, 9);
    }

    #[test]
    fn bfs_respects_cluster_scope() {
        let g = gen::path(6);
        let cluster = vec![0, 0, 0, 1, 1, 1];
        let mut net = Network::new(&g, Model::congest());
        let f = bfs_forest(&mut net, &[0], Scope::Intra(&cluster));
        assert_eq!(f.dist[2], 2);
        assert_eq!(f.dist[3], usize::MAX);
    }

    #[test]
    fn max_flood_elects_global_max() {
        let g = gen::cycle(8);
        let mut net = Network::new(&g, Model::congest());
        let values: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let best = max_flood(&mut net, &values, 4, Scope::Global);
        // diameter of C8 is 4, so everyone sees the max (9, id 5)
        assert!(best.iter().all(|&b| b == (9, 5)));
        assert_eq!(net.stats().rounds, 4);
    }

    #[test]
    fn max_flood_radius_is_rounds() {
        let g = gen::path(5);
        let mut net = Network::new(&g, Model::congest());
        let best = max_flood(&mut net, &[9, 0, 0, 0, 0], 2, Scope::Global);
        assert_eq!(best[2], (9, 0)); // 2 hops away: reached
        // 3 hops away: the 9 has not arrived; best is the max id seen (0, 4)
        assert_eq!(best[3], (0, 4));
    }

    #[test]
    fn max_flood_ties_break_by_id() {
        let g = gen::path(3);
        let mut net = Network::new(&g, Model::congest());
        let best = max_flood(&mut net, &[7, 7, 7], 2, Scope::Global);
        assert!(best.iter().all(|&b| b == (7, 2)));
    }

    #[test]
    fn convergecast_sums_to_root() {
        let g = gen::grid(4, 4);
        let mut net = Network::new(&g, Model::congest());
        let f = bfs_forest(&mut net, &[0], Scope::Global);
        let values: Vec<u64> = (0..16).collect();
        let acc = convergecast_sum(&mut net, &f, &values);
        assert_eq!(acc[0], (0..16).sum::<u64>());
    }

    #[test]
    fn convergecast_multi_source() {
        let g = gen::path(6);
        let mut net = Network::new(&g, Model::congest());
        let f = bfs_forest(&mut net, &[0, 5], Scope::Global);
        let acc = convergecast_sum(&mut net, &f, &[1; 6]);
        assert_eq!(acc[0] + acc[5], 6);
    }

    #[test]
    fn broadcast_reaches_all() {
        let g = gen::grid(4, 4);
        let mut net = Network::new(&g, Model::congest());
        let f = bfs_forest(&mut net, &[5], Scope::Global);
        let mut payload = vec![0u64; 16];
        payload[5] = 42;
        let got = broadcast_down(&mut net, &f, &payload);
        assert!(got.iter().all(|&x| x == Some(42)));
    }

    #[test]
    fn diameter_check_accepts_small_cluster() {
        let g = gen::grid(3, 3); // diameter 4
        let cluster = vec![0; 9];
        let mut net = Network::new(&g, Model::congest());
        let marked = diameter_check(&mut net, &cluster, 4);
        assert!(marked.iter().all(|&m| !m));
    }

    #[test]
    fn diameter_check_rejects_long_path() {
        let g = gen::path(30); // diameter 29 >= 2*3+1
        let cluster = vec![0; 30];
        let mut net = Network::new(&g, Model::congest());
        let marked = diameter_check(&mut net, &cluster, 3);
        assert!(marked.iter().all(|&m| m));
    }

    #[test]
    fn diameter_check_per_cluster() {
        // two clusters on a path: one small (diam 1), one long (diam 27)
        let g = gen::path(30);
        let mut cluster = vec![1; 30];
        cluster[0] = 0;
        cluster[1] = 0;
        let mut net = Network::new(&g, Model::congest());
        let marked = diameter_check(&mut net, &cluster, 3);
        assert!(!marked[0] && !marked[1]);
        assert!(marked[5..].iter().all(|&m| m));
    }

    #[test]
    fn h_partition_peels_planar_fast() {
        let mut rng = gen::seeded_rng(90);
        let g = gen::stacked_triangulation(200, &mut rng);
        let mut net = Network::new(&g, Model::congest());
        let layer = h_partition_distributed(&mut net, 3.0, 0.5, 40, Scope::Global);
        assert!(layer.iter().all(|l| l.is_some()));
        let max_layer = layer.iter().map(|l| l.unwrap()).max().unwrap();
        assert!(max_layer <= 20, "too many layers: {max_layer}");
    }

    #[test]
    fn cluster_helpers() {
        let g = gen::path(5);
        let cluster = vec![0, 0, 1, 1, 1];
        let members = cluster_members(&cluster);
        assert_eq!(members[&0], vec![0, 1]);
        assert_eq!(members[&1], vec![2, 3, 4]);
        // what a leader reconstructs after topology gathering
        let (sub, map) = g.induced_subgraph(&members[&1]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![2, 3, 4]);
    }
}
