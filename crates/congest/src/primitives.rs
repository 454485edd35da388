//! The distributed building blocks the paper's pipeline runs, all written
//! against the [`Network`] engine with genuine `O(log n)`-bit messages:
//! the max-flood of Theorem 2.6's leader election ([`max_flood`]), the
//! §2.3 cluster-diameter check ([`diameter_check`]) and the
//! Barenboim–Elkin peel behind the low-out-degree orientation
//! ([`h_partition_distributed`]).
//!
//! Everything here is *cluster-aware*: the framework runs these primitives
//! inside each cluster of an expander decomposition in parallel, so each
//! primitive takes a [`Scope`] (or the cluster assignment itself) and only
//! communicates along permitted edges.
//! All primitives use the textbook exchange round structure where
//! information travels one hop per round: [`Network::exchange_rounds`]
//! over the per-vertex state each one updates.

use crate::network::{Network, Outbox};

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
    // snapshot the old per-round loop copied — so `exchange_rounds` needs
    // no snapshot at all, and the whole flood is one call.
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
    let send_intra = |v: usize, out: &mut Outbox, msg: &[u64]| {
        for (p, u) in g.neighbor_vertices(v).enumerate() {
            if cluster[u] == cluster[v] {
                out.send(p, msg);
            }
        }
    };
    // the mark round: disagree with an intra-cluster neighbor's maximum
    net.exchange_rounds(
        1,
        &mut marked,
        |_, _round, v, out| send_intra(v, out, &[best[v].0, best[v].1 as u64]),
        |mark, _round, v, inbox| {
            *mark = inbox.iter().flatten().any(|m| (m[0], m[1] as usize) != best[v]);
        },
        |_| false,
    );
    // the spread: a vertex sends while its mark stands as the previous
    // round left it
    net.exchange_rounds(
        2 * b + 1,
        &mut marked,
        |mark, _round, v, out| {
            if *mark {
                send_intra(v, out, &[1]);
            }
        },
        |mark, _round, _v, inbox| *mark |= inbox.iter().flatten().next().is_some(),
        |_| false,
    );
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
    // One call: layer `l` is exchange round `l`, and the run quiesces as
    // soon as every vertex is peeled — same rounds, messages, and layers
    // as the old per-layer loop.
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
    fn max_flood_respects_cluster_scope() {
        let g = gen::path(6);
        let cluster = vec![0, 0, 0, 1, 1, 1];
        let mut net = Network::new(&g, Model::congest());
        let best = max_flood(&mut net, &[0, 0, 0, 0, 0, 9], 5, Scope::Intra(&cluster));
        // the 9 floods its own cluster and never crosses the 2–3 boundary
        assert_eq!(best[..3], [(0, 2); 3]);
        assert_eq!(best[3..], [(9, 5); 3]);
        // 5 rounds, each cluster's 2 edges in both directions: nothing on 2–3
        assert_eq!(net.stats().messages, 5 * 8);
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
