//! CSR ↔ legacy-adjacency equivalence suite.
//!
//! The graph core stores adjacency as flat CSR arrays (`offsets` /
//! `neighbors` / `edge_ids`) built in one pass from the sorted edge list.
//! This suite keeps the *old* nested `Vec<Vec<(u32, u32)>>` builder alive
//! as a test-only reference implementation and checks, on random edge
//! lists, that both constructions agree on every observable: degrees,
//! sorted neighbor sets, edge ids, and the binary-search edge lookup.
//!
//! It also holds the property of the graphs *derived* from a built one
//! (`induced_subgraph`, `edge_subgraph`, `disjoint_union`,
//! `gen::shuffle_vertices`): the rebuild renumbers edges, and weights and
//! labels must follow their edge.

use lcg_graph::{gen, Graph, GraphBuilder, Sign};
use proptest::prelude::*;

/// The pre-CSR adjacency construction, verbatim: dedup the sorted edge
/// list, push both directions into nested rows, sort each row.
struct LegacyAdjacency {
    edges: Vec<(u32, u32)>,
    adj: Vec<Vec<(u32, u32)>>,
}

impl LegacyAdjacency {
    fn build(n: usize, raw: &[(usize, usize)]) -> LegacyAdjacency {
        let mut edges: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(u, v)| (u.min(v) as u32, u.max(v) as u32))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (e, &(u, v)) in edges.iter().enumerate() {
            adj[u as usize].push((v, e as u32));
            adj[v as usize].push((u, e as u32));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        LegacyAdjacency { edges, adj }
    }
}

fn csr_graph(n: usize, raw: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in raw {
        b.add_edge(u, v);
    }
    b.build()
}

/// Random simple-graph edge lists with duplicates (the builder dedups) on
/// 2..=40 vertices.
fn edge_lists() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..=40).prop_flat_map(|n| {
        // self-loop-free by construction: v = (u + d) mod n with d ≥ 1
        let edge = (0..n, 1..n).prop_map(move |(u, d)| (u, (u + d) % n));
        (Just(n), proptest::collection::vec(edge, 0..=120))
    })
}

/// `g`'s edges with attributes that name the edge: weight `e + 1` is
/// unique, the label follows a fixed pattern of `e`.
fn attributed(g: Graph) -> Graph {
    let m = g.m();
    g.with_weights((1..=m as u64).collect())
        .with_labels((0..m).map(|e| if e % 3 == 1 { Sign::Negative } else { Sign::Positive }).collect())
}

/// Per vertex, the sorted attributes of its incident edges; sorted over
/// the vertices. With unique weights two graphs agree on this exactly when
/// some vertex renaming maps every edge onto an edge with its attributes.
fn attribute_profile(g: &Graph) -> Vec<Vec<(u64, bool)>> {
    let mut rows: Vec<Vec<(u64, bool)>> = (0..g.n())
        .map(|v| {
            let mut row: Vec<_> = g.neighbors(v).map(|(_, e)| (g.weight(e), g.label(e).is_positive())).collect();
            row.sort_unstable();
            row
        })
        .collect();
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every edge of a derived graph carries the weight and label of the
    /// host edge it came from, in whatever order the caller lists the
    /// vertices or edge ids (repeats included).
    #[test]
    fn derived_graphs_keep_each_edges_attributes(
        (n, raw) in edge_lists(),
        picks in proptest::collection::vec(any::<u32>(), 0..=60),
        seed in any::<u64>(),
    ) {
        let g = attributed(csr_graph(n, &raw));

        // vertices in pick order: a permuted subset, repeats ignored
        let set: Vec<usize> = picks.iter().map(|&p| p as usize % n).collect();
        let (sub, mapping) = g.induced_subgraph(&set);
        let inside = |v: usize| mapping.contains(&v);
        prop_assert_eq!(sub.m(), g.edges().filter(|&(_, u, v)| inside(u) && inside(v)).count());
        for (e, a, b) in sub.edges() {
            let host = g.edge_between(mapping[a], mapping[b]).expect("induced edges are host edges");
            prop_assert_eq!(sub.weight(e), g.weight(host), "induced edge {}-{}", mapping[a], mapping[b]);
            prop_assert_eq!(sub.label(e), g.label(host));
        }

        // edge ids in pick order, repeated ids and all
        if g.m() > 0 {
            let ids: Vec<usize> = picks.iter().map(|&p| p as usize % g.m()).collect();
            let part = g.edge_subgraph(&ids);
            prop_assert_eq!(part.n(), n);
            for (e, u, v) in part.edges() {
                let host = g.edge_between(u, v).expect("kept edges are host edges");
                prop_assert!(ids.contains(&host));
                prop_assert_eq!(part.weight(e), g.weight(host), "kept edge {}-{}", u, v);
                prop_assert_eq!(part.label(e), g.label(host));
            }
            prop_assert!(ids.iter().all(|&e| { let (u, v) = g.endpoints(e); part.has_edge(u, v) }));
        }

        // each side of a union keeps its own attributes
        let both = g.disjoint_union(&sub);
        prop_assert_eq!(both.m(), g.m() + sub.m());
        for (side, shift) in [(&g, 0), (&sub, n)] {
            for (e, u, v) in side.edges() {
                let joined = both.edge_between(u + shift, v + shift).expect("union keeps every edge");
                prop_assert_eq!(both.weight(joined), side.weight(e));
                prop_assert_eq!(both.label(joined), side.label(e));
            }
        }

        // renaming the vertices renames nothing else
        let shuffled = gen::shuffle_vertices(&g, &mut gen::seeded_rng(seed));
        prop_assert_eq!(attribute_profile(&shuffled), attribute_profile(&g));
    }

    /// Degrees, row contents (neighbor and edge id, in row order), and the
    /// edge-id lookup must be identical between the nested reference and
    /// the CSR build.
    #[test]
    fn csr_agrees_with_legacy_adjacency((n, raw) in edge_lists()) {
        let legacy = LegacyAdjacency::build(n, &raw);
        let g = csr_graph(n, &raw);

        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), legacy.edges.len());
        prop_assert_eq!(g.slots(), 2 * legacy.edges.len());

        for v in 0..n {
            prop_assert_eq!(g.degree(v), legacy.adj[v].len());
            let row: Vec<(usize, usize)> = g.neighbors(v).collect();
            let expect: Vec<(usize, usize)> =
                legacy.adj[v].iter().map(|&(u, e)| (u as usize, e as usize)).collect();
            prop_assert_eq!(&row, &expect, "row of vertex {}", v);
            // rows must be sorted by neighbor (binary-search invariant)
            prop_assert!(g.neighbor_row(v).windows(2).all(|w| w[0] < w[1]));
            // flat-arena slot addressing matches the iterator view
            let range = g.row_range(v);
            prop_assert_eq!(range.len(), g.degree(v));
            for (i, s) in range.enumerate() {
                prop_assert_eq!(g.csr_neighbors()[s] as usize, row[i].0);
                prop_assert_eq!(g.csr_edge_ids()[s] as usize, row[i].1);
            }
        }

        // edge lookup agrees with the reference edge list, both ways
        for (e, &(u, v)) in legacy.edges.iter().enumerate() {
            prop_assert_eq!(g.edge_between(u as usize, v as usize), Some(e));
            prop_assert_eq!(g.edge_between(v as usize, u as usize), Some(e));
            prop_assert_eq!(g.endpoints(e), (u as usize, v as usize));
        }

        // absent pairs stay absent
        for u in 0..n {
            for v in (u + 1)..n {
                if !legacy.edges.contains(&(u as u32, v as u32)) {
                    prop_assert_eq!(g.edge_between(u, v), None);
                }
            }
        }
    }

    /// Serialize → deserialize reproduces the identical CSR arrays.
    #[test]
    fn csr_survives_serde_roundtrip((n, raw) in edge_lists()) {
        use serde::{Deserialize, Serialize};
        let g = csr_graph(n, &raw);
        let v = g.to_value();
        let h = Graph::from_value(&v).expect("roundtrip decodes");
        prop_assert_eq!(g.n(), h.n());
        prop_assert_eq!(g.csr_offsets(), h.csr_offsets());
        prop_assert_eq!(g.csr_neighbors(), h.csr_neighbors());
        prop_assert_eq!(g.csr_edge_ids(), h.csr_edge_ids());
    }
}
