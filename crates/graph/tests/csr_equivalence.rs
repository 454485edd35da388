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
//!
//! Two more retired bodies live on here as references: the `induced_subgraph`
//! that scanned every host edge (the shipped one walks the rows of the set),
//! and the all-pairs-BFS `diameter` (the shipped one is iFUB).

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

/// The pre-row-walk `induced_subgraph`: number the set in listing order,
/// scan *all* host edges, keep those with both ends inside.
fn edge_scan_induced(g: &Graph, set: &[usize]) -> (Graph, Vec<usize>) {
    let mut mapping: Vec<usize> = Vec::new();
    let mut new_id = vec![usize::MAX; g.n()];
    for &v in set {
        if new_id[v] == usize::MAX {
            new_id[v] = mapping.len();
            mapping.push(v);
        }
    }
    let mut picks: Vec<(usize, usize, usize)> = g
        .edges()
        .filter(|&(_, u, v)| new_id[u] != usize::MAX && new_id[v] != usize::MAX)
        .map(|(e, u, v)| (new_id[u].min(new_id[v]), new_id[u].max(new_id[v]), e))
        .collect();
    picks.sort_unstable();
    let mut b = GraphBuilder::new(mapping.len());
    b.extend_edges(picks.iter().map(|&(a, b, _)| (a, b)));
    let mut sub = b.build();
    if g.is_weighted() {
        sub = sub.with_weights(picks.iter().map(|&(_, _, e)| g.weight(e)).collect());
    }
    if g.is_labeled() {
        sub = sub.with_labels(picks.iter().map(|&(_, _, e)| g.label(e)).collect());
    }
    (sub, mapping)
}

/// Every field of a `Graph`, through its accessors.
type Fields = (usize, Vec<(usize, usize)>, Vec<u32>, Vec<u32>, Vec<u32>, Option<Vec<u64>>, Option<Vec<bool>>);

fn fields(g: &Graph) -> Fields {
    (
        g.n(),
        (0..g.m()).map(|e| g.endpoints(e)).collect(),
        g.csr_offsets().to_vec(),
        g.csr_neighbors().to_vec(),
        g.csr_edge_ids().to_vec(),
        g.is_weighted().then(|| (0..g.m()).map(|e| g.weight(e)).collect()),
        g.is_labeled().then(|| (0..g.m()).map(|e| g.label(e).is_positive()).collect()),
    )
}

/// The pre-iFUB `diameter`: a BFS from every vertex.
fn all_pairs_diameter(g: &Graph) -> Option<usize> {
    if g.n() == 0 {
        return None;
    }
    let mut best = 0;
    for v in 0..g.n() {
        for d in g.bfs_distances(v) {
            if d == usize::MAX {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

#[test]
fn diameter_matches_all_pairs_bfs_on_classic_families() {
    let mut cases: Vec<(String, Graph)> = vec![
        ("empty".into(), GraphBuilder::new(0).build()),
        ("one vertex".into(), GraphBuilder::new(1).build()),
        ("two isolated".into(), GraphBuilder::new(2).build()),
        ("hypercube".into(), gen::hypercube(5)),
        ("complete".into(), gen::complete(9)),
        ("two components".into(), gen::grid(3, 3).disjoint_union(&gen::path(4))),
    ];
    for n in 1..12 {
        cases.push((format!("path {n}"), gen::path(n)));
        cases.push((format!("star {n}"), gen::star(n)));
    }
    for n in 3..12 {
        cases.push((format!("cycle {n}"), gen::cycle(n)));
    }
    for (w, h) in [(1, 7), (2, 5), (4, 4), (5, 8), (9, 3)] {
        cases.push((format!("grid {w}x{h}"), gen::grid(w, h)));
        cases.push((format!("triangulated grid {w}x{h}"), gen::triangulated_grid(w.max(2), h.max(2))));
        cases.push((format!("torus {w}x{h}"), gen::torus_grid(w.max(3), h.max(3))));
    }
    for (name, g) in cases {
        assert_eq!(g.diameter(), all_pairs_diameter(&g), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The row-walking `induced_subgraph` returns the graph the edge scan
    /// returned, field for field, on duplicated, unsorted and whole-graph
    /// sets, attributes or none.
    #[test]
    fn induced_subgraph_agrees_with_the_edge_scan(
        (n, raw) in edge_lists(),
        picks in proptest::collection::vec(any::<u32>(), 0..=60),
        with_attributes in any::<bool>(),
    ) {
        let plain = csr_graph(n, &raw);
        let g = if with_attributes { attributed(plain) } else { plain };
        let listed: Vec<usize> = picks.iter().map(|&p| p as usize % n).collect();
        let whole: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        for set in [&listed, &whole, &reversed] {
            let (sub, mapping) = g.induced_subgraph(set);
            let (want, want_mapping) = edge_scan_induced(&g, set);
            prop_assert_eq!(mapping, want_mapping);
            prop_assert_eq!(fields(&sub), fields(&want));
        }
        prop_assert_eq!(fields(&g.induced_subgraph(&whole).0), fields(&g));
    }

    /// iFUB against all-pairs BFS on sparse random graphs, connected (a
    /// random spanning tree plus chords) or not.
    #[test]
    fn diameter_agrees_with_all_pairs_bfs((n, raw) in edge_lists(), connect in any::<bool>(), seed in any::<u64>()) {
        let chords = csr_graph(n, &raw[..raw.len().min(n)]);
        let g = if connect {
            let tree = gen::random_tree(n, &mut gen::seeded_rng(seed));
            csr_graph(n, &tree.edges().chain(chords.edges()).map(|(_, u, v)| (u, v)).collect::<Vec<_>>())
        } else {
            chords
        };
        prop_assert_eq!(g.diameter(), all_pairs_diameter(&g));
    }

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
