//! Compact undirected graph representation shared by every crate in the
//! workspace.
//!
//! A [`Graph`] is immutable after construction (build one with
//! [`GraphBuilder`]). Vertices are `0..n`; every edge has a stable *edge id*
//! `0..m` that side arrays (weights, labels, orientations) key off. Parallel
//! edges and self-loops are rejected at build time: the CONGEST model of the
//! paper is defined on simple graphs.

use std::fmt;

/// Sign of an edge in a correlation-clustering instance (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// The endpoints are positively correlated (`E⁺`).
    Positive,
    /// The endpoints are negatively correlated (`E⁻`).
    Negative,
}

impl Sign {
    /// Returns `true` for [`Sign::Positive`].
    pub fn is_positive(self) -> bool {
        matches!(self, Sign::Positive)
    }
}

/// An immutable, simple, undirected graph with stable edge ids.
///
/// # Examples
///
/// ```
/// use lcg_graph::{Graph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 3);
/// let g: Graph = b.build();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Clone)]
pub struct Graph {
    n: usize,
    /// Edge endpoints with `u < v`, indexed by edge id.
    edges: Vec<(u32, u32)>,
    /// CSR row starts: vertex `v`'s adjacency row occupies the *slots*
    /// `offsets[v]..offsets[v + 1]` of `neighbors`/`edge_ids`. Length
    /// `n + 1`; `offsets[n]` equals `2m` (every edge contributes one slot
    /// per endpoint).
    offsets: Vec<u32>,
    /// Flat neighbor array: `neighbors[s]` is the neighbor at slot `s`.
    /// Each row is sorted by neighbor, so per-row binary search works.
    neighbors: Vec<u32>,
    /// Flat edge-id array, parallel to `neighbors`: `edge_ids[s]` is the
    /// id of the edge connecting the row's vertex to `neighbors[s]`.
    edge_ids: Vec<u32>,
    /// Optional positive integer edge weights (paper assumes `w(e) ≥ 1`).
    weights: Option<Vec<u64>>,
    /// Optional correlation-clustering labels.
    labels: Option<Vec<Sign>>,
}

/// Builds the CSR arrays from a sorted, deduplicated edge list in one
/// counting pass plus one fill pass.
///
/// Rows come out sorted by neighbor without any per-row sort: with edges
/// sorted lexicographically and `u < v` per edge, row `w` first receives
/// its smaller neighbors (from edges `(u, w)`, visited in increasing `u`)
/// and then its larger neighbors (from the contiguous `(w, x)` block, in
/// increasing `x`).
fn build_csr(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let slots = edges.len() * 2;
    assert!(slots <= u32::MAX as usize, "edge slot count exceeds u32 range");
    let mut offsets = vec![0u32; n + 1];
    for &(u, v) in edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut neighbors = vec![0u32; slots];
    let mut edge_ids = vec![0u32; slots];
    for (e, &(u, v)) in edges.iter().enumerate() {
        let su = cursor[u as usize] as usize;
        cursor[u as usize] += 1;
        neighbors[su] = v;
        edge_ids[su] = e as u32;
        let sv = cursor[v as usize] as usize;
        cursor[v as usize] += 1;
        neighbors[sv] = u;
        edge_ids[sv] = e as u32;
    }
    (offsets, neighbors, edge_ids)
}

/// The one rebuild under every derived graph. Each pick is an edge of the
/// result — its endpoints in the result's numbering, smaller first — and
/// the index into `weights`/`labels` of the attributes it carries. Picks
/// are sorted and deduplicated *together* with that index (of several picks
/// for one edge the lowest index survives), so edge `i` of the result
/// carries the attributes of the edge it came from, whatever order the
/// picks arrive in. An absent array stays absent: a plain source costs no
/// attribute work.
fn derive(
    n: usize,
    mut picks: Vec<(u32, u32, u32)>,
    weights: Option<&[u64]>,
    labels: Option<&[Sign]>,
) -> Graph {
    picks.sort_unstable();
    picks.dedup_by_key(|&mut (u, v, _)| (u, v));
    let edges: Vec<(u32, u32)> = picks.iter().map(|&(u, v, _)| (u, v)).collect();
    let (offsets, neighbors, edge_ids) = build_csr(n, &edges);
    Graph {
        n,
        edges,
        offsets,
        neighbors,
        edge_ids,
        weights: weights.map(|w| picks.iter().map(|&(_, _, i)| w[i as usize]).collect()),
        labels: labels.map(|l| picks.iter().map(|&(_, _, i)| l[i as usize]).collect()),
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.edges.len())
            .field("weighted", &self.weights.is_some())
            .field("labeled", &self.labels.is_some())
            .finish()
    }
}

impl Graph {
    /// Number of vertices.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    #[must_use]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Number of CSR slots (`2m`): one per directed edge occurrence. This
    /// is the length of the flat arenas a per-slot side array must have.
    #[inline]
    #[must_use]
    pub fn slots(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Slot range of vertex `v`'s CSR row within the flat arrays.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    #[must_use]
    pub fn row_range(&self, v: usize) -> std::ops::Range<usize> {
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// Row-slice fast path: the neighbors of `v` as one contiguous slice,
    /// sorted ascending. One bounds check per row instead of one per
    /// element; the delivery loop iterates this directly.
    #[inline]
    #[must_use]
    pub fn neighbor_row(&self, v: usize) -> &[u32] {
        debug_assert!(v < self.n, "vertex {v} out of range (n = {})", self.n);
        &self.neighbors[self.row_range(v)]
    }

    /// Row-slice fast path: the edge ids of `v`'s row, parallel to
    /// [`Graph::neighbor_row`].
    #[inline]
    #[must_use]
    pub fn edge_id_row(&self, v: usize) -> &[u32] {
        debug_assert!(v < self.n, "vertex {v} out of range (n = {})", self.n);
        &self.edge_ids[self.row_range(v)]
    }

    /// The full CSR offset array (`n + 1` entries, last is `2m`).
    #[inline]
    #[must_use]
    pub fn csr_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The full flat neighbor array (`2m` entries, rows sorted).
    #[inline]
    #[must_use]
    pub fn csr_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// The full flat edge-id array, parallel to [`Graph::csr_neighbors`].
    #[inline]
    #[must_use]
    pub fn csr_edge_ids(&self) -> &[u32] {
        &self.edge_ids
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterator over `(neighbor, edge_id)` pairs of `v`, sorted by neighbor.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.neighbor_row(v)
            .iter()
            .zip(self.edge_id_row(v))
            .map(|(&u, &e)| (u as usize, e as usize))
    }

    /// Iterator over the neighbor vertices of `v` (without edge ids).
    #[inline]
    pub fn neighbor_vertices(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbor_row(v).iter().map(|&u| u as usize)
    }

    /// Endpoints `(u, v)` with `u < v` of the edge with id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    pub fn endpoints(&self, e: usize) -> (usize, usize) {
        let (u, v) = self.edges[e];
        (u as usize, v as usize)
    }

    /// Iterator over all edges as `(edge_id, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e, u as usize, v as usize))
    }

    /// Edge id of the edge `{u, v}`, if present: binary search on the
    /// sorted CSR row of the lower endpoint.
    #[inline]
    #[must_use]
    pub fn edge_id(&self, u: usize, v: usize) -> Option<usize> {
        let a = u.min(v);
        let b = u.max(v) as u32;
        let row = self.neighbor_row(a);
        row.binary_search(&b).ok().map(|i| self.edge_id_row(a)[i] as usize)
    }

    /// Returns `true` if `{u, v}` is an edge.
    #[inline]
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Weight of edge `e` (1 if the graph is unweighted).
    pub fn weight(&self, e: usize) -> u64 {
        self.weights.as_ref().map_or(1, |w| w[e])
    }

    /// Maximum edge weight `W` (paper notation), or 1 if unweighted/empty.
    pub fn max_weight(&self) -> u64 {
        self.weights
            .as_ref()
            .and_then(|w| w.iter().copied().max())
            .unwrap_or(1)
    }

    /// Returns `true` if explicit edge weights were supplied.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Label of edge `e` ([`Sign::Positive`] if the graph is unlabeled).
    pub fn label(&self, e: usize) -> Sign {
        self.labels.as_ref().map_or(Sign::Positive, |l| l[e])
    }

    /// Returns `true` if explicit correlation-clustering labels were supplied.
    pub fn is_labeled(&self) -> bool {
        self.labels.is_some()
    }

    /// Returns a copy of this graph with the given edge weights attached.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != m` or any weight is zero (the paper
    /// assumes positive integer weights).
    pub fn with_weights(mut self, weights: Vec<u64>) -> Graph {
        assert_eq!(weights.len(), self.m(), "one weight per edge required");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        self.weights = Some(weights);
        self
    }

    /// Returns a copy of this graph with correlation-clustering labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != m`.
    pub fn with_labels(mut self, labels: Vec<Sign>) -> Graph {
        assert_eq!(labels.len(), self.m(), "one label per edge required");
        self.labels = Some(labels);
        self
    }

    /// Breadth-first distances from `src`; unreachable vertices get
    /// `usize::MAX`.
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        self.bfs_into(src, &mut dist, &mut Vec::new());
        dist
    }

    /// BFS from `src` into reusable buffers: `dist` (length `n`) is reset
    /// and filled, `order` receives the reached vertices by non-decreasing
    /// distance. Returns the eccentricity of `src` within its component.
    fn bfs_into(&self, src: usize, dist: &mut [usize], order: &mut Vec<usize>) -> usize {
        dist.fill(usize::MAX);
        order.clear();
        dist[src] = 0;
        order.push(src);
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for &u in self.neighbor_row(v) {
                if dist[u as usize] == usize::MAX {
                    dist[u as usize] = dist[v] + 1;
                    order.push(u as usize);
                }
            }
        }
        dist[order[head - 1]]
    }

    /// Connected components: returns `(component_id_per_vertex, k)`.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.n];
        let mut k = 0;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = k;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for (u, _) in self.neighbors(v) {
                    if comp[u] == usize::MAX {
                        comp[u] = k;
                        stack.push(u);
                    }
                }
            }
            k += 1;
        }
        (comp, k)
    }

    /// Returns `true` if the graph is connected (the empty graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        self.n == 0 || self.connected_components().1 == 1
    }

    /// Exact diameter; `None` for disconnected or empty graphs. iFUB: a
    /// double sweep gives a long shortest path and so a lower bound; every
    /// pair within distance `i` of its midpoint `c` is at most `2i` apart,
    /// so eccentricities are taken from `c`'s farthest BFS level inwards
    /// until the best one seen reaches `2i` — a handful of traversals on
    /// the near-round clusters the framework measures, all `n` only when
    /// every vertex is equally central (a cycle, a clique).
    pub fn diameter(&self) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let mut dist = vec![usize::MAX; self.n];
        let mut order = Vec::with_capacity(self.n);
        self.bfs_into(0, &mut dist, &mut order);
        if order.len() < self.n {
            return None;
        }
        let far = order[self.n - 1];
        let mut lower = self.bfs_into(far, &mut dist, &mut order);
        // walk half-way back along a shortest path from the other end
        let mut centre = order[self.n - 1];
        for _ in 0..lower / 2 {
            centre = self
                .neighbor_vertices(centre)
                .find(|&u| dist[u] + 1 == dist[centre])
                .expect("a BFS-reached vertex other than the source has a predecessor");
        }
        let mut level = self.bfs_into(centre, &mut dist, &mut order);
        lower = lower.max(level);
        let by_level: Vec<(usize, usize)> = order.iter().map(|&v| (dist[v], v)).collect();
        let mut fringe = by_level.iter().rev().peekable();
        while 2 * level > lower {
            while let Some(&(_, v)) = fringe.next_if(|&&(d, _)| d == level) {
                lower = lower.max(self.bfs_into(v, &mut dist, &mut order));
            }
            level -= 1;
        }
        Some(lower)
    }

    /// Induced subgraph `G[S]`.
    ///
    /// Returns the subgraph together with the map from new vertex ids to the
    /// original ids (`mapping[new] = old`). Weights and labels are carried
    /// over. Duplicate vertices in `set` are ignored. Costs `O(n + vol(S))`.
    pub fn induced_subgraph(&self, set: &[usize]) -> (Graph, Vec<usize>) {
        let mut mapping: Vec<usize> = Vec::with_capacity(set.len());
        // vertex ids fit `u32` with `u32::MAX` to spare (`GraphBuilder::new`)
        let mut new_id = vec![u32::MAX; self.n];
        for &v in set {
            if new_id[v] == u32::MAX {
                new_id[v] = mapping.len() as u32;
                mapping.push(v);
            }
        }
        // the rows of `set` — vol(S) work, not a scan of all m edges —
        // picking each inner edge once, from its lower new id
        let mut picks = Vec::new();
        for (&v, a) in mapping.iter().zip(0u32..) {
            for (&u, &e) in self.neighbor_row(v).iter().zip(self.edge_id_row(v)) {
                let b = new_id[u as usize];
                if b != u32::MAX && a < b {
                    picks.push((a, b, e));
                }
            }
        }
        let g = derive(mapping.len(), picks, self.weights.as_deref(), self.labels.as_deref());
        (g, mapping)
    }

    /// Subgraph containing exactly the edges in `edge_ids` and **all** `n`
    /// vertices (isolated vertices are kept). Weights and labels carry over.
    pub fn edge_subgraph(&self, edge_ids: &[usize]) -> Graph {
        let picks = edge_ids
            .iter()
            .map(|&e| {
                let (u, v) = self.edges[e];
                (u, v, e as u32)
            })
            .collect();
        derive(self.n, picks, self.weights.as_deref(), self.labels.as_deref())
    }

    /// Degeneracy ordering: repeatedly remove a minimum-degree vertex.
    ///
    /// Returns `(order, degeneracy)` where `order[i]` is the i-th removed
    /// vertex and `degeneracy` is the maximum degree at removal time. The
    /// degeneracy upper-bounds arboricity and is O(1) for H-minor-free
    /// graphs (paper §2.2, edge density argument).
    pub fn degeneracy_ordering(&self) -> (Vec<usize>, usize) {
        let n = self.n;
        let mut deg: Vec<usize> = (0..n).map(|v| self.degree(v)).collect();
        let maxd = self.max_degree();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); maxd + 1];
        for v in 0..n {
            buckets[deg[v]].push(v);
        }
        let mut removed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut degeneracy = 0;
        let mut cursor = 0usize;
        for _ in 0..n {
            // find the lowest non-empty bucket, starting from the last
            // removal degree minus one (degrees drop by at most 1 per step).
            cursor = cursor.saturating_sub(1);
            let v = {
                while cursor <= maxd {
                    if let Some(&cand) = buckets[cursor].last() {
                        if !removed[cand] && deg[cand] == cursor {
                            break;
                        }
                        buckets[cursor].pop();
                        continue;
                    }
                    cursor += 1;
                }
                assert!(cursor <= maxd, "bucket scan exhausted with vertices remaining");
                buckets[cursor].pop().expect("bucket scan stops at a non-empty bucket")
            };
            removed[v] = true;
            degeneracy = degeneracy.max(deg[v]);
            order.push(v);
            for (u, _) in self.neighbors(v) {
                if !removed[u] {
                    deg[u] -= 1;
                    buckets[deg[u]].push(u);
                }
            }
        }
        (order, degeneracy)
    }

    /// Disjoint union of two graphs; the second graph's vertices are shifted
    /// by `self.n()`. Weights/labels carry over when both sides have them.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        assert!(self.n + other.n <= u32::MAX as usize, "vertex count exceeds u32 range");
        let shift = self.n as u32;
        let shifted = other.edges.iter().map(|&(u, v)| (u + shift, v + shift));
        let picks = self
            .edges
            .iter()
            .copied()
            .chain(shifted)
            .zip(0u32..)
            .map(|((u, v), i)| (u, v, i))
            .collect();
        // pick `i` indexes the two sides' arrays laid end to end
        let weights = self.weights.as_ref().zip(other.weights.as_ref()).map(|(a, b)| [&a[..], &b[..]].concat());
        let labels = self.labels.as_ref().zip(other.labels.as_ref()).map(|(a, b)| [&a[..], &b[..]].concat());
        derive(self.n + other.n, picks, weights.as_deref(), labels.as_deref())
    }
}

/// Incremental builder for [`Graph`].
///
/// Duplicate edges are silently deduplicated; self-loops are rejected.
///
/// # Examples
///
/// ```
/// use lcg_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, ignored
/// let g = b.build();
/// assert_eq!(g.m(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> GraphBuilder {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Number of vertices the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: usize, v: usize) -> &mut Self {
        assert!(u != v, "self-loops are not allowed (simple graphs only)");
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        let (a, b) = (u.min(v) as u32, u.max(v) as u32);
        self.edges.push((a, b));
        self
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    pub fn extend_edges<I: IntoIterator<Item = (usize, usize)>>(&mut self, it: I) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Finalizes the graph: sorts and deduplicates the edge list, then
    /// builds the flat CSR adjacency in a single counting + fill pass
    /// (rows come out sorted for free, with no per-row sort).
    pub fn build(self) -> Graph {
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        let (offsets, neighbors, edge_ids) = build_csr(self.n, &edges);
        Graph {
            n: self.n,
            edges,
            offsets,
            neighbors,
            edge_ids,
            weights: None,
            labels: None,
        }
    }
}

impl FromIterator<(usize, usize)> for GraphBuilder {
    /// Builds a `GraphBuilder` whose vertex count is one more than the
    /// largest endpoint seen.
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let edges: Vec<(usize, usize)> = iter.into_iter().collect();
        let n = edges
            .iter()
            .map(|&(u, v)| u.max(v) + 1)
            .max()
            .unwrap_or(0);
        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge(i - 1, i);
        }
        b.build()
    }

    #[test]
    fn builds_simple_graph() {
        let g = path(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn dedups_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        assert_eq!(g.m(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    fn edge_lookup() {
        let g = path(4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_id(2, 3), Some(2));
        assert_eq!(g.endpoints(g.edge_id(1, 2).unwrap()), (1, 2));
    }

    #[test]
    fn bfs_and_diameter() {
        let g = path(6);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(g.diameter(), Some(5));
        assert_eq!(g.bfs_distances(2).into_iter().max(), Some(3));
    }

    #[test]
    fn components() {
        let g = path(3).disjoint_union(&path(2));
        let (comp, k) = g.connected_components();
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn induced_subgraph_keeps_weights() {
        let g = path(4).with_weights(vec![10, 20, 30]);
        let (h, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(h.n(), 3);
        assert_eq!(h.m(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert_eq!((0..h.m()).map(|e| h.weight(e)).sum::<u64>(), 50);
    }

    #[test]
    fn edge_subgraph_keeps_isolated_vertices() {
        let g = path(4);
        let h = g.edge_subgraph(&[0]);
        assert_eq!(h.n(), 4);
        assert_eq!(h.m(), 1);
        assert_eq!(h.degree(3), 0);
    }

    #[test]
    fn degeneracy_of_path_is_one() {
        let (_, d) = path(10).degeneracy_ordering();
        assert_eq!(d, 1);
    }

    #[test]
    fn degeneracy_of_complete_graph() {
        let mut b = GraphBuilder::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                b.add_edge(u, v);
            }
        }
        let (order, d) = b.build().degeneracy_ordering();
        assert_eq!(order.len(), 5);
        assert_eq!(d, 4);
    }

    #[test]
    fn labels_default_positive() {
        let g = path(3);
        assert_eq!(g.label(0), Sign::Positive);
        let g = g.with_labels(vec![Sign::Negative, Sign::Positive]);
        assert_eq!(g.label(0), Sign::Negative);
        assert!(g.is_labeled());
    }

    #[test]
    fn from_iterator_builder() {
        let b: GraphBuilder = [(0, 1), (1, 2), (2, 5)].into_iter().collect();
        let g = b.build();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn disjoint_union_shifts() {
        let g = path(2).disjoint_union(&path(3));
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(1, 2));
    }
}
