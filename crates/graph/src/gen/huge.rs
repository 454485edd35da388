//! Huge-sparse generator family for the million-node scale tier.
//!
//! Three seeded families sized for n = 10⁶–10⁷, one per sparse class the
//! paper's theorems quantify over:
//!
//! - [`bounded_arboricity`] — incremental a-degenerate attachment, the
//!   bounded-arboricity regime of Theorems 1.1/1.2;
//! - [`grid_with_noise`] — a planar grid plus a sprinkling of short-range
//!   chords, the "planar-ish" regime of Theorem 3.2 at scale;
//! - [`power_law`] — preferential attachment with small diameter, the
//!   adversarially skewed degree sequence for flood/routing stress.
//!
//! Unlike the small-n generators, these avoid any O(n²) work and keep
//! peak memory at the final edge list plus the CSR arrays.

use rand::Rng;

use crate::graph::{Graph, GraphBuilder};

/// Incremental bounded-arboricity graph: vertex `v ≥ 1` attaches to
/// `min(v, k)` distinct earlier vertices, where `k` is uniform in
/// `1..=a`. Every vertex has back-degree ≤ `a`, so the graph is
/// a-degenerate and its arboricity is at most `a`.
///
/// # Panics
///
/// Panics if `a == 0` or `n == 0`.
pub fn bounded_arboricity(n: usize, a: usize, rng: &mut impl Rng) -> Graph {
    assert!(n > 0 && a > 0, "need n > 0 and arboricity bound a > 0");
    let mut b = GraphBuilder::new(n);
    let mut picked: Vec<usize> = Vec::with_capacity(a);
    for v in 1..n {
        let k = rng.gen_range(1..=a).min(v);
        picked.clear();
        while picked.len() < k {
            let u = rng.gen_range(0..v);
            if !picked.contains(&u) {
                picked.push(u);
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Planar-ish grid: a `rows × cols` grid plus `noise_frac · n` extra
/// chords, each connecting a vertex to another at distance ≤ 3 in grid
/// coordinates. The chords break strict planarity but keep the graph in
/// the low-density, large-diameter regime planar solvers are tuned for.
///
/// # Panics
///
/// Panics if `rows < 2` or `cols < 2`.
pub fn grid_with_noise(rows: usize, cols: usize, noise_frac: f64, rng: &mut impl Rng) -> Graph {
    assert!(rows >= 2 && cols >= 2, "grid needs at least 2×2");
    let n = rows * cols;
    let at = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(at(r, c), at(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(at(r, c), at(r + 1, c));
            }
        }
    }
    let extra = (noise_frac * n as f64) as usize;
    for _ in 0..extra {
        let r = rng.gen_range(0..rows);
        let c = rng.gen_range(0..cols);
        // a short-range chord: jump up to ±3 in each grid coordinate
        let r2 = (r as i64 + rng.gen_range(-3i64..=3)).clamp(0, rows as i64 - 1) as usize;
        let c2 = (c as i64 + rng.gen_range(-3i64..=3)).clamp(0, cols as i64 - 1) as usize;
        if (r, c) != (r2, c2) {
            b.add_edge(at(r, c), at(r2, c2));
        }
    }
    b.build()
}

/// Preferential-attachment power-law graph: each vertex `v ≥ 1` attaches
/// to `min(v, k)` targets drawn degree-proportionally (by sampling the
/// running endpoints array), deduplicating per vertex. Produces a skewed
/// degree sequence and O(log n) diameter — a flood on n = 10⁶ converges
/// in a few dozen rounds.
///
/// # Panics
///
/// Panics if `n == 0` or `k == 0`.
pub fn power_law(n: usize, k: usize, rng: &mut impl Rng) -> Graph {
    assert!(n > 0 && k > 0, "need n > 0 and attachment count k > 0");
    let mut b = GraphBuilder::new(n);
    // every edge pushes both endpoints; sampling uniformly from this
    // array is sampling vertices proportionally to their current degree
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * k);
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    for v in 1..n {
        let want = k.min(v);
        picked.clear();
        let mut attempts = 0usize;
        while picked.len() < want {
            // fall back to uniform while the array is empty or after too
            // many duplicate draws (early vertices saturate quickly)
            let u = if endpoints.is_empty() || attempts > 8 * k {
                rng.gen_range(0..v)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())] as usize
            };
            attempts += 1;
            if u < v && !picked.contains(&u) {
                picked.push(u);
            }
        }
        for &u in &picked {
            b.add_edge(u, v);
            endpoints.push(u as u32);
            endpoints.push(v as u32);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::seeded_rng;

    #[test]
    fn bounded_arboricity_is_degenerate() {
        let mut rng = seeded_rng(11);
        let g = bounded_arboricity(2_000, 3, &mut rng);
        assert!(g.is_connected());
        let (_, d) = g.degeneracy_ordering();
        assert!(d <= 3, "degeneracy {d} exceeds arboricity bound");
        assert!(g.m() <= 3 * g.n());
    }

    #[test]
    fn grid_with_noise_stays_sparse() {
        let mut rng = seeded_rng(12);
        let g = grid_with_noise(40, 50, 0.05, &mut rng);
        assert_eq!(g.n(), 2_000);
        assert!(g.is_connected());
        let density = g.m() as f64 / g.n() as f64;
        assert!(density < 2.2, "density {density}");
    }

    #[test]
    fn power_law_has_small_diameter_and_skew() {
        let mut rng = seeded_rng(13);
        let g = power_law(5_000, 2, &mut rng);
        assert!(g.is_connected());
        assert!(g.m() <= 2 * g.n());
        // skew: the hubs dominate the mean degree by a wide margin
        assert!(g.max_degree() >= 10 * (2 * g.m() / g.n()));
        // small world: a double BFS sweep bounds the diameter well below
        // anything grid-like at this size
        let d0 = g.bfs_distances(0);
        let far = (0..g.n()).max_by_key(|&v| d0[v]).unwrap();
        assert!(g.bfs_distances(far).into_iter().max().unwrap() <= 30);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a = bounded_arboricity(500, 2, &mut seeded_rng(9));
        let b = bounded_arboricity(500, 2, &mut seeded_rng(9));
        assert_eq!(a.csr_neighbors(), b.csr_neighbors());
        let c = power_law(500, 2, &mut seeded_rng(9));
        let d = power_law(500, 2, &mut seeded_rng(9));
        assert_eq!(c.csr_neighbors(), d.csr_neighbors());
    }
}
