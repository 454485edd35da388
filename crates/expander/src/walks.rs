//! Lazy random walks and mixing times (paper §2, "Mixing Time").
//!
//! The paper defines the uniform lazy walk `p_i(u) = ½ p_{i-1}(u) +
//! ½ Σ_{w∈N(u)} p_{i-1}(w)/deg(w)` with stationary distribution
//! `π(u) = deg(u)/vol(V)` and mixing time `τ_mix = min { t :
//! |p_t^v(u) − π(u)| ≤ π(u)/n ∀u,v }`, and uses the sandwich
//! `Θ(1/Φ) ≤ τ_mix ≤ Θ(log n / Φ²)`. This module steps walk distributions
//! exactly ([`lazy_step`], a dense iteration) and measures τ_mix from them.

use lcg_graph::Graph;

/// Stationary distribution `π(u) = deg(u) / vol(V)`.
///
/// # Panics
///
/// Panics if the graph has no edges.
pub fn stationary(g: &Graph) -> Vec<f64> {
    assert!(g.m() > 0, "stationary distribution needs at least one edge");
    let vol = (2 * g.m()) as f64;
    (0..g.n()).map(|v| g.degree(v) as f64 / vol).collect()
}

/// One lazy-walk step: `p'(u) = ½ p(u) + ½ Σ_{w∈N(u)} p(w)/deg(w)`.
pub fn lazy_step(g: &Graph, p: &[f64]) -> Vec<f64> {
    let n = g.n();
    let mut out = vec![0.0; n];
    for u in 0..n {
        let mut acc = 0.5 * p[u];
        for (w, _) in g.neighbors(u) {
            acc += 0.5 * p[w] / g.degree(w) as f64;
        }
        out[u] = acc;
    }
    out
}

/// Is `p` mixed in the paper's sense (`|p(u) − π(u)| ≤ π(u)/n` for all u)?
pub fn is_mixed(g: &Graph, p: &[f64], pi: &[f64]) -> bool {
    let n = g.n() as f64;
    p.iter()
        .zip(pi)
        .all(|(&pu, &piu)| (pu - piu).abs() <= piu / n)
}

/// Mixing time from a single start vertex: the first `t ≤ max_t` whose
/// distribution is mixed, or `None`.
pub fn mixing_time_from(g: &Graph, start: usize, max_t: usize) -> Option<usize> {
    let pi = stationary(g);
    let mut p = vec![0.0; g.n()];
    p[start] = 1.0;
    if is_mixed(g, &p, &pi) {
        return Some(0);
    }
    for t in 1..=max_t {
        p = lazy_step(g, &p);
        if is_mixed(g, &p, &pi) {
            return Some(t);
        }
    }
    None
}

/// Exact mixing time `τ_mix(G)`: the maximum of [`mixing_time_from`] over
/// all start vertices. Quadratic in n per step; use on clusters.
pub fn mixing_time(g: &Graph, max_t: usize) -> Option<usize> {
    let mut worst = 0;
    for v in 0..g.n() {
        worst = worst.max(mixing_time_from(g, v, max_t)?);
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    #[test]
    fn stationary_sums_to_one() {
        let g = gen::grid(5, 5);
        let pi = stationary(&g);
        let s: f64 = pi.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_step_preserves_mass() {
        let g = gen::cycle(7);
        let mut p = vec![0.0; g.n()];
        p[0] = 1.0;
        (0..13).for_each(|_| p = lazy_step(&g, &p));
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let g = gen::star(6);
        let pi = stationary(&g);
        let p2 = lazy_step(&g, &pi);
        for (a, b) in pi.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn complete_graph_mixes_fast() {
        let g = gen::complete(10);
        let t = mixing_time(&g, 100).unwrap();
        assert!(t <= 15, "τ_mix = {t}");
    }

    #[test]
    fn path_mixes_slowly() {
        // τ_mix of a path is Θ(n²)
        let fast = mixing_time(&gen::path(8), 10_000).unwrap();
        let slow = mixing_time(&gen::path(16), 10_000).unwrap();
        assert!(slow as f64 >= 2.5 * fast as f64, "fast={fast} slow={slow}");
    }

    #[test]
    fn cheeger_mixing_sandwich() {
        // τ_mix >= c / Φ and <= C log n / Φ² — check on a cycle where
        // Φ = 2/n: τ_mix should be between ~n/4 and ~n² log n.
        let n = 16;
        let g = gen::cycle(n);
        let t = mixing_time(&g, 50_000).unwrap() as f64;
        let phi = 2.0 / n as f64; // Φ(C_n) = 2 / vol(half) = 2/n for even n
        assert!(t >= 0.1 / phi, "too fast: {t}");
        let upper = 40.0 * (n as f64).ln() / (phi * phi);
        assert!(t <= upper, "too slow: {t} > {upper}");
    }

    #[test]
    fn mixing_time_none_when_capped() {
        let g = gen::path(30);
        assert_eq!(mixing_time(&g, 3), None);
    }
}
