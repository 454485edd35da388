//! Spectral bounds on conductance: power iteration for the second
//! eigenvalue of the normalized Laplacian, giving the Cheeger sandwich
//! `λ₂/2 ≤ Φ(G) ≤ √(2·λ₂)`.
//!
//! The decomposition ([`crate::decomp`]) reports `λ₂/2` as a Cheeger
//! *estimate* of cluster conductance and the sweep cut ([`crate::sweep`])
//! as the constructive upper bound. The estimate is a lower bound only for
//! the true `λ₂`: plain power iteration on `2I − L` approaches `λ₂` from
//! above, so the value is an over-estimate whenever
//! [`Spectral::iterations`] equals the cap it was given — and the
//! decomposition's `lambda2(·, 1e-9, 4_000)` hits that cap at every
//! benchmark size (1.2–5.4× too large on `grid_with_noise`, side 50–200).
//! A sound bound is ROADMAP item 2.

use lcg_graph::Graph;

/// Result of the spectral analysis of a connected graph.
#[derive(Debug, Clone)]
pub struct Spectral {
    /// Second-smallest eigenvalue of the normalized Laplacian `L = I − N`,
    /// `N = D^{-1/2} A D^{-1/2}`.
    pub lambda2: f64,
    /// The corresponding eigenvector `x` (of `L`, in the `D^{1/2}` inner
    /// product space); `y = D^{-1/2} x` orders vertices for sweep cuts.
    pub eigenvector: Vec<f64>,
    /// Power-iteration steps performed.
    pub iterations: usize,
}

impl Spectral {
    /// Cheeger estimate `λ₂ / 2`: a lower bound on `Φ(G)` once the
    /// iteration has converged, an over-estimate while it has not.
    pub fn conductance_lower_bound(&self) -> f64 {
        (self.lambda2 / 2.0).max(0.0)
    }

    /// Cheeger upper bound `Φ(G) ≤ √(2 λ₂)`.
    pub fn conductance_upper_bound(&self) -> f64 {
        (2.0 * self.lambda2.max(0.0)).sqrt()
    }

    /// The sweep ordering values `y_v = x_v / √deg(v)`.
    pub fn sweep_values(&self, g: &Graph) -> Vec<f64> {
        self.eigenvector
            .iter()
            .enumerate()
            .map(|(v, &x)| x / (g.degree(v).max(1) as f64).sqrt())
            .collect()
    }
}

/// Computes `λ₂` and its eigenvector by shifted power iteration on
/// `M = 2I − L` (PSD with top eigenvector `D^{1/2}·1`), deflating the top
/// eigenvector.
///
/// `tol` controls the eigenvalue convergence (`1e-8` is a good default);
/// `max_iter` caps the work. Deterministic: starts from a fixed pseudo-
/// random vector derived from vertex ids.
///
/// # Panics
///
/// Panics if the graph is disconnected or has isolated vertices (normalize
/// by degree requires `deg > 0`; the decomposition always calls this on
/// connected components).
pub fn lambda2(g: &Graph, tol: f64, max_iter: usize) -> Spectral {
    let n = g.n();
    assert!(g.is_connected(), "lambda2 requires a connected graph");
    assert!(
        (0..n).all(|v| g.degree(v) > 0) || n <= 1,
        "lambda2 requires minimum degree 1"
    );
    if n <= 1 {
        return Spectral {
            lambda2: 0.0,
            eigenvector: vec![0.0; n],
            iterations: 0,
        };
    }
    let sqrt_deg: Vec<f64> = (0..n).map(|v| (g.degree(v) as f64).sqrt()).collect();
    // top eigenvector of M: phi_1 = D^{1/2} 1, normalized
    let norm1: f64 = sqrt_deg.iter().map(|d| d * d).sum::<f64>().sqrt();
    let top: Vec<f64> = sqrt_deg.iter().map(|d| d / norm1).collect();

    // deterministic pseudo-random start, deflated against top
    let mut x: Vec<f64> = (0..n)
        .map(|v| {
            let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    deflate(&mut x, &top);
    normalize(&mut x);

    let mut y = vec![0.0; n];
    let mut prev_mu = f64::INFINITY;
    let mut iters = 0;
    for it in 0..max_iter {
        iters = it + 1;
        apply(g, &sqrt_deg, &x, &mut y);
        deflate(&mut y, &top);
        let mu = dot(&x, &y); // Rayleigh quotient for M (x is unit)
        normalize(&mut y);
        std::mem::swap(&mut x, &mut y);
        if (mu - prev_mu).abs() < tol {
            prev_mu = mu;
            break;
        }
        prev_mu = mu;
    }
    // mu = 2 - lambda2
    let lambda2 = (2.0 - prev_mu).max(0.0);
    Spectral {
        lambda2,
        eigenvector: x,
        iterations: iters,
    }
}

/// `out = M x = 2x − L x = x + N x`. A function of its own, over slices of
/// one length: the decomposition spends its time in this loop, and inlined
/// into `lambda2` its speed moved by 2× with where the linker put it.
#[inline(never)]
fn apply(g: &Graph, sqrt_deg: &[f64], x: &[f64], out: &mut [f64]) {
    let n = g.n();
    let (sqrt_deg, x) = (&sqrt_deg[..n], &x[..n]);
    for (v, acc) in out[..n].iter_mut().enumerate() {
        let mut sum = x[v]; // the "x" term
        for &u in g.neighbor_row(v) {
            sum += x[u as usize] / (sqrt_deg[v] * sqrt_deg[u as usize]);
        }
        *acc = sum;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn deflate(x: &mut [f64], top: &[f64]) {
    let c = dot(x, top);
    for (xi, ti) in x.iter_mut().zip(top) {
        *xi -= c * ti;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = dot(x, x).sqrt();
    if norm > 0.0 {
        for xi in x.iter_mut() {
            *xi /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;

    fn l2(g: &Graph) -> Spectral {
        lambda2(g, 1e-10, 20_000)
    }

    #[test]
    fn complete_graph_lambda2() {
        // K_n has normalized Laplacian eigenvalue n/(n-1) (multiplicity n-1)
        let g = gen::complete(6);
        let s = l2(&g);
        assert!((s.lambda2 - 6.0 / 5.0).abs() < 1e-6, "λ2 = {}", s.lambda2);
    }

    #[test]
    fn cycle_lambda2() {
        // C_n: λ2 = 1 - cos(2π/n)
        let n = 12;
        let g = gen::cycle(n);
        let s = l2(&g);
        let expect = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((s.lambda2 - expect).abs() < 1e-6, "λ2 = {}", s.lambda2);
    }

    #[test]
    fn cheeger_sandwich_on_small_graphs() {
        let mut rng = gen::seeded_rng(100);
        for _ in 0..10 {
            let g = gen::gnm(12, 20, &mut rng);
            if !g.is_connected() {
                continue;
            }
            let s = l2(&g);
            let (phi, _) = crate::conductance::exact_conductance(&g).unwrap();
            assert!(
                s.conductance_lower_bound() <= phi + 1e-6,
                "lower {} > phi {}",
                s.conductance_lower_bound(),
                phi
            );
            assert!(
                s.conductance_upper_bound() >= phi - 1e-6,
                "upper {} < phi {}",
                s.conductance_upper_bound(),
                phi
            );
        }
    }

    #[test]
    fn dumbbell_low_lambda2() {
        let k5 = gen::complete(5);
        let mut b = lcg_graph::GraphBuilder::new(10);
        for (_, u, v) in k5.edges() {
            b.add_edge(u, v);
            b.add_edge(u + 5, v + 5);
        }
        b.add_edge(0, 5);
        let s = l2(&b.build());
        assert!(s.lambda2 < 0.15, "λ2 = {}", s.lambda2);
    }

    #[test]
    fn eigenvector_separates_dumbbell() {
        let k4 = gen::complete(4);
        let mut b = lcg_graph::GraphBuilder::new(8);
        for (_, u, v) in k4.edges() {
            b.add_edge(u, v);
            b.add_edge(u + 4, v + 4);
        }
        b.add_edge(0, 4);
        let g = b.build();
        let s = l2(&g);
        let y = s.sweep_values(&g);
        // the two K4 halves should have opposite signs
        let side_a = (y[1] > 0.0, y[2] > 0.0, y[3] > 0.0);
        let side_b = (y[5] > 0.0, y[6] > 0.0, y[7] > 0.0);
        assert_eq!(side_a.0, side_a.1);
        assert_eq!(side_a.0, side_a.2);
        assert_eq!(side_b.0, side_b.1);
        assert_eq!(side_b.0, side_b.2);
        assert_ne!(side_a.0, side_b.0);
    }

    #[test]
    fn single_vertex_trivial() {
        let g = lcg_graph::GraphBuilder::new(1).build();
        let s = l2(&g);
        assert_eq!(s.lambda2, 0.0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_panics() {
        let g = gen::path(2).disjoint_union(&gen::path(2));
        l2(&g);
    }
}
