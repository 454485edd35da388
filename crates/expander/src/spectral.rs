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
/// `tol` is the change in the Rayleigh quotient between two iterations
/// below which the iteration stops (the decomposition passes `1e-9`, the
/// tests here `1e-10`; on grid-like clusters of benchmark size neither is
/// reached before `max_iter` — see the module note); `max_iter` caps the
/// work. Deterministic: starts from a fixed pseudo-random vector derived
/// from vertex ids, and every reduction adds into four lanes summed in one
/// fixed order, with no fused multiply-add, so the result is a pure
/// function of the graph on every target.
///
/// One iteration is three passes: `scale` (normalize the previous iterate
/// and form `z = D^{-1/2} x`), `apply` (the one pass over the adjacency:
/// `y = x + D^{-1/2} A z`, with `y · φ₁` accumulated on the way) and
/// `deflate` (`y −= (y · φ₁) φ₁`, with the Rayleigh quotient `x · y` and
/// `‖y‖²` accumulated on the way). No pass divides.
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
    let (top, mut x) = top_and_start(g);
    let inv_sqrt_deg: Vec<f64> = (0..n).map(|v| 1.0 / (g.degree(v) as f64).sqrt()).collect();
    let (mut y, mut z) = (vec![0.0; n], vec![0.0; n]);
    // `x` holds a unit vector times `1 / pending`: the scaling the last
    // iteration owes is paid by the next one's first pass (or after the loop)
    let mut pending = 1.0;
    let mut prev_mu = f64::INFINITY;
    let mut iters = 0;
    for it in 0..max_iter {
        iters = it + 1;
        scale(&mut x, pending, &inv_sqrt_deg, &mut z);
        let c = apply(g, &inv_sqrt_deg, &x, &z, &top, &mut y);
        let (mu, norm2) = deflate(&mut y, c, &top, &x); // mu: Rayleigh quotient for M (x is unit)
        pending = if norm2 > 0.0 { 1.0 / norm2.sqrt() } else { 1.0 };
        std::mem::swap(&mut x, &mut y);
        if (mu - prev_mu).abs() < tol {
            prev_mu = mu;
            break;
        }
        prev_mu = mu;
    }
    scale(&mut x, pending, &inv_sqrt_deg, &mut z);
    // mu = 2 - lambda2
    let lambda2 = (2.0 - prev_mu).max(0.0);
    Spectral {
        lambda2,
        eigenvector: x,
        iterations: iters,
    }
}

/// The top eigenvector of `M`, `φ₁ = D^{1/2}·1` normalized, and the start
/// vector: a fixed pseudo-random function of the vertex ids, deflated
/// against `φ₁` and normalized.
fn top_and_start(g: &Graph) -> (Vec<f64>, Vec<f64>) {
    let n = g.n();
    let sqrt_deg: Vec<f64> = (0..n).map(|v| (g.degree(v) as f64).sqrt()).collect();
    let norm1: f64 = sqrt_deg.iter().map(|d| d * d).sum::<f64>().sqrt();
    let top: Vec<f64> = sqrt_deg.iter().map(|d| d / norm1).collect();
    let mut x: Vec<f64> = (0..n)
        .map(|v| {
            let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    let c: f64 = x.iter().zip(&top).map(|(x, t)| x * t).sum();
    for (xi, ti) in x.iter_mut().zip(&top) {
        *xi -= c * ti;
    }
    let norm = x.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for xi in x.iter_mut() {
            *xi /= norm;
        }
    }
    (top, x)
}

/// Accumulators per reduction. Element `i` of a pass adds into lane
/// `i % LANES` and [`sum_lanes`] combines them, so a reduction is one fixed
/// expression whatever the target's vector width — and four independent
/// chains instead of one add latency per element.
const LANES: usize = 4;

fn sum_lanes(lanes: [f64; LANES]) -> f64 {
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// `x *= by`, `z = D^{-1/2} x`.
#[inline(never)]
fn scale(x: &mut [f64], by: f64, inv_sqrt_deg: &[f64], z: &mut [f64]) {
    for ((xi, zi), isd) in x.iter_mut().zip(z).zip(inv_sqrt_deg) {
        *xi *= by;
        *zi = *xi * isd;
    }
}

/// `out = M x = 2x − L x = x + N x` with `z = D^{-1/2} x` given, so the
/// gather over the adjacency is loads and adds only; returns `out · top`.
/// A function of its own, over slices of one length: the decomposition
/// spends its time in this loop, and inlined into `lambda2` its speed
/// moved by 2× with where the linker put it.
#[inline(never)]
fn apply(g: &Graph, inv_sqrt_deg: &[f64], x: &[f64], z: &[f64], top: &[f64], out: &mut [f64]) -> f64 {
    let n = g.n();
    let (inv_sqrt_deg, x, z, top) = (&inv_sqrt_deg[..n], &x[..n], &z[..n], &top[..n]);
    let (offsets, neighbors) = (g.csr_offsets(), g.csr_neighbors());
    let mut dot = [0.0; LANES];
    for (v, (acc, row)) in out[..n].iter_mut().zip(offsets.windows(2)).enumerate() {
        let mut sum = 0.0;
        for &u in &neighbors[row[0] as usize..row[1] as usize] {
            sum += z[u as usize];
        }
        *acc = x[v] + inv_sqrt_deg[v] * sum;
        dot[v % LANES] += *acc * top[v];
    }
    sum_lanes(dot)
}

/// `y −= c · top` for `c = y · top`; returns `(x · y, y · y)` of the
/// deflated `y`. Same standing as [`apply`]: its own function over slices
/// of one length.
#[inline(never)]
fn deflate(y: &mut [f64], c: f64, top: &[f64], x: &[f64]) -> (f64, f64) {
    let n = y.len();
    let (top, x) = (&top[..n], &x[..n]);
    let (mut xy, mut yy) = ([0.0; LANES], [0.0; LANES]);
    let mut rows = y.chunks_exact_mut(LANES).zip(top.chunks_exact(LANES)).zip(x.chunks_exact(LANES));
    for ((y, top), x) in &mut rows {
        for lane in 0..LANES {
            y[lane] -= c * top[lane];
            xy[lane] += x[lane] * y[lane];
            yy[lane] += y[lane] * y[lane];
        }
    }
    let tail = n - n % LANES;
    for (lane, yi) in y[tail..].iter_mut().enumerate() {
        *yi -= c * top[tail + lane];
        xy[lane] += x[tail + lane] * *yi;
        yy[lane] += *yi * *yi;
    }
    (sum_lanes(xy), sum_lanes(yy))
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

    /// The iteration as it stood before the division-free kernel, kept
    /// verbatim as the reference the three-pass one is compared against: one
    /// `f64` division per non-zero in `apply`, then `deflate`, `dot` and
    /// `normalize` as five sequential passes with single-chain sums.
    fn lambda2_reference(g: &Graph, tol: f64, max_iter: usize) -> Spectral {
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
        let n = g.n();
        let sqrt_deg: Vec<f64> = (0..n).map(|v| (g.degree(v) as f64).sqrt()).collect();
        let norm1: f64 = sqrt_deg.iter().map(|d| d * d).sum::<f64>().sqrt();
        let top: Vec<f64> = sqrt_deg.iter().map(|d| d / norm1).collect();
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
            let mu = dot(&x, &y);
            normalize(&mut y);
            std::mem::swap(&mut x, &mut y);
            if (mu - prev_mu).abs() < tol {
                prev_mu = mu;
                break;
            }
            prev_mu = mu;
        }
        Spectral { lambda2: (2.0 - prev_mu).max(0.0), eigenvector: x, iterations: iters }
    }

    /// `lambda2` against [`lambda2_reference`] on every component of `g`
    /// with an edge: the same iteration count, λ₂ and the eigenvector to
    /// 1e-9, and the very same sweep cut.
    fn check_against_reference(g: &Graph, tol: f64, max_iter: usize) -> Result<(), String> {
        let (component, k) = g.connected_components();
        for c in 0..k {
            let members: Vec<usize> = (0..g.n()).filter(|&v| component[v] == c).collect();
            let (sub, _) = g.induced_subgraph(&members);
            if sub.n() < 2 {
                continue;
            }
            let (new, old) = (lambda2(&sub, tol, max_iter), lambda2_reference(&sub, tol, max_iter));
            if new.iterations != old.iterations {
                return Err(format!("iterations {} vs reference {}", new.iterations, old.iterations));
            }
            if (new.lambda2 - old.lambda2).abs() > 1e-9 * old.lambda2 {
                return Err(format!("lambda2 {:e} vs reference {:e}", new.lambda2, old.lambda2));
            }
            let sign = new.eigenvector.iter().zip(&old.eigenvector).map(|(a, b)| a * b).sum::<f64>().signum();
            let gap = new.eigenvector.iter().zip(&old.eigenvector).map(|(a, b)| (sign * a - b).abs()).fold(0.0, f64::max);
            if gap.is_nan() || gap > 1e-9 {
                return Err(format!("eigenvectors {gap:e} apart"));
            }
            let cut = |s: &Spectral| crate::sweep::sweep_cut(&sub, &s.sweep_values(&sub)).map(|cut| cut.in_s);
            if cut(&new) != cut(&old) {
                return Err("sweep cuts differ".into());
            }
        }
        Ok(())
    }

    #[test]
    fn three_pass_iteration_matches_reference_on_every_family() {
        // the topologies of tests/decomp_equivalence.rs, at the decomposition's
        // own (tol, cap) and at this module's
        let mut rng = gen::seeded_rng(0xDEC0);
        let families = [
            ("grid_with_noise", gen::grid_with_noise(14, 14, 0.02, &mut rng)),
            ("triangulated_grid", gen::triangulated_grid(9, 9)),
            ("shuffled triangulated_grid", gen::shuffle_vertices(&gen::triangulated_grid(8, 8), &mut rng)),
            ("stacked_triangulation", gen::stacked_triangulation(120, &mut rng)),
            ("disconnected union", gen::grid(5, 5).disjoint_union(&gen::cycle(9)).disjoint_union(&gen::path(1))),
            ("random_planar", gen::random_planar(150, 0.6, &mut rng)),
            ("ktree", gen::ktree(100, 3, &mut rng)),
            ("series_parallel", gen::series_parallel(90, &mut rng)),
            ("random_tree", gen::random_tree(80, &mut rng)),
            ("hypercube", gen::hypercube(6)),
            ("dumbbell cliques", gen::disjoint_cliques(3, 7)),
            ("complete", gen::complete(16)),
        ];
        for (name, g) in &families {
            for (tol, max_iter) in [(1e-9, 4_000), (1e-10, 20_000)] {
                check_against_reference(g, tol, max_iter).unwrap_or_else(|e| panic!("{name}, tol {tol:e}: {e}"));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn three_pass_iteration_matches_reference_on_random_graphs(
            seed in 0u64..1_000_000,
            n in 2usize..60,
            density in 1usize..4,
            side in 2usize..21,
        ) {
            let mut rng = gen::seeded_rng(seed);
            let gnm = gen::gnm(n, (n * density).min(n * (n - 1) / 2), &mut rng);
            let outcome = check_against_reference(&gnm, 1e-9, 4_000);
            proptest::prop_assert!(outcome.is_ok(), "gnm: {:?}", outcome);
            let noisy = gen::grid_with_noise(side, side, 0.02, &mut rng);
            let outcome = check_against_reference(&noisy, 1e-9, 4_000);
            proptest::prop_assert!(outcome.is_ok(), "grid_with_noise: {:?}", outcome);
        }
    }

    /// Unit cost of the iteration: `cargo test --release -p lcg-expander
    /// --lib probe_lambda2 -- --ignored --nocapture`.
    #[test]
    #[ignore = "probe: prints ns per non-zero per iteration"]
    fn probe_lambda2_unit_cost() {
        for side in [50, 100, 200] {
            let g = gen::grid_with_noise(side, side, 0.02, &mut gen::seeded_rng(side as u64));
            let best = (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let s = lambda2(&g, 1e-9, 4_000);
                    started.elapsed().as_nanos() as f64 / (2 * g.m() * s.iterations) as f64
                })
                .fold(f64::INFINITY, f64::min);
            println!("lambda2 side {side}: {best:.2} ns/nnz/iter");
        }
    }
}
