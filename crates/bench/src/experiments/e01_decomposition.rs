//! **E1** — Theorem 2.1/2.6 decomposition quality: cut fraction vs ε,
//! cluster count, and per-cluster conductance certificates, over the
//! paper's graph families.

use lcg_expander::decomp::{self, Threshold};
use lcg_graph::gen;

use crate::workloads::Family;
use crate::{cells, Opts, Table};

/// Runs E1.
pub fn run(opts: &Opts) -> Vec<Table> {
    let sizes: &[usize] = opts.scale.pick(&[256, 1024][..], &[256, 1024, 4096, 16384][..]);
    let epsilons = [0.1, 0.2, 0.4];
    let mut t = Table::new(
        "E1",
        "expander decomposition: cut edges ≤ ε·min(|V|,|E|) (Thm 2.6 contract); \
         'paper' = worst-case φ = Θ(ε/log n), 'adaptive' = largest φ fitting the same budget",
        &[
            "family", "n", "m", "eps", "variant", "clusters", "cut", "cut/m", "bound ok",
            "phi_cut", "min phi est",
        ],
    );
    let mut rng = gen::seeded_rng(0xE1);
    for &fam in &[Family::MaximalPlanar, Family::Planar, Family::Ktree3, Family::Torus] {
        for &n in sizes {
            let g = fam.generate(n, &mut rng);
            for &eps in &epsilons {
                // Theorem 2.6 runs the decomposition with ε' = ε/t
                let eps_prime = eps / fam.density_bound();
                for (variant, d) in [
                    ("paper", decomp::decompose(&g, eps_prime, Threshold::WorstCase, opts.exec)),
                    ("adaptive", decomp::decompose(&g, eps_prime, Threshold::Adaptive, opts.exec)),
                ] {
                    d.validate(&g).expect("invariant violation");
                    let bound = eps * g.n().min(g.m()) as f64;
                    t.row(cells!(
                        fam.name(),
                        g.n(),
                        g.m(),
                        eps,
                        variant,
                        d.k(),
                        d.cut_edges.len(),
                        format!("{:.4}", d.cut_fraction(&g)),
                        (d.cut_edges.len() as f64) <= bound,
                        format!("{:.5}", d.phi_cut),
                        format!("{:.4}", d.min_cluster_phi())
                    ));
                }
            }
        }
    }
    vec![t]
}
