//! **E2** — Lemma 2.3: every cluster of a decomposition of an
//! H-minor-free graph contains a vertex of degree `Ω(φ²)·|V_i|`.
//!
//! We measure, per decomposition, `min_i Δ_i / (φ² · |V_i|)` over
//! non-singleton clusters: Lemma 2.3 predicts this ratio is bounded below
//! by a constant on minor-free families. The hypercube column shows the
//! contrast on a family *without* small separators.

use lcg_expander::decomp::{self, Threshold};
use lcg_graph::{gen, Graph};

use crate::workloads::Family;
use crate::{cells, Opts, Table};

/// min over non-singleton clusters of Δ_i / (φ²·|V_i|) with φ = the
/// decomposition's per-cluster conductance estimate.
fn min_degree_ratio(g: &Graph, d: &decomp::ExpanderDecomposition) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for c in &d.clusters {
        if c.members.len() <= 2 {
            continue;
        }
        let (sub, _) = g.induced_subgraph(&c.members);
        let delta = sub.max_degree() as f64;
        let phi = c.phi().max(1e-9);
        let ratio = delta / (phi * phi * sub.n() as f64);
        worst = Some(worst.map_or(ratio, |w: f64| w.min(ratio)));
    }
    worst
}

/// Runs E2.
pub fn run(opts: &Opts) -> Vec<Table> {
    let sizes: &[usize] = opts.scale.pick(&[256, 1024][..], &[256, 1024, 4096][..]);
    let mut t = Table::new(
        "E2",
        "Lemma 2.3: min over clusters of Δ_i/(φ²·|V_i|) stays Ω(1) on minor-free families",
        &["family", "n", "eps", "clusters", "min ratio", "max |V_i|"],
    );
    let mut rng = gen::seeded_rng(0xE2);
    for &fam in &[
        Family::MaximalPlanar,
        Family::Ktree3,
        Family::Torus,
        Family::Hypercube,
    ] {
        for &n in sizes {
            let g = fam.generate(n, &mut rng);
            let eps = 0.2;
            let d = decomp::decompose(&g, eps / fam.density_bound(), Threshold::Adaptive, opts.exec);
            let ratio = min_degree_ratio(&g, &d);
            let biggest = d.clusters.iter().map(|c| c.members.len()).max().unwrap_or(0);
            t.row(cells!(
                fam.name(),
                g.n(),
                eps,
                d.k(),
                ratio.map_or("n/a".into(), |r| format!("{r:.3}")),
                biggest
            ));
        }
    }
    vec![t]
}
