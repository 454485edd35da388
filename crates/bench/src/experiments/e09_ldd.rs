//! **E9** — Theorem 1.5: low-diameter decomposition with the optimal
//! `D = O(1/ε)`, against the prior-work `ε^{-O(1)}`/log-n-factor MPX
//! baseline. The signature is the `D·ε` column: bounded for Theorem 1.5,
//! growing with n for the baseline.

use lcg_core::apps::ldd;
use lcg_graph::gen;

use crate::{cells, Opts, Table};

/// Runs E9.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let sizes: &[usize] = scale.pick(&[256, 576][..], &[256, 1024, 2500][..]);
    let mut t = Table::new(
        "E9",
        "Theorem 1.5 vs baseline: max cluster diameter × ε as n grows (triangulated grids, ε = 0.3)",
        &[
            "n", "thm1.5 D", "thm1.5 D·ε", "thm1.5 cut", "mpx D", "mpx D·ε", "mpx cut",
        ],
    );
    let eps = 0.3;
    for &n in sizes {
        let side = (n as f64).sqrt().round() as usize;
        let g = gen::triangulated_grid(side, side);
        let ours = ldd::low_diameter_decomposition(&g, eps, 3.0, 9);
        let base = ldd::baseline_mpx_ldd(&g, eps, 9);
        t.row(cells!(
            g.n(),
            ours.max_diameter,
            format!("{:.2}", ours.max_diameter as f64 * eps),
            format!("{:.3}", ours.cut_fraction),
            base.max_diameter,
            format!("{:.2}", base.max_diameter as f64 * eps),
            format!("{:.3}", base.cut_fraction)
        ));
    }

    // ε sweep at fixed n: D should scale like 1/ε
    let mut t2 = Table::new(
        "E9b",
        "D vs 1/ε at fixed n (Theorem 1.5's inverse-linear dependence is optimal — cycles witness the lower bound)",
        &["graph", "eps", "D", "D·ε", "cut fraction"],
    );
    let side = scale.pick(20, 30);
    let g = gen::triangulated_grid(side, side);
    let cyc = gen::cycle(scale.pick(200, 500));
    for &eps in &[0.5, 0.3, 0.2, 0.1] {
        let out = ldd::low_diameter_decomposition(&g, eps, 3.0, 4);
        t2.row(cells!(
            "tri-grid",
            eps,
            out.max_diameter,
            format!("{:.2}", out.max_diameter as f64 * eps),
            format!("{:.3}", out.cut_fraction)
        ));
        let out = ldd::low_diameter_decomposition(&cyc, eps, 3.0, 4);
        t2.row(cells!(
            "cycle",
            eps,
            out.max_diameter,
            format!("{:.2}", out.max_diameter as f64 * eps),
            format!("{:.3}", out.cut_fraction)
        ));
    }
    vec![t, t2]
}
