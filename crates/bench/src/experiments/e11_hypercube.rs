//! **E11** — the paper's tightness example (§2, citing \[4\]): hypercubes
//! force `φ = O(1/log n)`. We measure `Φ(Q_d) · d` (constant: Φ(Q_d) =
//! Θ(1/d)) and confirm that decompositions cannot do better — either the
//! cube stays whole or its clusters' conductance stays `O(1/log n)`.

use lcg_expander::decomp::{self, Threshold};
use lcg_expander::{spectral, walks};
use lcg_graph::gen;

use crate::{cells, Opts, Table};

/// Runs E11.
pub fn run(opts: &Opts) -> Vec<Table> {
    let dims: &[u32] = opts.scale.pick(&[4, 6][..], &[4, 6, 8, 10][..]);
    let mut t = Table::new(
        "E11",
        "hypercube tightness: Φ(Q_d)·d ≈ const; after decomposition min cluster φ·log n stays bounded",
        &[
            "d", "n", "λ2/2 · d", "τ_mix", "decomp clusters", "cut/m", "min φ est · log2 n",
        ],
    );
    for &d in dims {
        let g = gen::hypercube(d);
        let spec = spectral::lambda2(&g, 1e-9, 20_000);
        let phi_lb = spec.conductance_lower_bound();
        let tmix = if d <= 8 {
            walks::mixing_time(&g, 20_000)
                .map(|t| t.to_string())
                .unwrap_or_else(|| ">cap".into())
        } else {
            walks::mixing_time_from(&g, 0, 20_000)
                .map(|t| format!("~{t}"))
                .unwrap_or_else(|| ">cap".into())
        };
        let dec = decomp::decompose(&g, 0.3, Threshold::Adaptive, opts.exec);
        let logn = d as f64;
        t.row(cells!(
            d,
            g.n(),
            format!("{:.3}", phi_lb * d as f64),
            tmix,
            dec.k(),
            format!("{:.3}", dec.cut_fraction(&g)),
            format!("{:.3}", dec.min_cluster_phi() * logn)
        ));
    }
    vec![t]
}
