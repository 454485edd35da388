//! **E14 (ablation)** — the split-threshold φ: paper-faithful
//! `φ = Θ(ε/log n)` vs the adaptive largest-φ-in-budget variant. The
//! design choice DESIGN.md calls out: granularity (cluster sizes, hence
//! leader load and routing rounds) against cut edges (hence approximation
//! slack). Both satisfy the ε contract; the ablation shows what each
//! costs. Theorem 2.6 consumes whichever decomposition it is handed
//! (`run_framework_on`), so the two rows differ in nothing else. The
//! approximation ratio downstream is E4's; an earlier `maxis ratio` column
//! here called the MAXIS app, which never saw the row's variant.

use lcg_core::framework::{run_framework_on, FrameworkConfig};
use lcg_expander::decomp::{self, Threshold};
use lcg_graph::gen;

use crate::{cells, Opts, Table};

/// Runs E14.
pub fn run(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "E14",
        "ablation: paper φ vs adaptive φ in the Theorem 2.6 framework (planar, ε = 0.3)",
        &[
            "n", "variant", "clusters", "max |V_i|", "cut edges", "rounds", "gather rounds",
        ],
    );
    let mut rng = gen::seeded_rng(0xE14);
    let sizes: &[usize] = opts.scale.pick(&[150][..], &[150, 1024][..]);
    let cfg = FrameworkConfig::planar(0.3, 5);
    // Theorem 2.6 runs the decomposition with ε' = ε/t
    let eps_prime = cfg.epsilon / cfg.density_bound;
    for &n in sizes {
        let g = gen::stacked_triangulation(n, &mut rng);
        for (variant, d) in [
            ("paper", decomp::decompose(&g, eps_prime, Threshold::WorstCase, opts.exec)),
            ("adaptive", decomp::decompose(&g, eps_prime, Threshold::Adaptive, opts.exec)),
        ] {
            let fw = run_framework_on(&g, d, &cfg);
            let max_cluster = fw.clusters.iter().map(|c| c.mapping.len()).max().unwrap();
            t.row(cells!(
                n,
                variant,
                fw.clusters.len(),
                max_cluster,
                fw.cut_edges(),
                fw.stats.rounds,
                fw.phases.gathering
            ));
        }
    }
    vec![t]
}
