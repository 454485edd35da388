//! **E14 (ablation)** — the split-threshold φ: paper-faithful
//! `φ = Θ(ε/log n)` vs the adaptive largest-φ-in-budget variant. The
//! design choice DESIGN.md calls out: granularity (cluster sizes, hence
//! leader load and routing rounds) against cut edges (hence approximation
//! slack). Both satisfy the ε contract; the ablation shows what each
//! costs.

use lcg_core::apps::maxis;
use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_graph::gen;
use lcg_solvers::mis;

use crate::{cells, Opts, Table};

/// Runs E14.
pub fn run(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "E14",
        "ablation: paper φ vs adaptive φ in the Theorem 2.6 framework (planar, ε = 0.3)",
        &[
            "n", "variant", "clusters", "max |V_i|", "cut edges", "rounds", "gather rounds",
            "maxis ratio",
        ],
    );
    let mut rng = gen::seeded_rng(0xE14);
    // ratio column only where the exact reference is cheap (n ≤ 200);
    // the structural columns are the point of the ablation.
    let sizes: &[usize] = opts.scale.pick(&[150][..], &[150, 1024][..]);
    for &n in sizes {
        let g = gen::stacked_triangulation(n, &mut rng);
        let opt = if n <= 200 {
            let r = mis::maximum_independent_set(&g, 1_000_000_000);
            r.optimal.then_some(r.set.len())
        } else {
            None
        };
        for practical in [false, true] {
            let mut cfg = FrameworkConfig::planar(0.3, 5);
            cfg.practical_phi = practical;
            let fw = run_framework(&g, &cfg);
            let max_cluster = fw.clusters.iter().map(|c| c.members.len()).max().unwrap();
            let ratio = match opt {
                None => "-".to_string(),
                Some(opt) => {
                    let out = maxis::approx_maximum_independent_set(&g, 0.3, 3.0, 5, 1_000_000_000);
                    format!("{:.4}", out.set.len() as f64 / opt as f64)
                }
            };
            t.row(cells!(
                n,
                if practical { "adaptive" } else { "paper" },
                fw.clusters.len(),
                max_cluster,
                fw.cut_edges(),
                fw.stats.rounds,
                fw.phases.gathering,
                ratio
            ));
        }
    }
    vec![t]
}
