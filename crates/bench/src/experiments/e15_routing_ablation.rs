//! **E15 (ablation)** — Lemma 2.4 random-walk routing vs the
//! deterministic tree routing inside the framework's gathering phase:
//! the randomized/deterministic round trade the paper's Theorems 2.1/2.2
//! describe, measured.

use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_graph::gen;

use crate::{cells, Opts, Table};

/// Runs E15.
pub fn run(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "E15",
        "ablation: random-walk (Lemma 2.4) vs deterministic tree routing in the gathering phase",
        &[
            "family", "n", "routing", "gather rounds", "total rounds", "max edge load",
            "complete",
        ],
    );
    let mut rng = gen::seeded_rng(0xE15);
    let sizes: &[usize] = opts.scale.pick(&[150][..], &[150, 400, 800][..]);
    for &n in sizes {
        let g = gen::stacked_triangulation(n, &mut rng);
        for det in [false, true] {
            let mut cfg = FrameworkConfig::planar(0.3, 3);
            cfg.deterministic_routing = det;
            let fw = run_framework(&g, &cfg);
            let complete = fw.clusters.iter().all(|c| c.routing.complete());
            let load = fw.clusters.iter().map(|c| c.routing.max_edge_load).max().unwrap_or(0);
            t.row(cells!(
                "max-planar",
                n,
                if det { "tree (det)" } else { "walk (Lem 2.4)" },
                fw.phases.gathering,
                fw.stats.rounds,
                load,
                complete
            ));
        }
    }
    vec![t]
}
