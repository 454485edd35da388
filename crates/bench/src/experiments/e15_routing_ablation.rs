//! **E15 (ablation)** — Lemma 2.4 random-walk routing vs the
//! deterministic tree routing inside the framework's gathering phase:
//! the randomized/deterministic round trade the paper's Theorems 2.1/2.2
//! describe, measured. The tree side routes the clusters and leaders of
//! the same framework run with `routing::tree_routing`; election and
//! orientation do not depend on the router, and gathering and its
//! reversal (the broadcast) are each charged the slowest cluster's rounds.

use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_expander::routing::{self, RoutingOutcome};
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
        let fw = run_framework(&g, &FrameworkConfig::planar(0.3, 3));
        let walk: Vec<RoutingOutcome> = fw.clusters.iter().map(|c| c.routing).collect();
        let tree: Vec<RoutingOutcome> =
            fw.clusters.iter().map(|c| routing::tree_routing(&g, &c.mapping, c.leader)).collect();
        for (label, routed) in [("walk (Lem 2.4)", &walk), ("tree (det)", &tree)] {
            let gather = routed.iter().map(|r| r.rounds).max().unwrap_or(0);
            t.row(cells!(
                "max-planar",
                n,
                label,
                gather,
                fw.phases.election + fw.phases.orientation + 2 * gather,
                routed.iter().map(|r| r.max_edge_load).max().unwrap_or(0),
                routed.iter().all(RoutingOutcome::complete)
            ));
        }
    }
    vec![t]
}
