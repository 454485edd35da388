//! **E18** — round-complexity scaling: the paper claims
//! `poly(log n, 1/ε)` rounds for the whole framework. This experiment
//! sweeps n on maximal planar inputs and reports each phase's measured
//! rounds together with the polylog yardsticks `log²n` and `log³n`.
//! The shape claim: total rounds grow sub-polynomially — the
//! rounds/log³(n) column should *shrink or stay flat* while n grows 16×.

use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_graph::gen;

use crate::{cells, Opts, Table};

/// Runs E18.
pub fn run(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "E18",
        "framework round scaling on maximal planar inputs (ε = 0.3, walk routing)",
        &[
            "n", "clusters", "max |V_i|", "election", "orient", "gather", "total",
            "log³n", "total/log³n",
        ],
    );
    let mut rng = gen::seeded_rng(0xE18);
    let sizes: &[usize] = opts.scale.pick(&[256, 1024][..], &[256, 1024, 4096][..]);
    for &n in sizes {
        let g = gen::stacked_triangulation(n, &mut rng);
        let fw = run_framework(&g, &FrameworkConfig::planar(0.3, 2));
        let log3 = (n as f64).log2().powi(3);
        let max_cluster = fw.clusters.iter().map(|c| c.mapping.len()).max().unwrap();
        t.row(cells!(
            n,
            fw.clusters.len(),
            max_cluster,
            fw.phases.election,
            fw.phases.orientation,
            fw.phases.gathering,
            fw.stats.rounds,
            format!("{log3:.0}"),
            format!("{:.2}", fw.stats.rounds as f64 / log3)
        ));
    }
    vec![t]
}
