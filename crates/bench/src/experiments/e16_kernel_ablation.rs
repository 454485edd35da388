//! **E16 (ablation)** — is Lemma 3.1's star elimination load-bearing?
//! Theorem 3.2's MCM pipeline with and without the kernelization, on the
//! pendant-heavy family. Without the kernel, ν(G) is *not* Ω(n), so the
//! ε'·n cut-edge charge can exceed ε·ν and the guarantee math breaks;
//! the ablation measures how much is actually lost.

use lcg_core::apps::mcm;
use lcg_core::framework::{run_framework, FrameworkConfig};
use lcg_graph::gen;
use lcg_solvers::matching;

use crate::workloads::pendant_planar;
use crate::{cells, Opts, Table};

/// MCM pipeline with the kernelization skipped: the naive §3.1-style
/// recipe (decompose with ε' = ε, per-cluster optimum, union) that does
/// not know ν(G) can be ≪ n. Without Lemma 3.1 there is no way to pick a
/// principled ε'; using ε itself is what a direct port of the unweighted
/// recipe would do.
fn mcm_without_kernel(g: &lcg_graph::Graph, epsilon: f64, seed: u64) -> usize {
    let mut cfg = FrameworkConfig::planar(epsilon, seed);
    cfg.density_bound = 1.0;
    let fw = run_framework(g, &cfg);
    let mut size = 0;
    for c in &fw.clusters {
        size += matching::maximum_matching(&c.subgraph).size();
    }
    size
}

/// Runs E16.
pub fn run(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "E16",
        "ablation: Theorem 3.2 with vs without the Lemma 3.1 star-elimination kernel (ε = 0.5)",
        &[
            "workload", "n", "pendants", "ν(G)", "with kernel", "ratio", "without", "ratio",
        ],
    );
    let mut rng = gen::seeded_rng(0xE16);
    let core = opts.scale.pick(60usize, 100);
    for &pend in &[0usize, 2, 5] {
        let pendants = core * pend;
        let g = pendant_planar(core, pendants, &mut rng);
        let opt = matching::maximum_matching(&g).size().max(1);
        let with = mcm::approx_maximum_matching(&g, 0.5, 1).size;
        let without = mcm_without_kernel(&g, 0.5, 1);
        t.row(cells!(
            if pend == 0 { "clean planar" } else { "pendant-heavy" },
            g.n(),
            pendants,
            opt,
            with,
            format!("{:.4}", with as f64 / opt as f64),
            without,
            format!("{:.4}", without as f64 / opt as f64)
        ));
    }
    vec![t]
}
