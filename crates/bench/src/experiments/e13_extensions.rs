//! **E13** — the two CONGEST extensions beyond the paper's theorem list
//! (the §1.4 "opportunity" made concrete): bounded-degree planar
//! (1+ε)-minimum dominating set, and vertex-weighted (1−ε)-MAXIS.

use lcg_core::apps::{mds, wmaxis};
use lcg_graph::gen;
use lcg_solvers::{mds as seq_mds, wmis};
use rand::Rng;

use crate::{cells, Opts, Table};

/// Runs E13.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let mut rng = gen::seeded_rng(0xE13);
    let trials = scale.pick(2u64, 3u64);

    let mut t = Table::new(
        "E13",
        "extension: (1+ε)-MDS on bounded-degree planar graphs (ratio vs exact γ(G); greedy baseline)",
        &["n", "Δ", "eps", "ratio", "bound", "ok", "greedy ratio", "rounds"],
    );
    let side = scale.pick(8, 9);
    for &eps in &[0.3, 0.5] {
        let mut ratio = 0.0;
        let mut greedy_ratio = 0.0;
        let mut rounds = 0u64;
        let mut all_ok = true;
        let mut delta = 0usize;
        let mut nn = 0usize;
        for seed in 0..trials {
            let g = gen::subsample_connected(&gen::triangulated_grid(side, side), 0.7, &mut rng);
            nn = g.n();
            delta = delta.max(g.max_degree());
            let out = mds::approx_minimum_dominating_set(&g, eps, seed, 200_000_000);
            let opt = seq_mds::minimum_dominating_set(&g, 4_000_000_000);
            let r = out.set.len() as f64 / opt.set.len().max(1) as f64;
            all_ok &= opt.optimal && r <= 1.0 + eps;
            ratio += r;
            greedy_ratio += seq_mds::greedy_mds(&g).len() as f64 / opt.set.len().max(1) as f64;
            rounds += out.stats.rounds;
        }
        let k = trials as f64;
        t.row(cells!(
            nn,
            delta,
            eps,
            format!("{:.4}", ratio / k),
            format!("{:.2}", 1.0 + eps),
            all_ok,
            format!("{:.4}", greedy_ratio / k),
            rounds / trials
        ));
    }

    let mut t2 = Table::new(
        "E13b",
        "extension: weighted (1−ε)-MAXIS (ratio vs exact weighted optimum; Turán-greedy baseline)",
        &["n", "W", "eps", "ratio", "guarantee", "ok", "greedy ratio", "conflict wt lost"],
    );
    let n = scale.pick(60, 90);
    for &w_max in &[10u64, 1000] {
        for &eps in &[0.2, 0.4] {
            let mut ratio = 0.0;
            let mut greedy_ratio = 0.0;
            let mut lost = 0u64;
            let mut all_ok = true;
            for seed in 0..trials {
                let g = gen::random_planar(n, 0.5, &mut rng);
                let w: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(1..=w_max)).collect();
                let out = wmaxis::approx_maximum_weight_independent_set(
                    &g, &w, eps, 3.0, seed, 500_000_000,
                );
                let opt = wmis::maximum_weight_independent_set(&g, &w, 4_000_000_000);
                let r = out.weight as f64 / opt.weight.max(1) as f64;
                all_ok &= opt.optimal && r >= 1.0 - eps;
                ratio += r;
                let gw: u64 = wmis::greedy_weighted_mis(&g, &w).iter().map(|&v| w[v]).sum();
                greedy_ratio += gw as f64 / opt.weight.max(1) as f64;
                lost += out.conflict_weight_lost;
            }
            let k = trials as f64;
            t2.row(cells!(
                n,
                w_max,
                eps,
                format!("{:.4}", ratio / k),
                format!("{:.2}", 1.0 - eps),
                all_ok,
                format!("{:.4}", greedy_ratio / k),
                lost / trials
            ));
        }
    }
    vec![t, t2]
}
