//! **E5** — Theorem 3.2: planar (1−ε)-MCM, including the pendant-heavy
//! adversarial family that makes the Lemma 3.1 kernel load-bearing, with
//! the greedy maximal-matching baseline.

use lcg_core::apps::mcm;
use lcg_core::baselines;
use lcg_graph::gen;
use lcg_solvers::matching;

use crate::workloads::pendant_planar;
use crate::{cells, Opts, Table};

/// Runs E5.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let trials = scale.pick(2, 3);
    let mut t = Table::new(
        "E5",
        "Theorem 3.2: planar (1−ε)-MCM ratio vs exact ν(G); greedy maximal baseline",
        &[
            "workload", "n", "eps", "ratio", "guarantee", "ok", "eliminated", "rounds",
            "greedy ratio",
        ],
    );
    let mut rng = gen::seeded_rng(0xE5);
    let n = scale.pick(150, 300);
    for &(name, pend) in &[("planar", 0usize), ("pendant-heavy", 2usize)] {
        for &eps in &[0.2, 0.3, 0.5] {
            let mut ratio = 0.0;
            let mut rounds = 0u64;
            let mut greedy_ratio = 0.0;
            let mut elim = 0usize;
            let mut all_ok = true;
            for seed in 0..trials {
                let g = if pend == 0 {
                    gen::random_planar(n, 0.5, &mut rng)
                } else {
                    pendant_planar(n / 3, n, &mut rng)
                };
                let out = mcm::approx_maximum_matching(&g, eps, seed as u64);
                assert!(mcm::is_valid(&g, &out));
                let opt = matching::maximum_matching(&g).size().max(1);
                let r = out.size as f64 / opt as f64;
                all_ok &= r >= 1.0 - eps;
                ratio += r;
                rounds += out.stats.rounds;
                elim += out.eliminated;
                let (gm, _) = baselines::randomized_greedy_matching(&g, seed as u64);
                greedy_ratio += (gm.iter().flatten().count() / 2) as f64 / opt as f64;
            }
            let k = trials as f64;
            t.row(cells!(
                name,
                n,
                eps,
                format!("{:.4}", ratio / k),
                format!("{:.2}", 1.0 - eps),
                all_ok,
                elim / trials,
                rounds / trials as u64,
                format!("{:.4}", greedy_ratio / k)
            ));
        }
    }
    vec![t]
}
