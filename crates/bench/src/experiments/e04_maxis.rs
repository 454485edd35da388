//! **E4** — Theorem 1.2: (1−ε)-approximate MAXIS. Ratio vs the exact
//! optimum across ε, plus the Luby maximal-IS baseline ((1/Δ)-approx
//! route) for both quality and rounds.

use lcg_core::apps::maxis;
use lcg_core::baselines;
use lcg_graph::gen;
use lcg_solvers::mis;

use crate::workloads::Family;
use crate::{cells, Opts, Table};

/// Runs E4.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let n = scale.pick(120, 220);
    let trials = scale.pick(2, 3);
    let mut t = Table::new(
        "E4",
        "Theorem 1.2: (1−ε)-MAXIS ratio vs exact α(G); Luby baseline for contrast",
        &[
            "family", "n", "eps", "ratio", "guarantee", "ok", "rounds", "luby ratio", "luby rounds",
        ],
    );
    let mut rng = gen::seeded_rng(0xE4);
    for &fam in &[Family::Planar, Family::Ktree3] {
        for &eps in &[0.1, 0.2, 0.4] {
            let mut ratio_sum = 0.0;
            let mut rounds_sum = 0u64;
            let mut luby_sum = 0.0;
            let mut luby_rounds = 0u64;
            let mut all_ok = true;
            for seed in 0..trials {
                let g = fam.generate(n, &mut rng);
                let out = maxis::approx_maximum_independent_set(
                    &g,
                    eps,
                    fam.density_bound(),
                    seed as u64,
                    200_000_000,
                );
                let opt = mis::maximum_independent_set(&g, 2_000_000_000);
                let denom = opt.set.len().max(1) as f64;
                let r = out.set.len() as f64 / denom;
                all_ok &= opt.optimal && r >= 1.0 - eps;
                ratio_sum += r;
                rounds_sum += out.stats.rounds;
                let (luby, ls) = baselines::luby_mis(&g, seed as u64);
                luby_sum += luby.len() as f64 / denom;
                luby_rounds += ls.rounds;
            }
            let k = trials as f64;
            t.row(cells!(
                fam.name(),
                n,
                eps,
                format!("{:.4}", ratio_sum / k),
                format!("{:.2}", 1.0 - eps),
                all_ok,
                rounds_sum / trials as u64,
                format!("{:.4}", luby_sum / k),
                luby_rounds / trials as u64
            ));
        }
    }
    vec![t]
}
