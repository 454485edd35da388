//! **E7** — Theorem 1.3: (1−ε) agreement-maximization correlation
//! clustering. Exact-ratio on small instances; normalized agreement and
//! the trivial |E|/2 witness on larger planted instances across noise.

use lcg_core::apps::corrclust as app;
use lcg_graph::gen;
use lcg_solvers::corrclust;

use crate::{cells, Opts, Table};

/// Runs E7.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let mut rng = gen::seeded_rng(0xE7);

    // small instances: ratio against the exact optimum
    let mut t = Table::new(
        "E7",
        "Theorem 1.3: correlation clustering ratio vs exact optimum (small planar instances)",
        &["n", "eps", "ratio", "guarantee", "ok"],
    );
    let trials = scale.pick(2, 3);
    for &eps in &[0.2, 0.4] {
        let mut rsum = 0.0;
        let mut all_ok = true;
        for seed in 0..trials {
            let g = gen::random_labels(gen::random_planar(24, 0.5, &mut rng), 0.5, &mut rng);
            let out = app::approx_correlation_clustering(&g, eps, 3.0, seed as u64, 30);
            let opt = corrclust::exact_clustering(&g, 2_000_000_000)
                .expect("small instance solvable")
                .score
                .max(1);
            let r = out.score as f64 / opt as f64;
            all_ok &= r >= 1.0 - eps;
            rsum += r;
        }
        t.row(cells!(
            24,
            eps,
            format!("{:.4}", rsum / trials as f64),
            format!("{:.2}", 1.0 - eps),
            all_ok
        ));
    }

    // larger planted instances across classifier noise
    let mut t2 = Table::new(
        "E7b",
        "planted-community instances: normalized agreement vs noise (ε = 0.2)",
        &["n", "noise", "score/|E|", "planted/|E|", "trivial/|E|", "rounds"],
    );
    let n_side = scale.pick(12, 18);
    for &noise in &[0.0, 0.05, 0.15, 0.3] {
        let g = gen::triangulated_grid(n_side, n_side);
        let comm: Vec<usize> = (0..g.n()).map(|v| (v % n_side) / (n_side / 3)).collect();
        let g = gen::planted_labels(g, &comm, noise, &mut rng);
        let out = app::approx_correlation_clustering(&g, 0.2, 3.0, 5, 18);
        let m = g.m() as f64;
        t2.row(cells!(
            g.n(),
            noise,
            format!("{:.3}", out.score as f64 / m),
            format!("{:.3}", corrclust::score(&g, &comm) as f64 / m),
            format!(
                "{:.3}",
                corrclust::score(&g, &corrclust::trivial_clustering(&g)) as f64 / m
            ),
            out.stats.rounds
        ));
    }
    vec![t, t2]
}
