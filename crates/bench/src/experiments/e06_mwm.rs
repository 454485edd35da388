//! **E6** — Theorem 1.1: (1−ε)-approximate maximum weight matching via
//! the scaling harness. Ratio vs the exact Galil optimum, for small and
//! large weight ranges W, with the sorted-greedy 1/2-approx baseline and
//! the convergence profile over scaling iterations. The harness stops at
//! its fixed point, so every iteration count is printed as executed /
//! requested, the executed one read off `history`.

use lcg_core::apps::mwm as app;
use lcg_graph::gen;
use lcg_solvers::mwm;

use crate::workloads::Family;
use crate::{cells, Opts, Table};

/// Runs E6.
pub fn run(opts: &Opts) -> Vec<Table> {
    let n = opts.scale.pick(100, 200);
    let mut t = Table::new(
        "E6",
        "Theorem 1.1: (1−ε)-MWM ratio vs exact optimum across weight ranges",
        &[
            "family", "n", "W", "eps", "iters", "ratio", "guarantee", "ok", "greedy ratio",
            "rounds",
        ],
    );
    let mut rng = gen::seeded_rng(0xE6);
    for &fam in &[Family::Planar, Family::Ktree3] {
        for &w in &[10u64, 1000u64] {
            for &eps in &[0.2, 0.4] {
                let g = gen::random_weights(fam.generate(n, &mut rng), w, &mut rng);
                let iters = app::recommended_iterations(eps);
                let out =
                    app::approx_maximum_weight_matching(&g, eps, fam.density_bound(), 1, iters);
                let opt = mwm::matching_weight(&g, &mwm::maximum_weight_matching(&g)).max(1);
                let greedy = mwm::matching_weight(&g, &mwm::greedy_mwm(&g));
                let r = out.weight as f64 / opt as f64;
                t.row(cells!(
                    fam.name(),
                    g.n(),
                    w,
                    eps,
                    format!("{}/{iters}", out.history.len()),
                    format!("{r:.4}"),
                    format!("{:.2}", 1.0 - eps),
                    r >= 1.0 - eps,
                    format!("{:.4}", greedy as f64 / opt as f64),
                    out.stats.rounds
                ));
            }
        }
    }

    // convergence profile: ratio after each scaling iteration
    let mut t2 = Table::new(
        "E6b",
        "scaling-harness convergence: ratio to optimum per iteration (planar, W=1000, ε=0.2)",
        &["iteration", "ratio"],
    );
    let g = gen::random_weights(gen::random_planar(n, 0.5, &mut rng), 1000, &mut rng);
    let out = app::approx_maximum_weight_matching(&g, 0.2, 3.0, 2, 10);
    let opt = mwm::matching_weight(&g, &mwm::maximum_weight_matching(&g)).max(1);
    for (i, w) in out.history.iter().enumerate() {
        t2.row(cells!(i + 1, format!("{:.4}", *w as f64 / opt as f64)));
    }

    // strategy comparison: greedy / heavy-to-light sweep / improvement
    // iterations / sweep + improvement (the full Duan–Pettie-style stack)
    let mut t3 = Table::new(
        "E6c",
        "MWM strategy comparison (planar, W = 1000, ε = 0.25)",
        &["strategy", "ratio", "rounds"],
    );
    let g = gen::random_weights(gen::random_planar(n, 0.5, &mut rng), 1000, &mut rng);
    let opt = mwm::matching_weight(&g, &mwm::maximum_weight_matching(&g)).max(1);
    let ratio = |w: u64| format!("{:.4}", w as f64 / opt as f64);
    let greedy = mwm::matching_weight(&g, &mwm::greedy_mwm(&g));
    t3.row(cells!("greedy 1/2 (sequential)", ratio(greedy), "-"));
    let sweep = app::scaling_sweep(&g, 0.25, 3.0, 4);
    t3.row(cells!("heavy→light sweep", ratio(sweep.weight), sweep.stats.rounds));
    let iters = app::recommended_iterations(0.25);
    let imp = app::approx_maximum_weight_matching(&g, 0.25, 3.0, 4, iters);
    t3.row(cells!(
        format!("improvement x{}/{iters}", imp.history.len()),
        ratio(imp.weight),
        imp.stats.rounds
    ));
    let warm = app::approx_mwm_with_warm_start(&g, 0.25, 3.0, 4, 4);
    // the warm start's history opens with the sweep's scales
    let executed = warm.history.len() - sweep.history.len();
    t3.row(cells!(
        format!("sweep + improvement x{executed}/4"),
        ratio(warm.weight),
        warm.stats.rounds
    ));
    vec![t, t2, t3]
}
