//! **E8** — Theorem 1.4: distributed property testing with one-sided
//! error. Planar inputs must accept in 100% of trials; provably-ε-far
//! inputs (disjoint K₆ / K₄ / K₃ packings) must reject.

use lcg_core::apps::property_testing::{test_property, TestedProperty};
use lcg_graph::gen;

use crate::{cells, Opts, Table};

/// Runs E8.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let trials = scale.pick(3u64, 10u64);
    let n = scale.pick(150, 400);
    let mut t = Table::new(
        "E8",
        "Theorem 1.4: one-sided property testing (accept rate on in-class, reject rate on ε-far)",
        &[
            "property", "workload", "n", "eps", "accept%", "reject%", "required", "ok",
            "avg rounds",
        ],
    );
    let mut rng = gen::seeded_rng(0xE8);

    let mut run_case = |prop: TestedProperty,
                        wname: &str,
                        in_class: bool,
                        make: &mut dyn FnMut(&mut rand_chacha::ChaCha8Rng) -> lcg_graph::Graph,
                        t: &mut Table| {
        let mut accepts = 0u64;
        let mut rounds = 0u64;
        let mut nn = 0usize;
        for seed in 0..trials {
            let g = make(&mut rng);
            nn = g.n();
            let out = test_property(&g, 0.1, prop, seed);
            if out.all_accept {
                accepts += 1;
            }
            rounds += out.stats.rounds;
        }
        let acc = 100.0 * accepts as f64 / trials as f64;
        let rej = 100.0 - acc;
        let ok = if in_class { accepts == trials } else { accepts == 0 };
        t.row(cells!(
            format!("{prop:?}"),
            wname,
            nn,
            0.1,
            format!("{acc:.0}"),
            format!("{rej:.0}"),
            if in_class { "accept 100%" } else { "reject whp" },
            ok,
            rounds / trials
        ));
    };

    run_case(
        TestedProperty::Planar,
        "random planar",
        true,
        &mut |rng| gen::random_planar(n, 0.55, rng),
        &mut t,
    );
    run_case(
        TestedProperty::Planar,
        "max planar",
        true,
        &mut |rng| gen::stacked_triangulation(n, rng),
        &mut t,
    );
    run_case(
        TestedProperty::Planar,
        "K6 packing (ε-far)",
        false,
        &mut |_| gen::disjoint_cliques(n / 6, 6),
        &mut t,
    );
    run_case(
        TestedProperty::Outerplanar,
        "max outerplanar",
        true,
        &mut |rng| gen::outerplanar_maximal(n, rng),
        &mut t,
    );
    run_case(
        TestedProperty::Outerplanar,
        "K4 packing (ε-far)",
        false,
        &mut |_| gen::disjoint_cliques(n / 4, 4),
        &mut t,
    );
    run_case(
        TestedProperty::TreewidthAtMost2,
        "series-parallel",
        true,
        &mut |rng| gen::series_parallel(n, rng),
        &mut t,
    );
    run_case(
        TestedProperty::TreewidthAtMost2,
        "K4 packing (ε-far)",
        false,
        &mut |_| gen::disjoint_cliques(n / 4, 4),
        &mut t,
    );
    run_case(
        TestedProperty::Forest,
        "random tree",
        true,
        &mut |rng| gen::random_tree(n, rng),
        &mut t,
    );
    run_case(
        TestedProperty::Forest,
        "triangle packing (ε-far)",
        false,
        &mut |_| gen::disjoint_cliques(n / 3, 3),
        &mut t,
    );
    vec![t]
}
