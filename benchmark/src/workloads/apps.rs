//! `apps-trigrid`: the six applications of Theorems 1.1–1.5 and 3.2 on a
//! triangulated grid — the one input family on which the leader solvers
//! and `core::apps` do a large share of the work.

use lcg_core::apps::property_testing::{PropertyTestOutcome, TestedProperty};
use lcg_core::apps::{corrclust, ldd, maxis, mcm, mwm, property_testing};
use lcg_graph::{gen, Graph};
use lcg_solvers::{
    corrclust as cc_solver, ldd as ldd_solver, matching, mis, mwm as mwm_solver, treedp,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{count_engine, engine_layers, ratio, Checks, Instance, Layers, Rep, Seeds};
use crate::spans::Spans;
use crate::spec::EPSILON;

pub const CHECKS: u64 = 7;

/// Planar density bound handed to every app.
const DENSITY: f64 = 3.0;
/// Branch-and-bound budget of each leader's independent-set solve.
const MIS_BUDGET: u64 = 300_000;
/// Largest cluster `corrclust` solves exhaustively.
const EXACT_LIMIT: usize = 18;

pub fn generate(side: usize, seeds: &Seeds) -> Graph {
    gen::shuffle_vertices(
        &gen::triangulated_grid(side, side),
        &mut gen::seeded_rng(seeds.generator),
    )
}

struct Outputs {
    maxis: maxis::MaxisOutcome,
    mcm: mcm::McmOutcome,
    mwm: mwm::MwmOutcome,
    corrclust: corrclust::CorrClustOutcome,
    ldd: ldd::LddOutcome,
    property: PropertyTestOutcome,
}

/// The weighted and the labelled variant of `g`. An edge list carries
/// neither, so they are attached after the load, from their own seeds.
fn variants(g: &Graph, seeds: &Seeds) -> (Graph, Graph) {
    (
        gen::random_weights(g.clone(), 1000, &mut gen::seeded_rng(seeds.weights)),
        gen::random_labels(g.clone(), 0.5, &mut gen::seeded_rng(seeds.labels)),
    )
}

/// The `core::apps` entry points take no executor: they read the thread
/// count through `FrameworkConfig::planar → ExecConfig::from_env`.
fn set_threads(threads: usize) {
    std::env::set_var("LCG_THREADS", threads.to_string());
}

fn call_apps(
    g: &Graph,
    weighted: &Graph,
    labelled: &Graph,
    seed: u64,
    spans: &mut Spans,
) -> Outputs {
    Outputs {
        maxis: spans.scope("core.apps.maxis", |_| {
            maxis::approx_maximum_independent_set(g, EPSILON, DENSITY, seed, MIS_BUDGET)
        }),
        mcm: spans.scope("core.apps.mcm", |_| {
            mcm::approx_maximum_matching(g, EPSILON, seed)
        }),
        mwm: spans.scope("core.apps.mwm", |_| {
            mwm::approx_maximum_weight_matching(
                weighted,
                EPSILON,
                DENSITY,
                seed,
                mwm::recommended_iterations(EPSILON),
            )
        }),
        corrclust: spans.scope("core.apps.corrclust", |_| {
            corrclust::approx_correlation_clustering(labelled, EPSILON, DENSITY, seed, EXACT_LIMIT)
        }),
        ldd: spans.scope("core.apps.ldd", |_| {
            ldd::low_diameter_decomposition(g, EPSILON, DENSITY, seed)
        }),
        property: spans.scope("core.apps.property", |_| {
            property_testing::test_property(g, EPSILON, TestedProperty::Planar, seed)
        }),
    }
}

pub fn run(inst: &Instance, threads: usize, spans: &mut Spans, checks: &mut Checks) -> Rep {
    set_threads(threads);
    let g = inst.load(spans);
    let (weighted, labelled) = spans.scope("graph.attach", |_| variants(&g, &inst.seeds));
    let out = call_apps(&g, &weighted, &labelled, inst.seeds.algorithm, spans);
    let all = [
        out.maxis.stats,
        out.mcm.stats,
        out.mwm.stats,
        out.corrclust.stats,
        out.ldd.stats,
        out.property.stats,
    ];
    spans.scope("validate", |_| {
        checks.check(
            "independent set",
            mis::is_independent_set(&g, &out.maxis.set),
        );
        checks.check("matching", mcm::is_valid(&g, &out.mcm));
        checks.check(
            "weighted matching",
            mwm_solver::is_valid_matching(&weighted, &out.mwm.mate),
        );
        checks.check(
            "clustering scores at least the trivial one",
            out.corrclust.score
                >= cc_solver::score(&labelled, &cc_solver::trivial_clustering(&labelled)),
        );
        checks.check(
            "LDD cuts at most eps of the edges",
            out.ldd.cut_fraction <= EPSILON,
        );
        checks.check("planar input accepted everywhere", out.property.all_accept);
        checks.check("every app spent rounds", all.iter().all(|s| s.rounds > 0));
    });
    let mut fingerprint: Vec<u64> = all
        .iter()
        .flat_map(|s| [s.rounds, s.messages, s.words])
        .collect();
    fingerprint.extend([
        out.maxis.set.len() as u64,
        out.mcm.size as u64,
        out.mwm.weight,
        out.corrclust.score,
        out.ldd.max_diameter as u64,
    ]);
    Rep {
        rounds: all.iter().map(|s| s.rounds).sum(),
        msgs: all.iter().map(|s| s.messages).sum(),
        words: all.iter().map(|s| s.words).sum(),
        fingerprint,
    }
}

/// Attribution: the apps do not expose their decompositions and leader
/// solves, so both are replayed here — `decompose_adaptive` with the ε each
/// app handed the framework, and every leader solver called directly on
/// the clusters the app's framework run produced.
pub fn layers(inst: &Instance, spans: &mut Spans, checks: &mut Checks, layers: &mut Layers) {
    set_threads(1);
    let g = inst.load(&mut Spans::disabled());
    let (weighted, labelled) = variants(&g, &inst.seeds);
    let seed = inst.seeds.algorithm;
    // same inputs and seeds as the pipeline, so the same outcomes
    let out = call_apps(&g, &weighted, &labelled, seed, &mut Spans::disabled());

    // the only engine call of the apps that is visible from outside them
    let star = "core.star_elimination";
    let (kept, _) = spans.scope("t1", |s| {
        s.scope(star, |s| {
            let r = mcm::distributed_star_elimination(&g);
            count_engine(s, &r.1, g.m());
            r
        })
    });
    set_threads(2);
    spans.scope("t2", |s| {
        s.scope(star, |_| mcm::distributed_star_elimination(&g))
    });
    set_threads(1);

    let survivors: Vec<usize> = (0..g.n()).filter(|&v| kept[v]).collect();
    let (kernel, _) = g.induced_subgraph(&survivors);
    let mut decompose = |graph: &Graph, epsilon: f64| super::decompose(spans, graph, epsilon);
    decompose(&g, out.maxis.framework.decomposition.epsilon);
    decompose(&kernel, out.mcm.framework.decomposition.epsilon);
    let iterations = mwm::recommended_iterations(EPSILON);
    // the weighted-matching app draws a fresh decomposition per iteration,
    // and keeps none of them
    let mwm_decomposition = (0..iterations)
        .map(|_| decompose(&weighted, EPSILON / DENSITY))
        .last()
        .expect("iterations > 0");
    decompose(&labelled, out.corrclust.framework.decomposition.epsilon);
    // the LDD app keeps no framework outcome; its configuration is the
    // correlation-clustering one, so its clusters are too
    let half = out.corrclust.framework.decomposition.epsilon;
    decompose(&g, half);
    let last = decompose(&g, out.property.framework.decomposition.epsilon);

    let optimal = spans.scope("solvers.mis", |_| {
        out.maxis
            .framework
            .clusters
            .iter()
            .filter(|c| treedp::mis_auto(&c.subgraph, 8, MIS_BUDGET).1)
            .count()
    });
    spans.scope("solvers.matching", |_| {
        for c in &out.mcm.framework.clusters {
            std::hint::black_box(matching::maximum_matching(&c.subgraph));
        }
    });
    spans.scope("solvers.mwm", |_| {
        let clusters = lcg_congest::primitives::cluster_members(&mwm_decomposition.cluster_of);
        let subs: Vec<Graph> = clusters
            .values()
            .map(|c| weighted.induced_subgraph(c).0)
            .collect();
        for sub in subs
            .iter()
            .cycle()
            .take(iterations * subs.len())
            .filter(|sub| sub.m() > 0)
        {
            std::hint::black_box(mwm_solver::maximum_weight_matching(sub));
        }
    });
    spans.scope("solvers.corrclust", |_| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
        for c in &out.corrclust.framework.clusters {
            std::hint::black_box(cc_solver::best_clustering(
                &c.subgraph,
                EXACT_LIMIT,
                &mut rng,
            ));
        }
    });
    spans.scope("solvers.ldd", |_| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1DD);
        for c in &out.corrclust.framework.clusters {
            std::hint::black_box(ldd_solver::minor_free_ldd(&c.subgraph, half, &mut rng));
        }
    });
    let exact = matching::maximum_matching(&g).size();
    let mcm_ratio = ratio(out.mcm.size as f64, exact as f64);
    checks.check(
        "matching within 1-eps of the maximum",
        mcm_ratio >= 1.0 - EPSILON,
    );

    let (pipeline, extra, t1, t2) = (
        spans.root("pipeline"),
        spans.root("attribution"),
        spans.root("t1"),
        spans.root("t2"),
    );
    let ms = |name: &str| spans.ms_in(pipeline, name);
    let extra_ms = |name: &str| spans.ms_in(extra, name);
    let apps =
        ["maxis", "mcm", "mwm", "corrclust", "ldd", "property"].map(|a| format!("core.apps.{a}"));
    for a in &apps {
        layers.set(&format!("{a}_ms"), ms(a));
    }
    layers.set("core.apps.mcm_ratio", mcm_ratio);
    layers.set("core.validate_ms", ms("validate"));
    let star_ms = spans.ms_in(t1, star);
    layers.set("core.star_elim_ms", star_ms);

    let decomp = "expander.decompose_adaptive";
    super::decomposition_layers(spans, extra, &last, layers);

    let solvers = ["mis", "matching", "mwm", "corrclust", "ldd"].map(|s| format!("solvers.{s}"));
    for s in &solvers {
        layers.set(&format!("{s}_ms"), extra_ms(s));
    }
    layers.set(
        "solvers.mis_optimal_frac",
        ratio(optimal as f64, out.maxis.framework.clusters.len() as f64),
    );
    let replayed = extra_ms(decomp) + solvers.iter().map(|s| extra_ms(s)).sum::<f64>() + star_ms;
    layers.set(
        "core.apps_self_ms",
        apps.iter().map(|a| ms(a)).sum::<f64>() - replayed,
    );

    engine_layers(spans, t1, t2, &[star], layers);
}
