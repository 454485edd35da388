//! **E20** — chaos: the self-healing harness under increasing message-drop
//! probability. Every application runs through its `*_resilient` entry
//! point on the same planar instance at drop probabilities 0 … 0.3 (plus a
//! permanent link failure at p > 0), and the table reports how the
//! recovery layer spends its budget: attempts used, whether the run
//! degraded to its fallback, total rounds on the books (all attempts +
//! detectors), messages dropped by the schedule — and a **checked**
//! validity column (maximality / matching / domination / clustering
//! invariants verified on the actual output, not assumed).
//!
//! Options read: [`Opts::fault_seed`] (`--fault-seed`, default 0xFA17) and
//! [`Opts::retry_budget`] (`--retry-budget`, default 3).

use lcg_congest::FaultPlan;
use lcg_core::apps::{corrclust, ldd, maxis, mcm, mds, wmaxis};
use lcg_core::recovery::{RecoveryPolicy, RecoveryReport};
use lcg_graph::{gen, Graph};
use lcg_solvers::mis::is_maximal_independent_set;

use crate::{cells, Opts, Scale, Table};

/// Runs E20.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let n = scale.pick(60, 300);
    let (fault_seed, retries) = (opts.fault_seed, opts.retry_budget);
    let probs: &[f64] = match scale {
        Scale::Quick => &[0.0, 0.1, 0.3],
        Scale::Full => &[0.0, 0.05, 0.1, 0.2, 0.3],
    };
    let mut rng = gen::seeded_rng(0xE20);
    let g = gen::random_planar(n, 0.5, &mut rng);
    let lg = gen::random_labels(g.clone(), 0.6, &mut rng);
    let policy = RecoveryPolicy {
        max_retries: retries,
        initial_walk_steps: scale.pick(4_000, 20_000),
    };

    let mut t = Table::new(
        "E20",
        &format!(
            "self-healing apps under seeded message drops on random_planar(n = {n}) \
             (fault seed {fault_seed:#x}, retry budget {retries}; validity is checked, not assumed)"
        ),
        &["app", "drop p", "attempts", "degraded", "rounds", "dropped msgs", "valid"],
    );

    for &p in probs {
        let plan = if p == 0.0 {
            FaultPlan::none()
        } else {
            // drops plus one permanently severed link, seeded per-probability
            FaultPlan::drops(fault_seed ^ (p * 1000.0) as u64, p).with_link_failure(
                fault_seed as usize % g.m(),
                0,
                u64::MAX,
            )
        };
        for (app, (report, rounds, dropped, valid)) in runs(&g, &lg, &plan, &policy) {
            t.row(cells!(
                app,
                format!("{p:.2}"),
                report.attempts,
                if report.degraded { "yes" } else { "no" },
                rounds,
                dropped,
                if valid { "yes" } else { "NO" }
            ));
            assert!(valid, "{app} produced an invalid output at p = {p}");
        }
    }
    vec![t]
}

type AppRun = (RecoveryReport, u64, u64, bool);

/// Runs all six applications under `plan`; returns per-app
/// (report, rounds, dropped messages, validity verdict).
fn runs(g: &Graph, lg: &Graph, plan: &FaultPlan, policy: &RecoveryPolicy) -> Vec<(&'static str, AppRun)> {
    let seed = 7u64;
    let mut out = Vec::new();

    let (o, r) =
        maxis::approx_maximum_independent_set_resilient(g, 0.3, 3.0, seed, 5_000_000, plan, policy);
    let valid = is_maximal_independent_set(g, &o.set);
    out.push(("maxis", (r, o.stats.rounds, o.stats.dropped_messages, valid)));

    let w: Vec<u64> = (0..g.n() as u64).map(|v| 1 + (v * 7919) % 50).collect();
    let (o, r) = wmaxis::approx_maximum_weight_independent_set_resilient(
        g, &w, 0.3, 3.0, seed, 5_000_000, plan, policy,
    );
    let valid = is_maximal_independent_set(g, &o.set);
    out.push(("wmaxis", (r, o.stats.rounds, o.stats.dropped_messages, valid)));

    let (o, r) = mds::approx_minimum_dominating_set_resilient(g, 0.5, seed, 1_000_000, plan, policy);
    let valid = lcg_solvers::mds::is_dominating_set(g, &o.set);
    out.push(("mds", (r, o.stats.rounds, o.stats.dropped_messages, valid)));

    let (o, r) = mcm::approx_maximum_matching_resilient(g, 0.4, seed, plan, policy);
    let valid = mcm::is_valid(g, &o)
        && g.edges().all(|(_, u, v)| o.mate[u].is_some() || o.mate[v].is_some());
    out.push(("mcm", (r, o.stats.rounds, o.stats.dropped_messages, valid)));

    let (o, r) = corrclust::approx_correlation_clustering_resilient(lg, 0.3, seed, 16, plan, policy);
    let valid =
        o.clustering.len() == g.n() && o.score == lcg_solvers::corrclust::score(lg, &o.clustering);
    out.push(("corrclust", (r, o.stats.rounds, o.stats.dropped_messages, valid)));

    let (o, r) = ldd::low_diameter_decomposition_resilient(g, 0.4, 3.0, seed, plan, policy);
    let valid = o.cluster_of.len() == g.n() && o.max_diameter < usize::MAX;
    out.push(("ldd", (r, o.stats.rounds, o.stats.dropped_messages, valid)));

    out
}
