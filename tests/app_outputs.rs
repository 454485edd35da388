//! App-output golden: every framework application's full outcome, pinned.
//!
//! Each line is one run — a graph, an app, a mode — with its round and
//! message counts, the retry harness's report (resilient runs only) and an
//! FNV-1a hash of the outcome's `{:?}` dump, so any change to a set, a
//! matching, a clustering, a stats counter or the framework record shows
//! up as a changed line. The plain runs cover the eight apps built on
//! Theorem 2.6; the resilient runs cover the six with a `_resilient` entry
//! point under a clean plan, a light drop plan that forces retries, and a
//! blackout that degrades. To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test app_outputs
//! ```

mod common;

use std::fmt::{Debug, Write as _};

use locongest::congest::{FaultPlan, RoundStats};
use locongest::core::apps::property_testing::{test_property, TestedProperty};
use locongest::core::apps::{corrclust, ldd, maxis, mcm, mds, mwm, wmaxis};
use locongest::core::recovery::{RecoveryPolicy, RecoveryReport};
use locongest::graph::{gen, Graph, GraphBuilder};

const SEED: u64 = 0;

fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = gen::seeded_rng(SEED);
    vec![
        ("planar50", gen::random_planar(50, 0.5, &mut rng)),
        ("grid6x6", gen::grid(6, 6)),
        ("star9", gen::star(9)),
        ("tree30", gen::random_tree(30, &mut rng)),
        ("edgeless5", GraphBuilder::new(5).build()),
    ]
}

fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("none", FaultPlan::none()),
        ("drops5", FaultPlan::drops(5, 0.1)),
        ("drops9", FaultPlan::drops(9, 1.0)),
    ]
}

/// Appends one run's line to `out`.
fn line(
    out: &mut String,
    graph: &str,
    app: &str,
    mode: &str,
    stats: &RoundStats,
    report: Option<&RecoveryReport>,
    outcome: &impl Debug,
) {
    let report = report.map_or("-".to_string(), |r| {
        format!("{}/{}/{}", r.attempts, r.degraded, r.detector_rounds)
    });
    let hash = common::fnv1a64(format!("{outcome:?}").as_bytes());
    writeln!(
        out,
        "{graph} {SEED} {app} {mode} rounds={} msgs={} report={report} out={hash:016x}",
        stats.rounds, stats.messages
    )
    .unwrap();
}

fn dump() -> String {
    let mut out = String::new();
    let policy = RecoveryPolicy {
        max_retries: 1,
        initial_walk_steps: 2_000,
    };
    for (name, g) in graphs() {
        let weights: Vec<u64> = (0..g.n() as u64).map(|v| 1 + (v * 7919) % 50).collect();
        let mut rng = gen::seeded_rng(SEED ^ 0x1ABE1);
        let labeled = gen::random_labels(g.clone(), 0.6, &mut rng);
        let weighted = gen::random_weights(g.clone(), 50, &mut rng);

        let o = maxis::approx_maximum_independent_set(&g, 0.3, 3.0, SEED, 5_000_000);
        line(&mut out, name, "maxis", "plain", &o.stats, None, &o);
        let o =
            wmaxis::approx_maximum_weight_independent_set(&g, &weights, 0.3, 3.0, SEED, 5_000_000);
        line(&mut out, name, "wmaxis", "plain", &o.stats, None, &o);
        let o = mds::approx_minimum_dominating_set(&g, 0.5, SEED, 1_000_000);
        line(&mut out, name, "mds", "plain", &o.stats, None, &o);
        let o = corrclust::approx_correlation_clustering(&labeled, 0.3, 3.0, SEED, 16);
        line(&mut out, name, "corrclust", "plain", &o.stats, None, &o);
        let o = ldd::low_diameter_decomposition(&g, 0.4, 3.0, SEED);
        line(&mut out, name, "ldd", "plain", &o.stats, None, &o);
        let o = mcm::approx_maximum_matching(&g, 0.4, SEED);
        line(&mut out, name, "mcm", "plain", &o.stats, None, &o);
        let o = mwm::approx_maximum_weight_matching(&weighted, 0.3, 3.0, SEED, 4);
        line(&mut out, name, "mwm", "plain", &o.stats, None, &o);
        let o = test_property(&g, 0.3, TestedProperty::Planar, SEED);
        line(&mut out, name, "property", "plain", &o.stats, None, &o);

        for (mode, plan) in plans() {
            let (o, r) = maxis::approx_maximum_independent_set_resilient(
                &g, 0.3, 3.0, SEED, 5_000_000, &plan, &policy,
            );
            line(&mut out, name, "maxis", mode, &o.stats, Some(&r), &o);
            let (o, r) = wmaxis::approx_maximum_weight_independent_set_resilient(
                &g, &weights, 0.3, 3.0, SEED, 5_000_000, &plan, &policy,
            );
            line(&mut out, name, "wmaxis", mode, &o.stats, Some(&r), &o);
            let (o, r) = mds::approx_minimum_dominating_set_resilient(
                &g, 0.5, SEED, 1_000_000, &plan, &policy,
            );
            line(&mut out, name, "mds", mode, &o.stats, Some(&r), &o);
            let (o, r) = corrclust::approx_correlation_clustering_resilient(
                &labeled, 0.3, SEED, 16, &plan, &policy,
            );
            line(&mut out, name, "corrclust", mode, &o.stats, Some(&r), &o);
            let (o, r) =
                ldd::low_diameter_decomposition_resilient(&g, 0.4, 3.0, SEED, &plan, &policy);
            line(&mut out, name, "ldd", mode, &o.stats, Some(&r), &o);
            let (o, r) = mcm::approx_maximum_matching_resilient(&g, 0.4, SEED, &plan, &policy);
            line(&mut out, name, "mcm", mode, &o.stats, Some(&r), &o);
        }
    }
    out
}

#[test]
fn app_outputs_match_golden() {
    common::check_golden("app_outputs.txt", &dump());
}
