//! Golden-stats regression layer: canonical pipelines on canonical graphs
//! must reproduce their checked-in `RoundStats` — rounds, messages, words,
//! and max words per edge per round — exactly.
//!
//! Because the engine is bit-deterministic, a diff means an *algorithmic*
//! change, not a scheduling artifact. A golden rendered at several thread
//! counts is compared (or blessed) only once the renders agree. The same
//! goldens are the reference of three other checks, each through the
//! shared workloads of `tests/common`: the old `Vec<u64>` messages
//! (`tests/msg.rs`), a vacuous fault plan (`tests/chaos.rs`), and one
//! `run_state` call and odd thread counts (`tests/executor_scaling.rs`).
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```

mod common;

use common::{check_golden, check_stats_golden, flood_round, flood_stats, framework_stats, stats_golden_graphs};
use locongest::congest::ExecConfig;
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::graph::Graph;

/// The framework with the gathering phase executed message-faithfully
/// (`network_walk_routing_with_counts`: every token a real 2-word message),
/// fixed seed: statistics, phase rounds and every cluster's routing outcome,
/// the same text at 1, 2 and 4 threads.
fn faithful_render(g: &Graph) -> String {
    let render = |threads: usize| {
        let cfg = FrameworkConfig {
            message_faithful: true,
            exec: ExecConfig::with_threads(threads),
            ..FrameworkConfig::planar(0.3, 5)
        };
        let out = run_framework(g, &cfg);
        let clusters: Vec<String> = out
            .clusters
            .iter()
            .map(|c| {
                let r = &c.routing;
                format!(
                    "    {{\"id\": {}, \"leader\": {}, \"delivered\": {}, \"total\": {}, \
                     \"steps\": {}, \"rounds\": {}, \"max_edge_load\": {}}}",
                    c.id, c.leader, r.delivered, r.total, r.steps, r.rounds, r.max_edge_load
                )
            })
            .collect();
        let p = out.phases;
        format!(
            "{{\n  \"stats\": {},\n  \"phases\": {{\"election\": {}, \"orientation\": {}, \
             \"gathering\": {}, \"broadcast\": {}}},\n  \"clusters\": [\n{}\n  ]\n}}\n",
            serde_json::to_string(&out.stats).unwrap(),
            p.election,
            p.orientation,
            p.gathering,
            p.broadcast,
            clusters.join(",\n")
        )
    };
    let one = render(1);
    for threads in [2, 4] {
        assert_eq!(render(threads), one, "faithful framework diverged at {threads} threads");
    }
    one
}

/// The three goldens of the `i`-th graph of `stats_golden_graphs`: the
/// flood, the framework at 1, 2 and 4 threads, and the faithful framework.
fn check(i: usize) {
    let (name, g) = &stats_golden_graphs()[i];
    check_stats_golden(&format!("{name}_flood"), &flood_stats(g, None, false, flood_round));
    let one = framework_stats(g, 1, None);
    for threads in [2, 4] {
        assert_eq!(one, framework_stats(g, threads, None), "{name} framework at {threads} threads");
    }
    check_stats_golden(&format!("{name}_framework"), &one);
    check_golden(&format!("{name}_framework_faithful.json"), &faithful_render(g));
}

#[test]
fn golden_cycle() {
    check(0);
}

#[test]
fn golden_random_planar() {
    check(1);
}

#[test]
fn golden_hypercube() {
    check(2);
}
