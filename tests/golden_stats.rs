//! Golden-stats regression layer: canonical pipelines on canonical graphs
//! must reproduce their checked-in `RoundStats` — rounds, messages, words,
//! and max words per edge per round — exactly.
//!
//! Because the engine is bit-deterministic for every thread count, these
//! snapshots hold under any `LCG_THREADS` setting; a diff means an
//! *algorithmic* change, not a scheduling artifact. To re-bless after an
//! intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```

use std::path::PathBuf;

use locongest::congest::{stats, ExecConfig, Model, Network, RoundStats};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::graph::{gen, Graph};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check(name: &str, got: RoundStats) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, serde_json::to_string_pretty(&got).unwrap()).unwrap();
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); bless with UPDATE_GOLDEN=1")
    });
    let expected: RoundStats = serde_json::from_str(&raw).unwrap();
    stats::compare(&expected, &got).unwrap_or_else(|e| {
        panic!("{name}: {e}\n(if the change is intentional, re-bless with UPDATE_GOLDEN=1)")
    });
}

/// BFS flood from vertex 0 until quiescence: the engine's bread-and-butter
/// workload, with 1-word messages.
fn flood_stats(g: &Graph) -> RoundStats {
    let mut net = Network::new(g, Model::congest());
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    let diam = g.diameter().unwrap_or(0);
    for _ in 0..diam + 1 {
        net.step_state(&mut informed, |me, _v, inbox, out| {
            if inbox.iter().any(Option::is_some) {
                *me = true;
            }
            if *me {
                for p in 0..out.ports() {
                    out.send(p, [1]);
                }
            }
        });
    }
    assert!(informed.iter().all(|&b| b), "flood must reach everyone");
    net.stats()
}

/// The full Theorem 2.6 framework, fixed seed.
fn framework_stats(g: &Graph) -> RoundStats {
    run_framework(g, &FrameworkConfig::planar(0.3, 5)).stats
}

/// The framework with the gathering phase executed message-faithfully
/// (`network_walk_routing_with_counts`: every token a real 2-word message),
/// fixed seed: statistics, phase rounds and every cluster's routing outcome.
/// The golden is compared as text and replayed at 1, 2 and 4 threads.
fn check_faithful(name: &str, g: &Graph) {
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
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, render(1)).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); bless with UPDATE_GOLDEN=1")
    });
    for threads in [1, 2, 4] {
        assert_eq!(render(threads), expected, "{name} diverged at {threads} threads");
    }
}

#[test]
fn golden_cycle() {
    let g = gen::cycle(64);
    check("cycle64_flood", flood_stats(&g));
    check("cycle64_framework", framework_stats(&g));
    check_faithful("cycle64_framework_faithful", &g);
}

#[test]
fn golden_random_planar() {
    let mut rng = gen::seeded_rng(0x601D);
    let g = gen::random_planar(200, 0.5, &mut rng);
    check("planar200_flood", flood_stats(&g));
    check("planar200_framework", framework_stats(&g));
    check_faithful("planar200_framework_faithful", &g);
}

#[test]
fn golden_hypercube() {
    let g = gen::hypercube(8);
    check("hypercube8_flood", flood_stats(&g));
    check("hypercube8_framework", framework_stats(&g));
    check_faithful("hypercube8_framework_faithful", &g);
}
