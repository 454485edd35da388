//! Round-protocol golden: the message-passing protocols written against the
//! round engine directly, on degenerate and small inputs.
//!
//! Each line is one run — a graph and a protocol — with the protocol's
//! whole output and its **full** [`RoundStats`], so a changed round count,
//! message count, word count or output on any of the four graphs shows up
//! as a changed line. The graphs are the empty graph, one vertex, five
//! isolated vertices and the 4 × 4 grid. To re-bless after an intentional
//! change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test degenerate_protocols
//! ```

use std::fmt::{Debug, Write as _};
use std::path::PathBuf;

use locongest::congest::primitives::diameter_check;
use locongest::congest::{Model, Network, RoundStats};
use locongest::core::apps::mcm::distributed_star_elimination;
use locongest::core::baselines::{luby_mis, randomized_greedy_matching};
use locongest::expander::distributed::mpx_clustering;
use locongest::graph::{gen, Graph, GraphBuilder};

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("empty", GraphBuilder::new(0).build()),
        ("single", GraphBuilder::new(1).build()),
        ("edgeless5", GraphBuilder::new(5).build()),
        ("grid4x4", gen::grid(4, 4)),
    ]
}

/// Appends one run's line to `out`.
fn line(out: &mut String, graph: &str, protocol: &str, stats: &RoundStats, output: &impl Debug) {
    writeln!(out, "{graph} {protocol} {stats:?} out={output:?}").unwrap();
}

fn dump() -> String {
    let mut out = String::new();
    for (name, g) in graphs() {
        let mut net = Network::new(&g, Model::congest());
        let mpx = mpx_clustering(&mut net, 0.3, &mut gen::seeded_rng(7));
        line(&mut out, name, "mpx", &net.stats(), &mpx.cluster_of);

        let mut net = Network::new(&g, Model::congest());
        let marked = diameter_check(&mut net, &vec![0; g.n()], 2);
        line(&mut out, name, "diameter_check", &net.stats(), &marked);

        let (mis, stats) = luby_mis(&g, 3);
        line(&mut out, name, "luby", &stats, &mis);

        let (mate, stats) = randomized_greedy_matching(&g, 3);
        line(&mut out, name, "matching", &stats, &mate);

        let (kept, stats) = distributed_star_elimination(&g);
        line(&mut out, name, "star_elimination", &stats, &kept);
    }
    out
}

/// `UPDATE_GOLDEN=1` re-blesses the golden instead of comparing.
#[expect(
    clippy::disallowed_methods,
    reason = "the re-bless switch of a test; the code under test reads no environment"
)]
fn blessing() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok()
}

#[test]
fn round_protocols_match_golden() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/degenerate_protocols.txt");
    let got = dump();
    if blessing() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); bless with UPDATE_GOLDEN=1")
    });
    let diff: Vec<String> = expected
        .lines()
        .zip(got.lines())
        .filter(|(e, g)| e != g)
        .map(|(e, g)| format!("- {e}\n+ {g}"))
        .collect();
    assert!(
        diff.is_empty() && expected.lines().count() == got.lines().count(),
        "round protocols differ from tests/golden/degenerate_protocols.txt \
         (re-bless with UPDATE_GOLDEN=1 if intentional):\n{}",
        diff.join("\n")
    );
}
