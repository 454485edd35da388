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

mod common;

use std::fmt::{Debug, Write as _};

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

#[test]
fn round_protocols_match_golden() {
    common::check_golden("degenerate_protocols.txt", &dump());
}
