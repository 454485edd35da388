//! **E17 (validation)** — is the round *charging* model honest? The
//! framework charges Lemma 2.4 routing `Σ_steps max-edge-load` rounds;
//! this experiment re-executes the same routing **with real messages** in
//! the CONGEST simulator (`network_walk_routing_with_counts`: every token a
//! 2-word message, one per edge-direction per round, enforced by the
//! engine) and compares the two costs. Both walks start from one generator
//! state, so every token takes the same trajectory in both: they must agree
//! on steps, and per step the real walk pays its longest one-way port queue
//! plus a synchronisation round where the charged one pays
//! `max(largest two-way edge load, 1)` — so the ratio lies in `[0.5, 1 +
//! steps / charged rounds]`, which each row asserts.

use lcg_congest::{Model, Network, RoundStats};
use lcg_expander::decomp::{self, Threshold};
use lcg_expander::routing::{self, RoutingOutcome};
use lcg_graph::{gen, Graph};
use rand_chacha::ChaCha8Rng;

use crate::workloads::wheel;
use crate::{cells, Opts, Table};

/// One token per member routed to `leader`, charged and then message-faithful
/// from the same state of `rng` (which advances by the one draw both take),
/// checked against each other.
fn both(g: &Graph, members: &[usize], leader: usize, rng: &mut ChaCha8Rng) -> (RoutingOutcome, RoutingOutcome, RoundStats) {
    let ones = vec![1; members.len()];
    let mut same = rng.clone();
    let charged = routing::charged_walk_routing(g, members, leader, &ones, 10_000_000, rng, None, false).0;
    let mut net = Network::new(g, Model::congest());
    let (real, stats) = routing::network_walk_routing_with_counts(&mut net, members, leader, &ones, 10_000_000, &mut same);
    assert!(charged.complete() && real.complete());
    assert_eq!(charged.steps, real.steps, "the two walks took different trajectories");
    assert!(charged.rounds <= 2 * real.rounds && real.rounds <= charged.rounds + charged.steps as u64);
    (charged, real, stats)
}

/// Runs E17.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let mut t = Table::new(
        "E17",
        "charged vs message-faithful routing cost (same workload, same walk trajectories)",
        &[
            "graph", "n", "charged rounds", "real rounds", "ratio", "real max words/edge",
            "messages",
        ],
    );
    let mut rng = gen::seeded_rng(0xE17);
    let sizes: &[usize] = scale.pick(&[64, 256][..], &[64, 256, 1024][..]);
    for &n in sizes {
        let g = wheel(n);
        let members: Vec<usize> = (0..n).collect();
        let leader = n - 1;
        let (charged, real, stats) = both(&g, &members, leader, &mut rng);
        t.row(cells!(
            "wheel",
            n,
            charged.rounds,
            real.rounds,
            format!("{:.2}", real.rounds as f64 / charged.rounds.max(1) as f64),
            stats.max_words_edge_round,
            stats.messages
        ));
    }
    // a real decomposition cluster too
    let g = gen::stacked_triangulation(scale.pick(150, 300), &mut rng);
    let d = decomp::decompose(&g, 0.15, Threshold::Adaptive, opts.exec);
    let c = d.clusters.iter().max_by_key(|c| c.members.len()).unwrap();
    let leader = *c
        .members
        .iter()
        .max_by_key(|&&v| {
            g.neighbor_vertices(v)
                .filter(|&u| d.cluster_of[u] == d.cluster_of[v])
                .count()
        })
        .unwrap();
    let (charged, real, stats) = both(&g, &c.members, leader, &mut rng);
    t.row(cells!(
        "planar cluster",
        c.members.len(),
        charged.rounds,
        real.rounds,
        format!("{:.2}", real.rounds as f64 / charged.rounds.max(1) as f64),
        stats.max_words_edge_round,
        stats.messages
    ));
    vec![t]
}
