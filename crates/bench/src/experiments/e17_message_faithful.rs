//! **E17 (validation)** — is the round *charging* model honest? The
//! framework charges Lemma 2.4 routing `Σ_steps max-edge-load` rounds;
//! this experiment re-executes the same routing **with real messages** in
//! the CONGEST simulator (`network_walk_routing`: every token a 2-word
//! message, one per edge-direction per round, enforced by the engine) and
//! compares the two costs.

use lcg_congest::{Model, Network};
use lcg_expander::routing;
use lcg_graph::gen;

use crate::workloads::wheel;
use crate::{cells, Opts, Table};

/// Runs E17.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    let mut t = Table::new(
        "E17",
        "charged vs message-faithful routing cost (same workload, independent randomness)",
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
        let charged = routing::random_walk_routing(&g, &members, leader, 10_000_000, &mut rng);
        let mut net = Network::new(&g, Model::congest());
        let (real, stats) =
            routing::network_walk_routing(&mut net, &members, leader, 10_000_000, &mut rng);
        assert!(charged.complete() && real.complete());
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
    let d = lcg_expander::decomp::decompose_adaptive(&g, 0.15);
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
    let charged = routing::random_walk_routing(&g, &c.members, leader, 10_000_000, &mut rng);
    let mut net = Network::new(&g, Model::congest());
    let (real, stats) =
        routing::network_walk_routing(&mut net, &c.members, leader, 10_000_000, &mut rng);
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
