//! Golden outcomes of the message-faithful walk router
//! (`network_walk_routing_with_counts`), blessed from the implementation
//! that scanned every host vertex per step and per round. The router's
//! contract is bit-identity: the same `RoutingOutcome`, the same
//! `RoundStats`, and the caller's RNG left at the same position, with and
//! without an active fault plan.

use lcg_congest::{FaultPlan, Model, Network, RoundStats};
use lcg_expander::routing::{network_walk_routing_with_counts, RoutingOutcome};
use lcg_graph::{gen, Graph};
use rand::Rng;

fn replay(
    g: &Graph,
    members: &[usize],
    leader: usize,
    plan: Option<FaultPlan>,
    seed: u64,
) -> (RoutingOutcome, RoundStats, u64) {
    let counts: Vec<usize> = members.iter().map(|&v| 1 + v % 3).collect();
    let mut net = Network::new(g, Model::congest());
    net.set_fault_plan(plan);
    let mut rng = gen::seeded_rng(seed);
    let (outcome, stats) =
        network_walk_routing_with_counts(&mut net, members, leader, &counts, 100_000, &mut rng);
    (outcome, stats, rng.gen::<u64>())
}

/// A cluster that is a strict subset of the host: the left three columns
/// of a 6 × 4 grid, fault-free.
#[test]
fn subcluster_walk_matches_golden() {
    let g = gen::grid(6, 4);
    let members: Vec<usize> = (0..24).filter(|v| v % 6 < 3).collect();
    let expected = (
        RoutingOutcome { delivered: 24, total: 24, steps: 155, rounds: 324, max_edge_load: 3 },
        RoundStats {
            rounds: 324,
            messages: 564,
            words: 1128,
            max_words_edge_round: 2,
            ..RoundStats::default()
        },
        17_312_069_774_165_657_144,
    );
    assert_eq!(replay(&g, &members, 0, None, 136), expected);
}

/// The whole of a random planar graph under an active plan: i.i.d. drops, a
/// link-down interval and a crash-stop destroy tokens in transit, so the
/// walk ends incomplete once nothing is left waiting.
#[test]
fn faulty_walk_matches_golden() {
    let mut rng = gen::seeded_rng(0x60_1D);
    let g = gen::random_planar(60, 0.5, &mut rng);
    let members: Vec<usize> = (0..g.n()).collect();
    let plan = FaultPlan::drops(0xFA, 0.02).with_link_failure(3, 0, 50).with_crash(17, 40);
    let expected = (
        RoutingOutcome { delivered: 55, total: 120, steps: 316, rounds: 651, max_edge_load: 4 },
        RoundStats {
            rounds: 651,
            messages: 2842,
            words: 5684,
            max_words_edge_round: 2,
            dropped_messages: 52,
            crashed_messages: 13,
            truncated_messages: 0,
        },
        6_438_910_334_356_063_369,
    );
    assert_eq!(replay(&g, &members, 5, Some(plan), 137), expected);
}
