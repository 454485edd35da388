//! Golden outcomes of the charged Lemma 2.4 router (`charged_walk_routing`),
//! blessed from the implementation that advanced every token — absorbed or
//! not — and zeroed every edge load on every walk step. The router's
//! contract is bit-identity: the same `RoutingOutcome`, the same host-edge
//! loads and the caller's RNG left at the same position, at every thread
//! count and work threshold, whether or not a vacuous fault plan is
//! attached and whether or not edges are tracked.

use lcg_congest::{ExecConfig, FaultPlan};
use lcg_expander::routing::{charged_walk_routing, RoutingOutcome};
use lcg_graph::{gen, Graph};
use rand::Rng;

/// Walk-step cap, far above what any instance here needs.
const MAX_STEPS: usize = 200_000;

struct Instance {
    g: Graph,
    members: Vec<usize>,
    leader: usize,
    counts: Vec<usize>,
    seed: u64,
}

/// What one execution leaves behind: the outcome, the tracked loads as
/// `(entries, fnv-1a over the (edge, words) pairs)`, the caller's next draw.
type Observed = (RoutingOutcome, (usize, u64), u64);

fn fnv(loads: &[(usize, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(e, w) in loads {
        for b in (e as u64).to_le_bytes().into_iter().chain(w.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn route(inst: &Instance, exec: ExecConfig, faults: Option<&FaultPlan>, track: bool) -> Observed {
    let mut rng = gen::seeded_rng(inst.seed);
    let (out, loads) = charged_walk_routing(
        &inst.g,
        &inst.members,
        inst.leader,
        &inst.counts,
        MAX_STEPS,
        &mut rng,
        exec,
        faults,
        track,
    );
    (out, (loads.len(), fnv(&loads)), rng.gen::<u64>())
}

/// A whole `grid_with_noise` graph as one cluster, shipping what the
/// framework ships: `1 + outdeg(v)` tokens under the by-id orientation,
/// to the max-degree leader.
fn noisy_grid() -> Instance {
    let g = gen::grid_with_noise(12, 12, 0.02, &mut gen::seeded_rng(0x6121));
    let members: Vec<usize> = (0..g.n()).collect();
    let counts = members.iter().map(|&v| 1 + g.neighbor_vertices(v).filter(|&u| u > v).count()).collect();
    let leader = (0..g.n()).max_by_key(|&v| (g.degree(v), v)).expect("non-empty grid");
    Instance { g, members, leader, counts, seed: 160 }
}

/// A cluster that is a strict subset of the host, listed in descending
/// order so local ids differ from host order: the left three columns of a
/// 6 × 4 grid.
fn grid_subcluster() -> Instance {
    let g = gen::grid(6, 4);
    let members: Vec<usize> = (0..24).rev().filter(|v| v % 6 < 3).collect();
    let counts = members.iter().map(|&v| 1 + v % 3).collect();
    Instance { g, members, leader: 7, counts, seed: 161 }
}

fn clique() -> Instance {
    let g = gen::complete(18);
    let members: Vec<usize> = (0..18).collect();
    let counts = members.iter().map(|&v| 1 + v % 2).collect();
    Instance { g, members, leader: 4, counts, seed: 162 }
}

fn lossy() -> FaultPlan {
    FaultPlan::drops(0xFA, 0.01).with_link_failure(3, 0, 50)
}

/// Every `(threads, faults, track)` combination of one instance against its
/// two golden rows: `plain` for no plan and for the vacuous plan, `faulty`
/// under [`lossy`]. An untracked run reports no loads.
fn check(name: &str, inst: &Instance, plain: Observed, faulty: Observed) {
    let vacuous = FaultPlan::none();
    let lossy = lossy();
    for threads in [1, 2, 4] {
        // threshold 1: the token batch really runs on the pool when threads > 1
        let exec = ExecConfig::with_threads(threads).with_work_threshold(1);
        for track in [false, true] {
            let untracked = |(out, loads, draw): Observed| (out, if track { loads } else { (0, fnv(&[])) }, draw);
            for (plan, want) in [(None, plain), (Some(&vacuous), plain), (Some(&lossy), faulty)] {
                assert_eq!(
                    route(inst, exec, plan, track),
                    untracked(want),
                    "{name}: {threads} threads, faults {plan:?}, track {track}"
                );
            }
        }
    }
}

fn outcome(delivered: usize, total: usize, steps: usize, rounds: u64, max_edge_load: usize) -> RoutingOutcome {
    RoutingOutcome { delivered, total, steps, rounds, max_edge_load }
}

const NOISY_GRID_DRAW: u64 = 4_959_043_763_694_520_419;

fn noisy_grid_plain() -> Observed {
    (outcome(409, 409, 4171, 6804, 6), (265, 2_204_837_223_018_045_465), NOISY_GRID_DRAW)
}

fn noisy_grid_faulty() -> Observed {
    (outcome(93, 409, 1084, 1712, 5), (265, 10_679_004_716_853_951_511), NOISY_GRID_DRAW)
}

#[test]
fn noisy_grid_matches_golden() {
    check("noisy_grid", &noisy_grid(), noisy_grid_plain(), noisy_grid_faulty());
}

#[test]
fn grid_subcluster_matches_golden() {
    let draw = 16_898_143_802_962_605_430;
    check(
        "grid_subcluster",
        &grid_subcluster(),
        (outcome(24, 24, 79, 105, 3), (17, 15_391_007_172_811_292_356), draw),
        (outcome(20, 24, 79, 105, 3), (17, 15_391_007_172_811_292_356), draw),
    );
}

#[test]
fn clique_matches_golden() {
    let draw = 7_781_336_903_497_506_375;
    check(
        "clique",
        &clique(),
        (outcome(27, 27, 87, 95, 2), (128, 2_445_938_541_801_292_846), draw),
        (outcome(19, 27, 75, 83, 2), (125, 7_586_315_179_678_846_507), draw),
    );
}

/// Thresholds at which the walk starts on the pool with most tokens alive
/// and finishes below the token work threshold: the golden rows must not
/// move with where that happens.
#[test]
fn pool_to_sequential_hand_over_matches_golden() {
    let inst = noisy_grid();
    let total: usize = inst.counts.iter().sum();
    let lossy = lossy();
    for (threads, threshold) in [(2, 8), (4, 4), (3, 16)] {
        // the router asks for 8 tokens per vertex of the configured threshold
        assert!(total >= 2 * 8 * threshold, "{total} tokens must start on the pool");
        let exec = ExecConfig::with_threads(threads).with_work_threshold(threshold);
        for (plan, want) in [(None, noisy_grid_plain()), (Some(&lossy), noisy_grid_faulty())] {
            assert_eq!(route(&inst, exec, plan, true), want, "{threads} threads, threshold {threshold}");
        }
    }
}
