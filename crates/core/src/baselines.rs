//! Baseline distributed algorithms the experiments compare against.
//!
//! * [`luby_mis`] — Luby's maximal independent set: the `(1/Δ)`-
//!   approximation route to MAXIS mentioned in §1.1 (via `MIS(n, Δ)`).
//! * [`randomized_greedy_matching`] — mutual-proposal maximal matching:
//!   the classical 1/2-approximate distributed baseline for MCM/MWM.
//!
//! Both run in the CONGEST simulator with 1-word messages, so the
//! experiments can report baseline *rounds* as well as baseline *quality*.

use lcg_congest::{Model, Network, RoundStats};
use lcg_graph::Graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Luby's algorithm: in each phase every live vertex draws a random
/// priority; local minima join the MIS and knock out their neighbors.
/// Returns the MIS and the measured round stats.
pub fn luby_mis(g: &Graph, seed: u64) -> (Vec<usize>, RoundStats) {
    let n = g.n();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new(g, Model::congest());
    let mut state = vec![0u8; n]; // 0 live, 1 in MIS, 2 knocked out
    while state.contains(&0) {
        let priority: Vec<u64> = (0..n).map(|_| rng.gen::<u32>() as u64).collect();
        // round A: exchange priorities
        let mut local_min = vec![true; n];
        net.exchange(
            |v, out| {
                if state[v] == 0 {
                    for p in 0..g.degree(v) {
                        out.send(p, [priority[v]]);
                    }
                }
            },
            |v, inbox| {
                if state[v] != 0 {
                    return;
                }
                for (p, m) in inbox.iter().enumerate() {
                    if let Some(m) = m {
                        let u = g.neighbor_row(v)[p] as usize;
                        if (m[0], u) < (priority[v], v) {
                            local_min[v] = false;
                        }
                    }
                }
            },
        );
        for v in 0..n {
            if state[v] == 0 && local_min[v] {
                state[v] = 1;
            }
        }
        // round B: winners announce; neighbors drop out
        let snapshot = state.clone();
        net.exchange(
            |v, out| {
                if snapshot[v] == 1 && local_min[v] {
                    for p in 0..g.degree(v) {
                        out.send(p, [1]);
                    }
                }
            },
            |v, inbox| {
                if state[v] == 0 && inbox.iter().flatten().next().is_some() {
                    state[v] = 2;
                }
            },
        );
    }
    let mis: Vec<usize> = (0..n).filter(|&v| state[v] == 1).collect();
    (mis, net.stats())
}

/// Randomized mutual-proposal maximal matching: each round every free
/// vertex proposes to a uniformly random free neighbor; mutual proposals
/// match. Terminates when no free edge remains (maximality).
pub fn randomized_greedy_matching(g: &Graph, seed: u64) -> (Vec<Option<usize>>, RoundStats) {
    let n = g.n();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new(g, Model::congest());
    let mut mate: Vec<Option<usize>> = vec![None; n];
    loop {
        // does any free-free edge remain? (orchestration check; the
        // distributed version detects quiescence with one more round)
        let live = g
            .edges()
            .any(|(_, u, v)| mate[u].is_none() && mate[v].is_none());
        if !live {
            break;
        }
        // choose proposals
        let proposal: Vec<Option<usize>> = (0..n)
            .map(|v| {
                if mate[v].is_some() {
                    return None;
                }
                let free: Vec<usize> = g
                    .neighbor_vertices(v)
                    .filter(|&u| mate[u].is_none())
                    .collect();
                if free.is_empty() {
                    None
                } else {
                    Some(free[rng.gen_range(0..free.len())])
                }
            })
            .collect();
        net.exchange(
            |v, out| {
                if let Some(u) = proposal[v] {
                    let p = g
                        .neighbor_vertices(v)
                        .position(|w| w == u)
                        .expect("proposal target is a neighbor");
                    out.send(p, [1]);
                }
            },
            |v, inbox| {
                if mate[v].is_some() {
                    return;
                }
                if let Some(u) = proposal[v] {
                    // mutual?
                    let p = g
                        .neighbor_vertices(v)
                        .position(|w| w == u)
                        .expect("proposal target is a neighbor");
                    if inbox[p].is_some() {
                        mate[v] = Some(u);
                    }
                }
            },
        );
        // one more round: vertices that matched announce it so neighbors
        // stop proposing to them (information is already consistent in the
        // shared-state simulation; charge the round)
        net.charge_rounds(1);
    }
    (mate, net.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::gen;
    use lcg_solvers::mis::is_independent_set;

    #[test]
    fn luby_produces_maximal_independent_set() {
        let mut rng = gen::seeded_rng(230);
        let g = gen::random_planar(120, 0.5, &mut rng);
        let (mis, stats) = luby_mis(&g, 17);
        assert!(is_independent_set(&g, &mis));
        // maximality: every vertex is in or has a neighbor in the set
        let in_set: std::collections::HashSet<usize> = mis.iter().copied().collect();
        for v in 0..g.n() {
            assert!(
                in_set.contains(&v) || g.neighbor_vertices(v).any(|u| in_set.contains(&u)),
                "vertex {v} uncovered"
            );
        }
        assert!(stats.rounds > 0);
        assert!(stats.max_words_edge_round <= 2);
    }

    #[test]
    fn luby_rounds_logarithmic() {
        let mut rng = gen::seeded_rng(231);
        let g = gen::stacked_triangulation(400, &mut rng);
        let (_, stats) = luby_mis(&g, 3);
        assert!(stats.rounds <= 60, "rounds {}", stats.rounds);
    }

    #[test]
    fn greedy_matching_is_maximal() {
        let mut rng = gen::seeded_rng(232);
        let g = gen::random_planar(100, 0.5, &mut rng);
        let (mate, _) = randomized_greedy_matching(&g, 5);
        // validity
        for (v, &m) in mate.iter().enumerate() {
            if let Some(u) = m {
                assert_eq!(mate[u], Some(v));
                assert!(g.has_edge(u, v));
            }
        }
        // maximality
        for (_, u, v) in g.edges() {
            assert!(mate[u].is_some() || mate[v].is_some());
        }
    }

    #[test]
    fn greedy_matching_half_approx() {
        let mut rng = gen::seeded_rng(233);
        let g = gen::stacked_triangulation(200, &mut rng);
        let (mate, _) = randomized_greedy_matching(&g, 9);
        let size = mate.iter().flatten().count() / 2;
        let opt = lcg_solvers::matching::maximum_matching(&g).size();
        assert!(2 * size >= opt);
    }
}
