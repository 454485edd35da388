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
    /// One vertex's phase state.
    struct Luby {
        /// 0 live, 1 in MIS, 2 knocked out.
        status: u8,
        priority: u64,
        local_min: bool,
    }
    let n = g.n();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new(g, Model::congest());
    let mut states: Vec<Luby> = (0..n)
        .map(|_| Luby { status: 0, priority: 0, local_min: true })
        .collect();
    while states.iter().any(|s| s.status == 0) {
        // one phase, two rounds: A exchanges priorities, B lets local
        // minima join and announce so their neighbors drop out
        net.exchange_rounds(
            2,
            &mut states,
            |s, round, v, out| {
                if round == 0 {
                    // every vertex draws, in vertex order
                    s.priority = rng.gen::<u32>() as u64;
                    s.local_min = true;
                    if s.status == 0 {
                        for p in 0..g.degree(v) {
                            out.send(p, [s.priority]);
                        }
                    }
                } else {
                    if s.status == 0 && s.local_min {
                        s.status = 1;
                    }
                    // set members re-announce every phase
                    if s.status == 1 && s.local_min {
                        for p in 0..g.degree(v) {
                            out.send(p, [1]);
                        }
                    }
                }
            },
            |s, round, v, inbox| {
                if s.status != 0 {
                    return;
                }
                if round == 0 {
                    for (p, m) in inbox.iter().enumerate() {
                        if let Some(m) = m {
                            let u = g.neighbor_row(v)[p] as usize;
                            if (m[0], u) < (s.priority, v) {
                                s.local_min = false;
                            }
                        }
                    }
                } else if inbox.iter().flatten().next().is_some() {
                    s.status = 2;
                }
            },
            |_| false,
        );
    }
    let mis: Vec<usize> = (0..n).filter(|&v| states[v].status == 1).collect();
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
        net.exchange_rounds(
            1,
            &mut mate,
            |_, _round, v, out| {
                if let Some(u) = proposal[v] {
                    let p = g
                        .neighbor_vertices(v)
                        .position(|w| w == u)
                        .expect("proposal target is a neighbor");
                    out.send(p, [1]);
                }
            },
            |mate, _round, v, inbox| {
                if mate.is_some() {
                    return;
                }
                if let Some(u) = proposal[v] {
                    // mutual?
                    let p = g
                        .neighbor_vertices(v)
                        .position(|w| w == u)
                        .expect("proposal target is a neighbor");
                    if inbox[p].is_some() {
                        *mate = Some(u);
                    }
                }
            },
            |_| false,
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
