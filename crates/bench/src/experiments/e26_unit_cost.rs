//! **E26** — unit costs of Theorem 2.6's three inner loops, measured from
//! this binary: `spectral::lambda2` in ns per non-zero per iteration,
//! `charged_walk_routing` in ns per live token-step and the
//! message-faithful `network_walk_routing_with_counts` in ns per live
//! token-step and per delivered message, on `grid_with_noise(s, s, 0.02)`.
//!
//! The instances are those of the in-module probes of `lcg-expander`
//! (`cargo test --release -p lcg-expander --lib probe_ -- --ignored
//! --nocapture --test-threads=1`), so the two binaries time the same work
//! from one rlib at two link placements: rows that disagree by more than
//! noise are a code-placement effect, not a change in work (ROADMAP item
//! 1, finding (ii)). Wall-clock only — nothing here is deterministic
//! except the `iterations`, `steps`, `token-steps` and `messages` columns.

use std::time::Instant;

use lcg_congest::{Model, Network};
use lcg_expander::routing::{charged_walk_routing, network_walk_routing_with_counts};
use lcg_expander::spectral::lambda2;
use lcg_graph::{gen, Graph};
use rand::Rng;

use crate::{cells, Opts, Table};

/// Smallest of three timings of `f`, in nanoseconds, with its last result.
fn best_of_three<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let timed = |_| {
        let started = Instant::now();
        let out = f();
        (started.elapsed().as_nanos() as f64, out)
    };
    (0..3).map(timed).reduce(|(best, _), (ns, out)| (best.min(ns), out)).expect("three runs")
}

/// The live token-steps of an uncapped, fault-free walk over all of `g` —
/// Σ over tokens of the steps each took to reach `leader` — the longest
/// such walk and the crossings, replayed token by token from the routers'
/// documented draw: token `t` at step `s` reads
/// `h = mix(mix(master ^ t·φ64) + s·φ64)` with SplitMix64's finaliser
/// `mix`, moves when bit 63 is set, and then takes port
/// `(h mod 2³² · deg) >> 32`. Both routers walk these trajectories, the
/// message-faithful one sending a message per crossing; the caller checks
/// the replay against a router's own `steps` (and messages), so a change
/// of draw cannot pass silently.
fn replay_token_steps(g: &Graph, leader: usize, counts: &[usize], master: u64) -> (u64, usize, u64) {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |z: u64| {
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (mut token_steps, mut longest, mut crossings, mut t) = (0u64, 0usize, 0u64, 0u64);
    for (v, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            let key = mix(master ^ t.wrapping_mul(PHI));
            t += 1;
            let (mut pos, mut steps) = (v, 0u64);
            while pos != leader {
                steps += 1;
                let h = mix(key.wrapping_add(steps.wrapping_mul(PHI)));
                if h >> 63 == 1 {
                    crossings += 1;
                    let port = ((h & 0xFFFF_FFFF) * g.degree(pos) as u64) >> 32;
                    pos = g.neighbor_row(pos)[port as usize] as usize;
                }
            }
            token_steps += steps;
            longest = longest.max(steps as usize);
        }
    }
    (token_steps, longest, crossings)
}

/// Runs E26.
pub fn run(opts: &Opts) -> Vec<Table> {
    let noisy_grid = |side: usize| gen::grid_with_noise(side, side, 0.02, &mut gen::seeded_rng(side as u64));

    let mut iteration = Table::new(
        "E26a",
        "spectral::lambda2(·, 1e-9, 4 000) on grid_with_noise(s, s, 0.02): wall time per non-zero of \
         the adjacency per power iteration (best of 3)",
        &["side", "n", "nnz", "iterations", "wall ms", "ns/nnz/iter"],
    );
    for &side in opts.scale.pick(&[50, 100][..], &[50, 100, 200][..]) {
        let g = noisy_grid(side);
        let (ns, spec) = best_of_three(|| lambda2(&g, 1e-9, 4_000));
        let work = (2 * g.m() * spec.iterations) as f64;
        iteration.row(cells!(
            side,
            g.n(),
            2 * g.m(),
            spec.iterations,
            format!("{:.1}", ns / 1e6),
            format!("{:.2}", ns / work)
        ));
    }

    let mut walk = Table::new(
        "E26b",
        "charged_walk_routing on one cluster = grid_with_noise(s, s, 0.02), 1 + deg/2 tokens per vertex \
         to the central vertex: wall time per live token-step (best of 3)",
        &["side", "tokens", "steps", "token-steps", "wall ms", "ns/token-step"],
    );
    for &side in opts.scale.pick(&[20, 40][..], &[20, 40, 60][..]) {
        let g = noisy_grid(side);
        let members: Vec<usize> = (0..g.n()).collect();
        let leader = side * side / 2 + side / 2;
        let counts: Vec<usize> = (0..g.n()).map(|v| 1 + g.degree(v) / 2).collect();
        let route = || {
            let mut rng = gen::seeded_rng(7);
            charged_walk_routing(&g, &members, leader, &counts, usize::MAX, &mut rng, None, false).0
        };
        let (ns, out) = best_of_three(route);
        let (token_steps, longest, _) = replay_token_steps(&g, leader, &counts, gen::seeded_rng(7).gen());
        assert!(out.complete(), "an uncapped fault-free walk delivers everything");
        assert_eq!(out.steps, longest, "the replay no longer walks the router's trajectories");
        walk.row(cells!(
            side,
            out.total,
            out.steps,
            token_steps,
            format!("{:.1}", ns / 1e6),
            format!("{:.1}", ns / token_steps as f64)
        ));
    }

    let mut faithful = Table::new(
        "E26c",
        "network_walk_routing_with_counts (message-faithful) on one cluster = grid_with_noise(s, s, 0.02), \
         1 + deg/2 tokens per vertex to the central vertex: wall time per live token-step and per \
         delivered message (best of 3)",
        &["side", "tokens", "steps", "token-steps", "messages", "wall ms", "ns/token-step", "ns/message"],
    );
    for &side in opts.scale.pick(&[20, 40][..], &[20, 40, 60][..]) {
        let g = noisy_grid(side);
        let members: Vec<usize> = (0..g.n()).collect();
        let leader = side * side / 2 + side / 2;
        let counts: Vec<usize> = (0..g.n()).map(|v| 1 + g.degree(v) / 2).collect();
        let route = || {
            let mut net = Network::new(&g, Model::congest());
            let mut rng = gen::seeded_rng(7);
            network_walk_routing_with_counts(&mut net, &members, leader, &counts, usize::MAX, &mut rng)
        };
        let (ns, (out, stats)) = best_of_three(route);
        let (token_steps, longest, messages) = replay_token_steps(&g, leader, &counts, gen::seeded_rng(7).gen());
        assert!(out.complete(), "an uncapped fault-free walk delivers everything");
        assert_eq!((out.steps, stats.messages), (longest, messages), "the replay no longer walks the router's walk");
        faithful.row(cells!(
            side,
            out.total,
            out.steps,
            token_steps,
            messages,
            format!("{:.1}", ns / 1e6),
            format!("{:.1}", ns / token_steps as f64),
            format!("{:.1}", ns / messages as f64)
        ));
    }
    vec![iteration, walk, faithful]
}
