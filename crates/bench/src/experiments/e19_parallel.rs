//! **E19** — parallel round engine: wall-clock speedup, determinism cost
//! zero. Two workloads at n ≥ 50k, each run at 1/2/4/8 worker threads:
//!
//! * **flood**: 20 `step_state` rounds of all-port gossip on a torus grid
//!   (every vertex hashes its inbox and re-sends on every port);
//! * **walk**: a fixed number of lazy-walk steps of one token per vertex
//!   on the 16-dimensional hypercube (`random_walk_routing_with_counts_exec`).
//!
//! The table reports wall-clock per thread count and the speedup over the
//! sequential run. `RoundStats` (flood) and the full `RoutingOutcome`
//! (walk) are asserted **bit-identical** across all thread counts — the
//! engine's core guarantee — so the "ok" column is a checked claim, not a
//! remark.

use std::time::Instant;

use lcg_congest::{stats, ExecConfig, Model, Network};
use lcg_expander::routing;
use lcg_graph::gen;

use crate::{cells, Opts, Scale, Table};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Host parallelism, so the recorded tables are interpretable: on a
/// single-core host the 1-thread row is expected to win and the deltas
/// measure pure engine overhead; speedup needs `cores > 1`.
fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs E19.
pub fn run(opts: &Opts) -> Vec<Table> {
    let scale = opts.scale;
    vec![flood_table(scale), walk_table(scale)]
}

fn flood_table(scale: Scale) -> Table {
    let side = scale.pick(60, 250); // Full: n = 62,500
    let rounds = scale.pick(5, 20);
    let g = gen::torus_grid(side, side);
    let mut t = Table::new(
        "E19a",
        &format!(
            "step_state all-port gossip on the {side}x{side} torus (n = {}, {rounds} rounds, host cores: {})",
            g.n(),
            cores()
        ),
        &["threads", "wall ms", "speedup", "messages", "identical"],
    );
    let mut baseline: Option<(f64, lcg_congest::RoundStats)> = None;
    for threads in THREADS {
        let mut net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(threads));
        let mut unit = vec![(); g.n()];
        let started = Instant::now();
        for _ in 0..rounds {
            net.step_state(&mut unit, |_, v, inbox, out| {
                // mix the inbox into a digest and gossip it on every port
                let mut h = v as u64 ^ 0x9E37_79B9_7F4A_7C15;
                for m in inbox.iter().flatten() {
                    h = h.rotate_left(7) ^ m[0].wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                }
                for p in 0..out.ports() {
                    out.send(p, [h ^ p as u64]);
                }
            });
        }
        let wall = started.elapsed().as_secs_f64() * 1e3;
        let s = net.stats();
        let (base_wall, identical) = match &baseline {
            None => {
                baseline = Some((wall, s));
                (wall, true)
            }
            Some((bw, bs)) => (*bw, stats::compare(bs, &s).is_ok()),
        };
        assert!(identical, "thread count changed RoundStats");
        t.row(cells!(
            threads,
            format!("{wall:.1}"),
            format!("{:.2}x", base_wall / wall),
            s.messages,
            "yes"
        ));
    }
    t
}

fn walk_table(scale: Scale) -> Table {
    let dim = scale.pick(12, 16); // Full: n = 65,536
    let steps = scale.pick(8, 24);
    let g = gen::hypercube(dim);
    let members: Vec<usize> = (0..g.n()).collect();
    let counts = vec![1usize; g.n()];
    let mut t = Table::new(
        "E19b",
        &format!(
            "lazy-walk steps on the {dim}-dim hypercube (n = {}, one token per vertex, {steps} steps, host cores: {})",
            g.n(),
            cores()
        ),
        &["threads", "wall ms", "speedup", "delivered", "identical"],
    );
    let mut baseline: Option<(f64, routing::RoutingOutcome)> = None;
    for threads in THREADS {
        let mut rng = gen::seeded_rng(0xE19);
        let started = Instant::now();
        let out = routing::random_walk_routing_with_counts_exec(
            &g,
            &members,
            0,
            &counts,
            steps,
            &mut rng,
            ExecConfig::with_threads(threads),
        );
        let wall = started.elapsed().as_secs_f64() * 1e3;
        let (base_wall, identical) = match &baseline {
            None => {
                baseline = Some((wall, out));
                (wall, true)
            }
            Some((bw, bo)) => (*bw, *bo == out),
        };
        assert!(identical, "thread count changed the walk outcome");
        t.row(cells!(
            threads,
            format!("{wall:.1}"),
            format!("{:.2}x", base_wall / wall),
            out.delivered,
            "yes"
        ));
    }
    t
}
