//! Trait-based node programs: the "vertex-centric" API of Pregel-style
//! systems the paper's introduction motivates (each node runs the same
//! code against its local state).
//!
//! The closure-based [`Network::exchange`] engine is what the framework
//! uses internally; this module offers the stricter encapsulation — a
//! [`NodeProgram`] owns per-node state and *cannot* observe other nodes —
//! for user algorithms and for the baselines.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::network::{Inbox, Network, NoRecv, Outbox};

/// Immutable per-node context handed to a [`NodeProgram`].
#[derive(Debug)]
pub struct NodeCtx {
    /// This node's id (the paper's `ID(v)`; CONGEST assumes unique
    /// O(log n)-bit ids).
    pub id: usize,
    /// Number of ports (= degree). Port `p` leads to the `p`-th neighbor
    /// in sorted order, but the program is *not* told the neighbor's id —
    /// discovering it costs a round, as in the real model.
    pub ports: usize,
    /// Number of nodes in the network (commonly assumed global knowledge).
    pub n: usize,
    /// Private per-node randomness (deterministically seeded).
    pub rng: ChaCha8Rng,
}

/// A synchronous distributed algorithm, one instance per node.
pub trait NodeProgram {
    /// Final output of each node.
    type Output;

    /// One synchronous round: inspect last round's inbox, write this
    /// round's outbox. Return `false` to (locally) halt: a halted node
    /// sends nothing but still receives.
    fn round(&mut self, ctx: &mut NodeCtx, round: usize, inbox: &Inbox, out: &mut Outbox) -> bool;

    /// Extract the node's output after the run.
    fn output(&self, ctx: &NodeCtx) -> Self::Output;
}

/// One node of a run: its program, its context, and whether it still runs.
struct Node<P> {
    program: P,
    ctx: NodeCtx,
    running: bool,
}

/// The one runner behind [`run_programs`] and [`run_programs_state`]:
/// `NodeProgram::round` is the engine's compose-reads-inbox round, so each
/// program is handed the engine's own inbox row; `drive` picks the round
/// body. A halted node's row is still cleared (it receives, and ignores),
/// and the last round's messages are dropped, so the inbox grid comes back
/// empty — the `exchange` family's precondition.
fn run_nodes<P: NodeProgram>(
    net: &mut Network,
    programs: Vec<P>,
    seed: u64,
    drive: impl FnOnce(&mut Network, &mut [Node<P>]),
) -> Vec<P::Output> {
    let g = net.graph();
    assert_eq!(programs.len(), g.n(), "one program per node");
    net.debug_assert_drained();
    let mut nodes: Vec<Node<P>> = programs
        .into_iter()
        .enumerate()
        .map(|(v, program)| Node {
            program,
            ctx: NodeCtx {
                id: v,
                ports: g.degree(v),
                n: g.n(),
                rng: ChaCha8Rng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15)),
            },
            running: true,
        })
        .collect();
    drive(net, &mut nodes);
    net.discard_pending();
    nodes.iter().map(|s| s.program.output(&s.ctx)).collect()
}

fn node_round<P: NodeProgram>(s: &mut Node<P>, round: usize, _v: usize, inbox: &Inbox, out: &mut Outbox) {
    s.running = s.running && s.program.round(&mut s.ctx, round, inbox, out);
}

/// Runs one [`NodeProgram`] instance per node until every node has halted
/// or `max_rounds` elapses. Returns per-node outputs.
///
/// # Panics
///
/// Panics if `programs.len() != n`.
pub fn run_programs<P: NodeProgram>(
    net: &mut Network,
    programs: Vec<P>,
    seed: u64,
    max_rounds: usize,
) -> Vec<P::Output> {
    run_nodes(net, programs, seed, |net, nodes| {
        net.rounds_seq(max_rounds, nodes, node_round, None::<NoRecv<Node<P>>>, Some(|s: &Node<P>| !s.running));
    })
}

/// Like [`run_programs`], but executed on the network's configured thread
/// pool ([`crate::ExecConfig`]): each node's program, context and RNG
/// live in a per-vertex state record, so the whole run is one batch —
/// workers spawn once and stay parked between rounds instead of being
/// respawned every round.
///
/// Requires `P: Send` (states migrate to worker threads). Outputs and
/// [`crate::RoundStats`] are bit-identical to [`run_programs`] for every
/// thread count — node programs are already forbidden from observing other
/// nodes, which is exactly the isolation the parallel engine needs.
///
/// # Panics
///
/// Panics if `programs.len() != n`.
pub fn run_programs_state<P>(
    net: &mut Network,
    programs: Vec<P>,
    seed: u64,
    max_rounds: usize,
) -> Vec<P::Output>
where
    P: NodeProgram + Send,
{
    run_nodes(net, programs, seed, |net, nodes| {
        net.rounds(max_rounds, nodes, node_round, None::<NoRecv<Node<P>>>, Some(|s: &Node<P>| !s.running));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecConfig;
    use crate::model::Model;
    use lcg_graph::gen;

    /// Each node learns the maximum id in the network by flooding.
    struct MaxIdFlood {
        best: u64,
        changed: bool,
    }

    impl NodeProgram for MaxIdFlood {
        type Output = u64;

        fn round(&mut self, ctx: &mut NodeCtx, round: usize, inbox: &Inbox, out: &mut Outbox) -> bool {
            if round == 0 {
                self.best = ctx.id as u64;
                self.changed = true;
            }
            for m in inbox.iter().flatten() {
                if m[0] > self.best {
                    self.best = m[0];
                    self.changed = true;
                }
            }
            if self.changed {
                for p in 0..ctx.ports {
                    out.send(p, [self.best]);
                }
                self.changed = false;
            }
            true
        }

        fn output(&self, _ctx: &NodeCtx) -> u64 {
            self.best
        }
    }

    #[test]
    fn max_id_flood_converges() {
        let g = gen::grid(6, 6);
        let mut net = Network::new(&g, Model::congest());
        let programs: Vec<MaxIdFlood> = (0..g.n())
            .map(|_| MaxIdFlood { best: 0, changed: false })
            .collect();
        let outs = run_programs(&mut net, programs, 7, 50);
        assert!(outs.iter().all(|&b| b == 35));
        assert!(net.stats().max_words_edge_round <= 2);
    }

    /// Local coin-flip program exercising per-node RNG determinism.
    struct Coin(Option<bool>);

    impl NodeProgram for Coin {
        type Output = bool;
        fn round(&mut self, ctx: &mut NodeCtx, _round: usize, _inbox: &Inbox, _out: &mut Outbox) -> bool {
            use rand::Rng;
            self.0 = Some(ctx.rng.gen_bool(0.5));
            false // halt immediately
        }
        fn output(&self, _ctx: &NodeCtx) -> bool {
            self.0.unwrap()
        }
    }

    #[test]
    fn per_node_rng_is_deterministic() {
        let g = gen::path(10);
        let run = |seed| {
            let mut net = Network::new(&g, Model::congest());
            run_programs(&mut net, (0..10).map(|_| Coin(None)).collect(), seed, 5)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2)); // different seeds differ (w.h.p.)
    }

    #[test]
    fn run_programs_state_matches_run_programs_bitwise() {
        let g = gen::grid(6, 6);
        let mut seq_net = Network::new(&g, Model::congest());
        let seq_out = run_programs(
            &mut seq_net,
            (0..g.n()).map(|_| MaxIdFlood { best: 0, changed: false }).collect(),
            7,
            50,
        );
        for threads in [1, 2, 4, 8] {
            let mut net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(threads));
            let out = run_programs_state(
                &mut net,
                (0..g.n()).map(|_| MaxIdFlood { best: 0, changed: false }).collect(),
                7,
                50,
            );
            assert_eq!(out, seq_out, "{threads} threads diverged");
            crate::stats::compare(&seq_net.stats(), &net.stats()).unwrap();
        }
    }

    #[test]
    fn halted_nodes_stop_sending() {
        let g = gen::path(2);
        let mut net = Network::new(&g, Model::congest());
        let programs: Vec<Coin> = (0..2).map(|_| Coin(None)).collect();
        run_programs(&mut net, programs, 3, 10);
        // Coin halts in round 0 and never sends: only 1 round executed
        // (the all-halted check stops the loop).
        assert_eq!(net.stats().rounds, 1);
        assert_eq!(net.stats().messages, 0);
    }
}
