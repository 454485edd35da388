//! The thread count changes seconds, never a result, checked end to end:
//! for every pipeline in this file, outputs AND the full `RoundStats` are
//! bit-identical whether the `ExecConfig` handed in says 1, 2, 4, or 8
//! threads. The framework reads it — the decomposition's recursion levels
//! and the clusters' charged walks run through `ExecConfig::map` — and so
//! does a lone charged walk. The round engine takes no count: its
//! pipelines run as a batch of independent networks through
//! `ExecConfig::map`, one per seed.

use locongest::congest::{ExecConfig, FaultPlan, Model, Network, RoundStats};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::expander::routing;
use locongest::graph::gen;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` at every thread count and asserts all results equal the
/// 1-thread baseline; returns the baseline.
fn assert_invariant<T, F>(mut f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut(ExecConfig) -> T,
{
    let baseline = f(ExecConfig::with_threads(THREADS[0]));
    for &threads in &THREADS[1..] {
        let got = f(ExecConfig::with_threads(threads));
        assert_eq!(got, baseline, "{threads} threads diverged from sequential");
    }
    baseline
}

/// [`assert_invariant`] for a batch of independent round-engine runs, one
/// per seed, mapped through `ExecConfig::map`.
fn assert_batch_invariant<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: PartialEq + std::fmt::Debug + Send,
    F: Fn(u64) -> T + Sync,
{
    assert_invariant(|exec| exec.map(seeds, |_| 1, |&seed| f(seed)))
}

/// E01-style pipeline: expander decomposition + the full Theorem 2.6
/// framework (election, orientation, walk gathering, broadcast) on a
/// maximal planar input, traced and metered, without and with a fault
/// plan: the trace JSONL and the deterministic metrics JSON too.
#[test]
fn framework_pipeline_thread_invariant() {
    let mut rng = gen::seeded_rng(0xA11);
    let g = gen::stacked_triangulation(300, &mut rng);
    for faults in [None, Some(FaultPlan::drops(0xA15, 0.05).with_link_failure(7, 2, 40))] {
        assert_invariant(|exec| {
            let cfg = FrameworkConfig {
                exec,
                trace: true,
                metrics: true,
                faults: faults.clone(),
                ..FrameworkConfig::planar(0.3, 17)
            };
            let fw = run_framework(&g, &cfg);
            (
                fw.decomposition.cluster_of.clone(),
                fw.decomposition.cut_edges.clone(),
                fw.clusters.iter().map(|c| c.leader).collect::<Vec<_>>(),
                fw.clusters.iter().map(|c| c.routing).collect::<Vec<_>>(),
                fw.stats,
                fw.trace.to_jsonl(),
                fw.metrics.expect("metrics: true yields a report").deterministic_json(),
            )
        });
    }
}

/// Random-walk routing with per-member counts on an expander.
#[test]
fn walk_routing_thread_invariant() {
    let g = gen::hypercube(7);
    let members: Vec<usize> = (0..g.n()).collect();
    let counts: Vec<usize> = (0..g.n()).map(|v| 1 + v % 3).collect();
    assert_invariant(|exec| {
        let mut rng = gen::seeded_rng(0xA12);
        let walk = routing::ClusterWalk { sub: &g, map: &members, leader_local: 0, counts: &counts };
        let net = Network::new(&g, Model::congest());
        let (out, _, _) = routing::charged_walks(&net, &[walk], 200_000, &mut rng, false, exec).remove(0);
        assert!(out.complete());
        out
    });
}

/// The message-faithful walk (tokens as real 2-word messages inside the
/// simulator), one network per seed: the networks' stats must also match
/// bit-for-bit.
#[test]
fn message_faithful_walk_thread_invariant() {
    let g = gen::complete(16);
    let members: Vec<usize> = (0..g.n()).collect();
    assert_batch_invariant(&[0xA13, 0xA16, 0xA17], |seed| {
        let mut rng = gen::seeded_rng(seed);
        let mut net = Network::new(&g, Model::congest());
        let ones = vec![1; members.len()];
        let (out, rstats) = routing::network_walk_routing_with_counts(&mut net, &members, 3, &ones, 100_000, &mut rng);
        (out, rstats, net.stats())
    });
}

/// MIS pipeline: Luby-style randomized MIS as a per-vertex-state program,
/// one run per seed. Per-vertex ChaCha streams make the coin flips a
/// function of the seed and the vertex alone.
#[test]
fn mis_pipeline_thread_invariant() {
    use locongest::graph::Graph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[derive(Clone, PartialEq, Debug)]
    enum St {
        Undecided,
        In,
        Out,
    }
    struct V {
        state: St,
        rng: ChaCha8Rng,
        priority: u64,
    }

    fn luby_mis(g: &Graph, seed: u64) -> (Vec<bool>, RoundStats) {
        let mut net = Network::new(g, Model::congest());
        let mut vs: Vec<V> = (0..g.n())
            .map(|v| V {
                state: St::Undecided,
                rng: ChaCha8Rng::seed_from_u64(
                    seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15),
                ),
                priority: 0,
            })
            .collect();
        for _ in 0..(4 * (g.n().max(2) as f64).log2().ceil() as usize + 8) {
            if vs.iter().all(|v| v.state != St::Undecided) {
                break;
            }
            // round A: undecided vertices draw and exchange priorities
            net.exchange_rounds(
                1,
                &mut vs,
                |s, _round, _v, out| {
                    if s.state == St::Undecided {
                        s.priority = s.rng.gen::<u64>() | 1;
                        for p in 0..out.ports() {
                            out.send(p, [s.priority]);
                        }
                    }
                },
                |s, _round, _v, inbox| {
                    if s.state == St::Undecided
                        && inbox.iter().flatten().all(|m| m[0] < s.priority)
                    {
                        s.state = St::In;
                    }
                },
                |_| false,
            );
            // round B: winners announce; their neighbors drop out
            net.exchange_rounds(
                1,
                &mut vs,
                |s, _round, _v, out| {
                    if s.state == St::In && s.priority != 0 {
                        s.priority = 0; // announce only once
                        for p in 0..out.ports() {
                            out.send(p, [1]);
                        }
                    }
                },
                |s, _round, _v, inbox| {
                    if s.state == St::Undecided && inbox.iter().flatten().next().is_some() {
                        s.state = St::Out;
                    }
                },
                |_| false,
            );
        }
        (vs.iter().map(|v| v.state == St::In).collect(), net.stats())
    }

    let mut rng = gen::seeded_rng(0xA14);
    let g = gen::random_planar(400, 0.6, &mut rng);
    let runs = assert_batch_invariant(&[99, 100, 101], |seed| luby_mis(&g, seed));
    // every run must be a valid MIS
    for (in_set, _) in &runs {
        for (_, u, v) in g.edges() {
            assert!(!(in_set[u] && in_set[v]), "edge ({u},{v}) inside the set");
        }
        for v in 0..g.n() {
            assert!(
                in_set[v] || g.neighbor_vertices(v).any(|u| in_set[u]),
                "vertex {v} not dominated"
            );
        }
    }
}
