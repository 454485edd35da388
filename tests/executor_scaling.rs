//! Scaling + determinism lockdown for the persistent worker-pool executor.
//!
//! The batch engine (`run_state`, `exchange_rounds`, the pooled walk
//! router) must be **bit-identical to the 1-thread baseline at every
//! thread count** — including awkward odd counts (3, 5, 7) whose chunk
//! partitions are unbalanced, and counts larger than the vertex count.
//!
//! Every pipeline here pins `ExecConfig::with_work_threshold(1)`: the
//! adaptive fallback would otherwise route these deliberately small
//! inputs to the sequential path and the pool machinery would go
//! untested. Forcing the threshold to 1 exercises the real
//! dispatch/collect rendezvous, the chunked arenas, and the chunk-order
//! merge on every run.
//!
//! The layer locks three things to the t1 baseline: outputs + full
//! `RoundStats`, the checked-in golden stats files, and the traced
//! framework's byte-exact JSONL export.

use proptest::prelude::*;

use locongest::congest::{primitives, stats, ExecConfig, Model, Network, RoundStats};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::expander::routing;
use locongest::graph::gen;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Thread counts with deliberately unbalanced chunk partitions, plus one
/// (16) that exceeds several test graphs' chunk-granted parallelism.
const AWKWARD_THREADS: [usize; 5] = [2, 3, 5, 7, 16];

/// Forced-parallel config: work threshold 1 defeats the adaptive
/// sequential fallback, so the persistent pool runs even on small graphs.
fn forced(threads: usize) -> ExecConfig {
    ExecConfig::with_threads(threads).with_work_threshold(1)
}

/// Runs `f` at every awkward thread count and asserts all results equal
/// the 1-thread baseline.
fn assert_forced_invariant<T, F>(mut f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut(ExecConfig) -> T,
{
    let baseline = f(forced(1));
    for &threads in &AWKWARD_THREADS {
        let got = f(forced(threads));
        assert_eq!(got, baseline, "{threads} forced threads diverged from sequential");
    }
    baseline
}

/// BFS flood on the batch engine (`run_state` = one pool batch).
fn flood(exec: ExecConfig) -> (Vec<bool>, RoundStats) {
    let g = gen::grid(9, 7);
    let mut net = Network::with_exec(&g, Model::congest(), exec);
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    net.run_state(20, &mut informed, |me, _v, inbox, out| {
        if inbox.iter().any(Option::is_some) {
            *me = true;
        }
        if *me {
            for p in 0..out.ports() {
                out.send(p, [1]);
            }
        }
    });
    assert!(informed.iter().all(|&b| b), "flood must reach everyone");
    (informed, net.stats())
}

/// Leader election + H-partition on `exchange_rounds` (early quiescence
/// exercises the per-chunk halt votes).
fn primitives_pipeline(exec: ExecConfig) -> (Vec<(u64, usize)>, Vec<Option<usize>>, RoundStats) {
    let mut rng = gen::seeded_rng(0x5CA1);
    let g = gen::stacked_triangulation(120, &mut rng);
    let mut net = Network::with_exec(&g, Model::congest(), exec);
    let deg: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
    let best = primitives::max_flood(&mut net, &deg, 12, primitives::Scope::Global);
    let layers = primitives::h_partition_distributed(&mut net, 3.0, 0.5, 40, primitives::Scope::Global);
    (best, layers, net.stats())
}

/// The charged walk router: tokens roll and apply their moves on the
/// persistent pool, the leader keeps the edge tables.
fn charged_walk(exec: ExecConfig) -> (routing::RoutingOutcome, Vec<(usize, u64)>) {
    let g = gen::hypercube(6);
    let members: Vec<usize> = (0..g.n()).collect();
    let counts: Vec<usize> = (0..g.n()).map(|v| 1 + v % 3).collect();
    let mut rng = gen::seeded_rng(0x5CA2);
    let (out, loads) = routing::charged_walk_routing(
        &g, &members, 0, &counts, 100_000, &mut rng, exec, None, true,
    );
    assert!(out.complete());
    (out, loads)
}

/// The full Theorem 2.6 framework.
fn framework(exec: ExecConfig) -> (Vec<usize>, RoundStats) {
    let mut rng = gen::seeded_rng(0x601D);
    let g = gen::random_planar(200, 0.5, &mut rng);
    let cfg = FrameworkConfig { exec, ..FrameworkConfig::planar(0.3, 5) };
    let fw = run_framework(&g, &cfg);
    (fw.decomposition.cluster_of.clone(), fw.stats)
}

#[test]
fn flood_batch_is_invariant_at_awkward_thread_counts() {
    assert_forced_invariant(flood);
}

#[test]
fn primitives_batch_is_invariant_at_awkward_thread_counts() {
    assert_forced_invariant(primitives_pipeline);
}

#[test]
fn charged_walk_batch_is_invariant_at_awkward_thread_counts() {
    assert_forced_invariant(charged_walk);
}

#[test]
fn framework_is_invariant_at_awkward_thread_counts() {
    assert_forced_invariant(framework);
}

/// `exchange_rounds` must execute the same number of rounds (early
/// quiescence included) at every thread count, and leave the network
/// reusable for the next batch.
#[test]
fn exchange_rounds_round_counts_are_invariant() {
    let executed = assert_forced_invariant(|exec| {
        let g = gen::grid(6, 6);
        let mut net = Network::with_exec(&g, Model::congest(), exec);
        let mut best: Vec<u64> = (0..g.n() as u64).collect();
        let executed = net.exchange_rounds(
            50,
            &mut best,
            |me, _round, _v, out| {
                for p in 0..out.ports() {
                    out.send(p, [*me]);
                }
            },
            |me, _round, _v, inbox| {
                for m in inbox.iter().flatten() {
                    *me = (*me).max(m[0]);
                }
            },
            // halt once converged to the global max id
            |me| *me == 35,
        );
        (executed, best, net.stats())
    });
    // converges in diameter (10) recv phases; the quiescence check runs
    // *before* each round, so one extra all-halted round is never executed
    assert_eq!(executed.0, 10);
}

/// The batch engines reproduce the *checked-in* golden stats byte-for-byte
/// — the same files the sequential `golden_stats` layer locks — so the
/// refactor provably changed scheduling only, never results.
/// The two round structures are one body: the same token program as
/// k × `step`, as `run_state(k)` on the forced pool, and as an
/// `exchange_rounds` whose `recv` stashes the inbox for the next `send`
/// must agree on the states, the `RoundStats`, and the inboxes the next
/// round would read.
#[test]
fn step_run_state_and_stashing_exchange_are_one_round_body() {
    type Row = Vec<Option<locongest::congest::Message>>;
    const K: usize = 7;
    let mut rng = gen::seeded_rng(0xD1FF);
    let g = gen::stacked_triangulation(90, &mut rng);
    let n = g.n();
    // reads every port, mixes, sends on a port that rotates with the round
    let program = |tok: &mut u64, round: usize, v: usize, inbox: &[Option<locongest::congest::Message>], out: &mut locongest::congest::Outbox| {
        for (p, msg) in inbox.iter().enumerate() {
            if let Some(msg) = msg {
                *tok = tok.wrapping_add(msg[0]).rotate_left((p as u32 + msg[1] as u32) % 63 + 1);
            }
        }
        out.send((v + round) % out.ports(), [*tok, round as u64]);
        if v.is_multiple_of(3) {
            out.send((v + round + 1) % out.ports(), [*tok ^ v as u64, round as u64]);
        }
    };
    // the inboxes the next round would read, observed by one more round
    let next_inboxes = |net: &mut Network| -> Vec<Row> {
        let mut rows: Vec<Row> = vec![Vec::new(); n];
        net.step(|v, inbox, _out| rows[v] = inbox.to_vec());
        rows
    };
    let init: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();

    let mut stepped = Network::with_exec(&g, Model::congest(), forced(1));
    let mut want = init.clone();
    for round in 0..K {
        stepped.step(|v, inbox, out| program(&mut want[v], round, v, inbox, out));
    }
    let want_stats = stepped.stats();
    let want_next = next_inboxes(&mut stepped);
    assert!(want_next.iter().flatten().any(Option::is_some), "round K must leave messages in flight");

    for threads in [1, 2, 3, 5] {
        let mut batched = Network::with_exec(&g, Model::congest(), forced(threads));
        let mut states: Vec<(u64, usize)> = init.iter().map(|&t| (t, 0)).collect();
        batched.run_state(K, &mut states, |(tok, round), v, inbox, out| {
            program(tok, *round, v, inbox, out);
            *round += 1;
        });
        let got: Vec<u64> = states.iter().map(|s| s.0).collect();
        assert_eq!(got, want, "run_state at {threads} threads");
        stats::compare(&want_stats, &batched.stats()).unwrap();
        assert_eq!(next_inboxes(&mut batched), want_next, "run_state at {threads} threads");

        let mut exchanged = Network::with_exec(&g, Model::congest(), forced(threads));
        let mut states: Vec<(u64, Row)> =
            init.iter().enumerate().map(|(v, &t)| (t, vec![None; g.degree(v)])).collect();
        let ran = exchanged.exchange_rounds(
            K,
            &mut states,
            |(tok, stash), round, v, out| program(tok, round, v, stash, out),
            |(_, stash), _round, _v, inbox| *stash = inbox.to_vec(),
            |_| false,
        );
        assert_eq!(ran, K as u64);
        let (got, stashes): (Vec<u64>, Vec<Row>) = states.into_iter().unzip();
        assert_eq!(got, want, "exchange_rounds at {threads} threads");
        stats::compare(&want_stats, &exchanged.stats()).unwrap();
        assert_eq!(stashes, want_next, "exchange_rounds at {threads} threads");
    }
}

#[test]
fn forced_parallel_runs_reproduce_checked_in_goldens() {
    let golden = |name: &str| -> RoundStats {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.json"));
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e})"));
        serde_json::from_str(&raw).unwrap()
    };
    let mut rng = gen::seeded_rng(0x601D);
    let g = gen::random_planar(200, 0.5, &mut rng);
    for &threads in &AWKWARD_THREADS {
        // the golden flood runs diameter + 1 rounds of step_state; one
        // run_state batch of the same length is the same computation
        let mut net = Network::with_exec(&g, Model::congest(), forced(threads));
        let mut informed = vec![false; g.n()];
        informed[0] = true;
        let diam = g.diameter().unwrap_or(0);
        net.run_state(diam + 1, &mut informed, |me, _v, inbox, out| {
            if inbox.iter().any(Option::is_some) {
                *me = true;
            }
            if *me {
                for p in 0..out.ports() {
                    out.send(p, [1]);
                }
            }
        });
        stats::compare(&golden("planar200_flood"), &net.stats())
            .unwrap_or_else(|e| panic!("flood at {threads} forced threads broke the golden: {e}"));

        let cfg = FrameworkConfig { exec: forced(threads), ..FrameworkConfig::planar(0.3, 5) };
        let fw = run_framework(&g, &cfg);
        stats::compare(&golden("planar200_framework"), &fw.stats).unwrap_or_else(|e| {
            panic!("framework at {threads} forced threads broke the golden: {e}")
        });
    }
}

/// The traced framework's JSONL export is byte-identical to the 1-thread
/// run even when the pool is forced on at odd thread counts.
#[test]
fn forced_parallel_trace_jsonl_is_byte_identical() {
    let traced_jsonl = |exec: ExecConfig| {
        let mut rng = gen::seeded_rng(0x7ACE);
        let g = gen::random_planar(150, 0.5, &mut rng);
        let cfg = FrameworkConfig {
            trace: true,
            trace_top_k: 8,
            exec,
            ..FrameworkConfig::planar(0.3, 13)
        };
        run_framework(&g, &cfg).trace.to_jsonl()
    };
    let baseline = traced_jsonl(forced(1));
    for &threads in &[3usize, 5, 16] {
        assert_eq!(
            traced_jsonl(forced(threads)),
            baseline,
            "{threads}-thread forced trace diverged from sequential"
        );
    }
}

/// A randomized max-id flood as one `run_state` pool batch: every vertex
/// owns a private RNG stream and draws from it in its first round and on
/// every improvement, so the stream's position is per-vertex state carried
/// across rounds on whichever worker holds the chunk. Outputs and stats at
/// a forced-parallel count equal the 1-thread run.
#[test]
fn node_programs_are_invariant_at_awkward_thread_counts() {
    assert_forced_invariant(|exec| {
        let g = gen::grid(5, 8);
        let mut net = Network::with_exec(&g, Model::congest(), exec);
        // (stream, best id seen, xor of the draws so far)
        let mut states: Vec<(ChaCha8Rng, u64, Option<u64>)> = (0..g.n() as u64)
            .map(|v| (ChaCha8Rng::seed_from_u64(0xF00D ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)), v, None))
            .collect();
        net.run_state(25, &mut states, |(rng, best, noise), _v, inbox, out| {
            let before = *best;
            for m in inbox.iter().flatten() {
                *best = (*best).max(m[0]);
            }
            if noise.is_none() || *best > before {
                *noise = Some(noise.unwrap_or(0) ^ rng.gen::<u64>());
                for p in 0..out.ports() {
                    out.send(p, [*best]);
                }
            }
        });
        let out: Vec<(u64, Option<u64>)> = states.into_iter().map(|(_, best, noise)| (best, noise)).collect();
        (out, net.stats())
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any thread count in 1..=16 (with any sub-16 work threshold, so the
    /// fallback boundary itself is fuzzed) reproduces the t1 flood and
    /// walk results bit-for-bit.
    #[test]
    fn any_thread_count_matches_sequential(threads in 1usize..=16, threshold in 1usize..16) {
        let exec = ExecConfig::with_threads(threads).with_work_threshold(threshold);
        let (informed, s) = flood(exec);
        let (informed_1, s_1) = flood(forced(1));
        prop_assert_eq!(informed, informed_1);
        prop_assert_eq!(s, s_1);

        let walk = charged_walk(exec);
        prop_assert_eq!(walk, charged_walk(forced(1)));
    }

    /// The faulty delivery paths stay thread-count invariant through the
    /// batch engine: same drops, same crashes, same survivors.
    #[test]
    fn faulty_batches_match_sequential(threads in 2usize..=16) {
        use locongest::congest::FaultPlan;
        let g = gen::grid(6, 6);
        let plan = FaultPlan::drops(0xFA07, 0.25).with_crash(7, 2).with_link_failure(3, 1, 3);
        let run = |exec: ExecConfig| {
            let mut net = Network::with_exec(&g, Model::congest(), exec);
            net.set_fault_plan(Some(plan.clone()));
            let mut received: Vec<u64> = vec![0; g.n()];
            net.run_state(6, &mut received, |me, _v, inbox, out| {
                *me += inbox.iter().flatten().count() as u64;
                for p in 0..out.ports() {
                    out.send(p, [1, 2]);
                }
            });
            (received, net.stats())
        };
        prop_assert_eq!(run(forced(threads)), run(forced(1)));
    }
}
