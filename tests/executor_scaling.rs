//! Determinism lockdown for the thread count.
//!
//! `ExecConfig::map` is the one reader of a thread count; the framework
//! reaches it through its `FrameworkConfig` (the decomposition's recursion
//! levels and the clusters' charged walks), a lone walk through
//! `charged_walks` with one cluster. The round engine takes no count:
//! its cases run a *batch* of independent networks through
//! `ExecConfig::map`, which holds the engine to keeping no state outside
//! its `Network` — each run's result is the same on whatever thread, beside
//! whatever sibling. Every case is held to the one-thread result at awkward
//! counts (3, 5, 7) and counts larger than the item count.
//!
//! The layer locks three things to the t1 baseline: outputs + full
//! `RoundStats`, the checked-in golden stats files, and the traced
//! framework's byte-exact JSONL export.

mod common;

use proptest::prelude::*;

use common::{check_stats_golden, flood_round, flood_stats, framework_stats, stats_golden_graphs};
use locongest::congest::{primitives, ExecConfig, Model, Network, RoundStats};
use locongest::core::framework::{run_framework, FrameworkConfig};
use locongest::expander::routing;
use locongest::graph::gen;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Odd thread counts, plus one (16) above several test graphs' sizes.
const AWKWARD_THREADS: [usize; 5] = [2, 3, 5, 7, 16];

/// Runs `f` at every awkward thread count and asserts all results equal
/// the 1-thread baseline.
fn assert_invariant<T, F>(mut f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut(ExecConfig) -> T,
{
    let baseline = f(ExecConfig::with_threads(1));
    for &threads in &AWKWARD_THREADS {
        let got = f(ExecConfig::with_threads(threads));
        assert_eq!(got, baseline, "{threads} threads diverged from sequential");
    }
    baseline
}

/// `items.map(f)` through `ExecConfig::map` at `exec`.
fn batch<I: Sync, T: Send>(exec: ExecConfig, items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    exec.map(items, |_| 1, f)
}

/// [`assert_invariant`] for a batch of independent round-engine runs.
fn assert_batch_invariant<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: PartialEq + std::fmt::Debug + Send,
    F: Fn(&I) -> T + Sync,
{
    assert_invariant(|exec| batch(exec, items, &f))
}

/// Grid shapes of the flood batch, four networks of different sizes.
const FLOOD_GRIDS: [(usize, usize); 4] = [(9, 7), (5, 5), (3, 11), (8, 8)];

/// BFS flood as one `run_state` call on a `w × h` grid.
fn flood(&(w, h): &(usize, usize)) -> (Vec<bool>, RoundStats) {
    let g = gen::grid(w, h);
    let mut net = Network::new(&g, Model::congest());
    let mut informed = vec![false; g.n()];
    informed[0] = true;
    net.run_state(w + h, &mut informed, |me, _v, inbox, out| {
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
/// included).
fn primitives_pipeline(&seed: &u64) -> (Vec<(u64, usize)>, Vec<Option<usize>>, RoundStats) {
    let mut rng = gen::seeded_rng(seed);
    let g = gen::stacked_triangulation(120, &mut rng);
    let mut net = Network::new(&g, Model::congest());
    let deg: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
    let best = primitives::max_flood(&mut net, &deg, 12, primitives::Scope::Global);
    let layers = primitives::h_partition_distributed(&mut net, 3.0, 0.5, 40, primitives::Scope::Global);
    (best, layers, net.stats())
}

/// The charged walk router; `charged_walks` under an `ExecConfig` walks
/// the same walk (one cluster is one item).
fn charged_walk(exec: ExecConfig) -> (routing::RoutingOutcome, Vec<(usize, u64)>) {
    let g = gen::hypercube(6);
    let members: Vec<usize> = (0..g.n()).collect();
    let counts: Vec<usize> = (0..g.n()).map(|v| 1 + v % 3).collect();
    let (out, loads) = routing::charged_walk_routing(
        &g, &members, 0, &counts, 100_000, &mut gen::seeded_rng(0x5CA2), None, true,
    );
    let walk = routing::ClusterWalk { sub: &g, map: &members, leader_local: 0, counts: &counts };
    let net = Network::new(&g, Model::congest());
    let batched = routing::charged_walks(&net, &[walk], 100_000, &mut gen::seeded_rng(0x5CA2), true, exec);
    assert_eq!(batched, [(out, loads.clone(), RoundStats::default())]);
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
    assert_batch_invariant(&FLOOD_GRIDS, flood);
}

#[test]
fn primitives_batch_is_invariant_at_awkward_thread_counts() {
    assert_batch_invariant(&[0x5CA1, 0x5CA3, 0x5CA5], primitives_pipeline);
}

#[test]
fn charged_walk_batch_is_invariant_at_awkward_thread_counts() {
    assert_invariant(charged_walk);
}

#[test]
fn framework_is_invariant_at_awkward_thread_counts() {
    assert_invariant(framework);
}

/// `exchange_rounds` must execute the same number of rounds (early
/// quiescence included) in a batch on any number of threads.
#[test]
fn exchange_rounds_round_counts_are_invariant() {
    let executed = assert_batch_invariant(&[(6, 6), (4, 9), (7, 3)], |&(w, h)| {
        let g = gen::grid(w, h);
        let top = g.n() as u64 - 1;
        let mut net = Network::new(&g, Model::congest());
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
            |me| *me == top,
        );
        (executed, best, net.stats())
    });
    // the 6 × 6 grid converges in diameter (10) recv phases; the quiescence
    // check runs *before* each round, so one extra all-halted round is
    // never executed
    assert_eq!(executed[0].0, 10);
}

/// The two round structures are one body: the same token program as
/// k × `step_state`, as `run_state(k)`, and as an
/// `exchange_rounds` whose `recv` stashes the inbox for the next `send`
/// must agree on the states, the `RoundStats`, and the inboxes the next
/// round would read.
#[test]
fn step_run_state_and_stashing_exchange_are_one_round_body() {
    type Row = Vec<Option<locongest::congest::Msg>>;
    const K: usize = 7;
    let mut rng = gen::seeded_rng(0xD1FF);
    let g = gen::stacked_triangulation(90, &mut rng);
    let n = g.n();
    // reads every port, mixes, sends on a port that rotates with the round
    let program = |tok: &mut u64, round: usize, v: usize, inbox: &[Option<locongest::congest::Msg>], out: &mut locongest::congest::Outbox| {
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
        net.step_state(&mut rows, |row, _v, inbox, _out| *row = inbox.to_vec());
        rows
    };
    let init: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();

    let mut stepped = Network::new(&g, Model::congest());
    let mut want = init.clone();
    for round in 0..K {
        stepped.step_state(&mut want, |tok, v, inbox, out| program(tok, round, v, inbox, out));
    }
    let want_stats = stepped.stats();
    let want_next = next_inboxes(&mut stepped);
    assert!(want_next.iter().flatten().any(Option::is_some), "round K must leave messages in flight");

    let mut batched = Network::new(&g, Model::congest());
    let mut states: Vec<(u64, usize)> = init.iter().map(|&t| (t, 0)).collect();
    batched.run_state(K, &mut states, |(tok, round), v, inbox, out| {
        program(tok, *round, v, inbox, out);
        *round += 1;
    });
    let got: Vec<u64> = states.iter().map(|s| s.0).collect();
    assert_eq!(got, want, "run_state");
    assert_eq!(want_stats, batched.stats(), "run_state");
    assert_eq!(next_inboxes(&mut batched), want_next, "run_state");

    let mut exchanged = Network::new(&g, Model::congest());
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
    assert_eq!(got, want, "exchange_rounds");
    assert_eq!(want_stats, exchanged.stats(), "exchange_rounds");
    assert_eq!(stashes, want_next, "exchange_rounds");
}

/// The flood and, at every thread count, the framework reproduce the
/// *checked-in* golden stats byte-for-byte — the same files the
/// `golden_stats` layer locks.
#[test]
fn forced_parallel_runs_reproduce_checked_in_goldens() {
    let [_, (name, g), _] = stats_golden_graphs();
    // the golden flood runs diameter + 1 rounds of step_state; one
    // run_state call of the same length is the same computation
    let flood = flood_stats(&g, None, true, flood_round);
    assert_eq!(flood, flood_stats(&g, None, false, flood_round), "flood as one run_state call");
    check_stats_golden(&format!("{name}_flood"), &flood);

    let framework = framework_stats(&g, 1, None);
    for &threads in &AWKWARD_THREADS {
        assert_eq!(framework, framework_stats(&g, threads, None), "framework at {threads} threads");
    }
    check_stats_golden(&format!("{name}_framework"), &framework);
}

/// The traced framework's JSONL export is byte-identical to the 1-thread
/// run at odd thread counts.
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
    let baseline = traced_jsonl(ExecConfig::with_threads(1));
    for &threads in &[3usize, 5, 16] {
        assert_eq!(
            traced_jsonl(ExecConfig::with_threads(threads)),
            baseline,
            "{threads}-thread trace diverged from sequential"
        );
    }
}

/// A randomized max-id flood as one `run_state` call: every vertex owns a
/// private RNG stream and draws from it in its first round and on every
/// improvement, so the stream's position is per-vertex state carried
/// across rounds. A batch of them, one per seed, gives the same outputs
/// and stats on any number of threads.
#[test]
fn node_programs_are_invariant_at_awkward_thread_counts() {
    assert_batch_invariant(&[0xF00D_u64, 0xBEEF, 0xCAFE], |&seed| {
        let g = gen::grid(5, 8);
        let mut net = Network::new(&g, Model::congest());
        // (stream, best id seen, xor of the draws so far)
        let mut states: Vec<(ChaCha8Rng, u64, Option<u64>)> = (0..g.n() as u64)
            .map(|v| (ChaCha8Rng::seed_from_u64(seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)), v, None))
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

    /// Any thread count in 1..=16 reproduces the t1 flood batch and
    /// walk results bit-for-bit.
    #[test]
    fn any_thread_count_matches_sequential(threads in 1usize..=16) {
        let exec = ExecConfig::with_threads(threads);
        prop_assert_eq!(
            batch(exec, &FLOOD_GRIDS, flood),
            batch(ExecConfig::sequential(), &FLOOD_GRIDS, flood)
        );

        let walk = charged_walk(exec);
        prop_assert_eq!(walk, charged_walk(ExecConfig::with_threads(1)));
    }

    /// A batch of faulty runs, one plan per seed, ignores the thread
    /// count: same drops, same crashes, same survivors.
    #[test]
    fn faulty_batches_match_sequential(threads in 2usize..=16) {
        use locongest::congest::FaultPlan;
        let g = gen::grid(6, 6);
        let run = |&seed: &u64| {
            let plan = FaultPlan::drops(seed, 0.25).with_crash(7, 2).with_link_failure(3, 1, 3);
            let mut net = Network::new(&g, Model::congest());
            net.set_fault_plan(Some(plan));
            let mut received: Vec<u64> = vec![0; g.n()];
            net.run_state(6, &mut received, |me, _v, inbox, out| {
                *me += inbox.iter().flatten().count() as u64;
                for p in 0..out.ports() {
                    out.send(p, [1, 2]);
                }
            });
            (received, net.stats())
        };
        let seeds = [0xFA07_u64, 0xFA08, 0xFA09];
        prop_assert_eq!(
            batch(ExecConfig::with_threads(threads), &seeds, run),
            batch(ExecConfig::sequential(), &seeds, run)
        );
    }
}
