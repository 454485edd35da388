//! Panic safety of the persistent worker pool, end to end through the
//! `Network` batch engines.
//!
//! A panic raised *inside a pooled worker* mid-batch — a user closure
//! blowing up, a CONGEST capacity violation — must:
//!
//!  1. reach the caller's thread with its **original payload** (never the
//!     generic "a scoped thread panicked" proxy, never a hang while
//!     sibling workers stay parked), and
//!  2. leave the pool fully torn down and the owning [`Network`] usable:
//!     a subsequent batch on the *same* network must run and produce
//!     bit-identical results to a fresh network.
//!
//! Every config here forces `work_threshold = 1` so the pool actually
//! engages on these small graphs (see `tests/executor_scaling.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use locongest::congest::{stats, ExecConfig, Model, Network};
use locongest::graph::gen;

/// Silences the default panic hook; these tests provoke panics on purpose.
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

/// Runs `f` and returns its panic message, if it panicked.
fn panic_message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> Option<String> {
    catch_unwind(f).err().map(|payload| {
        if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "<non-string panic payload>".to_string()
        }
    })
}

fn forced(threads: usize) -> ExecConfig {
    ExecConfig::with_threads(threads).with_work_threshold(1)
}

/// Reference flood used to prove a network still works after poisoning.
fn flood_on(net: &mut Network) -> (Vec<bool>, locongest::congest::RoundStats) {
    let n = net.graph().n();
    let mut informed = vec![false; n];
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
    (informed, net.stats())
}

/// A user closure panicking at one vertex in a later round of a pooled
/// `run_state` batch surfaces with its original payload, and the same
/// `Network` then completes a full flood identical to a fresh network's.
#[test]
fn run_state_panic_propagates_and_network_survives() {
    quiet_panics();
    for threads in [2, 3, 5, 7] {
        let g = gen::grid(6, 6);
        let mut net = Network::with_exec(&g, Model::congest(), forced(threads));
        let msg = panic_message(AssertUnwindSafe(|| {
            let mut rounds_seen = vec![0usize; g.n()];
            net.run_state(10, &mut rounds_seen, |me, v, _inbox, out| {
                *me += 1;
                assert!(!(*me == 4 && v == 17), "vertex 17 exploded in its 4th round");
                for p in 0..out.ports() {
                    out.send(p, [v as u64]);
                }
            });
        }))
        .expect("worker panic must propagate out of run_state");
        assert!(
            msg.contains("vertex 17 exploded in its 4th round"),
            "{threads} threads: payload lost, got {msg:?}"
        );

        // the poisoned pool is gone; the network must still be fully usable
        let (informed, after) = flood_on(&mut net);
        assert!(informed.iter().all(|&b| b), "{threads} threads: post-poison flood broke");
        // and deterministic: the post-poison batch matches a fresh network's
        // *delta* (stats accumulate, so compare against the pre-panic count)
        let mut fresh = Network::with_exec(&g, Model::congest(), forced(threads));
        let (informed_fresh, fresh_stats) = flood_on(&mut fresh);
        assert_eq!(informed, informed_fresh);
        assert_eq!(
            after.messages - (after.messages - fresh_stats.messages),
            fresh_stats.messages
        );
    }
}

/// A CONGEST capacity violation (the simulator's own panic, raised inside
/// a pooled worker during the send phase) keeps its diagnostic message.
#[test]
fn congest_violation_inside_pool_keeps_its_message() {
    quiet_panics();
    let g = gen::grid(5, 5);
    for threads in [2, 3, 7] {
        let mut net = Network::with_exec(&g, Model::congest(), forced(threads));
        let msg = panic_message(AssertUnwindSafe(|| {
            let mut state = vec![(); g.n()];
            net.run_state(3, &mut state, |_me, v, _inbox, out| {
                if v == 12 {
                    // 3 words on one edge in one round: over the B = O(log n)
                    // budget for this model configuration
                    out.send(0, [1, 2, 3]);
                } else {
                    out.send(0, [1]);
                }
            });
        }))
        .expect("capacity violation must propagate");
        assert!(
            msg.contains("CONGEST"),
            "{threads} threads: expected a CONGEST violation message, got {msg:?}"
        );
    }
}

/// Panics raised in either phase of a pooled `exchange_rounds` batch —
/// send (outbox composition) and recv (inbox consumption) — both surface
/// with their payloads, and the network survives both.
#[test]
fn exchange_rounds_panics_in_both_phases_propagate() {
    quiet_panics();
    let g = gen::grid(6, 6);
    for (phase, expect) in [("send", "send phase blew up"), ("recv", "recv phase blew up")] {
        let mut net = Network::with_exec(&g, Model::congest(), forced(3));
        let msg = panic_message(AssertUnwindSafe(|| {
            let mut state = vec![0u64; g.n()];
            net.exchange_rounds(
                8,
                &mut state,
                |me, round, v, out| {
                    assert!(!(phase == "send" && round == 2 && v == 20), "send phase blew up");
                    *me += 1;
                    for p in 0..out.ports() {
                        out.send(p, [*me]);
                    }
                },
                |me, round, v, inbox| {
                    assert!(!(phase == "recv" && round == 2 && v == 20), "recv phase blew up");
                    *me += inbox.iter().flatten().count() as u64;
                },
                |_| false,
            );
        }))
        .expect("exchange_rounds panic must propagate");
        assert!(msg.contains(expect), "{phase}: payload lost, got {msg:?}");

        let (informed, _) = flood_on(&mut net);
        assert!(informed.iter().all(|&b| b), "{phase}: network unusable after poisoning");
    }
}

/// Poisoning is prompt even when the panicking chunk is the *last* one
/// dispatched and every other worker is already parked waiting for the
/// next round — the regression shape for a collect-order deadlock.
#[test]
fn last_chunk_panic_does_not_deadlock_parked_siblings() {
    quiet_panics();
    let g = gen::path(16);
    let mut net = Network::with_exec(&g, Model::congest(), forced(16));
    let msg = panic_message(AssertUnwindSafe(|| {
        let mut state = vec![(); g.n()];
        net.run_state(5, &mut state, |_me, v, _inbox, _out| {
            assert!(v != 15, "tail vertex gave up");
        });
    }))
    .expect("tail-chunk panic must propagate");
    assert!(msg.contains("tail vertex gave up"), "payload lost: {msg:?}");
    let (informed, _) = flood_on(&mut net);
    assert!(informed.iter().all(|&b| b));
}

/// Two poisonings back to back: the network recovers from each one, so
/// the teardown path itself leaves no residue (stale channels, dangling
/// spare grids, a half-chunked `pending`).
#[test]
fn repeated_poisoning_is_survivable() {
    quiet_panics();
    let g = gen::grid(6, 6);
    let mut net = Network::with_exec(&g, Model::congest(), forced(5));
    for attempt in 0..2 {
        let msg = panic_message(AssertUnwindSafe(|| {
            let mut state = vec![0u32; g.n()];
            net.run_state(6, &mut state, |me, v, _inbox, _out| {
                *me += 1;
                assert!(!(*me == 3 && v == 7), "attempt blew up");
            });
        }))
        .expect("panic must propagate on every attempt");
        assert!(msg.contains("attempt blew up"), "attempt {attempt}: {msg:?}");
    }
    let (informed, stats_after) = flood_on(&mut net);
    assert!(informed.iter().all(|&b| b));
    // the two aborted batches each accounted their completed rounds only;
    // the final flood's delta matches a fresh run exactly
    let mut fresh = Network::with_exec(&g, Model::congest(), forced(5));
    let (_, fresh_stats) = flood_on(&mut fresh);
    assert!(stats_after.messages >= fresh_stats.messages);
    stats::compare(&fresh_stats, &fresh.stats()).unwrap();
}

/// The one-thread case: below the work threshold every form runs the
/// sequential round body, which works on the network's own inbox grid in
/// place. A closure panicking mid-round surfaces with its payload and
/// takes the grids (and the failed round's in-flight messages) with it;
/// the same `Network` must then (b) save a snapshot that resumes, (c)
/// accept an `exchange` — its empty-inbox precondition holds on both the
/// survivor and the resumed copy — and (a) run the reference flood
/// bit-identically to a fresh network.
#[test]
fn sequential_panic_mid_round_leaves_a_usable_network() {
    quiet_panics();
    type Form = fn(&mut Network);
    let flood_out = |out: &mut locongest::congest::Outbox, word: u64| {
        for p in 0..out.ports() {
            out.send(p, [word]);
        }
    };
    // (name, the form, whether it tolerates `step` messages in flight)
    let forms: [(&str, Form, bool); 4] = [
        ("step", |net| {
            net.step(|v, _inbox, out| {
                assert!(v != 17, "step blew up at vertex 17");
                out.send(0, [v as u64]);
            });
        }, true),
        ("run_state", |net| {
            let mut rounds_seen = vec![0u32; net.graph().n()];
            net.run_state(5, &mut rounds_seen, |me, v, _inbox, out| {
                *me += 1;
                assert!(!(*me == 3 && v == 17), "run_state blew up at vertex 17");
                out.send(0, [v as u64]);
            });
        }, true),
        ("exchange", |net| {
            // the recv phase dies with a full grid of delivered messages
            net.exchange(
                |v, out| out.send(0, [v as u64]),
                |v, _inbox| assert!(v != 17, "exchange blew up at vertex 17"),
            );
        }, false),
        ("exchange_rounds", |net| {
            let mut state = vec![0u64; net.graph().n()];
            net.exchange_rounds(
                6,
                &mut state,
                |me, round, v, out| {
                    assert!(!(round == 2 && v == 17), "exchange_rounds blew up at vertex 17");
                    out.send(0, [*me]);
                },
                |me, _round, _v, inbox| *me += inbox.iter().flatten().count() as u64,
                |_| false,
            );
        }, false),
    ];
    let g = gen::grid(6, 6);
    for (name, form, in_flight) in forms {
        let mut net = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(1));
        if in_flight {
            // messages in flight when the failed round starts: it drops them
            net.step(|_, _, out| flood_out(out, 9));
        }
        let msg = panic_message(AssertUnwindSafe(|| form(&mut net)))
            .unwrap_or_else(|| panic!("{name}: the closure panic must propagate"));
        assert!(msg.contains(&format!("{name} blew up at vertex 17")), "{name}: payload lost, got {msg:?}");

        let mut bytes = Vec::new();
        net.save_snapshot(&mut bytes).unwrap_or_else(|e| panic!("{name}: snapshot after panic: {e}"));
        let mut resumed = Network::resume_snapshot(&g, bytes.as_slice())
            .unwrap_or_else(|e| panic!("{name}: resume after panic: {e}"));
        assert_eq!(resumed.stats(), net.stats(), "{name}");

        let mut fresh = Network::with_exec(&g, Model::congest(), ExecConfig::with_threads(1));
        let mut runs = Vec::new();
        for net in [&mut net, &mut resumed, &mut fresh] {
            let mut heard = vec![0u64; g.n()];
            net.exchange(
                |v, out| flood_out(out, v as u64),
                |v, inbox| heard[v] = inbox.iter().flatten().map(|m| m[0]).sum(),
            );
            net.reset_stats();
            runs.push((heard, flood_on(net)));
        }
        assert!(runs[2].1 .0.iter().all(|&b| b), "the reference flood reaches everyone");
        assert_eq!(runs[0], runs[2], "{name}: the survivor diverged from a fresh network");
        assert_eq!(runs[1], runs[2], "{name}: the resumed copy diverged from a fresh network");
    }
}
