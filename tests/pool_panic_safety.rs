//! Panic safety of the round engine's one sequential body, end to end.
//!
//! A panic raised mid-round — a user closure blowing up, a CONGEST
//! capacity violation — must:
//!
//!  1. reach the caller with its **original payload**, and
//!  2. leave the owning [`Network`] usable: a subsequent run must produce
//!     bit-identical results to a fresh one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use locongest::congest::{Model, Network};
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

/// Reference flood used to prove a network still works after a panic:
/// who was informed, and the statistics of the flood alone.
fn flood_on(net: &mut Network) -> (Vec<bool>, locongest::congest::RoundStats) {
    let n = net.graph().n();
    let mut informed = vec![false; n];
    informed[0] = true;
    let start = net.stats();
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
    (informed, net.stats().since(&start))
}

/// A user closure panicking at one vertex in a later round of a
/// `run_state` run surfaces with its original payload, and the same
/// `Network` then completes a full flood identical to a fresh network's.
#[test]
fn run_state_panic_propagates_and_network_survives() {
    quiet_panics();
    let g = gen::grid(6, 6);
    let mut net = Network::new(&g, Model::congest());
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
    .expect("the closure panic must propagate out of run_state");
    assert!(msg.contains("vertex 17 exploded in its 4th round"), "payload lost, got {msg:?}");

    assert_eq!(net.stats().rounds, 3, "the three completed rounds stay charged");
    let mut fresh = Network::new(&g, Model::congest());
    let (informed, after) = flood_on(&mut net);
    assert!(informed.iter().all(|&b| b), "the flood after the panic reaches everyone");
    assert_eq!((informed, after), flood_on(&mut fresh));
}

/// Panics raised in either phase of an `exchange_rounds` run — send
/// (outbox composition) and recv (inbox consumption) — both surface with
/// their payloads, and the network survives both.
#[test]
fn exchange_rounds_panics_in_both_phases_propagate() {
    quiet_panics();
    let g = gen::grid(6, 6);
    for (phase, expect) in [("send", "send phase blew up"), ("recv", "recv phase blew up")] {
        let mut net = Network::new(&g, Model::congest());
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
        assert!(informed.iter().all(|&b| b), "{phase}: network unusable after the panic");
    }
}

/// A CONGEST capacity violation — the simulator's own panic, its message
/// built at run time — raised inside a `run_state` closure keeps its
/// diagnostic message, and the network survives it.
#[test]
fn congest_violation_inside_pool_keeps_its_message() {
    quiet_panics();
    let g = gen::grid(5, 5);
    let mut net = Network::new(&g, Model::congest());
    let msg = panic_message(AssertUnwindSafe(|| {
        let mut rounds_seen = vec![0usize; g.n()];
        net.run_state(4, &mut rounds_seen, |me, v, _inbox, out| {
            *me += 1;
            // 3 words on one edge in one round: over this model's
            // per-edge budget
            let words: &[u64] = if *me == 3 && v == 12 { &[1, 2, 3] } else { &[1] };
            out.send(0, words.to_vec());
        });
    }))
    .expect("capacity violation must propagate");
    assert!(msg.contains("CONGEST violation at vertex 12"), "expected the CONGEST violation message, got {msg:?}");
    let (informed, _) = flood_on(&mut net);
    assert!(informed.iter().all(|&b| b), "network unusable after the violation");
}

/// Two failed `run_state` calls back to back on one `Network`, then a
/// clean flood: it runs as on a network no panic ever touched.
#[test]
fn repeated_poisoning_is_survivable() {
    quiet_panics();
    let g = gen::grid(6, 6);
    let mut net = Network::new(&g, Model::congest());
    for attempt in 0..2 {
        let msg = panic_message(AssertUnwindSafe(|| {
            let mut state = vec![0u64; g.n()];
            net.run_state(5, &mut state, |me, v, _inbox, out| {
                *me += 1;
                assert!(!(*me == 2 + attempt && v == 20), "attempt blew up");
                for p in 0..out.ports() {
                    out.send(p, [*me]);
                }
            });
        }))
        .expect("panic must propagate on every attempt");
        assert!(msg.contains("attempt blew up"), "attempt {attempt}: {msg:?}");
    }
    let mut fresh = Network::new(&g, Model::congest());
    assert_eq!(flood_on(&mut net), flood_on(&mut fresh));
}

/// Every form runs the one sequential round body, which delivers through
/// the network's own bins and ring. A closure panicking mid-round
/// surfaces with its payload and takes the bins (and the failed round's
/// in-flight messages) with it; the same `Network` must then accept an
/// exchange round — its no-messages-in-flight precondition holds on the
/// survivor — and run the reference flood bit-identically to a fresh
/// network.
#[test]
fn sequential_panic_mid_round_leaves_a_usable_network() {
    quiet_panics();
    type Form = fn(&mut Network);
    let flood_out = |out: &mut locongest::congest::Outbox, word: u64| {
        for p in 0..out.ports() {
            out.send(p, [word]);
        }
    };
    // (name, the form, whether it tolerates step-round messages in flight)
    let forms: [(&str, Form, bool); 4] = [
        ("step_state", |net| {
            net.step_state(&mut vec![(); net.graph().n()], |_, v, _inbox, out| {
                assert!(v != 17, "step_state blew up at vertex 17");
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
        ("exchange_rounds recv", |net| {
            // the recv phase dies with the round's messages in its bins
            net.exchange_rounds(
                1,
                &mut vec![(); net.graph().n()],
                |_, _, v, out| out.send(0, [v as u64]),
                |_, _, v, _inbox| assert!(v != 17, "exchange_rounds recv blew up at vertex 17"),
                |_| false,
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
        let mut net = Network::new(&g, Model::congest());
        if in_flight {
            // messages in flight when the failed round starts: it drops them
            net.step_state(&mut vec![(); g.n()], |_, _, _, out| flood_out(out, 9));
        }
        let msg = panic_message(AssertUnwindSafe(|| form(&mut net)))
            .unwrap_or_else(|| panic!("{name}: the closure panic must propagate"));
        assert!(msg.contains(&format!("{name} blew up at vertex 17")), "{name}: payload lost, got {msg:?}");

        let mut fresh = Network::new(&g, Model::congest());
        let mut runs = Vec::new();
        for net in [&mut net, &mut fresh] {
            let mut heard = vec![0u64; g.n()];
            net.exchange_rounds(
                1,
                &mut heard,
                |_, _, v, out| flood_out(out, v as u64),
                |heard, _, _, inbox| *heard = inbox.iter().flatten().map(|m| m[0]).sum(),
                |_| false,
            );
            runs.push((heard, flood_on(net)));
        }
        assert!(runs[1].1 .0.iter().all(|&b| b), "the reference flood reaches everyone");
        assert_eq!(runs[0], runs[1], "{name}: the survivor diverged from a fresh network");
    }
}

/// A step round that panics midway while the previous round's messages
/// still sit in the bins of several destination blocks (runs of 2¹⁶
/// inbox slots), with this round's sends binned in others: the bins go
/// with the panic, and the survivor runs an exchange round and then step
/// rounds exactly as a fresh network does.
#[test]
fn step_panic_with_messages_in_several_blocks_leaves_a_usable_network() {
    quiet_panics();
    let g = gen::grid(200, 200);
    assert!(g.slots() > 2 << 16, "three blocks or more: {} slots", g.slots());
    let flood = |out: &mut locongest::congest::Outbox, word: u64| {
        for p in 0..out.ports() {
            out.send(p, [word]);
        }
    };
    let mut net = Network::new(&g, Model::congest());
    net.step_state(&mut vec![(); g.n()], |_, v, _, out| flood(out, v as u64));
    // vertex n/2's row lies in block 1: block 2's messages are undelivered
    let middle = g.n() / 2;
    let msg = panic_message(AssertUnwindSafe(|| {
        net.step_state(&mut vec![(); g.n()], |_, v, inbox, out| {
            assert!(inbox.iter().all(Option::is_some), "vertex {v} heard every neighbour");
            assert!(v != middle, "the step round blew up at vertex {middle}");
            flood(out, 1);
        });
    }))
    .expect("the closure panic must propagate out of step_state");
    assert!(msg.contains(&format!("blew up at vertex {middle}")), "payload lost, got {msg:?}");

    let mut fresh = Network::new(&g, Model::congest());
    let mut runs = Vec::new();
    for net in [&mut net, &mut fresh] {
        let start = net.stats();
        let mut heard = vec![0u64; g.n()];
        net.exchange_rounds(
            1,
            &mut heard,
            |_, _, v, out| flood(out, v as u64),
            |heard, _, _, inbox| *heard = inbox.iter().flatten().map(|m| m[0]).sum(),
            |_| false,
        );
        net.run_state(3, &mut heard, |heard, v, inbox, out| {
            *heard = heard.wrapping_mul(31).wrapping_add(inbox.iter().flatten().map(|m| m[0]).sum());
            flood(out, *heard ^ v as u64);
        });
        runs.push((heard, net.stats().since(&start)));
    }
    assert!(runs[1].0.iter().all(|&h| h != 0), "every vertex heard the rounds");
    assert_eq!(runs[0], runs[1], "the survivor diverged from a fresh network");
}
