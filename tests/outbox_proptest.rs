//! Property tests: `Outbox` misuse — CONGEST capacity violations and
//! double-sends — must fail the same way on every run: a panic naming the
//! offending vertex, surfacing cleanly on the caller's thread. In-budget
//! traffic never panics and is charged exactly what it sent.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use proptest::prelude::*;

use locongest::congest::{Model, Network, RoundStats};
use locongest::graph::gen;

/// Silences the default panic hook (these tests *provoke* panics by the
/// hundred; the backtrace spam would drown real failures). The libtest
/// harness reports failing payloads itself, so nothing is lost.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An oversized send at an arbitrary vertex panics with a
    /// CONGEST-violation message naming it, the same on every run.
    #[test]
    fn oversize_panics_identically(
        w in 2usize..7,
        h in 2usize..7,
        cap in 1usize..4,
        extra in 1usize..4,
        bad_seed in 0usize..1000,
    ) {
        quiet_panics();
        let g = gen::grid(w, h);
        let bad = bad_seed % g.n();
        let model = Model::Congest { words_per_edge: cap };
        let run = || {
            panic_message(AssertUnwindSafe(|| {
                let mut net = Network::new(&g, model);
                net.step_state(&mut vec![(); g.n()], |_, v, _inbox, out| {
                    if v == bad {
                        out.send(0, vec![7; cap + extra]);
                    } else {
                        out.send(0, vec![7; cap]);
                    }
                });
            }))
        };
        let first = run();
        let msg = first.as_deref().unwrap_or("");
        prop_assert!(msg.contains("CONGEST violation"), "unexpected: {msg}");
        prop_assert!(msg.contains(&format!("vertex {bad}")), "unexpected: {msg}");
        prop_assert_eq!(run(), first);
    }

    /// A double-send panics with a message naming the vertex, the same on
    /// every run.
    #[test]
    fn double_send_panics_identically(
        n in 3usize..40,
        bad_seed in 0usize..1000,
    ) {
        quiet_panics();
        let g = gen::cycle(n);
        let bad = bad_seed % n;
        let run = || {
            panic_message(AssertUnwindSafe(|| {
                let mut net = Network::new(&g, Model::congest());
                net.step_state(&mut vec![(); g.n()], |_, v, _inbox, out| {
                    out.send(0, [1]);
                    if v == bad {
                        out.send(0, [2]);
                    }
                });
            }))
        };
        let first = run();
        let msg = first.as_deref().unwrap_or("");
        prop_assert!(msg.contains("sent twice"), "unexpected: {msg}");
        prop_assert!(msg.contains(&format!("vertex {bad}")), "unexpected: {msg}");
        prop_assert_eq!(run(), first);
    }

    /// In-budget traffic never panics, and the stats charge exactly what
    /// was sent: every vertex fills every port with `cap` words per round.
    #[test]
    fn in_budget_sends_agree(
        w in 2usize..7,
        h in 2usize..7,
        cap in 1usize..4,
        rounds in 1usize..4,
    ) {
        quiet_panics();
        let g = gen::grid(w, h);
        let model = Model::Congest { words_per_edge: cap };
        let mut net = Network::new(&g, model);
        for _ in 0..rounds {
            net.step_state(&mut vec![(); g.n()], |_, v, _inbox, out| {
                for p in 0..out.ports() {
                    out.send(p, vec![v as u64; cap]);
                }
            });
        }
        let messages = (rounds * 2 * g.m()) as u64;
        let want = RoundStats {
            rounds: rounds as u64,
            messages,
            words: messages * cap as u64,
            max_words_edge_round: cap,
            ..RoundStats::default()
        };
        prop_assert_eq!(net.stats(), want);
    }
}
