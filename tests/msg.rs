//! `Msg` semantics lock-down: the small-value message type must be an
//! *invisible* replacement for the old `Vec<u64>` messages.
//!
//! Three angles:
//! 1. property tests of construction across the inline↔spilled boundary
//!    (`INLINE_WORDS` = 2);
//! 2. word accounting: a run whose messages straddle the boundary produces
//!    the same `RoundStats` whether call sites send arrays, slices, or
//!    `Vec<u64>` (the old API), because accounting is by *content length*,
//!    never by representation;
//! 3. bit-identity: the checked-in `tests/golden` fixtures — blessed
//!    before the `Msg` change and deliberately NOT re-blessed — are
//!    reproduced exactly, the flood with the old `Vec<u64>` messages and
//!    the framework at 1, 2, and 4 threads.

mod common;

use proptest::prelude::*;

use common::{check_stats_golden, flood_round, flood_stats, framework_stats, stats_golden_graphs};
use locongest::congest::{Inbox, Model, Msg, Network, Outbox, RoundStats, INLINE_WORDS};
use locongest::graph::{gen, Graph};

// --- 1. representation round-trips across the boundary -------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every constructor normalizes: content survives, and the
    /// representation is inline exactly when the payload fits.
    #[test]
    fn construction_round_trips(words in proptest::collection::vec(any::<u64>(), 0..8)) {
        for msg in [
            Msg::from_slice(&words),
            Msg::from(words.as_slice()),
            Msg::from(words.clone()),
            words.iter().copied().collect::<Msg>(),
        ] {
            prop_assert_eq!(msg.as_slice(), words.as_slice());
            prop_assert_eq!(msg.len(), words.len());
            prop_assert_eq!(msg.is_inline(), words.len() <= INLINE_WORDS, "len {}", words.len());
            prop_assert_eq!(&msg, &words); // content equality vs Vec<u64>
            prop_assert_eq!(msg.to_vec(), words.clone());
        }
    }

    /// Equality and hashing are content-based: a message built from an
    /// owned `Vec` equals the one built from a borrowed slice and hashes
    /// alike.
    #[test]
    fn representations_are_indistinguishable(words in proptest::collection::vec(any::<u64>(), 0..=INLINE_WORDS)) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let via_vec = Msg::from(words.clone());
        let direct = Msg::from_slice(&words);
        prop_assert_eq!(&via_vec, &direct);
        let h = |m: &Msg| { let mut s = DefaultHasher::new(); m.hash(&mut s); s.finish() };
        prop_assert_eq!(h(&via_vec), h(&direct));
    }
}

// --- 2. word accounting is representation-blind --------------------------

/// One LOCAL-mode round where vertex v sends a (v mod 5)-word message on
/// every port — sizes 0..=4 straddle the inline boundary on both sides.
/// The sender is parameterized by *how* the payload is expressed.
fn straddle_stats(g: &Graph, send: impl Fn(usize, usize, &mut locongest::congest::Outbox)) -> RoundStats {
    let mut net = Network::new(g, Model::Local);
    net.run_state(3, &mut vec![(); g.n()], |_, v, _inbox, out| {
        let words = v % 5;
        if words > 0 {
            send(v, words, out); // the callback covers every port
        }
    });
    net.stats()
}

#[test]
fn word_accounting_equals_old_vec_semantics() {
    let g = gen::grid(7, 5);
    // the old API: heap-allocated Vec<u64> for every message
    let via_vec = straddle_stats(&g, |v, words, out| {
        for p in 0..out.ports() {
            out.send(p, vec![v as u64; words]);
        }
    });
    // the new hot path: explicit Msg construction from a slice
    let via_msg = straddle_stats(&g, |v, words, out| {
        let payload = vec![v as u64; words];
        for p in 0..out.ports() {
            out.send(p, Msg::from_slice(&payload));
        }
    });
    assert_eq!(via_vec, via_msg, "accounting must be representation-blind");
    // sanity: the workload really does straddle the boundary
    assert!(via_vec.max_words_edge_round > INLINE_WORDS, "spilled sizes must occur");
    assert!(via_vec.words > 0 && via_vec.messages > 0);
    // words = sum of content lengths, exactly as with Vec<u64> messages:
    // per round, each vertex with v%5 != 0 sends (v%5) words per port
    let per_round: u64 = (0..g.n()).map(|v| (v % 5) as u64 * g.degree(v) as u64).sum();
    assert_eq!(via_vec.words, 3 * per_round);
}

// --- 3. golden fixtures reproduce, unchanged ------------------------------

/// [`flood_round`] as the old API spelled it: every message a `Vec<u64>`.
fn vec_flood_round(me: &mut bool, _v: usize, inbox: &Inbox, out: &mut Outbox) {
    if inbox.iter().any(Option::is_some) {
        *me = true;
    }
    if *me {
        for p in 0..out.ports() {
            out.send(p, vec![1u64]);
        }
    }
}

/// The pre-`Msg` golden fixtures are reproduced — the flood sent as old
/// `Vec<u64>` messages, the framework at every thread count it is handed:
/// the message representation and the pooled round buffers changed, the
/// observable execution did not.
#[test]
fn golden_fixtures_bit_identical_at_1_2_4_threads() {
    for (name, g) in &stats_golden_graphs() {
        let flood = flood_stats(g, None, false, vec_flood_round);
        assert_eq!(flood, flood_stats(g, None, false, flood_round), "{name} flood: Vec and array messages");
        check_stats_golden(&format!("{name}_flood"), &flood);
        let one = framework_stats(g, 1, None);
        for threads in [2, 4] {
            assert_eq!(one, framework_stats(g, threads, None), "{name} framework at {threads} threads");
        }
        check_stats_golden(&format!("{name}_framework"), &one);
    }
}
